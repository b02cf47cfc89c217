//! User-defined schemas.
//!
//! "GridVine supports the sharing of user-defined schemas to structure
//! the data shared at the mediation layer. For the sake of this
//! demonstration, schemas are composed of sets of attributes that are
//! used as predicates in the triples" (§2.2). A schema named `EMBL` with
//! attribute `Organism` yields the predicate URI `EMBL#Organism`.

use gridvine_rdf::Uri;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifies a schema by its (globally unique) name.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SchemaId(String);

impl SchemaId {
    pub fn new(name: impl Into<String>) -> SchemaId {
        SchemaId(name.into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for SchemaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for SchemaId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<&str> for SchemaId {
    fn from(s: &str) -> SchemaId {
        SchemaId::new(s)
    }
}

/// A schema: a named set of attributes.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Schema {
    id: SchemaId,
    attributes: Vec<String>,
}

impl Schema {
    /// Create a schema; attribute names are deduplicated, order
    /// preserved.
    pub fn new(
        id: impl Into<SchemaId>,
        attributes: impl IntoIterator<Item = impl Into<String>>,
    ) -> Schema {
        let mut seen = Vec::new();
        for a in attributes {
            let a = a.into();
            if !seen.contains(&a) {
                seen.push(a);
            }
        }
        Schema {
            id: id.into(),
            attributes: seen,
        }
    }

    pub fn id(&self) -> &SchemaId {
        &self.id
    }

    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    pub fn len(&self) -> usize {
        self.attributes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.attributes.is_empty()
    }

    fn has_attribute(&self, attr: &str) -> bool {
        self.attributes.iter().any(|a| a == attr)
    }

    /// The predicate URI for one of this schema's attributes:
    /// `<SchemaName>#<attribute>`.
    pub fn predicate(&self, attr: &str) -> Uri {
        debug_assert!(self.has_attribute(attr), "unknown attribute {attr}");
        Uri::new(format!("{}#{attr}", self.id))
    }

    /// All predicate URIs of this schema.
    pub fn predicates(&self) -> impl Iterator<Item = Uri> + '_ {
        self.attributes
            .iter()
            .map(move |a| Uri::new(format!("{}#{a}", self.id)))
    }

    /// Split a predicate URI into (schema id, attribute) if it follows
    /// the `<schema>#<attr>` convention.
    pub fn split_predicate(uri: &Uri) -> Option<(SchemaId, &str)> {
        Schema::split_predicate_str(uri.as_str())
    }

    /// [`Schema::split_predicate`] over a raw lexical (for borrowed
    /// [`gridvine_rdf::TripleRef`] views, which hand out `&str`).
    pub fn split_predicate_str(s: &str) -> Option<(SchemaId, &str)> {
        let (schema, attr) = s.split_once('#')?;
        if schema.is_empty() || attr.is_empty() {
            return None;
        }
        Some((SchemaId::new(schema), &s[schema.len() + 1..]))
    }
}

impl fmt::Debug for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Schema({}: {})", self.id, self.attributes.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attributes_deduplicate_preserving_order() {
        let s = Schema::new("EMBL", ["Organism", "Length", "Organism"]);
        assert_eq!(s.attributes(), &["Organism", "Length"]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn predicate_uri_form() {
        let s = Schema::new("EMBL", ["Organism"]);
        assert_eq!(s.predicate("Organism").as_str(), "EMBL#Organism");
    }

    #[test]
    fn predicates_enumerate_all() {
        let s = Schema::new("EMP", ["SystematicName", "Sequence"]);
        let preds: Vec<String> = s.predicates().map(|u| u.as_str().to_string()).collect();
        assert_eq!(preds, vec!["EMP#SystematicName", "EMP#Sequence"]);
    }

    #[test]
    fn split_predicate_round_trips() {
        let s = Schema::new("SwissProt", ["Entry"]);
        let uri = s.predicate("Entry");
        let (id, attr) = Schema::split_predicate(&uri).expect("splits");
        assert_eq!(id, SchemaId::new("SwissProt"));
        assert_eq!(attr, "Entry");
    }

    #[test]
    fn split_predicate_rejects_malformed() {
        assert!(Schema::split_predicate(&Uri::new("nohash")).is_none());
        assert!(Schema::split_predicate(&Uri::new("#attr")).is_none());
        assert!(Schema::split_predicate(&Uri::new("schema#")).is_none());
    }

    #[test]
    fn has_attribute() {
        let s = Schema::new("A", ["x"]);
        assert!(s.has_attribute("x"));
        assert!(!s.has_attribute("y"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// predicate() and split_predicate() are inverse.
        #[test]
        fn predicate_split_inverse(name in "[A-Za-z][A-Za-z0-9]{0,10}", attr in "[A-Za-z][A-Za-z0-9_]{0,12}") {
            let s = Schema::new(name.as_str(), [attr.as_str()]);
            let uri = s.predicate(&attr);
            let (id, a) = Schema::split_predicate(&uri).expect("round trip");
            prop_assert_eq!(id.as_str(), name.as_str());
            prop_assert_eq!(a, attr.as_str());
        }
    }
}
