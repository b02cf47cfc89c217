//! Pairwise GAV schema mappings.
//!
//! "GridVine allows for the definition of both equivalence and inclusion
//! (subsumption) GAV mappings. For the sake of this demonstration,
//! mappings relate semantically similar predicates defined in different
//! schemas. Queries are then reformulated by replacing the predicates
//! with the definition of their equivalent or subsumed predicates (view
//! unfolding)" (§3).
//!
//! A [`Mapping`] is directed from a *source* schema to a *target* schema
//! and carries a set of attribute correspondences. Equivalence mappings
//! may also be applied in reverse. Mappings record their provenance
//! (manual mappings are trusted by the Bayesian analysis, §3.2) and a
//! lifecycle status (active / deprecated).

use crate::schema::SchemaId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Equivalence (`≡`, bidirectional) or subsumption (`⊑`, source is
/// included in target: queries over the target can be forwarded to the
/// source side).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MappingKind {
    Equivalence,
    Subsumption,
}

/// Who created the mapping. Manual mappings "are always considered as
/// correct" by the quality analysis (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Provenance {
    Manual,
    Automatic,
}

/// Lifecycle: deprecated mappings are "ignored, both for the
/// reformulation of the queries and for the connectivity analysis" (§3.2).
/// An automatic mapping the periodic quality assessment condemns is
/// deprecated, and deprecation is permanent: a pair it disconnects is
/// healed by a new mapping, not by reviving the old one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MappingStatus {
    Active,
    Deprecated,
}

/// A single attribute correspondence `source.attr ↦ target.attr`.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Correspondence {
    pub source_attr: String,
    pub target_attr: String,
}

impl Correspondence {
    pub fn new(source_attr: impl Into<String>, target_attr: impl Into<String>) -> Correspondence {
        Correspondence {
            source_attr: source_attr.into(),
            target_attr: target_attr.into(),
        }
    }
}

/// Unique mapping identifier (dense, assigned by the registry).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MappingId(pub u32);

impl fmt::Debug for MappingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl fmt::Display for MappingId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A pairwise schema mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    pub id: MappingId,
    pub source: SchemaId,
    pub target: SchemaId,
    pub kind: MappingKind,
    pub provenance: Provenance,
    pub status: MappingStatus,
    pub correspondences: Vec<Correspondence>,
    /// Posterior probability of correctness maintained by the Bayesian
    /// analysis; manual mappings stay at 1.0.
    pub quality: f64,
}

impl Mapping {
    /// Create an active mapping with quality 1.0 (manual) or the given
    /// initial belief (automatic).
    pub fn new(
        id: MappingId,
        source: impl Into<SchemaId>,
        target: impl Into<SchemaId>,
        kind: MappingKind,
        provenance: Provenance,
        correspondences: Vec<Correspondence>,
    ) -> Mapping {
        let quality = match provenance {
            Provenance::Manual => 1.0,
            Provenance::Automatic => 0.9,
        };
        Mapping {
            id,
            source: source.into(),
            target: target.into(),
            kind,
            provenance,
            status: MappingStatus::Active,
            correspondences,
            quality,
        }
    }

    pub fn is_active(&self) -> bool {
        self.status == MappingStatus::Active
    }

    /// Translate an attribute of the source schema to the target schema.
    fn map_forward(&self, source_attr: &str) -> Option<&str> {
        self.correspondences
            .iter()
            .find(|c| c.source_attr == source_attr)
            .map(|c| c.target_attr.as_str())
    }

    /// Translate backwards (target → source); only legal for
    /// equivalence mappings.
    fn map_backward(&self, target_attr: &str) -> Option<&str> {
        if self.kind != MappingKind::Equivalence {
            return None;
        }
        self.correspondences
            .iter()
            .find(|c| c.target_attr == target_attr)
            .map(|c| c.source_attr.as_str())
    }

    /// The directed edges this mapping contributes to the schema graph:
    /// always source→target; equivalence also target→source. (A
    /// bidirectional mapping is "inserted at the key spaces corresponding
    /// to both schemas", §3.)
    pub fn edges(&self) -> Vec<(SchemaId, SchemaId)> {
        match self.kind {
            MappingKind::Equivalence => vec![
                (self.source.clone(), self.target.clone()),
                (self.target.clone(), self.source.clone()),
            ],
            MappingKind::Subsumption => vec![(self.source.clone(), self.target.clone())],
        }
    }

    /// Directions in which the mapping can translate a query posed
    /// against `schema`: forward if `schema == source`, backward if
    /// equivalence and `schema == target`.
    pub fn applicable_from(&self, schema: &SchemaId) -> Option<Direction> {
        if !self.is_active() {
            return None;
        }
        if &self.source == schema {
            Some(Direction::Forward)
        } else if self.kind == MappingKind::Equivalence && &self.target == schema {
            Some(Direction::Backward)
        } else {
            None
        }
    }

    /// Apply in the given direction.
    pub fn translate(&self, attr: &str, dir: Direction) -> Option<&str> {
        match dir {
            Direction::Forward => self.map_forward(attr),
            Direction::Backward => self.map_backward(attr),
        }
    }

    /// The schema reached when applying in the given direction.
    pub fn destination(&self, dir: Direction) -> &SchemaId {
        match dir {
            Direction::Forward => &self.target,
            Direction::Backward => &self.source,
        }
    }
}

/// Application direction of a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    Forward,
    Backward,
}

impl Direction {
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Forward => Direction::Backward,
            Direction::Backward => Direction::Forward,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embl_emp() -> Mapping {
        Mapping::new(
            MappingId(0),
            "EMBL",
            "EMP",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("Organism", "SystematicName")],
        )
    }

    #[test]
    fn forward_and_backward_translation() {
        let m = embl_emp();
        assert_eq!(m.map_forward("Organism"), Some("SystematicName"));
        assert_eq!(m.map_backward("SystematicName"), Some("Organism"));
        assert_eq!(m.map_forward("Nope"), None);
    }

    #[test]
    fn subsumption_is_one_way() {
        let m = Mapping::new(
            MappingId(1),
            "EMBL",
            "EMP",
            MappingKind::Subsumption,
            Provenance::Manual,
            vec![Correspondence::new("Organism", "SystematicName")],
        );
        assert_eq!(m.map_forward("Organism"), Some("SystematicName"));
        assert_eq!(m.map_backward("SystematicName"), None);
        assert_eq!(m.edges().len(), 1);
    }

    #[test]
    fn equivalence_contributes_both_edges() {
        let edges = embl_emp().edges();
        assert_eq!(edges.len(), 2);
        assert!(edges.contains(&(SchemaId::new("EMBL"), SchemaId::new("EMP"))));
        assert!(edges.contains(&(SchemaId::new("EMP"), SchemaId::new("EMBL"))));
    }

    #[test]
    fn applicable_from_directions() {
        let m = embl_emp();
        assert_eq!(
            m.applicable_from(&SchemaId::new("EMBL")),
            Some(Direction::Forward)
        );
        assert_eq!(
            m.applicable_from(&SchemaId::new("EMP")),
            Some(Direction::Backward)
        );
        assert_eq!(m.applicable_from(&SchemaId::new("PDB")), None);
    }

    #[test]
    fn deprecated_mapping_is_inapplicable() {
        let mut m = embl_emp();
        m.status = MappingStatus::Deprecated;
        assert_eq!(m.applicable_from(&SchemaId::new("EMBL")), None);
        assert_eq!(m.applicable_from(&SchemaId::new("EMP")), None);
        assert!(!m.is_active());
    }

    #[test]
    fn provenance_sets_initial_quality() {
        assert_eq!(embl_emp().quality, 1.0);
        let auto = Mapping::new(
            MappingId(2),
            "A",
            "B",
            MappingKind::Equivalence,
            Provenance::Automatic,
            vec![],
        );
        assert!(auto.quality < 1.0);
    }

    #[test]
    fn translate_and_destination_follow_direction() {
        let m = embl_emp();
        assert_eq!(
            m.translate("Organism", Direction::Forward),
            Some("SystematicName")
        );
        assert_eq!(m.destination(Direction::Forward), &SchemaId::new("EMP"));
        assert_eq!(
            m.translate("SystematicName", Direction::Backward),
            Some("Organism")
        );
        assert_eq!(m.destination(Direction::Backward), &SchemaId::new("EMBL"));
        assert_eq!(Direction::Forward.reverse(), Direction::Backward);
    }
}
