//! RDF terms: URIs and literals.
//!
//! GridVine "stores data as ternary relations called triples. Triples are
//! a natural way to encode RDF information" (§2.2). A term is either a
//! resource URI or a literal value; subjects and predicates are always
//! URIs, objects may be either.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A resource identifier, e.g. `EMBL#Organism` or `embl:A78712`.
///
/// Backed by a reference-counted `Arc<str>`: cloning a term — and, more
/// importantly, materializing one out of a store's interned dictionary —
/// is a refcount bump, not a string copy.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Uri(Arc<str>);

impl Uri {
    pub fn new(s: impl Into<Arc<str>>) -> Uri {
        Uri(s.into())
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The shared backing buffer (zero-copy interning path).
    pub(crate) fn shared(&self) -> &Arc<str> {
        &self.0
    }

    /// The local name after the namespace separator.
    pub fn local_name(&self) -> &str {
        match self.0.rfind(['#', ':']) {
            Some(i) => &self.0[i + 1..],
            None => &self.0,
        }
    }
}

impl fmt::Display for Uri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl fmt::Debug for Uri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{}>", self.0)
    }
}

impl From<&str> for Uri {
    fn from(s: &str) -> Uri {
        Uri::new(s)
    }
}

impl From<String> for Uri {
    fn from(s: String) -> Uri {
        Uri(Arc::from(s))
    }
}

impl From<Arc<str>> for Uri {
    fn from(s: Arc<str>) -> Uri {
        Uri(s)
    }
}

/// A subject/predicate/object value: resource or literal.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Term {
    Uri(Uri),
    Literal(Arc<str>),
}

impl Term {
    pub fn uri(s: impl Into<Arc<str>>) -> Term {
        Term::Uri(Uri::new(s))
    }

    pub fn literal(s: impl Into<Arc<str>>) -> Term {
        Term::Literal(s.into())
    }

    pub fn as_uri(&self) -> Option<&Uri> {
        match self {
            Term::Uri(u) => Some(u),
            Term::Literal(_) => None,
        }
    }

    pub fn is_literal(&self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// The raw text of the term — URI string or literal content. This is
    /// what the overlay-layer `Hash()` is applied to.
    pub fn lexical(&self) -> &str {
        match self {
            Term::Uri(u) => u.as_str(),
            Term::Literal(s) => s,
        }
    }

    /// The shared backing buffer (zero-copy interning path).
    pub(crate) fn shared_lexical(&self) -> &Arc<str> {
        match self {
            Term::Uri(u) => u.shared(),
            Term::Literal(s) => s,
        }
    }

    /// SQL-`LIKE`-style match with `%` wildcards at either end, as used
    /// by the paper's `%Aspergillus%` example. Plain patterns compare
    /// exactly.
    pub fn matches_like(&self, pattern: &str) -> bool {
        like_match(self.lexical(), pattern)
    }
}

/// A `%`-wildcard pattern parsed once, so scans matching many values
/// classify the pattern a single time instead of per candidate — and so
/// the store can pick an access path from the shape (`Exact` hits the
/// hash index, `Prefix` becomes a sorted-index range scan).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LikePattern<'a> {
    /// `x` — exact equality.
    Exact(&'a str),
    /// `x%` — starts-with.
    Prefix(&'a str),
    /// `%x` — ends-with.
    Suffix(&'a str),
    /// `%x%` — contains.
    Contains(&'a str),
}

impl<'a> LikePattern<'a> {
    pub fn parse(pattern: &'a str) -> LikePattern<'a> {
        let starts = pattern.starts_with('%');
        let ends = pattern.len() > starts as usize && pattern.ends_with('%');
        let core = &pattern[starts as usize..pattern.len() - ends as usize];
        match (starts, ends) {
            (false, false) => LikePattern::Exact(core),
            (false, true) => LikePattern::Prefix(core),
            (true, false) => LikePattern::Suffix(core),
            (true, true) => LikePattern::Contains(core),
        }
    }

    /// The fixed text between the wildcards.
    pub fn core(&self) -> &'a str {
        match self {
            LikePattern::Exact(c)
            | LikePattern::Prefix(c)
            | LikePattern::Suffix(c)
            | LikePattern::Contains(c) => c,
        }
    }

    pub fn matches(&self, text: &str) -> bool {
        match self {
            LikePattern::Exact(c) => text == *c,
            LikePattern::Prefix(c) => text.starts_with(c),
            LikePattern::Suffix(c) => text.ends_with(c),
            LikePattern::Contains(c) => text.contains(c),
        }
    }
}

/// `%`-wildcard matching: `%x%` = contains, `%x` = ends-with,
/// `x%` = starts-with, `x` = equals.
pub fn like_match(text: &str, pattern: &str) -> bool {
    LikePattern::parse(pattern).matches(text)
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Uri(u) => write!(f, "{u}"),
            Term::Literal(s) => write!(f, "\"{s}\""),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<Uri> for Term {
    fn from(u: Uri) -> Term {
        Term::Uri(u)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uri_local_name_split() {
        assert_eq!(Uri::new("EMBL#Organism").local_name(), "Organism");
        assert_eq!(Uri::new("embl:A78712").local_name(), "A78712");
        assert_eq!(Uri::new("plain").local_name(), "plain");
    }

    #[test]
    fn uri_picks_last_separator() {
        let u = Uri::new("http://ebi.ac.uk/embl#Organism");
        assert_eq!(u.local_name(), "Organism");
    }

    #[test]
    fn term_lexical() {
        assert_eq!(Term::uri("a#b").lexical(), "a#b");
        assert_eq!(Term::literal("x").lexical(), "x");
    }

    #[test]
    fn like_match_modes() {
        assert!(like_match("Aspergillus niger", "%Aspergillus%"));
        assert!(like_match("Aspergillus", "%Aspergillus%"));
        assert!(like_match("Aspergillus", "Aspergillus"));
        assert!(!like_match("Penicillium", "%Aspergillus%"));
        assert!(like_match("Aspergillus niger", "Aspergillus%"));
        assert!(!like_match("The Aspergillus", "Aspergillus%"));
        assert!(like_match("x/Aspergillus", "%Aspergillus"));
        assert!(!like_match("Aspergillus x", "%Aspergillus"));
    }

    #[test]
    fn like_match_edge_cases() {
        assert!(like_match("anything", "%%"));
        assert!(like_match("", ""));
        assert!(!like_match("a", ""));
        assert!(like_match("a", "%"));
    }

    #[test]
    fn term_matches_like() {
        let t = Term::literal("Aspergillus nidulans");
        assert!(t.matches_like("%Aspergillus%"));
        assert!(t.matches_like("%nidulans"));
        assert!(!t.matches_like("Aspergillus"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::uri("a#b").to_string(), "<a#b>");
        assert_eq!(Term::literal("x").to_string(), "\"x\"");
    }

    #[test]
    fn ordering_is_stable() {
        // Uri sorts before Literal per enum declaration order; within a
        // variant, lexicographic.
        let mut v = vec![
            Term::literal("b"),
            Term::uri("z"),
            Term::literal("a"),
            Term::uri("a"),
        ];
        v.sort();
        assert_eq!(
            v,
            vec![
                Term::uri("a"),
                Term::uri("z"),
                Term::literal("a"),
                Term::literal("b"),
            ]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Exact patterns match exactly themselves.
        #[test]
        fn exact_like_is_equality(a in "[a-zA-Z0-9 ]{0,20}", b in "[a-zA-Z0-9 ]{0,20}") {
            prop_assert_eq!(like_match(&a, &b), a == b);
        }

        /// `%s%` matches any string containing s.
        #[test]
        fn contains_like(pre in "[a-z]{0,8}", core in "[a-z]{1,8}", post in "[a-z]{0,8}") {
            let text = format!("{pre}{core}{post}");
            let pattern = format!("%{core}%");
            prop_assert!(like_match(&text, &pattern));
        }

        /// The local name is what follows the namespace separator.
        #[test]
        fn uri_split_reassembles(ns in "[a-z]{1,8}[#:]", local in "[a-zA-Z0-9_]{1,12}") {
            let u = Uri::new(format!("{ns}{local}"));
            prop_assert_eq!(u.local_name(), local.as_str());
        }
    }
}
