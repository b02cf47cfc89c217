//! Triples, triple patterns and variable bindings.
//!
//! A triple `t = {t_subject, t_predicate, t_object}` (§2.2); a *triple
//! pattern* (§2.3, after RDQL) is "an expression of the form (s, p, o)
//! where s and p are URIs or variables, and o is a URI, a literal or a
//! variable".

use crate::term::{Term, Uri};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// One statement: subject–predicate–object.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Triple {
    pub subject: Uri,
    pub predicate: Uri,
    pub object: Term,
}

impl Triple {
    pub fn new(
        subject: impl Into<Uri>,
        predicate: impl Into<Uri>,
        object: impl Into<Term>,
    ) -> Triple {
        Triple {
            subject: subject.into(),
            predicate: predicate.into(),
            object: object.into(),
        }
    }

    /// Field access by position, used by the generic σ/π operators.
    pub fn get(&self, pos: Position) -> Term {
        match pos {
            Position::Subject => Term::Uri(self.subject.clone()),
            Position::Predicate => Term::Uri(self.predicate.clone()),
            Position::Object => self.object.clone(),
        }
    }
}

impl fmt::Display for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.subject, self.predicate, self.object)
    }
}

impl fmt::Debug for Triple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Positions in a triple — `pos(term)` of §2.3.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum Position {
    Subject,
    Predicate,
    Object,
}

impl Position {
    pub const ALL: [Position; 3] = [Position::Subject, Position::Predicate, Position::Object];
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Position::Subject => write!(f, "subject"),
            Position::Predicate => write!(f, "predicate"),
            Position::Object => write!(f, "object"),
        }
    }
}

/// A pattern slot: a variable like `?x` or a constant.
///
/// Constants in object position may carry `%` wildcards
/// (`%Aspergillus%`), matched with SQL-LIKE semantics.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PatternTerm {
    Var(String),
    Const(Term),
}

impl PatternTerm {
    pub fn var(name: impl Into<String>) -> PatternTerm {
        PatternTerm::Var(name.into())
    }

    pub fn constant(t: impl Into<Term>) -> PatternTerm {
        PatternTerm::Const(t.into())
    }

    pub fn is_var(&self) -> bool {
        matches!(self, PatternTerm::Var(_))
    }

    pub fn as_const(&self) -> Option<&Term> {
        match self {
            PatternTerm::Const(t) => Some(t),
            PatternTerm::Var(_) => None,
        }
    }

    /// Match against a concrete term, extending `binding` on success.
    /// Returns false on mismatch (including conflicting variable reuse).
    fn unify(&self, value: &Term, binding: &mut Binding) -> bool {
        match self {
            PatternTerm::Var(name) => match binding.get(name) {
                Some(bound) => bound == value,
                None => {
                    binding.bind(name.clone(), value.clone());
                    true
                }
            },
            PatternTerm::Const(t) => {
                if let Term::Literal(pat) = t {
                    if pat.contains('%') {
                        return value.matches_like(pat);
                    }
                }
                t == value
            }
        }
    }
}

impl fmt::Display for PatternTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PatternTerm::Var(v) => write!(f, "?{v}"),
            PatternTerm::Const(t) => write!(f, "{t}"),
        }
    }
}

impl fmt::Debug for PatternTerm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A triple pattern `(s, p, o)`.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TriplePattern {
    pub subject: PatternTerm,
    pub predicate: PatternTerm,
    pub object: PatternTerm,
}

impl TriplePattern {
    pub fn new(subject: PatternTerm, predicate: PatternTerm, object: PatternTerm) -> TriplePattern {
        TriplePattern {
            subject,
            predicate,
            object,
        }
    }

    pub fn slot(&self, pos: Position) -> &PatternTerm {
        match pos {
            Position::Subject => &self.subject,
            Position::Predicate => &self.predicate,
            Position::Object => &self.object,
        }
    }

    /// Positions holding constants, with their terms.
    pub fn constants(&self) -> Vec<(Position, &Term)> {
        Position::ALL
            .iter()
            .filter_map(|&p| self.slot(p).as_const().map(|t| (p, t)))
            .collect()
    }

    /// Variable names appearing in the pattern, in slot order.
    pub fn variables(&self) -> Vec<&str> {
        Position::ALL
            .iter()
            .filter_map(|&p| match self.slot(p) {
                PatternTerm::Var(v) => Some(v.as_str()),
                PatternTerm::Const(_) => None,
            })
            .collect()
    }

    /// The constant term to route by: "when two constant terms appear in
    /// the triple pattern, the most specific one should be used" (§2.3).
    /// Specificity here: a predicate is most routable (its key space
    /// holds exactly the relevant triples); longer lexical forms beat
    /// shorter ones; wildcard literals are *not* routable (their hash
    /// does not match any stored key) unless they carry a prefix — a
    /// `x%` pattern can still route via the order-preserving hash.
    pub fn routing_constant(&self) -> Option<(Position, &Term)> {
        static NO_SEED: Binding = Binding {
            map: BTreeMap::new(),
        };
        self.instance_routing_constant(&NO_SEED)
    }

    /// The routing constant of the instance `seed` makes of the pattern:
    /// [`TriplePattern::routing_constant`] of `self.substitute(seed)`,
    /// except that a value the seed binds is a value even when it
    /// contains `%` — the instance matches it exactly, so it routes.
    pub fn instance_routing_constant<'a>(
        &'a self,
        seed: &'a Binding,
    ) -> Option<(Position, &'a Term)> {
        let mut best: Option<(Position, &Term, usize)> = None;
        for pos in Position::ALL {
            let term = match self.slot(pos) {
                PatternTerm::Const(t) if t.is_literal() && t.lexical().contains('%') => continue,
                PatternTerm::Const(t) => t,
                PatternTerm::Var(v) => match seed.get(v) {
                    Some(t) => t,
                    None => continue,
                },
            };
            // Prefer predicate > subject > object at equal length; use
            // length as primary specificity signal.
            let tier = match pos {
                Position::Predicate => 2,
                Position::Subject => 1,
                Position::Object => 0,
            };
            let score = term.lexical().len() * 4 + tier;
            if best.map(|(_, _, s)| score > s).unwrap_or(true) {
                best = Some((pos, term, score));
            }
        }
        best.map(|(p, t, _)| (p, t))
    }

    /// Replace every variable bound in `binding` with its constant,
    /// leaving unbound variables in place — the instance a partial
    /// solution row makes of the next pattern of a bound join. A
    /// destination does not substitute: it binds the pattern to each
    /// seed ([`crate::TripleStore::match_seeds_into`]). The two differ
    /// only on a bound literal containing `%`: the seed binds it as a
    /// value, while the substituted pattern holds it as a `LIKE`
    /// constant.
    pub fn substitute(&self, binding: &Binding) -> TriplePattern {
        let sub = |slot: &PatternTerm| match slot {
            PatternTerm::Var(v) => match binding.get(v) {
                Some(t) => PatternTerm::Const(t.clone()),
                None => slot.clone(),
            },
            PatternTerm::Const(_) => slot.clone(),
        };
        TriplePattern {
            subject: sub(&self.subject),
            predicate: sub(&self.predicate),
            object: sub(&self.object),
        }
    }

    /// True if the pattern contains no variables at all.
    pub fn is_ground(&self) -> bool {
        self.variables().is_empty()
    }

    /// Try to match a concrete triple, producing a binding.
    pub fn match_triple(&self, t: &Triple) -> Option<Binding> {
        let mut b = Binding::new();
        let subject = Term::Uri(t.subject.clone());
        let predicate = Term::Uri(t.predicate.clone());
        if self.subject.unify(&subject, &mut b)
            && self.predicate.unify(&predicate, &mut b)
            && self.object.unify(&t.object, &mut b)
        {
            Some(b)
        } else {
            None
        }
    }
}

impl fmt::Display for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.subject, self.predicate, self.object)
    }
}

impl fmt::Debug for TriplePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A set of variable bindings (a query solution row).
#[derive(Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Binding {
    map: BTreeMap<String, Term>,
}

impl Binding {
    pub fn new() -> Binding {
        Binding::default()
    }

    pub fn bind(&mut self, var: String, value: Term) {
        self.map.insert(var, value);
    }

    pub fn get(&self, var: &str) -> Option<&Term> {
        self.map.get(var)
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &Term)> {
        self.map.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Merge two bindings; `None` if they disagree on a shared variable.
    /// This is the join condition of conjunctive query evaluation.
    pub fn join(&self, other: &Binding) -> Option<Binding> {
        let mut out = self.clone();
        for (k, v) in &other.map {
            match out.map.get(k) {
                Some(existing) if existing != v => return None,
                Some(_) => {}
                None => {
                    out.map.insert(k.clone(), v.clone());
                }
            }
        }
        Some(out)
    }

    /// Keep only the named variables (the projection π of §2.3).
    pub fn project(&self, vars: &[&str]) -> Binding {
        Binding {
            map: self
                .map
                .iter()
                .filter(|(k, _)| vars.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect(),
        }
    }
}

impl fmt::Display for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.map.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "?{k}={v}")?;
        }
        write!(f, "}}")
    }
}

impl fmt::Debug for Binding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn aspergillus_triple() -> Triple {
        Triple::new(
            "embl:A78712",
            "EMBL#Organism",
            Term::literal("Aspergillus niger"),
        )
    }

    #[test]
    fn pattern_matches_paper_example() {
        // SearchFor(x? : (x?, EMBL#Organism, %Aspergillus%))
        let p = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("EMBL#Organism")),
            PatternTerm::constant(Term::literal("%Aspergillus%")),
        );
        let b = p.match_triple(&aspergillus_triple()).expect("should match");
        assert_eq!(b.get("x"), Some(&Term::uri("embl:A78712")));
    }

    #[test]
    fn pattern_rejects_wrong_predicate() {
        let p = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("EMP#SystematicName")),
            PatternTerm::constant(Term::literal("%Aspergillus%")),
        );
        assert!(p.match_triple(&aspergillus_triple()).is_none());
    }

    #[test]
    fn repeated_variable_must_agree() {
        let p = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("p")),
            PatternTerm::var("x"),
        );
        let same = Triple::new("a", "p", Term::uri("a"));
        let diff = Triple::new("a", "p", Term::uri("b"));
        assert!(p.match_triple(&same).is_some());
        assert!(p.match_triple(&diff).is_none());
    }

    #[test]
    fn routing_constant_prefers_predicate() {
        // Paper: "In our example, we choose the predicate".
        let p = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("EMBL#Organism")),
            PatternTerm::constant(Term::literal("%Aspergillus%")),
        );
        let (pos, term) = p.routing_constant().expect("has constant");
        assert_eq!(pos, Position::Predicate);
        assert_eq!(term.lexical(), "EMBL#Organism");
    }

    #[test]
    fn routing_constant_skips_wildcards_but_uses_plain_object() {
        let p = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::var("p"),
            PatternTerm::constant(Term::literal("exact-value-very-specific")),
        );
        let (pos, _) = p.routing_constant().expect("object constant");
        assert_eq!(pos, Position::Object);

        let all_wild = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::var("p"),
            PatternTerm::constant(Term::literal("%wild%")),
        );
        assert!(all_wild.routing_constant().is_none());
    }

    #[test]
    fn variables_and_constants_enumerate_in_order() {
        let p = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("p")),
            PatternTerm::var("y"),
        );
        assert_eq!(p.variables(), vec!["x", "y"]);
        assert_eq!(p.constants().len(), 1);
    }

    #[test]
    fn binding_join_agrees() {
        let mut a = Binding::new();
        a.bind("x".into(), Term::uri("u"));
        let mut b = Binding::new();
        b.bind("y".into(), Term::literal("v"));
        let ab = a.join(&b).expect("disjoint join");
        assert_eq!(ab.len(), 2);

        let mut conflict = Binding::new();
        conflict.bind("x".into(), Term::uri("other"));
        assert!(a.join(&conflict).is_none());

        let mut agree = Binding::new();
        agree.bind("x".into(), Term::uri("u"));
        assert_eq!(a.join(&agree).expect("agreeing join").len(), 1);
    }

    #[test]
    fn binding_project() {
        let mut b = Binding::new();
        b.bind("x".into(), Term::uri("u"));
        b.bind("y".into(), Term::uri("v"));
        let p = b.project(&["x"]);
        assert_eq!(p.len(), 1);
        assert_eq!(p.get("x"), Some(&Term::uri("u")));
        assert_eq!(p.get("y"), None);
    }

    #[test]
    fn substitute_binds_only_bound_variables() {
        let p = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("EMBL#Organism")),
            PatternTerm::var("o"),
        );
        let mut b = Binding::new();
        b.bind("x".into(), Term::uri("embl:A78712"));
        let s = p.substitute(&b);
        assert_eq!(s.subject, PatternTerm::constant(Term::uri("embl:A78712")));
        assert_eq!(s.predicate, p.predicate, "constants untouched");
        assert_eq!(s.object, PatternTerm::var("o"), "unbound variable kept");
        assert!(!s.is_ground());
        b.bind("o".into(), Term::literal("Aspergillus niger"));
        assert!(p.substitute(&b).is_ground());
    }

    #[test]
    fn substitute_with_empty_binding_is_identity() {
        let p = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("p")),
            PatternTerm::var("y"),
        );
        assert_eq!(p.substitute(&Binding::new()), p);
    }

    #[test]
    fn an_instance_routes_by_a_bound_value_even_with_a_percent_sign() {
        let p = TriplePattern::new(
            PatternTerm::var("s"),
            PatternTerm::var("p"),
            PatternTerm::var("o"),
        );
        let mut seed = Binding::new();
        seed.bind("s".into(), Term::uri("e"));
        seed.bind("o".into(), Term::literal("seq"));
        // Without `%`, the substituted pattern's routing constant.
        let routed = p.instance_routing_constant(&seed);
        assert_eq!(routed, p.substitute(&seed).routing_constant());
        assert_eq!(routed, Some((Position::Object, &Term::literal("seq"))));
        // A bound "50%" is a value; substituted, it would be a LIKE.
        seed.bind("o".into(), Term::literal("50%"));
        let routed = p.instance_routing_constant(&seed);
        assert_eq!(routed, Some((Position::Object, &Term::literal("50%"))));
        let substituted = p.substitute(&seed);
        assert_eq!(
            substituted.routing_constant(),
            Some((Position::Subject, &Term::uri("e")))
        );
    }

    #[test]
    fn triple_get_by_position() {
        let t = aspergillus_triple();
        assert_eq!(t.get(Position::Subject), Term::uri("embl:A78712"));
        assert_eq!(t.get(Position::Predicate), Term::uri("EMBL#Organism"));
        assert_eq!(t.get(Position::Object), Term::literal("Aspergillus niger"));
    }

    #[test]
    fn display_forms() {
        let p = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("EMBL#Organism")),
            PatternTerm::constant(Term::literal("%Aspergillus%")),
        );
        assert_eq!(p.to_string(), "(?x, <EMBL#Organism>, \"%Aspergillus%\")");
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_term() -> impl Strategy<Value = Term> {
        prop_oneof![
            "[a-z]{1,6}#[A-Za-z]{1,8}".prop_map(Term::uri),
            "[A-Za-z ]{0,12}".prop_map(Term::literal),
        ]
    }

    proptest! {
        /// A pattern built from a triple's own terms always matches it.
        #[test]
        fn self_pattern_matches(s in "[a-z]{1,8}", p in "[a-z]{1,8}", o in arb_term()) {
            let t = Triple::new(s.as_str(), p.as_str(), o);
            let pat = TriplePattern::new(
                PatternTerm::constant(Term::uri(s.clone())),
                PatternTerm::constant(Term::uri(p.clone())),
                PatternTerm::Const(t.object.clone()),
            );
            prop_assert!(pat.match_triple(&t).is_some());
        }

        /// The all-variables pattern matches everything and binds all
        /// three positions.
        #[test]
        fn wildcard_pattern_matches_all(s in "[a-z]{1,8}", p in "[a-z]{1,8}", o in arb_term()) {
            let t = Triple::new(s.as_str(), p.as_str(), o);
            let pat = TriplePattern::new(
                PatternTerm::var("a"),
                PatternTerm::var("b"),
                PatternTerm::var("c"),
            );
            let b = pat.match_triple(&t).expect("matches");
            prop_assert_eq!(b.len(), 3);
        }

        /// Substituting a binding produced by matching a triple yields a
        /// pattern that still matches that triple (specialization is
        /// sound).
        #[test]
        fn substitute_of_match_still_matches(
            s in "[a-z]{1,8}", p in "[a-z]{1,8}", o in arb_term()
        ) {
            let t = Triple::new(s.as_str(), p.as_str(), o);
            let pat = TriplePattern::new(
                PatternTerm::var("a"),
                PatternTerm::var("b"),
                PatternTerm::var("c"),
            );
            let b = pat.match_triple(&t).expect("matches");
            let ground = pat.substitute(&b);
            prop_assert!(ground.is_ground());
            prop_assert!(ground.match_triple(&t).is_some());
        }

        /// join is commutative on success.
        #[test]
        fn join_commutative(x in arb_term(), y in arb_term()) {
            let mut a = Binding::new();
            a.bind("x".into(), x);
            let mut b = Binding::new();
            b.bind("y".into(), y);
            let ab = a.join(&b);
            let ba = b.join(&a);
            prop_assert_eq!(ab, ba);
        }
    }
}
