//! Logical query plans: the *what* of a GridVine `SearchFor`, separated
//! from the *how* of its execution.
//!
//! The paper's `SearchFor` (§2.3, §3, §4) is one conceptual operation —
//! route, reformulate across the mapping network, evaluate, join. A
//! [`QueryPlan`] names the logical shape of one such operation; the
//! physical access path (routing keys, reformulation strategy, join
//! mode, TTL) is supplied at execution time by
//! [`crate::exec::QueryOptions`] and evaluated by
//! [`crate::GridVineSystem::execute`].
//!
//! The planner's static decisions live here:
//!
//! * [`QueryPlan::single`] picks the dissemination shape of a
//!   single-pattern query — reformulation closure when the predicate
//!   names a schema, an object-prefix range sweep when only a
//!   `prefix%` object constraint is routable, a plain routed lookup
//!   otherwise;
//! * [`QueryPlan::conjunctive`] picks the **join order** for bound
//!   substitution: most selective pattern first (more constants, longer
//!   routing constant, fewer variables).

use gridvine_rdf::{ConjunctiveQuery, Term, TriplePattern, TriplePatternQuery};
use serde::{Deserialize, Serialize};

/// The logical shape of one `SearchFor` operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryPlan {
    /// One routed lookup: `Hash(routing constant)` → evaluate the
    /// destination's `DB_p`. No reformulation.
    Pattern { query: TriplePatternQuery },
    /// A range sweep over the bit-prefix region an order-preserving
    /// hash maps the object's `prefix%` constraint to, visiting every
    /// peer group in the region.
    ObjectPrefix { query: TriplePatternQuery },
    /// The full `SearchFor` dissemination: answer the query in its own
    /// schema, then in every schema reachable through active mappings
    /// within the TTL (§3, §4).
    Closure { query: TriplePatternQuery },
    /// A conjunctive query: every pattern is disseminated like
    /// [`QueryPlan::Closure`] and the binding sets are joined. `order`
    /// is the planner's bound-join order (indices into
    /// `query.patterns`, most selective first); independent-join
    /// execution sweeps the patterns in their written order, which is
    /// what its message accounting is defined over.
    Join {
        query: ConjunctiveQuery,
        order: Vec<usize>,
    },
}

impl QueryPlan {
    /// A plain routed lookup with no reformulation.
    pub fn pattern(query: TriplePatternQuery) -> QueryPlan {
        QueryPlan::Pattern { query }
    }

    /// An object-prefix range sweep; requires the order-preserving hash
    /// at execution time.
    pub fn object_prefix(query: TriplePatternQuery) -> QueryPlan {
        QueryPlan::ObjectPrefix { query }
    }

    /// The full reformulation closure.
    pub fn search(query: TriplePatternQuery) -> QueryPlan {
        QueryPlan::Closure { query }
    }

    /// Plan a conjunctive query, fixing the bound-join order: most
    /// constants first, then the longest routing constant, then the
    /// fewest variables — the selectivity heuristic of distributed bound
    /// joins.
    pub fn conjunctive(query: ConjunctiveQuery) -> QueryPlan {
        let order = bound_join_order(&query.patterns);
        QueryPlan::Join { query, order }
    }

    /// Plan a single-pattern query automatically: a reformulation
    /// closure when the predicate names a schema (the common
    /// `SearchFor`), an object-prefix sweep when the pattern is only
    /// routable through a `prefix%` object constraint, and a plain
    /// routed lookup otherwise.
    pub fn single(query: TriplePatternQuery) -> QueryPlan {
        if gridvine_semantic::query_schema(&query).is_ok() {
            QueryPlan::Closure { query }
        } else if query.pattern.routing_constant().is_none()
            && object_prefix_core(&query.pattern).is_some()
        {
            QueryPlan::ObjectPrefix { query }
        } else {
            QueryPlan::Pattern { query }
        }
    }
}

impl std::fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryPlan::Pattern { query } => write!(f, "Pattern({query})"),
            QueryPlan::ObjectPrefix { query } => write!(f, "ObjectPrefix({query})"),
            QueryPlan::Closure { query } => write!(f, "Closure({query})"),
            QueryPlan::Join { query, order } => write!(f, "Join({query}, order {order:?})"),
        }
    }
}

/// The fixed part of a pattern's object constraint when it has the
/// rangeable `prefix%` shape (non-empty prefix, single trailing
/// wildcard) — the only shape [`QueryPlan::ObjectPrefix`] can route.
pub(crate) fn object_prefix_core(pattern: &TriplePattern) -> Option<&str> {
    let object = pattern.object.as_const()?;
    let prefix = object.lexical().strip_suffix('%')?;
    (!prefix.is_empty() && !prefix.contains('%')).then_some(prefix)
}

/// Bound-join order over a conjunctive query's patterns: indices sorted
/// by decreasing constant count, then decreasing routing-constant
/// length, then increasing variable count (stable, so written order
/// breaks ties).
fn bound_join_order(patterns: &[TriplePattern]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..patterns.len()).collect();
    order.sort_by_key(|&i| {
        let p = &patterns[i];
        let routable_len = p
            .routing_constant()
            .map(|(_, t): (_, &Term)| t.lexical().len())
            .unwrap_or(0);
        (
            std::cmp::Reverse(p.constants().len()),
            std::cmp::Reverse(routable_len),
            p.variables().len(),
        )
    });
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvine_rdf::{PatternTerm, Term};

    #[test]
    fn single_picks_closure_for_schema_predicates() {
        let plan = QueryPlan::single(TriplePatternQuery::example_aspergillus());
        assert!(matches!(plan, QueryPlan::Closure { .. }));
    }

    #[test]
    fn single_picks_prefix_sweep_when_only_the_object_ranges() {
        let q = TriplePatternQuery::new(
            "x",
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::var("p"),
                PatternTerm::constant(Term::literal("Aspergillus%")),
            ),
        )
        .unwrap();
        assert!(matches!(
            QueryPlan::single(q),
            QueryPlan::ObjectPrefix { .. }
        ));
    }

    #[test]
    fn single_falls_back_to_a_plain_lookup() {
        // Routable subject constant, schema-less variable predicate.
        let q = TriplePatternQuery::new(
            "o",
            TriplePattern::new(
                PatternTerm::constant(Term::uri("seq:A78712")),
                PatternTerm::var("p"),
                PatternTerm::var("o"),
            ),
        )
        .unwrap();
        assert!(matches!(QueryPlan::single(q), QueryPlan::Pattern { .. }));
    }

    #[test]
    fn conjunctive_orders_by_selectivity() {
        // Unconstrained pattern second, doubly-constant pattern first.
        let q = ConjunctiveQuery::new(
            vec!["x".into()],
            vec![
                TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::constant(Term::uri("EMBL#SequenceLength")),
                    PatternTerm::var("len"),
                ),
                TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::constant(Term::uri("EMBL#Organism")),
                    PatternTerm::constant(Term::literal("Aspergillus niger")),
                ),
            ],
        )
        .unwrap();
        let QueryPlan::Join { order, .. } = QueryPlan::conjunctive(q) else {
            panic!("expected a join plan");
        };
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn object_prefix_core_rejects_non_prefix_shapes() {
        for (bad, expect) in [
            ("%Aspergillus%", None),
            ("Aspergillus", None),
            ("%", None),
            ("a%b%", None),
            ("Aspergillus%", Some("Aspergillus")),
        ] {
            let p = TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::var("p"),
                PatternTerm::constant(Term::literal(bad)),
            );
            assert_eq!(object_prefix_core(&p), expect, "{bad}");
        }
    }
}
