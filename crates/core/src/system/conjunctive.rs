//! Distributed conjunctive queries (§2.3).
//!
//! "Conjunctive queries can be resolved in a similar manner, by
//! iteratively resolving each triple pattern contained in the query and
//! aggregating the sets of results retrieved." The paper leaves the
//! aggregation policy open; this module defines the two classic options
//! so they can be compared (ablation A4):
//!
//! * [`JoinMode::Independent`] — every triple pattern is resolved over
//!   the full mapping network on its own, all matching bindings are
//!   shipped back to the origin, and the origin joins the binding sets
//!   locally. Simple, one network sweep per pattern, but it pays to ship
//!   *every* match of *every* pattern even when the join keeps almost
//!   none of them. The origin at least does not pay to *place* them:
//!   its fold places the smallest set into join rows and then only the
//!   rows of the others whose shared variables carry codes the smallest
//!   holds there — the rows that can join (see the
//!   [session docs](super::session)).
//!
//! * [`JoinMode::BoundSubstitution`] — patterns are resolved in
//!   selectivity order; the partial solutions so far are substituted
//!   into the next pattern *at the data*: the pattern is swept over the
//!   mapping network once, and every request of the sweep carries the
//!   **binding column** — the distinct substitutions the partial
//!   solutions make of the pattern's already-bound variables — so a
//!   destination compiles the pattern once, answers it for each seed
//!   ([`gridvine_rdf::TripleStore::match_seeds_into`]: one bound scan
//!   per seed, or one scan of the pattern matched to the seeds by code
//!   when that walks fewer rows), and only ever ships the matches of
//!   instances already constrained by earlier answers. A bound value is matched exactly: a `%` in it
//!   is no wildcard. This is the
//!   semi-join/bound-join strategy of distributed query processing: the
//!   same requests and messages as one independent sweep of the
//!   pattern, far fewer irrelevant results on the wire — paid for by
//!   what the requests carry
//!   ([`ExecStats::bindings_carried`](super::exec::ExecStats::bindings_carried)
//!   beside `bindings_shipped`; ablation A4 weighs the two).
//!
//! Both modes reformulate every pattern through the mapping network
//! exactly like a single-pattern closure plan — one closure walk per
//! pattern, memoized in the epoch-keyed reformulation-closure cache —
//! so a conjunctive query also benefits from the self-organizing
//! mapping layer of §3. They differ on a pattern whose **predicate is
//! a variable**. An independent sweep has no schema to translate from
//! and answers such a pattern as written, once, without reformulation.
//! A bound sweep whose partial solutions *bind* that variable does
//! have one: the rows are split by the predicate they substitute, each
//! share is a schema'd pattern with a closure of its own, and each is
//! swept — so `(?q, M#pred, ?p) ∧ (?s, ?p, "x")` follows the mappings
//! of whatever `?p` turns out to be under bound substitution, and not
//! under independent joins. (The modes agree whenever no mapping
//! applies to the predicates bound; the asymmetry is as old as the two
//! modes.)
//!
//! Execution lives behind the plan surface: build
//! [`QueryPlan::conjunctive`](crate::plan::QueryPlan::conjunctive) and
//! either drain it with [`GridVineSystem::execute`] or pull it
//! incrementally with [`GridVineSystem::open`].
//!
//! ```
//! use gridvine_core::{GridVineConfig, GridVineSystem, JoinMode, QueryOptions, QueryPlan, Strategy};
//! use gridvine_pgrid::PeerId;
//! use gridvine_rdf::{parse_query, Term, Triple};
//! use gridvine_semantic::Schema;
//!
//! let mut gv = GridVineSystem::new(GridVineConfig::default());
//! let p = PeerId(0);
//! gv.insert_schema(p, Schema::new("EMBL", ["Organism", "SequenceLength"]))?;
//! gv.insert_triple(p, Triple::new("seq:A78712", "EMBL#Organism",
//!     Term::literal("Aspergillus niger")))?;
//! gv.insert_triple(p, Triple::new("seq:A78712", "EMBL#SequenceLength",
//!     Term::literal("1042")))?;
//!
//! let q = parse_query(
//!     r#"SELECT ?x, ?len WHERE (?x, <EMBL#Organism>, "%Aspergillus%"),
//!                             (?x, <EMBL#SequenceLength>, ?len)"#)?;
//! let out = gv.execute(p, &QueryPlan::conjunctive(q),
//!     &QueryOptions::new().strategy(Strategy::Iterative)
//!         .join_mode(JoinMode::BoundSubstitution))?;
//! assert_eq!(out.rows.len(), 1);
//! assert_eq!(out.rows[0].get("len"), Some(&Term::literal("1042")));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! A bound pattern's requests route by the pattern's own constants. A
//! pattern that has none (`(?s, ?p, ?o)` with `?s` bound — not routable
//! at all under [`JoinMode::Independent`]) goes out by its instances
//! instead, each routed by what its seed put in, those under one leaf
//! sharing a request. An instance that still has no routable constant
//! (possible only if the pattern shares no variable with its
//! predecessors *and* carries no constant) is counted in
//! [`ExecStats::failures`](super::exec::ExecStats::failures) and its
//! candidate row is dropped; well-formed conjunctive queries — connected
//! join graphs with at least one constant per component — never hit
//! this.

use super::*;

/// How the binding sets of the individual triple patterns are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinMode {
    /// Resolve each pattern over the network independently, join at the
    /// origin.
    Independent,
    /// Substitute partial solutions into subsequent patterns before
    /// routing them (bound join).
    BoundSubstitution,
}

#[cfg(test)]
mod tests {
    use super::exec::{QueryOptions, QueryOutcome};
    use super::*;
    use crate::plan::QueryPlan;
    use gridvine_rdf::{ConjunctiveQuery, PatternTerm, Term, TriplePattern};

    fn conjunctive(
        sys: &mut GridVineSystem,
        origin: PeerId,
        q: &ConjunctiveQuery,
        strategy: Strategy,
        mode: JoinMode,
    ) -> QueryOutcome {
        sys.execute(
            origin,
            &QueryPlan::conjunctive(q.clone()),
            &QueryOptions::new().strategy(strategy).join_mode(mode),
        )
        .unwrap()
    }

    /// Two schemas linked by a manual mapping, with sequence-length
    /// facts so a two-pattern join has work to do.
    fn federation() -> GridVineSystem {
        let mut sys = GridVineSystem::new(GridVineConfig {
            peers: 32,
            ..GridVineConfig::default()
        });
        let p0 = PeerId(0);
        sys.insert_schema(p0, Schema::new("EMBL", ["Organism", "SequenceLength"]))
            .unwrap();
        sys.insert_schema(p0, Schema::new("EMP", ["SystematicName", "Length"]))
            .unwrap();
        sys.insert_mapping(
            p0,
            "EMBL",
            "EMP",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![
                Correspondence::new("Organism", "SystematicName"),
                Correspondence::new("SequenceLength", "Length"),
            ],
        )
        .unwrap();
        for (s, p, o) in [
            ("seq:A78712", "EMBL#Organism", "Aspergillus niger"),
            ("seq:A78712", "EMBL#SequenceLength", "1042"),
            ("seq:A78767", "EMBL#Organism", "Aspergillus nidulans"),
            // A78767 has no length fact anywhere: joins must drop it.
            (
                "seq:NEN94295-05",
                "EMP#SystematicName",
                "Aspergillus oryzae",
            ),
            ("seq:NEN94295-05", "EMP#Length", "2210"),
            ("seq:X99999", "EMP#SystematicName", "Escherichia coli"),
            ("seq:X99999", "EMP#Length", "512"),
        ] {
            sys.insert_triple(p0, Triple::new(s, p, Term::literal(o)))
                .unwrap();
        }
        sys
    }

    fn organism_length_query() -> ConjunctiveQuery {
        ConjunctiveQuery::new(
            vec!["x".into(), "len".into()],
            vec![
                TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::constant(Term::uri("EMBL#Organism")),
                    PatternTerm::constant(Term::literal("%Aspergillus%")),
                ),
                TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::constant(Term::uri("EMBL#SequenceLength")),
                    PatternTerm::var("len"),
                ),
            ],
        )
        .expect("valid query")
    }

    #[test]
    fn conjunctive_joins_across_schemas() {
        // The EMBL-vocabulary query must also find the EMP record via
        // the mapping: {A78712, 1042} and {NEN94295-05, 2210}.
        let mut sys = federation();
        for strategy in [Strategy::Iterative, Strategy::Recursive] {
            for mode in [JoinMode::Independent, JoinMode::BoundSubstitution] {
                let out = conjunctive(
                    &mut sys,
                    PeerId(3),
                    &organism_length_query(),
                    strategy,
                    mode,
                );
                let rows: Vec<String> = out.rows.iter().map(|b| b.to_string()).collect();
                assert_eq!(out.rows.len(), 2, "{strategy:?}/{mode:?} rows: {rows:?}");
                assert!(rows
                    .iter()
                    .any(|r| r.contains("A78712") && r.contains("1042")));
                assert!(rows
                    .iter()
                    .any(|r| r.contains("NEN94295-05") && r.contains("2210")));
                assert!(out.stats.messages > 0);
            }
        }
    }

    #[test]
    fn modes_agree_on_results() {
        let mut sys = federation();
        let q = organism_length_query();
        let a = conjunctive(
            &mut sys,
            PeerId(1),
            &q,
            Strategy::Iterative,
            JoinMode::Independent,
        );
        let b = conjunctive(
            &mut sys,
            PeerId(1),
            &q,
            Strategy::Iterative,
            JoinMode::BoundSubstitution,
        );
        assert_eq!(a.rows, b.rows);
    }

    #[test]
    fn bound_mode_resolves_more_instances_on_no_more_requests() {
        let mut sys = federation();
        let q = organism_length_query();
        let ind = conjunctive(
            &mut sys,
            PeerId(1),
            &q,
            Strategy::Iterative,
            JoinMode::Independent,
        );
        let bnd = conjunctive(
            &mut sys,
            PeerId(1),
            &q,
            Strategy::Iterative,
            JoinMode::BoundSubstitution,
        );
        // Bound substitution resolves one instance per surviving row of
        // the first pattern (3 organisms) and hop of the second instead
        // of the unconstrained second pattern — on the same sweep.
        assert!(
            bnd.stats.subqueries >= ind.stats.subqueries,
            "bound {} vs independent {}",
            bnd.stats.subqueries,
            ind.stats.subqueries
        );
        assert!(bnd.stats.requests <= ind.stats.requests);
        assert!(bnd.stats.bindings_shipped <= ind.stats.bindings_shipped);
    }

    #[test]
    fn unsatisfiable_join_returns_empty() {
        let mut sys = federation();
        let q = ConjunctiveQuery::new(
            vec!["x".into()],
            vec![
                TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::constant(Term::uri("EMBL#Organism")),
                    PatternTerm::constant(Term::literal("Aspergillus nidulans")),
                ),
                TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::constant(Term::uri("EMBL#SequenceLength")),
                    PatternTerm::var("len"),
                ),
            ],
        )
        .unwrap();
        for mode in [JoinMode::Independent, JoinMode::BoundSubstitution] {
            let out = conjunctive(&mut sys, PeerId(2), &q, Strategy::Iterative, mode);
            assert!(out.rows.is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn single_pattern_conjunctive_agrees_with_search() {
        let mut sys = federation();
        let single = TriplePatternQuery::example_aspergillus();
        let cq = ConjunctiveQuery::new(vec!["x".into()], vec![single.pattern.clone()]).unwrap();
        let s = sys
            .execute(
                PeerId(5),
                &QueryPlan::search(single.clone()),
                &QueryOptions::default(),
            )
            .unwrap();
        let c = conjunctive(
            &mut sys,
            PeerId(5),
            &cq,
            Strategy::Iterative,
            JoinMode::Independent,
        );
        assert_eq!(s.terms(&single.distinguished), c.terms("x"));
    }

    #[test]
    fn projection_respects_distinguished_variables() {
        let mut sys = federation();
        let q = ConjunctiveQuery::new(
            vec!["x".into()], // drop ?len
            organism_length_query().patterns,
        )
        .unwrap();
        let out = conjunctive(
            &mut sys,
            PeerId(0),
            &q,
            Strategy::Iterative,
            JoinMode::Independent,
        );
        assert!(!out.rows.is_empty());
        for b in &out.rows {
            assert!(b.get("x").is_some());
            assert!(b.get("len").is_none());
        }
    }

    #[test]
    fn ground_second_pattern_acts_as_filter() {
        let mut sys = federation();
        // ?x is an organism match AND the specific length fact must hold.
        let q = ConjunctiveQuery::new(
            vec!["x".into()],
            vec![
                TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::constant(Term::uri("EMBL#Organism")),
                    PatternTerm::constant(Term::literal("%Aspergillus%")),
                ),
                TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::constant(Term::uri("EMBL#SequenceLength")),
                    PatternTerm::constant(Term::literal("1042")),
                ),
            ],
        )
        .unwrap();
        for mode in [JoinMode::Independent, JoinMode::BoundSubstitution] {
            let out = conjunctive(&mut sys, PeerId(4), &q, Strategy::Iterative, mode);
            assert_eq!(out.rows.len(), 1, "{mode:?}");
            assert_eq!(
                out.rows[0].get("x"),
                Some(&Term::uri("seq:A78712")),
                "{mode:?}"
            );
        }
    }
}
