//! Integration tests for distributed conjunctive queries (§2.3):
//! the overlay-resolved join must agree with a centralized oracle, and
//! both join modes and both dissemination strategies must agree with
//! each other — including across schema mappings.
//!
//! All joins run through the plan surface (`QueryPlan::conjunctive` +
//! `execute`).

use gridvine_core::{
    GridVineConfig, GridVineSystem, JoinMode, QueryOptions, QueryOutcome, QueryPlan, Strategy,
    SystemError,
};
use gridvine_pgrid::PeerId;
use gridvine_rdf::{
    parse_query, Binding, ConjunctiveQuery, PatternTerm, Term, Triple, TriplePattern, TripleStore,
};
use gridvine_semantic::{Correspondence, MappingKind, Provenance, Schema};
use gridvine_workload::{Workload, WorkloadConfig};
use proptest::prelude::*;
// `gridvine_core::Strategy` shadows the proptest trait of the same name
// from the prelude glob; bring the trait's methods back into scope.
use proptest::strategy::Strategy as _;

const ALL_MODES: [JoinMode; 2] = [JoinMode::Independent, JoinMode::BoundSubstitution];
const ALL_STRATEGIES: [Strategy; 2] = [Strategy::Iterative, Strategy::Recursive];

/// A conjunctive `SearchFor` through the plan surface.
fn search_conjunctive(
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
    .expect("resolvable conjunctive query")
}

/// Single-schema system + a mirror store: the distributed evaluation has
/// a trivially checkable centralized oracle.
fn single_schema_system(triples: &[Triple]) -> (GridVineSystem, TripleStore) {
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 32,
        seed: 0xC0,
        ..GridVineConfig::default()
    });
    sys.insert_schema(PeerId(0), Schema::new("S", ["a0", "a1", "a2", "a3"]))
        .unwrap();
    let mut oracle = TripleStore::new();
    for t in triples {
        sys.insert_triple(PeerId(0), t.clone()).unwrap();
        oracle.insert(t.clone());
    }
    (sys, oracle)
}

fn rows(out: &QueryOutcome) -> Vec<String> {
    out.rows.iter().map(|b| b.to_string()).collect()
}

fn oracle_rows(q: &ConjunctiveQuery, store: &TripleStore) -> Vec<String> {
    let mut v: Vec<String> = q.evaluate(store).iter().map(Binding::to_string).collect();
    v.sort();
    v
}

#[test]
fn parsed_rdql_conjunction_matches_oracle() {
    let triples = vec![
        Triple::new("e:1", "S#a0", Term::literal("Aspergillus niger")),
        Triple::new("e:1", "S#a1", Term::literal("1042")),
        Triple::new("e:2", "S#a0", Term::literal("Aspergillus oryzae")),
        Triple::new("e:2", "S#a1", Term::literal("2210")),
        Triple::new("e:3", "S#a0", Term::literal("Escherichia coli")),
        Triple::new("e:3", "S#a1", Term::literal("512")),
        Triple::new("e:4", "S#a0", Term::literal("Aspergillus flavus")),
        // e:4 has no a1 fact: must not survive the join.
    ];
    let (mut sys, oracle) = single_schema_system(&triples);
    let q =
        parse_query(r#"SELECT ?x, ?len WHERE (?x, <S#a0>, "%Aspergillus%"), (?x, <S#a1>, ?len)"#)
            .unwrap();
    let expected = oracle_rows(&q, &oracle);
    assert_eq!(expected.len(), 2);
    for strategy in ALL_STRATEGIES {
        for mode in ALL_MODES {
            let out = search_conjunctive(&mut sys, PeerId(9), &q, strategy, mode);
            assert_eq!(rows(&out), expected, "{strategy:?}/{mode:?}");
        }
    }
}

/// A variable the SELECT names twice is projected once: the rows are
/// those of the query that names it once, locally and distributed in
/// both join modes.
#[test]
fn a_variable_selected_twice_is_projected_once() {
    let triples = vec![
        Triple::new("e:1", "S#a0", Term::literal("Aspergillus niger")),
        Triple::new("e:1", "S#a1", Term::literal("1042")),
        Triple::new("e:2", "S#a0", Term::literal("Aspergillus oryzae")),
        Triple::new("e:2", "S#a1", Term::literal("2210")),
    ];
    let (mut sys, oracle) = single_schema_system(&triples);
    let once =
        parse_query(r#"SELECT ?x, ?len WHERE (?x, <S#a0>, "%Aspergillus%"), (?x, <S#a1>, ?len)"#)
            .unwrap();
    let mut twice = once.clone();
    twice.distinguished.insert(1, "x".into());
    let expected = oracle_rows(&once, &oracle);
    assert_eq!(expected.len(), 2);
    assert_eq!(oracle_rows(&twice, &oracle), expected);
    for mode in ALL_MODES {
        let out = search_conjunctive(&mut sys, PeerId(9), &twice, Strategy::Iterative, mode);
        assert_eq!(rows(&out), expected, "{mode:?}");
    }
}

#[test]
fn three_pattern_chain_join() {
    // x --a0--> organism, x --a1--> len, len appears as a2-subject link:
    // exercise a join variable that is an *object* in one pattern and a
    // *subject* in another.
    let triples = vec![
        Triple::new("e:1", "S#a0", Term::literal("Aspergillus niger")),
        Triple::new("e:1", "S#a1", Term::uri("lab:alpha")),
        Triple::new("lab:alpha", "S#a2", Term::literal("Lausanne")),
        Triple::new("e:2", "S#a0", Term::literal("Aspergillus oryzae")),
        Triple::new("e:2", "S#a1", Term::uri("lab:beta")),
        // lab:beta has no a2 fact.
        Triple::new("e:3", "S#a0", Term::literal("Penicillium notatum")),
        Triple::new("e:3", "S#a1", Term::uri("lab:alpha")),
    ];
    let (mut sys, oracle) = single_schema_system(&triples);
    let q = ConjunctiveQuery::new(
        vec!["x".into(), "city".into()],
        vec![
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri("S#a0")),
                PatternTerm::constant(Term::literal("%Aspergillus%")),
            ),
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri("S#a1")),
                PatternTerm::var("lab"),
            ),
            TriplePattern::new(
                PatternTerm::var("lab"),
                PatternTerm::constant(Term::uri("S#a2")),
                PatternTerm::var("city"),
            ),
        ],
    )
    .unwrap();
    let expected = oracle_rows(&q, &oracle);
    assert_eq!(expected.len(), 1, "only e:1 survives all three patterns");
    for strategy in ALL_STRATEGIES {
        for mode in ALL_MODES {
            let out = search_conjunctive(&mut sys, PeerId(2), &q, strategy, mode);
            assert_eq!(rows(&out), expected, "{strategy:?}/{mode:?}");
        }
    }
}

/// `execute` hands a join plan's rows back in the order of their
/// `Display` strings, in both modes and both strategies: `<e:10>` sorts
/// before `<e:1>` because `0` is below `>`, which a comparison that
/// skipped the brackets around a URI would get the other way round.
#[test]
fn a_join_plan_returns_its_rows_in_display_order() {
    let mut triples = Vec::new();
    for (e, lab) in [
        ("e:2", "lab:b"),
        ("e:1", "lab:a"),
        ("e:11", "lab:a"),
        ("e:10", "lab:c"),
    ] {
        triples.push(Triple::new(e, "S#a0", Term::literal("Aspergillus niger")));
        triples.push(Triple::new(e, "S#a1", Term::uri(lab)));
    }
    let (mut sys, oracle) = single_schema_system(&triples);
    let q = parse_query("SELECT ?e, ?lab WHERE (?e, <S#a0>, ?v), (?e, <S#a1>, ?lab)").unwrap();
    let expected = [
        "{?e=<e:10>, ?lab=<lab:c>}",
        "{?e=<e:11>, ?lab=<lab:a>}",
        "{?e=<e:1>, ?lab=<lab:a>}",
        "{?e=<e:2>, ?lab=<lab:b>}",
    ];
    assert_eq!(oracle_rows(&q, &oracle), expected);
    for strategy in ALL_STRATEGIES {
        for mode in ALL_MODES {
            let out = search_conjunctive(&mut sys, PeerId(3), &q, strategy, mode);
            assert_eq!(rows(&out), expected, "{strategy:?}/{mode:?}");
        }
    }
}

#[test]
fn conjunctive_query_crosses_mappings_on_every_pattern() {
    // Two-schema federation: organism + length facts exist only in the
    // EMP vocabulary for one entity. A conjunctive EMBL query must pick
    // it up through the mapping on *both* patterns.
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 32,
        seed: 7,
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
            gridvine_semantic::Correspondence::new("Organism", "SystematicName"),
            gridvine_semantic::Correspondence::new("SequenceLength", "Length"),
        ],
    )
    .unwrap();
    for (s, p, o) in [
        ("seq:A1", "EMBL#Organism", "Aspergillus niger"),
        ("seq:A1", "EMBL#SequenceLength", "100"),
        ("seq:B1", "EMP#SystematicName", "Aspergillus oryzae"),
        ("seq:B1", "EMP#Length", "200"),
    ] {
        sys.insert_triple(p0, Triple::new(s, p, Term::literal(o)))
            .unwrap();
    }
    let q = parse_query(
        r#"SELECT ?x, ?len WHERE (?x, <EMBL#Organism>, "%Aspergillus%"), (?x, <EMBL#SequenceLength>, ?len)"#,
    )
    .unwrap();
    for strategy in ALL_STRATEGIES {
        for mode in ALL_MODES {
            let out = search_conjunctive(&mut sys, PeerId(5), &q, strategy, mode);
            let r = rows(&out);
            assert_eq!(r.len(), 2, "{strategy:?}/{mode:?}: {r:?}");
            assert!(
                r.iter().any(|s| s.contains("seq:B1") && s.contains("200")),
                "{strategy:?}/{mode:?} must find the EMP-side join: {r:?}"
            );
            assert!(out.stats.reformulations >= 1, "{strategy:?}/{mode:?}");
        }
    }
}

#[test]
fn workload_conjunctive_queries_agree_across_modes() {
    // On the generated corpus (several schemas, manual chain), pair two
    // attributes of the same schema into a conjunctive query and check
    // mode/strategy agreement.
    let w = Workload::generate(WorkloadConfig {
        schemas: 6,
        entities: 80,
        export_fraction: 0.5,
        ..WorkloadConfig::small(11)
    });
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 48,
        seed: 11,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    for s in &w.schemas {
        sys.insert_schema(p0, s.clone()).unwrap();
    }
    for s in &w.schemas {
        sys.insert_triples(p0, w.triples_of(s.id())).unwrap();
    }
    for i in 0..w.schemas.len() - 1 {
        let a = w.schemas[i].id().clone();
        let b = w.schemas[i + 1].id().clone();
        let corrs = w.ground_truth.correct_pairs(&a, &b);
        if !corrs.is_empty() {
            sys.insert_mapping(
                p0,
                a,
                b,
                MappingKind::Equivalence,
                Provenance::Manual,
                corrs,
            )
            .unwrap();
        }
    }
    // Query: entities with attribute-0 value anything, plus attribute-1
    // value anything — both facts must exist for the same subject.
    let schema = &w.schemas[0];
    let attrs: Vec<&str> = schema
        .attributes()
        .iter()
        .take(2)
        .map(String::as_str)
        .collect();
    assert!(attrs.len() == 2, "schema has at least two attributes");
    let q = ConjunctiveQuery::new(
        vec!["x".into()],
        vec![
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri(format!("{}#{}", schema.id(), attrs[0]))),
                PatternTerm::var("v0"),
            ),
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri(format!("{}#{}", schema.id(), attrs[1]))),
                PatternTerm::var("v1"),
            ),
        ],
    )
    .unwrap();
    let baseline = search_conjunctive(
        &mut sys,
        PeerId(1),
        &q,
        Strategy::Iterative,
        JoinMode::Independent,
    );
    assert!(!baseline.rows.is_empty(), "corpus yields join results");
    for strategy in ALL_STRATEGIES {
        for mode in ALL_MODES {
            let out = search_conjunctive(&mut sys, PeerId(1), &q, strategy, mode);
            assert_eq!(rows(&out), rows(&baseline), "{strategy:?}/{mode:?}");
        }
    }
}

#[test]
fn generated_conjunctive_queries_reach_ground_truth_recall() {
    // Full manual chain over the corpus: generated conjunctive queries
    // must recover a substantial fraction of their global ground truth,
    // with both join modes returning identical accessions.
    use gridvine_workload::{recall, QueryConfig, QueryGenerator};
    use std::collections::BTreeSet;

    let w = Workload::generate(WorkloadConfig {
        schemas: 6,
        entities: 80,
        export_fraction: 0.5,
        ..WorkloadConfig::small(21)
    });
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 48,
        seed: 21,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    for s in &w.schemas {
        sys.insert_schema(p0, s.clone()).unwrap();
    }
    for s in &w.schemas {
        sys.insert_triples(p0, w.triples_of(s.id())).unwrap();
    }
    for i in 0..w.schemas.len() - 1 {
        let a = w.schemas[i].id().clone();
        let b = w.schemas[i + 1].id().clone();
        let corrs = w.ground_truth.correct_pairs(&a, &b);
        if !corrs.is_empty() {
            sys.insert_mapping(
                p0,
                a,
                b,
                MappingKind::Equivalence,
                Provenance::Manual,
                corrs,
            )
            .unwrap();
        }
    }

    let gen = QueryGenerator::new(&w, QueryConfig::default());
    let mut rng = gridvine_netsim::rng::seeded(9);
    let mut recalls = Vec::new();
    for g in gen.conjunctive_batch(10, &mut rng) {
        if g.true_answers.is_empty() {
            continue;
        }
        let accessions = |out: &QueryOutcome| -> BTreeSet<String> {
            out.rows
                .iter()
                .filter_map(|b| b.get("x"))
                .filter_map(|t| t.as_uri())
                .filter_map(|u| u.as_str().strip_prefix("seq:").map(str::to_string))
                .collect()
        };
        let ind = search_conjunctive(
            &mut sys,
            PeerId(2),
            &g.query,
            Strategy::Iterative,
            JoinMode::Independent,
        );
        let bnd = search_conjunctive(
            &mut sys,
            PeerId(2),
            &g.query,
            Strategy::Iterative,
            JoinMode::BoundSubstitution,
        );
        let found = accessions(&ind);
        assert_eq!(found, accessions(&bnd), "modes disagree on {}", g.query);
        // Everything found must be true: the constrained value pools are
        // disjoint across concepts, so precision is exact.
        for acc in &found {
            assert!(
                g.true_answers.contains(acc),
                "false positive {acc} for {}",
                g.query
            );
        }
        recalls.push(recall(&found, &g.true_answers));
    }
    assert!(recalls.len() >= 5, "most generated queries are answerable");
    let mean = recalls.iter().sum::<f64>() / recalls.len() as f64;
    assert!(
        mean > 0.5,
        "full chain should integrate most join answers, mean recall {mean}"
    );
}

/// `A#name` ≡ `B#label`, one `"x"` record under each, and a fact in a
/// third schema whose *object* is the predicate `A#name`.
fn predicate_as_data() -> GridVineSystem {
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 32,
        seed: 5,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    sys.insert_schema(p0, Schema::new("A", ["name"])).unwrap();
    sys.insert_schema(p0, Schema::new("B", ["label"])).unwrap();
    sys.insert_schema(p0, Schema::new("M", ["pred"])).unwrap();
    sys.insert_mapping(
        p0,
        "A",
        "B",
        MappingKind::Equivalence,
        Provenance::Manual,
        vec![Correspondence::new("name", "label")],
    )
    .unwrap();
    sys.insert_triple(p0, Triple::new("e:1", "A#name", Term::literal("x")))
        .unwrap();
    sys.insert_triple(p0, Triple::new("e:2", "B#label", Term::literal("x")))
        .unwrap();
    sys.insert_triple(p0, Triple::new("q:1", "M#pred", Term::uri("A#name")))
        .unwrap();
    sys
}

fn pattern(s: PatternTerm, p: PatternTerm, o: PatternTerm) -> TriplePattern {
    TriplePattern::new(s, p, o)
}

fn var(name: &str) -> PatternTerm {
    PatternTerm::var(name)
}

fn uri(u: &str) -> PatternTerm {
    PatternTerm::constant(Term::uri(u))
}

fn lit(l: &str) -> PatternTerm {
    PatternTerm::constant(Term::literal(l))
}

#[test]
fn bound_predicate_variable_keeps_its_closure() {
    // `?p` is bound by the first pattern and is the second's predicate:
    // under bound substitution each substituted predicate is a schema'd
    // pattern with a closure of its own, so `A#name` is also answered
    // as `B#label`. (A sweep of the unsubstituted second pattern would
    // have no schema to reformulate from, and would lose `e:2`.)
    let q = ConjunctiveQuery::new(
        vec!["s".into()],
        vec![
            pattern(var("q"), uri("M#pred"), var("p")),
            pattern(var("s"), var("p"), lit("x")),
        ],
    )
    .unwrap();
    for strategy in ALL_STRATEGIES {
        let mut sys = predicate_as_data();
        let out = search_conjunctive(
            &mut sys,
            PeerId(7),
            &q,
            strategy,
            JoinMode::BoundSubstitution,
        );
        assert_eq!(
            out.terms("s"),
            vec![Term::uri("e:1"), Term::uri("e:2")],
            "{strategy:?}"
        );
        assert_eq!(out.stats.reformulations, 1, "{strategy:?}");
        assert_eq!(out.stats.subqueries, 3, "{strategy:?}");
        assert_eq!(out.stats.failures, 0, "{strategy:?}");
        // An independent sweep cannot reformulate a variable predicate:
        // it answers the pattern as written, in no schema.
        let ind = search_conjunctive(&mut sys, PeerId(7), &q, strategy, JoinMode::Independent);
        assert_eq!(ind.terms("s"), vec![Term::uri("e:1")], "{strategy:?}");
        assert_eq!(ind.stats.reformulations, 0, "{strategy:?}");
    }
}

#[test]
fn a_pattern_with_nothing_to_route_by_goes_out_by_its_instances() {
    // `(?s, ?p, ?o)` has no constant: it is routable only once `?s` is
    // bound, instance by instance, by the subject each seed puts in.
    let q = ConjunctiveQuery::new(
        vec!["s".into(), "p".into(), "o".into()],
        vec![
            pattern(var("s"), uri("S#a0"), lit("x")),
            pattern(var("s"), var("p"), var("o")),
        ],
    )
    .unwrap();
    let triples = vec![
        Triple::new("e:1", "S#a0", Term::literal("x")),
        Triple::new("e:1", "S#a1", Term::literal("one")),
        Triple::new("e:2", "S#a0", Term::literal("x")),
        Triple::new("e:2", "S#a2", Term::uri("e:1")),
        Triple::new("e:3", "S#a0", Term::literal("y")),
        Triple::new("e:3", "S#a1", Term::literal("three")),
    ];
    let (mut sys, oracle) = single_schema_system(&triples);
    let expected = oracle_rows(&q, &oracle);
    assert_eq!(expected.len(), 4, "two facts about each of e:1 and e:2");
    let leaf = |sys: &GridVineSystem, s: &str| sys.topology().responsible(&sys.key_of(s))[0];
    assert_eq!(
        leaf(&sys, "e:1"),
        leaf(&sys, "e:2"),
        "the two subjects' keys share a leaf"
    );
    for strategy in ALL_STRATEGIES {
        let bound = search_conjunctive(
            &mut sys,
            PeerId(3),
            &q,
            strategy,
            JoinMode::BoundSubstitution,
        );
        assert_eq!(rows(&bound), expected, "{strategy:?}");
        assert_eq!(bound.stats.failures, 0);
        // Both instances are answered by the request of the first. The
        // other requests are the first pattern's: run it on its own,
        // both with its closure memoized by the run above.
        let bound = search_conjunctive(
            &mut sys,
            PeerId(3),
            &q,
            strategy,
            JoinMode::BoundSubstitution,
        );
        let first = ConjunctiveQuery::new(vec!["s".into()], vec![q.patterns[0].clone()]).unwrap();
        let alone = search_conjunctive(
            &mut sys,
            PeerId(3),
            &first,
            strategy,
            JoinMode::BoundSubstitution,
        );
        assert_eq!(
            bound.stats.requests,
            alone.stats.requests + 1,
            "{strategy:?}"
        );
        assert_eq!(bound.stats.subqueries, alone.stats.subqueries + 2);
        // Each request lists the instances not yet answered: two seeds
        // of one variable, once.
        assert_eq!(bound.stats.bindings_carried, 2);

        let independent = sys.execute(
            PeerId(3),
            &QueryPlan::conjunctive(q.clone()),
            &QueryOptions::new()
                .strategy(strategy)
                .join_mode(JoinMode::Independent),
        );
        assert!(
            matches!(independent, Err(SystemError::NotRoutable)),
            "{strategy:?}: {independent:?}"
        );
    }
}

#[test]
fn a_join_that_cannot_route_is_refused_before_anything_is_sent() {
    let mut sys = GridVineSystem::new(GridVineConfig::default());
    let p0 = PeerId(0);
    sys.insert_schema(p0, Schema::new("EMBL", ["Organism"]))
        .unwrap();
    let record = Triple::new("seq:A", "EMBL#Organism", Term::literal("Aspergillus niger"));
    sys.insert_triple(p0, record).unwrap();
    let refused = |sys: &mut GridVineSystem, plan: &QueryPlan, mode: JoinMode| {
        let before = sys.messages_sent();
        let options = QueryOptions::new().join_mode(mode);
        let opened = sys.open(PeerId(3), plan, &options).map(|_| ());
        assert!(
            matches!(opened, Err(SystemError::NotRoutable)),
            "{mode:?}: {opened:?}"
        );
        assert_eq!(sys.messages_sent(), before, "{mode:?}: nothing is sent");
    };
    // `(?x, ?p, ?v)` has nothing to route by. An independent sweep
    // cannot send it; a bound one routes it by the subject the first
    // pattern binds.
    let plan = QueryPlan::conjunctive(
        parse_query("SELECT ?x, ?v WHERE (?x, <EMBL#Organism>, ?o), (?x, ?p, ?v)").unwrap(),
    );
    refused(&mut sys, &plan, JoinMode::Independent);
    let bound = sys.execute(
        PeerId(3),
        &plan,
        &QueryOptions::new().join_mode(JoinMode::BoundSubstitution),
    );
    assert_eq!(bound.unwrap().rows.len(), 1);
    // A wildcard is no routing constant either: the first pattern of
    // the order has nothing bound to route it by, in either mode.
    let plan = QueryPlan::conjunctive(
        parse_query(r#"SELECT ?x WHERE (?x, ?p, ?v), (?x, ?q, "%niger%")"#).unwrap(),
    );
    for mode in ALL_MODES {
        refused(&mut sys, &plan, mode);
    }
}

#[test]
fn a_seed_that_leaves_nothing_to_route_by_is_a_recorded_failure() {
    // The wildcard object is no routing constant, and neither pattern
    // binds anything the other could route by.
    let q = ConjunctiveQuery::new(
        vec!["s".into()],
        vec![
            pattern(var("s"), uri("S#a0"), lit("x")),
            pattern(var("t"), var("p"), lit("%n%")),
        ],
    )
    .unwrap();
    let (mut sys, _) = single_schema_system(&[
        Triple::new("e:1", "S#a0", Term::literal("x")),
        Triple::new("e:1", "S#a1", Term::literal("one")),
    ]);
    let out = search_conjunctive(
        &mut sys,
        PeerId(3),
        &q,
        Strategy::Iterative,
        JoinMode::BoundSubstitution,
    );
    assert!(out.rows.is_empty(), "the candidate row is dropped");
    assert_eq!(out.stats.failures, 1);
}

#[test]
fn a_bound_value_with_a_percent_sign_is_matched_exactly() {
    // `?v` binds the literal "50%": in the next pattern it is a value,
    // not a LIKE prefix, so "500" must not join it.
    let (mut sys, oracle) = single_schema_system(&[
        Triple::new("e:1", "S#a0", Term::literal("50%")),
        Triple::new("e:2", "S#a1", Term::literal("500")),
        Triple::new("e:3", "S#a1", Term::literal("50%")),
    ]);
    let q = parse_query("SELECT ?x, ?y WHERE (?x, <S#a0>, ?v), (?y, <S#a1>, ?v)").unwrap();
    let expected = oracle_rows(&q, &oracle);
    assert_eq!(expected, ["{?x=<e:1>, ?y=<e:3>}"]);
    for strategy in ALL_STRATEGIES {
        for mode in ALL_MODES {
            let out = search_conjunctive(&mut sys, PeerId(4), &q, strategy, mode);
            assert_eq!(rows(&out), expected, "{strategy:?}/{mode:?}");
        }
    }
    // The same value is what an instance with no constant of its own
    // routes by: it is a value there too.
    let q = parse_query("SELECT ?x, ?y, ?p WHERE (?x, <S#a0>, ?v), (?y, ?p, ?v)").unwrap();
    let expected = oracle_rows(&q, &oracle);
    assert_eq!(expected.len(), 2, "e:1 and e:3 hold \"50%\"");
    for strategy in ALL_STRATEGIES {
        let out = search_conjunctive(
            &mut sys,
            PeerId(4),
            &q,
            strategy,
            JoinMode::BoundSubstitution,
        );
        assert_eq!(rows(&out), expected, "{strategy:?}");
        assert_eq!(out.stats.failures, 0, "{strategy:?}");
    }
}

/// The two join modes on a selective ∧ unselective pair over `n`
/// entities, the first `selective` of them Aspergillus: the same rows
/// in both modes; while the corpus grows, independent ships more and
/// everything about bound substitution stays flat; and once the
/// selective side is the whole corpus, what bound's requests carry and
/// its replies ship outweighs the independent sweep, with one batch
/// factor (20 terms a message) for both directions.
#[test]
fn bound_substitution_stays_flat_until_the_selective_side_is_the_corpus() {
    let q =
        parse_query(r#"SELECT ?x, ?len WHERE (?x, <S#a0>, "%Aspergillus%"), (?x, <S#a1>, ?len)"#)
            .unwrap();
    let run = |n: usize, selective: usize| {
        let triples: Vec<Triple> = (0..n)
            .flat_map(|i| {
                let subject = format!("e:{i:05}");
                let organism = if i < selective {
                    format!("Aspergillus strain {i}")
                } else {
                    format!("Escherichia coli K-{i}")
                };
                let length = format!("{}", 400 + (i * 37) % 3000);
                [
                    Triple::new(subject.as_str(), "S#a0", Term::literal(organism)),
                    Triple::new(subject.as_str(), "S#a1", Term::literal(length)),
                ]
            })
            .collect();
        let (mut sys, _) = single_schema_system(&triples);
        let mut outcome =
            |mode| search_conjunctive(&mut sys, PeerId(1), &q, Strategy::Iterative, mode);
        let (ind, bnd) = (
            outcome(JoinMode::Independent),
            outcome(JoinMode::BoundSubstitution),
        );
        assert_eq!(
            rows(&ind),
            rows(&bnd),
            "{n} entities, {selective} selective"
        );
        assert_eq!(ind.rows.len(), selective);
        assert_eq!(ind.stats.bindings_carried, 0, "no column, nothing carried");
        let cost = |s: &gridvine_core::ExecStats| {
            s.messages as f64 + (s.bindings_shipped + s.bindings_carried) as f64 / 20.0
        };
        (ind.stats, bnd.stats, cost(&ind.stats) > cost(&bnd.stats))
    };
    let (small_ind, small_bnd, bound_wins) = run(50, 8);
    assert!(bound_wins);
    let (large_ind, large_bnd, bound_wins) = run(200, 8);
    assert!(bound_wins);
    assert!(large_ind.bindings_shipped > small_ind.bindings_shipped);
    let flat = |s: gridvine_core::ExecStats| (s.messages, s.bindings_shipped, s.bindings_carried);
    assert_eq!(flat(large_bnd), flat(small_bnd));
    let (_, all_bnd, bound_wins) = run(200, 200);
    assert_eq!(all_bnd.messages, large_bnd.messages);
    assert!(
        !bound_wins,
        "the winner flips once every entity is selective"
    );
}

// ---------------------------------------------------------------------
// Property: distributed conjunctive evaluation == centralized oracle,
// for random corpora and a random join query of a random shape.
// ---------------------------------------------------------------------

fn arb_triples() -> impl proptest::strategy::Strategy<Value = Vec<Triple>> {
    // Small pools force joins and collisions. Objects are literals,
    // subjects (so a join variable can sit in object position and a
    // chain can continue) or predicates (so a variable can be bound to
    // one and then stand in predicate position).
    let subj = prop::sample::select(vec!["e:1", "e:2", "e:3", "e:4", "e:5"]);
    let pred = prop::sample::select(vec!["S#a0", "S#a1", "S#a2", "S#a3"]);
    let obj = prop::sample::select(vec![
        Term::literal("alpha"),
        Term::literal("beta"),
        Term::literal("gamma"),
        Term::uri("e:1"),
        Term::uri("e:2"),
        Term::uri("S#a2"),
        Term::uri("S#a3"),
    ]);
    prop::collection::vec((subj, pred, obj), 1..40).prop_map(|v| {
        v.into_iter()
            .map(|(s, p, o)| Triple::new(s, p, o))
            .collect()
    })
}

/// A selective first pattern joined to one of the shapes a second
/// pattern (or a chain of two) can take.
fn arb_query() -> impl proptest::strategy::Strategy<Value = ConjunctiveQuery> {
    let p1 = prop::sample::select(vec!["S#a0", "S#a1"]);
    let p2 = prop::sample::select(vec!["S#a2", "S#a3", "S#a0"]);
    let p3 = prop::sample::select(vec!["S#a1", "S#a2"]);
    let c1 = prop::sample::select(vec!["alpha", "beta"]);
    let c2 = prop::sample::select(vec!["alpha", "gamma"]);
    (0usize..6, p1, p2, p3, c1, c2).prop_map(|(shape, p1, p2, p3, c1, c2)| {
        let selective = pattern(var("x"), uri(p1), lit(c1));
        let (distinguished, patterns) = match shape {
            // The join variable is the second pattern's subject …
            0 => (
                vec!["x", "v"],
                vec![selective, pattern(var("x"), uri(p2), var("v"))],
            ),
            // … or its object.
            1 => (
                vec!["x", "v"],
                vec![selective, pattern(var("v"), uri(p2), var("x"))],
            ),
            // A variable predicate the first pattern binds,
            2 => (
                vec!["x", "p", "y"],
                vec![
                    pattern(var("x"), uri(p1), var("p")),
                    pattern(var("y"), var("p"), lit(c2)),
                ],
            ),
            // one nothing binds, beside a constant to route by,
            3 => (
                vec!["x", "q"],
                vec![selective, pattern(var("x"), var("q"), lit(c2))],
            ),
            // and one with nothing to route by but what `?x` is bound
            // to.
            4 => (
                vec!["x", "q", "v"],
                vec![selective, pattern(var("x"), var("q"), var("v"))],
            ),
            // A three-pattern chain through an object.
            _ => (
                vec!["x", "v"],
                vec![
                    selective,
                    pattern(var("x"), uri(p2), var("y")),
                    pattern(var("y"), uri(p3), var("v")),
                ],
            ),
        };
        let distinguished = distinguished.into_iter().map(String::from).collect();
        ConjunctiveQuery::new(distinguished, patterns).expect("valid query")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn distributed_join_matches_centralized_oracle(
        triples in arb_triples(),
        q in arb_query(),
    ) {
        let (mut sys, oracle) = single_schema_system(&triples);
        let expected = oracle_rows(&q, &oracle);
        // An independent sweep needs a constant in every pattern; a
        // bound one only in what the partial solutions make of it.
        let independent_routes = q.patterns.iter().all(|p| p.routing_constant().is_some());
        let plan = QueryPlan::conjunctive(q.clone());
        for strategy in ALL_STRATEGIES {
            for mode in ALL_MODES {
                let options = QueryOptions::new().strategy(strategy).join_mode(mode);
                let out = sys.execute(PeerId(3), &plan, &options);
                if mode == JoinMode::Independent && !independent_routes {
                    prop_assert!(matches!(out, Err(SystemError::NotRoutable)), "{}", q);
                    continue;
                }
                let out = out.expect("routable");
                prop_assert_eq!(rows(&out), expected.clone(), "{:?}/{:?} {}", strategy, mode, q);
                prop_assert_eq!(out.stats.failures, 0);
            }
        }
    }
}
