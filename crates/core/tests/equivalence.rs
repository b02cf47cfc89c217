//! Equivalence and early-termination properties of the pull-based
//! query surface:
//!
//! * [`GridVineSystem::execute`] ≡ a manually drained
//!   [`QuerySession`] — identical rows, identical message counts and
//!   identical counters, across plan shapes, strategies and join
//!   modes, on randomized federations (and twice in a row, so the two
//!   systems' RNG/overlay state provably evolves in lock-step);
//! * the event protocol is self-consistent: `Stats` deltas sum to the
//!   outcome's totals, `Rows` batches union to the outcome's rows,
//!   `SchemaHop`s count the schemas visited;
//! * the epoch-keyed reformulation-closure cache is correct: mapping
//!   inserts/deprecations bump the epoch and invalidate it (post-
//!   mutation queries see exactly the new mapping network, in lock-step
//!   with an identically-seeded twin), and warm replays undercut cold
//!   walks on messages without changing results;
//! * early termination is genuine: dropping a session stops issuing
//!   messages, and a `limit(k)` run sends strictly fewer messages than
//!   the unlimited run for k ≪ result count.

use gridvine_core::{
    ExecStats, GridVineConfig, GridVineSystem, JoinMode, QueryOptions, QueryPlan, ResultEvent,
    Strategy,
};
use gridvine_pgrid::PeerId;
use gridvine_rdf::{
    Binding, ConjunctiveQuery, PatternTerm, Term, Triple, TriplePattern, TriplePatternQuery,
};
use gridvine_semantic::{Correspondence, MappingKind, Provenance, Schema};
use proptest::prelude::*;

const PEERS: usize = 32;
const VALUES: [&str; 5] = [
    "Aspergillus niger",
    "Aspergillus oryzae",
    "Escherichia coli",
    "Penicillium notatum",
    "Saccharomyces cerevisiae",
];

/// A randomized federation: `schemas` schemas with two attributes each,
/// a (partially present) chain of equivalence mappings, and `facts`
/// organism + length triples scattered over entities and schemas.
fn build(seed: u64, schemas: usize, links: &[bool], facts: &[(u8, u8, u8)]) -> GridVineSystem {
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: PEERS,
        seed,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    for i in 0..schemas {
        sys.insert_schema(
            p0,
            Schema::new(
                format!("S{i}").as_str(),
                [format!("organism{i}"), format!("length{i}")],
            ),
        )
        .unwrap();
    }
    for i in 0..schemas - 1 {
        if links.get(i).copied().unwrap_or(true) {
            sys.insert_mapping(
                p0,
                format!("S{i}").as_str(),
                format!("S{}", i + 1).as_str(),
                MappingKind::Equivalence,
                Provenance::Manual,
                vec![
                    Correspondence::new(format!("organism{i}"), format!("organism{}", i + 1)),
                    Correspondence::new(format!("length{i}"), format!("length{}", i + 1)),
                ],
            )
            .unwrap();
        }
    }
    for &(e, s, v) in facts {
        let s = (s as usize) % schemas;
        let subject = format!("seq:E{:02}", e % 12);
        let value = VALUES[v as usize % VALUES.len()];
        sys.insert_triple(
            p0,
            Triple::new(
                subject.as_str(),
                format!("S{s}#organism{s}").as_str(),
                Term::literal(value),
            ),
        )
        .unwrap();
        sys.insert_triple(
            p0,
            Triple::new(
                subject.as_str(),
                format!("S{s}#length{s}").as_str(),
                Term::literal(format!("{}", 100 + (v as usize % 7) * 10)),
            ),
        )
        .unwrap();
    }
    sys
}

fn organism_query() -> TriplePatternQuery {
    TriplePatternQuery::new(
        "x",
        TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("S0#organism0")),
            PatternTerm::constant(Term::literal("%Aspergillus%")),
        ),
    )
    .unwrap()
}

fn organism_length_query() -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        vec!["x".into(), "len".into()],
        vec![
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri("S0#organism0")),
                PatternTerm::constant(Term::literal("%Aspergillus%")),
            ),
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri("S0#length0")),
                PatternTerm::var("len"),
            ),
        ],
    )
    .unwrap()
}

/// What draining a session observed, event by event.
struct Drained {
    rows_from_events: Vec<Binding>,
    stats_from_deltas: ExecStats,
    schema_hops: usize,
    /// `Stats` events: one per unit.
    units: usize,
    outcome: gridvine_core::QueryOutcome,
}

/// Drain a session manually, accumulating every event kind.
fn drain(
    sys: &mut GridVineSystem,
    origin: PeerId,
    plan: &QueryPlan,
    options: &QueryOptions,
) -> Result<Drained, gridvine_core::SystemError> {
    let mut session = sys.open(origin, plan, options)?;
    let mut rows_from_events = Vec::new();
    let mut stats_from_deltas = ExecStats::default();
    let mut schema_hops = 0usize;
    let mut units = 0usize;
    while let Some(ev) = session.next_event()? {
        match ev {
            ResultEvent::Rows(batch) => rows_from_events.extend(session.decode(&batch)),
            ResultEvent::SchemaHop { .. } => schema_hops += 1,
            ResultEvent::Stats(d) => {
                stats_from_deltas += d;
                units += 1;
            }
        }
    }
    assert!(session.is_complete());
    Ok(Drained {
        rows_from_events,
        stats_from_deltas,
        schema_hops,
        units,
        outcome: session.into_outcome(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `execute(QueryPlan::search)` ≡ a drained session: rows,
    /// accessions and every counter, for both strategies, twice in a
    /// row — and the event stream is self-consistent (deltas sum to
    /// totals, batches union to rows, hops count schemas).
    #[test]
    fn search_execute_equals_drained_session(
        seed in 0u64..1000,
        schemas in 2usize..4,
        links in proptest::collection::vec(any::<bool>(), 0..3),
        facts in proptest::collection::vec((0u8..12, 0u8..4, 0u8..5), 1..24),
        origin in 0usize..PEERS,
        recursive in any::<bool>(),
    ) {
        let strategy = if recursive { Strategy::Recursive } else { Strategy::Iterative };
        let options = QueryOptions::new().strategy(strategy);
        let plan = QueryPlan::search(organism_query());
        let mut blocking = build(seed, schemas, &links, &facts);
        let mut pulled = build(seed, schemas, &links, &facts);
        for round in 0..2 {
            let at = PeerId::from_index((origin + 7 * round) % PEERS);
            let a = blocking.execute(at, &plan, &options).unwrap();
            let d = drain(&mut pulled, at, &plan, &options).unwrap();
            prop_assert_eq!(&a.rows, &d.outcome.rows, "round {} rows", round);
            prop_assert_eq!(a.accessions(), d.outcome.accessions(), "round {}", round);
            prop_assert_eq!(a.stats, d.outcome.stats, "round {} stats", round);
            // Event-protocol invariants.
            prop_assert_eq!(d.stats_from_deltas, d.outcome.stats, "delta sum");
            let mut from_events = d.rows_from_events.clone();
            from_events.sort_by(|x, y| x.get("x").cmp(&y.get("x")));
            prop_assert_eq!(&from_events, &d.outcome.rows, "batches union to rows");
            prop_assert_eq!(d.schema_hops, d.outcome.stats.schemas_visited, "hops");
        }
    }

    /// `execute(QueryPlan::conjunctive)` ≡ a drained session: rows and
    /// every counter, across strategies and join modes.
    #[test]
    fn conjunctive_execute_equals_drained_session(
        seed in 0u64..1000,
        schemas in 2usize..4,
        links in proptest::collection::vec(any::<bool>(), 0..3),
        facts in proptest::collection::vec((0u8..12, 0u8..4, 0u8..5), 1..20),
        origin in 0usize..PEERS,
        recursive in any::<bool>(),
        bound in any::<bool>(),
    ) {
        let strategy = if recursive { Strategy::Recursive } else { Strategy::Iterative };
        let mode = if bound { JoinMode::BoundSubstitution } else { JoinMode::Independent };
        let options = QueryOptions::new().strategy(strategy).join_mode(mode);
        let plan = QueryPlan::conjunctive(organism_length_query());
        let mut blocking = build(seed, schemas, &links, &facts);
        let mut pulled = build(seed, schemas, &links, &facts);
        for round in 0..2 {
            let at = PeerId::from_index((origin + 11 * round) % PEERS);
            let a = blocking.execute(at, &plan, &options).unwrap();
            let d = drain(&mut pulled, at, &plan, &options).unwrap();
            prop_assert_eq!(&a.rows, &d.outcome.rows, "round {} rows", round);
            prop_assert_eq!(a.stats, d.outcome.stats, "round {} stats", round);
            prop_assert_eq!(d.stats_from_deltas, d.outcome.stats, "delta sum");
            let mut from_events = d.rows_from_events.clone();
            from_events.sort_by_key(|b| b.to_string());
            prop_assert_eq!(&from_events, &d.outcome.rows, "batches union to rows");
        }
    }

    /// The executor's bound-substitution conjunctive runs (which probe
    /// the store's shared-slot hash-join machinery) keep identical rows
    /// and message counts across identically-seeded twins.
    #[test]
    fn bound_join_executor_messages_match_drained_session(
        seed in 0u64..1000,
        schemas in 2usize..4,
        links in proptest::collection::vec(any::<bool>(), 0..3),
        facts in proptest::collection::vec((0u8..12, 0u8..4, 0u8..5), 1..24),
        origin in 0usize..PEERS,
    ) {
        // Rows AND message counts stay in lock-step between a blocking
        // execute and a drained session on identically-seeded twins —
        // the join layer feeds both, so any order or count drift from
        // the build-free probe path would surface here.
        let options = QueryOptions::new().join_mode(JoinMode::BoundSubstitution);
        let plan = QueryPlan::conjunctive(organism_length_query());
        let at = PeerId::from_index(origin);
        let mut blocking = build(seed, schemas, &links, &facts);
        let mut pulled = build(seed, schemas, &links, &facts);
        let a = blocking.execute(at, &plan, &options).unwrap();
        let d = drain(&mut pulled, at, &plan, &options).unwrap();
        prop_assert_eq!(&a.rows, &d.outcome.rows, "executor rows");
        prop_assert_eq!(a.stats.messages, d.outcome.stats.messages, "executor messages");
        prop_assert_eq!(a.stats, d.outcome.stats, "executor stats");
    }

    /// `execute(QueryPlan::pattern)` and `execute(QueryPlan::object_prefix)`
    /// ≡ their drained sessions.
    #[test]
    fn resolve_execute_equals_drained_session(
        seed in 0u64..1000,
        schemas in 2usize..4,
        facts in proptest::collection::vec((0u8..12, 0u8..4, 0u8..5), 1..20),
        origin in 0usize..PEERS,
    ) {
        let at = PeerId::from_index(origin);
        for plan in [
            QueryPlan::pattern(organism_query()),
            QueryPlan::object_prefix(
                TriplePatternQuery::new(
                    "x",
                    TriplePattern::new(
                        PatternTerm::var("x"),
                        PatternTerm::var("p"),
                        PatternTerm::constant(Term::literal("Aspergillus%")),
                    ),
                )
                .unwrap(),
            ),
        ] {
            let mut blocking = build(seed, schemas, &[], &facts);
            let mut pulled = build(seed, schemas, &[], &facts);
            let a = blocking.execute(at, &plan, &QueryOptions::default()).unwrap();
            let d = drain(&mut pulled, at, &plan, &QueryOptions::default()).unwrap();
            prop_assert_eq!(&a.rows, &d.outcome.rows, "{} rows", plan);
            prop_assert_eq!(a.stats, d.outcome.stats, "{} stats", plan);
            prop_assert_eq!(d.stats_from_deltas, d.outcome.stats, "{} delta sum", plan);
        }
    }

    /// Cache invalidation: a mapping insert or deprecation bumps the
    /// epoch, empties the cache, and the next query sees exactly the
    /// new mapping network — in lock-step (results AND message counts)
    /// with an identically-seeded twin driven through the identical
    /// warm-then-mutate sequence, and with semantically correct results
    /// (the deprecated edge unreachable / the inserted edge reachable).
    #[test]
    fn mapping_mutations_invalidate_the_closure_cache(
        seed in 0u64..1000,
        facts in proptest::collection::vec((0u8..12, 0u8..3, 0u8..2), 4..20),
        origin in 0usize..PEERS,
        deprecate in any::<bool>(),
    ) {
        // Full 3-chain; every fact value is an Aspergillus organism, so
        // the closure's reach is observable in the result rows.
        let schemas = 3usize;
        let plan = QueryPlan::search(organism_query());
        let options = QueryOptions::default(); // iterative → cached
        let at = PeerId::from_index(origin);
        let mut sys = build(seed, schemas, &[], &facts);
        let mut twin = build(seed, schemas, &[], &facts);

        let warm_up = sys.execute(at, &plan, &options).unwrap();
        prop_assert!(sys.cached_closures() > 0, "closure recorded");
        let epoch_before = sys.registry().epoch();
        twin.execute(at, &plan, &options).unwrap();

        // Mutate the mapping network (both systems identically).
        if deprecate {
            let id = sys.registry().mappings().next().map(|m| m.id).unwrap();
            sys.deprecate_mapping(PeerId(0), id).unwrap();
            twin.deprecate_mapping(PeerId(0), id).unwrap();
        } else {
            for s in [&mut sys, &mut twin] {
                s.insert_mapping(
                    PeerId(0),
                    "S0",
                    "S2",
                    MappingKind::Equivalence,
                    Provenance::Automatic,
                    vec![Correspondence::new("organism0", "organism2")],
                )
                .unwrap();
            }
        }
        prop_assert!(sys.registry().epoch() > epoch_before, "epoch bumped");
        prop_assert_eq!(sys.cached_closures(), 0, "stale cache counts as empty");

        let after = sys.execute(at, &plan, &options).unwrap();
        let after_twin = twin.execute(at, &plan, &options).unwrap();
        prop_assert_eq!(&after.rows, &after_twin.rows, "post-mutation rows in lock-step");
        prop_assert_eq!(after.stats, after_twin.stats, "post-mutation stats in lock-step");
        if deprecate {
            // S0—S1 cut: the walk must stop at S0 (no stale replay of
            // the old 3-schema closure).
            prop_assert_eq!(after.stats.schemas_visited, 1);
            prop_assert_eq!(after.stats.reformulations, 0);
            prop_assert!(after.rows.len() <= warm_up.rows.len());
        } else {
            // A fresh S0→S2 shortcut exists; the closure still reaches
            // all three schemas (now partly over the new edge), so no
            // results may be lost to a stale replay.
            prop_assert_eq!(after.stats.schemas_visited, 3);
            prop_assert!(after.rows.len() >= warm_up.rows.len());
        }
        // The fresh walk re-populated the cache at the new epoch.
        prop_assert!(sys.cached_closures() > 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A join pattern's sweep is a closure plan's walk: a single-pattern
    /// independent join and a closure plan of the same pattern step the
    /// same walk one exchange per unit, so every counter and the message
    /// count must agree (cold walk, cache record and replay alike), cold
    /// and warm, across strategies.
    #[test]
    fn bulk_sweep_accounting_matches_incremental_closure(
        seed in 0u64..1000,
        schemas in 2usize..4,
        links in proptest::collection::vec(any::<bool>(), 0..3),
        facts in proptest::collection::vec((0u8..12, 0u8..4, 0u8..5), 1..20),
        origin in 0usize..PEERS,
        recursive in any::<bool>(),
    ) {
        let strategy = if recursive { Strategy::Recursive } else { Strategy::Iterative };
        let options = QueryOptions::new().strategy(strategy);
        let q = organism_query();
        let closure_plan = QueryPlan::search(q.clone());
        let join_plan = QueryPlan::conjunctive(
            ConjunctiveQuery::new(vec!["x".into()], vec![q.pattern.clone()]).unwrap(),
        );
        let join_options = options.join_mode(JoinMode::Independent);
        let mut via_closure = build(seed, schemas, &links, &facts);
        let mut via_join = build(seed, schemas, &links, &facts);
        for round in 0..2 {
            // Round 0 is cold on both sides, round 1 replays the cache
            // (iterative) on both sides.
            let at = PeerId::from_index((origin + 5 * round) % PEERS);
            let c = via_closure.execute(at, &closure_plan, &options).unwrap();
            let j = via_join.execute(at, &join_plan, &join_options).unwrap();
            prop_assert_eq!(c.stats, j.stats, "round {} accounting", round);
            prop_assert_eq!(c.terms("x"), j.terms("x"), "round {} terms", round);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The scheduler window never changes what a query computes: for
    /// `w ∈ {2, 4, 8}`, an overlapped session produces the same row
    /// multiset AND the same total message count (and every other
    /// counter except the in-flight high-water mark) as the serial
    /// `w = 1` run — across plan shapes, strategies and join modes,
    /// cold and warm. And whatever the plan, a unit is one exchange: a
    /// drained session emits one `Stats` per request, plus one for an
    /// independent join's local fold.
    #[test]
    fn overlapped_windows_match_serial_execution(
        seed in 0u64..1000,
        schemas in 2usize..4,
        links in proptest::collection::vec(any::<bool>(), 0..3),
        facts in proptest::collection::vec((0u8..12, 0u8..4, 0u8..5), 1..20),
        origin in 0usize..PEERS,
        recursive in any::<bool>(),
        bound in any::<bool>(),
        limit in 0usize..4,
    ) {
        let strategy = if recursive { Strategy::Recursive } else { Strategy::Iterative };
        let mode = if bound { JoinMode::BoundSubstitution } else { JoinMode::Independent };
        let mut base = QueryOptions::new().strategy(strategy).join_mode(mode);
        // 0 means unlimited; otherwise a genuine early-termination cap.
        if limit > 0 {
            base = base.limit(limit);
        }
        let at = PeerId::from_index(origin);
        for plan in [
            QueryPlan::search(organism_query()),
            QueryPlan::conjunctive(organism_length_query()),
        ] {
            let fold = usize::from(matches!(plan, QueryPlan::Join { .. }) && !bound);
            let mut serial_sys = build(seed, schemas, &links, &facts);
            let mut serial = Vec::new();
            for _ in 0..2 {
                serial.push(serial_sys.execute(at, &plan, &base).unwrap());
            }
            for w in [2usize, 4, 8] {
                let mut sys = build(seed, schemas, &links, &facts);
                let options = base.window(w);
                // Two rounds: round 0 cold, round 1 warm (iterative).
                for (round, expect) in serial.iter().enumerate() {
                    let d = drain(&mut sys, at, &plan, &options).unwrap();
                    prop_assert_eq!(
                        &d.outcome.rows, &expect.rows,
                        "w={} round {} rows", w, round
                    );
                    prop_assert_eq!(
                        d.outcome.stats.messages, expect.stats.messages,
                        "w={} round {} messages", w, round
                    );
                    prop_assert_eq!(d.outcome.stats.subqueries, expect.stats.subqueries);
                    prop_assert_eq!(d.outcome.stats.reformulations, expect.stats.reformulations);
                    prop_assert_eq!(d.outcome.stats.schemas_visited, expect.stats.schemas_visited);
                    prop_assert_eq!(d.outcome.stats.failures, expect.stats.failures);
                    prop_assert_eq!(d.outcome.stats.bindings_shipped, expect.stats.bindings_shipped);
                    prop_assert_eq!(d.outcome.stats.mapping_fetches, expect.stats.mapping_fetches);
                    prop_assert_eq!(d.outcome.stats.cache_hits, expect.stats.cache_hits);
                    prop_assert_eq!(d.outcome.stats.cache_misses, expect.stats.cache_misses);
                    prop_assert_eq!(d.outcome.stats.cache_evictions, expect.stats.cache_evictions);
                    prop_assert!(
                        d.outcome.stats.max_in_flight <= w,
                        "w={}: hwm {} within window", w, d.outcome.stats.max_in_flight
                    );
                    // Event-protocol invariants hold under overlap too.
                    prop_assert_eq!(d.stats_from_deltas, d.outcome.stats, "w={} delta sum", w);
                    prop_assert_eq!(
                        d.units, d.outcome.stats.requests + fold,
                        "w={} round {}: one unit per exchange", w, round
                    );
                    prop_assert!(sys.pending_events() == 0, "drained session leaves no events");
                }
            }
        }
    }

    /// Dropping a session mid-flight cancels every scheduled reply:
    /// `pending_events()` returns to zero, no further messages are
    /// issued, and the system remains fully usable.
    #[test]
    fn dropping_mid_flight_leaves_no_pending_events(
        seed in 0u64..1000,
        facts in proptest::collection::vec((0u8..12, 0u8..4, 0u8..5), 4..20),
        origin in 0usize..PEERS,
        window in 1usize..9,
        pulls in 1usize..4,
    ) {
        let plan = QueryPlan::search(organism_query());
        let options = QueryOptions::new().window(window);
        let mut sys = build(seed, 4, &[], &facts);
        let at = PeerId::from_index(origin);
        let observed = {
            let mut session = sys.open(at, &plan, &options).unwrap();
            for _ in 0..pulls {
                if session.next_event().unwrap().is_none() {
                    break;
                }
            }
            session.stats().messages
            // Dropped here, possibly with replies still queued.
        };
        prop_assert_eq!(sys.pending_events(), 0, "drop cancelled all queued events");
        let after_drop = sys.messages_sent();
        let out = sys.execute(at, &plan, &QueryOptions::default()).unwrap();
        prop_assert!(sys.messages_sent() >= after_drop + out.stats.messages);
        prop_assert_eq!(sys.pending_events(), 0);
        let _ = observed;
    }
}

/// The peer responsible for `lexical`'s key.
fn leaf_of(sys: &GridVineSystem, lexical: &str) -> PeerId {
    sys.topology().responsible(&sys.key_of(lexical))[0]
}

/// Warm cache replays undercut cold walks on messages — same rows, no
/// mapping-list retrieve past the origin's — for the iterative and the
/// recursive strategy alike: one cache per schema, at the peer holding
/// its mapping list, which every walk of the schema reaches when it
/// expands its origin hop. The hops route by an object constant whose
/// leaf holds no schema key, so no data reply can carry a mapping
/// list: a cold walk discovers every one, a warm walk the origin's.
/// Where every reply carries its hop's list, the cold walk already
/// fetches none.
#[test]
fn warm_closure_replay_skips_mapping_fetch_messages() {
    let facts: Vec<(u8, u8, u8)> = (0..12).map(|i| (i, i % 4, 0)).collect();
    // Every fact's object; longer than `S0#organism0`, so it is what
    // every hop routes by.
    let object = VALUES[0];
    let q = TriplePatternQuery::new(
        "x",
        TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("S0#organism0")),
            PatternTerm::constant(Term::literal(object)),
        ),
    )
    .unwrap();
    let plan = QueryPlan::search(q);
    let options = QueryOptions::default();
    let mut sys = build(42, 4, &[], &facts);
    let data_leaf = leaf_of(&sys, object);
    assert!((0..4).all(|i| leaf_of(&sys, &format!("S{i}")) != data_leaf));
    assert_eq!(sys.cached_closures(), 0);
    let cold = sys.execute(PeerId(3), &plan, &options).unwrap();
    assert_eq!(sys.cached_closures(), 1);
    assert_eq!(cold.stats.cache_misses, 1);
    assert_eq!(cold.stats.cache_hits, 0);
    let warm = sys.execute(PeerId(3), &plan, &options).unwrap();
    assert_eq!(cold.rows, warm.rows, "replay must not change results");
    assert_eq!(cold.stats.schemas_visited, warm.stats.schemas_visited);
    assert_eq!(cold.stats.subqueries, warm.stats.subqueries);
    assert_eq!(warm.stats.cache_hits, 1);
    assert_eq!(cold.stats.mapping_fetches, 4);
    assert_eq!(
        warm.stats.mapping_fetches, 1,
        "replay fetches no mapping list past the origin's"
    );
    assert!(
        warm.stats.messages < cold.stats.messages,
        "warm {} must undercut cold {} (3 mapping fetches skipped)",
        warm.stats.messages,
        cold.stats.messages
    );
    // The cache is the schema's, not the origin's: a different origin
    // replays the same entry.
    let elsewhere = sys.execute(PeerId(9), &plan, &options).unwrap();
    assert_eq!(elsewhere.stats.cache_hits, 1);
    assert_eq!(elsewhere.stats.cache_misses, 0);
    assert_eq!(elsewhere.stats.mapping_fetches, 1);
    assert_eq!(elsewhere.terms("x"), warm.terms("x"));
    assert_eq!(sys.cached_closures(), 1, "one entry, at the holder");
    // And so does a recursive walk: the record is the same whichever
    // strategy committed it.
    let rec_opts = QueryOptions::new().strategy(Strategy::Recursive);
    let rec_shared = sys.execute(PeerId(3), &plan, &rec_opts).unwrap();
    assert_eq!(rec_shared.terms("x"), warm.terms("x"));
    assert_eq!(rec_shared.stats.cache_hits, 1);
    assert_eq!(rec_shared.stats.mapping_fetches, 1);

    // A recursive walk on a fresh system records at the holder, and the
    // next replays its tail — identical rows, strictly fewer
    // mapping-list retrieves.
    let mut sys = build(42, 4, &[], &facts);
    let rec_cold = sys.execute(PeerId(3), &plan, &rec_opts).unwrap();
    assert_eq!(rec_cold.terms("x"), warm.terms("x"));
    assert_eq!(sys.cached_closures(), 1, "the holder memoized the walk");
    let rec_warm = sys.execute(PeerId(3), &plan, &rec_opts).unwrap();
    assert_eq!(rec_warm.terms("x"), rec_cold.terms("x"));
    assert_eq!(rec_warm.stats.cache_hits, 1);
    // The tail replay skips every deeper mapping-list retrieve (routes
    // to a delegate can be free in a small overlay, so the structural
    // guarantee is on fetches, not raw messages).
    assert_eq!(
        rec_cold.stats.mapping_fetches,
        rec_cold.stats.schemas_visited
    );
    assert_eq!(
        rec_warm.stats.mapping_fetches, 1,
        "only the origin's list is fetched"
    );
    assert!(rec_warm.stats.messages <= rec_cold.stats.messages);

    // Routed by their predicates, the hops land where their schemas'
    // keys are: every data reply carries its hop's list, and the cold
    // walk sends no discovery for the replay to skip.
    let by_predicate = QueryPlan::search(organism_query());
    let mut sys = build(42, 4, &[], &facts);
    for i in 0..4 {
        let schema = format!("S{i}");
        let predicate = format!("S{i}#organism{i}");
        assert_eq!(leaf_of(&sys, &schema), leaf_of(&sys, &predicate));
    }
    let cold = sys.execute(PeerId(3), &by_predicate, &options).unwrap();
    assert_eq!(cold.terms("x"), warm.terms("x"));
    assert_eq!(
        (cold.stats.cache_misses, cold.stats.mapping_fetches),
        (1, 0)
    );
    assert_eq!(cold.stats.requests, cold.stats.subqueries);
    let warm = sys.execute(PeerId(3), &by_predicate, &options).unwrap();
    assert_eq!(warm.rows, cold.rows);
    assert_eq!((warm.stats.cache_hits, warm.stats.mapping_fetches), (1, 0));
    assert!(warm.stats.messages <= cold.stats.messages);
}

/// The per-peer caches are capacity-bounded: with room for one closure
/// a second key evicts the first (counted in `cache_evictions`), and a
/// warm bounded replay still returns identical rows with strictly
/// fewer messages.
#[test]
fn bounded_cache_evicts_and_still_replays_correctly() {
    let facts: Vec<(u8, u8, u8)> = (0..12).map(|i| (i, i % 3, 0)).collect();
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: PEERS,
        seed: 42,
        closure_cache_capacity: 1,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    for i in 0..3 {
        sys.insert_schema(
            p0,
            Schema::new(
                format!("S{i}").as_str(),
                [format!("organism{i}"), format!("length{i}")],
            ),
        )
        .unwrap();
        sys.insert_mapping(
            p0,
            format!("S{i}").as_str(),
            format!("S{}", (i + 1) % 3).as_str(),
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new(
                format!("organism{i}"),
                format!("organism{}", (i + 1) % 3),
            )],
        )
        .unwrap();
    }
    for &(e, s, _) in &facts {
        let s = (s as usize) % 3;
        sys.insert_triple(
            p0,
            Triple::new(
                format!("seq:E{:02}", e % 12).as_str(),
                format!("S{s}#organism{s}").as_str(),
                Term::literal("Aspergillus niger"),
            ),
        )
        .unwrap();
    }
    let organism_in = |i: usize| {
        QueryPlan::search(
            TriplePatternQuery::new(
                "x",
                TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::constant(Term::uri(format!("S{i}#organism{i}"))),
                    PatternTerm::constant(Term::literal("%Aspergillus%")),
                ),
            )
            .unwrap(),
        )
    };
    let origin = PeerId(5);
    let opts = QueryOptions::default();
    let cold0 = sys.execute(origin, &organism_in(0), &opts).unwrap();
    assert_eq!(sys.cached_closures(), 1);
    // A different predicate is a different key: it displaces the first
    // closure (capacity 1) and the eviction is counted.
    let cold1 = sys.execute(origin, &organism_in(1), &opts).unwrap();
    assert_eq!(sys.cached_closures(), 1, "capacity bound respected");
    assert_eq!(cold1.stats.cache_evictions, 1);
    // S1's closure is the retained one: replaying it is warm (identical
    // rows, strictly fewer messages); S0's was evicted, so it is cold
    // again.
    let warm1 = sys.execute(origin, &organism_in(1), &opts).unwrap();
    assert_eq!(warm1.rows, cold1.rows);
    assert_eq!(warm1.stats.cache_hits, 1);
    assert_eq!(warm1.stats.mapping_fetches, 0);
    assert!(warm1.stats.messages < cold1.stats.messages);
    let re0 = sys.execute(origin, &organism_in(0), &opts).unwrap();
    assert_eq!(re0.rows, cold0.rows);
    assert_eq!(re0.stats.cache_hits, 0, "evicted entry misses");
    // Epoch bumps still invalidate the bounded cache wholesale.
    sys.insert_mapping(
        p0,
        "S0",
        "S2",
        MappingKind::Equivalence,
        Provenance::Automatic,
        vec![Correspondence::new("length0", "length2")],
    )
    .unwrap();
    assert_eq!(sys.cached_closures(), 0, "stale cache counts as empty");
}

/// Bound-substitution joins share one closure per predicate: after the
/// first substituted instance's cold walk, every later instance replays
/// the cache within the *same* execute call.
#[test]
fn bound_join_instances_share_the_closure_cache() {
    let facts: Vec<(u8, u8, u8)> = (0..12).map(|i| (i, i % 3, i % 2)).collect();
    let plan = QueryPlan::conjunctive(organism_length_query());
    let mut sys = build(7, 3, &[], &facts);
    let out = sys
        .execute(
            PeerId(5),
            &plan,
            &QueryOptions::new().join_mode(JoinMode::BoundSubstitution),
        )
        .unwrap();
    assert!(!out.rows.is_empty());
    // Both predicates' closures are memoized by the end of the call.
    assert_eq!(sys.cached_closures(), 2);
}

/// Dropping a session mid-walk stops issuing subqueries: the overlay
/// message counter freezes, and the system remains fully usable.
#[test]
fn dropping_a_session_stops_messages() {
    let facts: Vec<(u8, u8, u8)> = (0..12).map(|i| (i, i % 4, 0)).collect();
    let plan = QueryPlan::search(organism_query());
    let options = QueryOptions::default();
    let mut sys = build(11, 4, &[], &facts);
    let before_open = sys.messages_sent();
    let observed = {
        let mut session = sys.open(PeerId(2), &plan, &options).unwrap();
        // Pull a prefix of the walk only.
        let mut pulled = 0;
        while pulled < 3 {
            match session.next_event().unwrap() {
                Some(_) => pulled += 1,
                None => break,
            }
        }
        assert!(!session.is_complete(), "the walk has hops left");
        session.stats().messages
        // Drop the session here — no drain.
    };
    assert!(observed > 0, "the pulled prefix did real work");
    assert_eq!(
        sys.messages_sent(),
        before_open + observed,
        "dropping the session issued nothing beyond what the pulls observed"
    );
    // A partial walk must not have been recorded as a full closure.
    assert_eq!(sys.cached_closures(), 0);
    // The system still answers (and now records the full closure).
    let out = sys.execute(PeerId(2), &plan, &options).unwrap();
    assert!(out.stats.schemas_visited >= 1);
    assert_eq!(sys.cached_closures(), 1);
}

/// `limit(k)` sends strictly fewer messages than the unlimited run for
/// k ≪ result count, and still returns exactly k rows — on identically
/// seeded systems, so the comparison is deterministic.
#[test]
fn limit_k_sends_strictly_fewer_messages() {
    // Every entity in every schema matches: a deep closure with many
    // rows, of which we want one.
    let facts: Vec<(u8, u8, u8)> = (0..24).map(|i| (i % 12, i % 4, 0)).collect();
    let plan = QueryPlan::search(organism_query());
    let mut full_sys = build(23, 4, &[], &facts);
    let full = full_sys
        .execute(PeerId(9), &plan, &QueryOptions::default())
        .unwrap();
    assert!(full.rows.len() > 3, "enough rows to make 1 a real cap");

    let mut limited_sys = build(23, 4, &[], &facts);
    let limited = limited_sys
        .execute(PeerId(9), &plan, &QueryOptions::new().limit(1))
        .unwrap();
    assert_eq!(limited.rows.len(), 1);
    assert!(
        limited.stats.messages < full.stats.messages,
        "limit 1 must cut messages: {} vs {}",
        limited.stats.messages,
        full.stats.messages
    );
    assert!(limited.stats.subqueries < full.stats.subqueries);
    // The kept row is one of the full run's rows.
    assert!(full.rows.contains(&limited.rows[0]));

    // Same property for a bound-substitution join: the last pattern's
    // remaining groups are skipped once k rows completed.
    let jplan = QueryPlan::conjunctive(organism_length_query());
    let jopts = QueryOptions::new().join_mode(JoinMode::BoundSubstitution);
    let mut full_sys = build(23, 4, &[], &facts);
    let jfull = full_sys.execute(PeerId(9), &jplan, &jopts).unwrap();
    assert!(jfull.rows.len() > 1);
    let mut limited_sys = build(23, 4, &[], &facts);
    let jlim = limited_sys
        .execute(PeerId(9), &jplan, &jopts.limit(1))
        .unwrap();
    assert_eq!(jlim.rows.len(), 1);
    assert!(
        jlim.stats.messages < jfull.stats.messages,
        "join limit 1 must cut messages: {} vs {}",
        jlim.stats.messages,
        jfull.stats.messages
    );
}

/// A `limit` reached in the middle of one destination's shipped batch
/// stops admission at exactly that row: the kept rows are the first
/// `k` distinct ones in the destination's scan order, the whole batch
/// is still charged as shipped, the hop's discovery is never issued,
/// and the session's counters are those of the unlimited twin's first
/// unit.
#[test]
fn limit_mid_batch_stops_at_the_same_row() {
    const K: usize = 5;
    // Twelve entities match at S0 (the first hop's destination ships
    // all twelve in one batch); S1..S3 hold more behind the mappings.
    let facts: Vec<(u8, u8, u8)> = (0..12)
        .map(|e| (e, 0, 0))
        .chain((0..12).map(|e| (e, 1 + e % 3, 0)))
        .collect();
    let query = organism_query();
    let plan = QueryPlan::search(query.clone());

    let mut sys = build(29, 4, &[], &facts);
    // What the S0#organism0 destination ships, straight off its store
    // (every replica holds the same triples in the same order).
    let shipped: Vec<Binding> = (0..PEERS)
        .map(|i| sys.peer_db(PeerId(i as u32)).match_pattern(&query.pattern))
        .find(|rows| !rows.is_empty())
        .expect("some peer indexes S0#organism0");
    assert_eq!(shipped.len(), 12, "one batch, well past the cap");
    let first_k: Vec<Binding> = shipped[..K].iter().map(|b| b.project(&["x"])).collect();

    let mut session = sys
        .open(PeerId(9), &plan, &QueryOptions::new().limit(K))
        .unwrap();
    let (mut events, mut decoded) = (Vec::new(), Vec::new());
    while let Some(ev) = session.next_event().unwrap() {
        if let ResultEvent::Rows(batch) = &ev {
            decoded.push(session.decode(batch));
        }
        events.push(ev);
    }
    let limited = session.into_outcome();
    assert_eq!(sys.pending_events(), 0);
    assert_eq!(sys.cached_closures(), 0, "a truncated walk records nothing");
    assert!(matches!(
        events.as_slice(),
        [
            ResultEvent::SchemaHop { depth: 0, .. },
            ResultEvent::Rows(_),
            ResultEvent::Stats(_)
        ]
    ));
    assert_eq!(decoded, std::slice::from_ref(&first_k));
    let mut sorted = first_k.clone();
    sorted.sort_by(|a, b| a.get("x").cmp(&b.get("x")));
    assert_eq!(limited.rows, sorted);
    assert_eq!(limited.stats.bindings_shipped, shipped.len());
    assert_eq!(limited.stats.subqueries, 1);
    assert_eq!(limited.stats.mapping_fetches, 0);

    // The unlimited twin's first unit did the same work.
    let mut twin = build(29, 4, &[], &facts);
    let mut session = twin.open(PeerId(9), &plan, &QueryOptions::new()).unwrap();
    let first_unit = loop {
        match session.next_event().unwrap().expect("a first unit") {
            ResultEvent::Stats(delta) => break delta,
            ResultEvent::Rows(batch) => assert_eq!(batch.len(), shipped.len()),
            ResultEvent::SchemaHop { .. } => {}
        }
    };
    // Except for one cache lookup: the twin's unit went on to expand
    // the origin hop with the list its reply carried, and looked in the
    // holder's cache; the limited session stopped before it.
    assert_eq!(
        (first_unit.cache_misses, limited.stats.cache_misses),
        (1, 0)
    );
    let looked_up = ExecStats {
        cache_misses: 1,
        ..limited.stats
    };
    assert_eq!(looked_up, first_unit);
}

/// A result cap counts distinct *answers* — terms of the distinguished
/// variable. `seq:E00` has two organisms in `S0`: two rows, one answer,
/// so under `limit 2` the walk may not stop before it has looked into
/// `S1`, where the second answer is.
#[test]
fn a_limit_counts_distinct_answers() {
    let mut sys = build(2, 2, &[true], &[(0, 0, 0), (0, 0, 1), (1, 1, 3)]);
    let query = TriplePatternQuery::new(
        "x",
        TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("S0#organism0")),
            PatternTerm::var("y"),
        ),
    )
    .unwrap();
    let options = QueryOptions::new().strategy(Strategy::Iterative).limit(2);
    let out = sys
        .execute(PeerId(0), &QueryPlan::search(query), &options)
        .unwrap();
    assert_eq!(out.terms("x"), [Term::uri("seq:E00"), Term::uri("seq:E01")]);
}

/// The executor honours its options: a TTL override stops the closure,
/// and TTL is part of the cache key (different TTLs never share an
/// entry). A walk at TTL 0 expands nothing, so it never learns where
/// the cache is: it looks nothing up and commits nothing.
#[test]
fn options_ttl_is_honoured_and_keyed() {
    let facts: Vec<(u8, u8, u8)> = (0..12).map(|i| (i, i % 3, i % 5)).collect();
    let q = organism_query();
    let mut sys = build(42, 3, &[], &facts);
    let full = sys
        .execute(
            PeerId(3),
            &QueryPlan::search(q.clone()),
            &QueryOptions::default(),
        )
        .unwrap();
    assert!(full.stats.reformulations > 0, "chain must reformulate");
    let capped = sys
        .execute(
            PeerId(3),
            &QueryPlan::search(q.clone()),
            &QueryOptions::new().ttl(0),
        )
        .unwrap();
    assert_eq!(capped.stats.reformulations, 0);
    assert_eq!(capped.stats.schemas_visited, 1);
    assert_eq!((capped.stats.cache_hits, capped.stats.cache_misses), (0, 0));
    assert_eq!(sys.cached_closures(), 1);
    let one = sys
        .execute(
            PeerId(3),
            &QueryPlan::search(q.clone()),
            &QueryOptions::new().ttl(1),
        )
        .unwrap();
    assert_eq!((one.stats.cache_hits, one.stats.cache_misses), (0, 1));
    // Two distinct cache entries: ttl=default and ttl=1.
    assert_eq!(sys.cached_closures(), 2);
}

/// `QueryPlan::single` routes each query shape to the executor path the
/// legacy API required the caller to pick by hand.
#[test]
fn auto_planned_queries_execute() {
    let facts: Vec<(u8, u8, u8)> = (0..10).map(|i| (i, 0, i % 5)).collect();
    let mut sys = build(7, 2, &[], &facts);

    // Schema'd predicate → closure.
    let out = sys
        .execute(
            PeerId(1),
            &QueryPlan::single(organism_query()),
            &QueryOptions::default(),
        )
        .unwrap();
    assert!(out.stats.schemas_visited >= 1);

    // Prefix-only query → range sweep.
    let prefix_q = TriplePatternQuery::new(
        "x",
        TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::var("p"),
            PatternTerm::constant(Term::literal("Aspergillus%")),
        ),
    )
    .unwrap();
    let swept = sys
        .execute(
            PeerId(1),
            &QueryPlan::single(prefix_q),
            &QueryOptions::default(),
        )
        .unwrap();
    assert!(!swept.rows.is_empty());
    assert!(swept.stats.subqueries >= 1);
}
