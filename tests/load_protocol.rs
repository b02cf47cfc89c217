//! Integration tests of the concurrent-session multiplexer
//! ([`gridvine_core::pool::SessionPool`]) and the open-loop traffic
//! driver ([`gridvine_load`]): a pool of one session must reproduce the
//! standalone scheduler bit-for-bit (rows, stats, RNG stream),
//! interleaved sessions must match their standalone runs wherever
//! routing is RNG-value-invariant, and cancelled / rejected /
//! deadline-expired sessions must leave no queued events behind while
//! charging every overlay message exactly once. On the system's one
//! clock, no unit may read a write stamped after it is sent.

use gridvine_core::pool::SessionPool;
use gridvine_core::{
    GridVineConfig, GridVineSystem, QueryOptions, QueryOutcome, QueryPlan, Strategy,
};
use gridvine_load::{run_open_loop, ArrivalProcess, LoadConfig};
use gridvine_netsim::SimDuration;
use gridvine_pgrid::PeerId;
use gridvine_rdf::{PatternTerm, Term, Triple, TriplePattern, TriplePatternQuery};
use gridvine_semantic::{Correspondence, MappingKind, Provenance, Schema};
use proptest::prelude::*;

mod common;
use common::{chain_query, install_random_churn};

/// [`common::chain_system`] on 32 peers, with the reference-density
/// knob exposed: `refs_per_level: 1` topologies have exactly one
/// routing candidate per trie level, which makes routes independent of
/// the values the shared RNG yields — the contract the interleaving
/// proptests lean on.
fn chain_system(refs_per_level: usize, seed: u64) -> GridVineSystem {
    common::chain_system(GridVineConfig {
        peers: 32,
        refs_per_level,
        hash: gridvine_pgrid::HashKind::Uniform,
        seed,
        ..GridVineConfig::default()
    })
}

fn options(window: usize) -> QueryOptions {
    QueryOptions::new()
        .strategy(Strategy::Iterative)
        .window(window)
        .max_retries(3)
}

/// Drain a pool to completion and hand back the outcomes in the order
/// the sessions were opened.
fn drain(
    sys: &mut GridVineSystem,
    pool: &mut SessionPool,
    ids: &[gridvine_core::pool::SessionId],
) -> Vec<QueryOutcome> {
    while pool.step(sys).is_some() {}
    ids.iter()
        .map(|&id| {
            pool.take_outcome(sys, id)
                .expect("drained session has an outcome")
        })
        .collect()
}

/// A saturating Poisson stream from 5 origins under each deadline and
/// message budget: every session lands in exactly one bucket, the
/// report charges what the overlay carried, nothing is left queued, and
/// a deadline or budget shorter than some sessions cancels them.
#[test]
fn budgets_and_quotas_leave_every_session_in_one_bucket() {
    let plans = vec![QueryPlan::search(chain_query())];
    let cases = [
        (None, None),
        (Some(SimDuration::from_millis(8)), None),
        (None, Some(16)),
    ];
    for (deadline, message_budget) in cases {
        let mut sys = chain_system(2, 1);
        let m0 = sys.messages_sent();
        let cfg = LoadConfig {
            sessions: 30,
            arrivals: ArrivalProcess::Poisson { rate: 1000.0 },
            origins: 5,
            max_concurrent: 8,
            queue_capacity: 64,
            deadline,
            message_budget,
            seed: 1,
            ..LoadConfig::default()
        };
        let r = run_open_loop(&mut sys, &plans, &cfg);
        assert_eq!(r.resolved(), r.submitted, "{r}");
        assert_eq!(r.messages, sys.messages_sent() - m0);
        assert_eq!(sys.pending_events(), 0);
        assert_eq!(r.cancelled_deadline > 0, deadline.is_some(), "{r}");
        assert_eq!(r.cancelled_budget > 0, message_budget.is_some(), "{r}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The pool's acceptance bar: a pool containing exactly one session
    /// is bit-identical to the standalone scheduler for windows 1 and
    /// 4 — same rows, same stats, and the shared RNG is left in the
    /// same state (witnessed by the next draws matching).
    #[test]
    fn pool_of_one_is_bit_identical_to_standalone(seed in 0u64..500) {
        for window in [1usize, 4] {
            let plan = QueryPlan::search(chain_query());
            let mut solo = chain_system(2, seed);
            let base = solo
                .execute(PeerId(5), &plan, &options(window))
                .unwrap();

            let mut pooled = chain_system(2, seed);
            let mut pool = SessionPool::new();
            let id = pool
                .open(&mut pooled, PeerId(5), &plan, &options(window))
                .unwrap();
            let out = drain(&mut pooled, &mut pool, &[id]).pop().unwrap();

            prop_assert_eq!(&out.rows, &base.rows);
            prop_assert_eq!(out.stats, base.stats);
            prop_assert_eq!(solo.pending_events(), 0);
            prop_assert_eq!(pooled.pending_events(), 0);
            // Same RNG stream afterwards: the pool consumed exactly the
            // draws the standalone run did.
            for _ in 0..8 {
                prop_assert_eq!(solo.random_peer(), pooled.random_peer());
            }
        }
    }

    /// On `refs_per_level: 1` topologies (routes RNG-value-invariant),
    /// N sessions interleaved through one pool yield exactly the rows
    /// and stats each yields when run standalone on a system of its
    /// own. No walk reads another's commit: each session expands its
    /// origin hop, where it looks in the shared closure cache, long
    /// before any walk of the chain is finished.
    #[test]
    fn interleaved_sessions_match_sequential(
        seed in 0u64..200,
        n in 2usize..5,
        window in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let plan = QueryPlan::search(chain_query());
        let origins: Vec<PeerId> = (0..n).map(|k| PeerId(5 + k as u32)).collect();

        let alone: Vec<QueryOutcome> = origins
            .iter()
            .map(|&o| {
                let mut sys = chain_system(1, seed);
                sys.execute(o, &plan, &options(window)).unwrap()
            })
            .collect();

        let mut sys = chain_system(1, seed);
        let mut pool = SessionPool::new();
        let ids: Vec<_> = origins
            .iter()
            .map(|&o| pool.open(&mut sys, o, &plan, &options(window)).unwrap())
            .collect();
        let interleaved = drain(&mut sys, &mut pool, &ids);

        for (s, i) in alone.iter().zip(&interleaved) {
            prop_assert_eq!(i.stats.cache_hits, 0);
            prop_assert_eq!(&s.rows, &i.rows);
            prop_assert_eq!(s.stats, i.stats);
        }
        prop_assert_eq!(sys.pending_events(), 0);
    }

    /// On default-density topologies interleaving may legally permute
    /// RNG draws across sessions, but the pool stays deterministic
    /// (same seed → identical per-session outcome) and every session's
    /// send accounting closes.
    #[test]
    fn interleaving_is_deterministic_on_default_topology(
        seed in 0u64..200,
        n in 2usize..5,
        window in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let plan = QueryPlan::search(chain_query());
        let run = |seed: u64| {
            let mut sys = chain_system(2, seed);
            let mut pool = SessionPool::new();
            let ids: Vec<_> = (0..n)
                .map(|k| {
                    pool.open(&mut sys, PeerId(5 + k as u32), &plan, &options(window))
                        .unwrap()
                })
                .collect();
            let outs = drain(&mut sys, &mut pool, &ids);
            assert_eq!(sys.pending_events(), 0);
            outs
        };
        let a = run(seed);
        let b = run(seed);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(&x.rows, &y.rows);
            prop_assert_eq!(x.stats, y.stats);
            prop_assert_eq!(
                x.stats.sends,
                x.stats.requests + x.stats.retransmits,
                "stats: {:?}", x.stats
            );
        }
    }

    /// Cancelling a session mid-flight — under a random churn
    /// timeline, so some units were retransmitted — drops exactly its
    /// replies: the survivors finish, the event queues end empty, and
    /// the sum of per-session message charges equals the overlay's own
    /// counter (no session is double-charged, cancelled work stays
    /// charged once).
    #[test]
    fn cancel_conserves_messages_and_leaves_no_residue(
        seed in 0u64..200,
        steps in 0usize..6,
    ) {
        let plan = QueryPlan::search(chain_query());
        let mut sys = chain_system(2, seed);
        install_random_churn(&mut sys, 32, seed);
        let m0 = sys.messages_sent();

        let mut pool = SessionPool::new();
        let ids: Vec<_> = (0..3)
            .map(|k| {
                pool.open(&mut sys, PeerId(5 + k as u32), &plan, &options(4))
                    .unwrap()
            })
            .collect();
        for _ in 0..steps {
            if pool.step(&mut sys).is_none() {
                break;
            }
        }
        pool.cancel(&mut sys, ids[0]);
        let outs = drain(&mut sys, &mut pool, &ids);

        let charged: u64 = outs.iter().map(|o| o.stats.messages).sum();
        prop_assert_eq!(charged, sys.messages_sent() - m0);
        for o in &outs {
            prop_assert_eq!(
                o.stats.sends,
                o.stats.requests + o.stats.retransmits,
                "stats: {:?}", o.stats
            );
        }
        prop_assert_eq!(sys.pending_events(), 0);
    }

    /// The open-loop driver under overload: rejected and
    /// deadline-cancelled sessions leave `pending_events() == 0` and
    /// the report's message total equals the overlay counter — nothing
    /// is double-charged through the cancel paths and nothing leaks.
    #[test]
    fn open_loop_overload_accounts_every_message(
        seed in 0u64..100,
        gap_us in 1u64..40,
        deadline_ms in 1u64..20,
    ) {
        let mut sys = chain_system(2, seed);
        let m0 = sys.messages_sent();
        let plans = vec![QueryPlan::search(chain_query())];
        let cfg = LoadConfig {
            sessions: 30,
            arrivals: ArrivalProcess::Deterministic {
                gap: SimDuration::from_micros(gap_us),
            },
            origins: 4,
            max_concurrent: 2,
            queue_capacity: 2,
            deadline: Some(SimDuration::from_millis(deadline_ms)),
            seed,
            ..LoadConfig::default()
        };
        let r = run_open_loop(&mut sys, &plans, &cfg);
        prop_assert_eq!(r.submitted, 30);
        prop_assert_eq!(r.resolved(), 30, "every session in exactly one bucket: {}", r);
        prop_assert_eq!(r.messages, sys.messages_sent() - m0);
        prop_assert_eq!(sys.pending_events(), 0);
    }

    /// The causality property of the one clock. Every unit is checked
    /// by the engine's debug assertions (the test profile keeps them):
    /// it is sent no earlier than the clock at its issue and than the
    /// stamp of every learned leaf and closure-cache entry it read, and
    /// no later than its first attempt. See [`shared_pool_run`]: units
    /// read what others wrote, from their own origin and from others.
    #[test]
    fn no_unit_reads_a_write_stamped_after_it_is_sent(
        seed in 0u64..200,
        origins in 2usize..5,
        strategy in prop_oneof![Just(Strategy::Iterative), Just(Strategy::Recursive)],
        window in prop_oneof![Just(1usize), Just(4usize)],
        ops in proptest::collection::vec(0u8..5, 8..24),
    ) {
        shared_pool_run(seed, origins, strategy, window, &ops);
    }
}

/// One random multi-origin pool run under churn, in which
/// units read what others wrote: several sessions per origin share its
/// leaves, every walk of a schema reads and fills the one closure cache
/// at the peer holding its mapping list, late arrivals replay closures
/// whose writers are still in flight, and windows of 4 issue hops
/// before the replies they wait for land. Between steps the run inserts
/// records and mappings and deprecates them. Once that pool drains, one
/// session from each of `origins` peers that never asked anything walks
/// the chain from `S0` in the same pool: first one alone, then the rest
/// side by side. Returns how many of those sessions — each its origin's
/// only one, so whatever it replays another origin committed — found
/// the closure cached.
fn shared_pool_run(
    seed: u64,
    origins: usize,
    strategy: Strategy,
    window: usize,
    ops: &[u8],
) -> usize {
    let mut sys = chain_system(2, seed);
    install_random_churn(&mut sys, 32, seed);
    let chain = QueryPlan::search(chain_query());
    let plans = [
        chain.clone(),
        QueryPlan::search(
            TriplePatternQuery::new(
                "x",
                TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::constant(Term::uri("S1#a1")),
                    PatternTerm::var("o"),
                ),
            )
            .unwrap(),
        ),
    ];
    let opts = options(window).strategy(strategy);
    let mut pool = SessionPool::new();
    let mut opened = 0usize;
    let mut open = |sys: &mut GridVineSystem, pool: &mut SessionPool| {
        let origin = PeerId(5 + (opened % origins) as u32);
        pool.open(sys, origin, &plans[opened % plans.len()], &opts)
            .unwrap();
        opened += 1;
    };
    for _ in 0..2 * origins {
        open(&mut sys, &mut pool);
    }
    let mut mappings = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        if pool.step(&mut sys).is_none() {
            open(&mut sys, &mut pool);
        }
        let (j, p) = (i % 4, PeerId(i as u32 % 32));
        match op {
            0 => {
                let record = Triple::new(
                    format!("seq:N{i}").as_str(),
                    format!("S{j}#a{j}").as_str(),
                    Term::literal("Aspergillus niger"),
                );
                sys.insert_triple(p, record).unwrap();
            }
            1 => {
                let (from, to) = (format!("S{j}"), format!("S{}", (j + 2) % 4));
                let a = vec![Correspondence::new(
                    format!("a{j}"),
                    format!("a{}", (j + 2) % 4),
                )];
                let (kind, provenance) = (MappingKind::Equivalence, Provenance::Manual);
                let id = sys.insert_mapping(p, from.as_str(), to.as_str(), kind, provenance, a);
                mappings.push(id.unwrap());
            }
            2 => {
                if let Some(id) = mappings.pop() {
                    sys.deprecate_mapping(p, id).unwrap();
                }
            }
            _ => open(&mut sys, &mut pool),
        }
    }
    let clock = sys.now();
    while pool.step(&mut sys).is_some() {}
    assert!(sys.now() >= clock, "the clock never goes backwards");
    assert_eq!(sys.pending_events(), 0);

    let newcomers: Vec<PeerId> = (0..origins).map(|k| PeerId(20 + k as u32)).collect();
    let first = pool.open(&mut sys, newcomers[0], &chain, &opts).unwrap();
    let mut outcomes = drain(&mut sys, &mut pool, &[first]);
    let rest: Vec<_> = newcomers[1..]
        .iter()
        .map(|&o| pool.open(&mut sys, o, &chain, &opts).unwrap())
        .collect();
    outcomes.extend(drain(&mut sys, &mut pool, &rest));
    assert_eq!(sys.pending_events(), 0);
    outcomes.iter().filter(|o| o.stats.cache_hits > 0).count()
}

/// [`shared_pool_run`] exercises what it is for: under each strategy,
/// some of its cases replay a closure another origin committed.
#[test]
fn some_shared_pool_run_replays_another_origins_commit() {
    for strategy in [Strategy::Iterative, Strategy::Recursive] {
        let replays: usize = (0..8)
            .map(|seed| {
                shared_pool_run(
                    seed,
                    2 + seed as usize % 3,
                    strategy,
                    4,
                    &[0, 3, 4, 0, 3, 4, 0, 3],
                )
            })
            .sum();
        assert!(replays > 0, "{strategy:?}");
    }
}

/// One cache per schema, read by every origin, and invalidated by the
/// registry epoch: a second origin replays the first one's walk, unless
/// a mapping was inserted between the two walks — then it walks cold
/// and reaches the schema the new mapping admits.
#[test]
fn a_mapping_inserted_between_two_origins_walks_makes_the_second_cold() {
    let plan = QueryPlan::search(chain_query());
    for strategy in [Strategy::Iterative, Strategy::Recursive] {
        let opts = options(1).strategy(strategy);
        for insert in [false, true] {
            let mut sys = chain_system(1, 7);
            let first = sys.execute(PeerId(5), &plan, &opts).unwrap();
            assert_eq!(first.rows.len(), 4, "{strategy:?}");
            if insert {
                let p0 = PeerId(0);
                sys.insert_schema(p0, Schema::new("S4", ["a4"])).unwrap();
                let record = Triple::new("seq:R4", "S4#a4", Term::literal("Aspergillus niger"));
                sys.insert_triple(p0, record).unwrap();
                let a = vec![Correspondence::new("a3", "a4")];
                let (kind, provenance) = (MappingKind::Equivalence, Provenance::Manual);
                sys.insert_mapping(p0, "S3", "S4", kind, provenance, a)
                    .unwrap();
            }
            let second = sys.execute(PeerId(6), &plan, &opts).unwrap();
            let case = format!("{strategy:?}, insert {insert}");
            let lookups = (second.stats.cache_hits, second.stats.cache_misses);
            let rows = second.rows.len();
            if insert {
                assert_eq!(lookups, (0, 1), "{case}");
                assert_eq!(rows, 5, "{case}");
            } else {
                assert_eq!(lookups, (1, 0), "{case}");
                assert_eq!(second.rows, first.rows, "{case}");
            }
        }
    }
}
