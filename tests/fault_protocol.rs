//! Integration tests of the PR-6 request/response protocol: the
//! scheduler's timeout–retry–backoff machinery over the fault model
//! ([`gridvine_netsim::fault`]) must degrade gracefully — duplicate
//! replies never double-charge, bounded retries never hang, lossless
//! configs reproduce the fault-free scheduler bit-for-bit, and churned
//! peers are survived by retrying past their downtime.

use gridvine_core::{
    GridVineConfig, GridVineSystem, QueryOptions, QueryOutcome, QueryPlan, Strategy,
};
use gridvine_netsim::churn::{ChurnEvent, ChurnKind};
use gridvine_netsim::{FaultConfig, LinkFault, NodeId, SimDuration, SimTime};
use gridvine_pgrid::PeerId;
use gridvine_rdf::{PatternTerm, Term, Triple, TriplePattern, TriplePatternQuery};
use gridvine_semantic::{Correspondence, MappingKind, Provenance, Schema};
use proptest::prelude::*;

/// A 4-schema equivalence chain with one Aspergillus triple per
/// schema: the closure walk fans out over several routed units, which
/// is what the retry protocol needs exercising.
fn chain_system(fault: FaultConfig, seed: u64) -> GridVineSystem {
    chain_system_of(32, fault, seed)
}

/// [`chain_system`] on `peers` peers.
fn chain_system_of(peers: usize, fault: FaultConfig, seed: u64) -> GridVineSystem {
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers,
        hash: gridvine_pgrid::HashKind::Uniform,
        fault,
        seed,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    for i in 0..4 {
        sys.insert_schema(p0, Schema::new(format!("S{i}").as_str(), [format!("a{i}")]))
            .unwrap();
    }
    for i in 0..3 {
        sys.insert_mapping(
            p0,
            format!("S{i}").as_str(),
            format!("S{}", i + 1).as_str(),
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new(format!("a{i}"), format!("a{}", i + 1))],
        )
        .unwrap();
    }
    for i in 0..4 {
        sys.insert_triple(
            p0,
            Triple::new(
                format!("seq:R{i}").as_str(),
                format!("S{i}#a{i}").as_str(),
                Term::literal("Aspergillus niger"),
            ),
        )
        .unwrap();
    }
    sys
}

fn chain_query() -> TriplePatternQuery {
    TriplePatternQuery::new(
        "x",
        TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("S0#a0")),
            PatternTerm::constant(Term::literal("%Aspergillus%")),
        ),
    )
    .unwrap()
}

fn run(sys: &mut GridVineSystem, window: usize, max_retries: usize) -> QueryOutcome {
    let plan = QueryPlan::search(chain_query());
    let options = QueryOptions::new()
        .strategy(Strategy::Iterative)
        .window(window)
        .max_retries(max_retries);
    sys.execute(PeerId(5), &plan, &options).unwrap()
}

#[test]
fn churned_destination_is_survived_by_retrying_past_recovery() {
    // Every peer but the origin is down when the session starts and
    // recovers 8 simulated milliseconds in. The base reply timeout is
    // 5ms with exponential backoff, so the first attempt (and usually
    // the second) of each early unit times out, and a later retransmit
    // lands after recovery: the session must answer in full — same
    // rows as the undisturbed run — while recording the timeouts and
    // retransmits it paid.
    let origin = PeerId(5);
    let mut healthy = chain_system(FaultConfig::none(), 7);
    let full = run(&mut healthy, 4, 8);
    assert_eq!(full.rows.len(), 4);
    assert_eq!(full.stats.timeouts, 0);

    let mut sys = chain_system(FaultConfig::none(), 7);
    let events: Vec<ChurnEvent> = (0..32)
        .filter(|&i| i != origin.index())
        .flat_map(|i| {
            [
                ChurnEvent {
                    at: SimTime::ZERO,
                    node: NodeId::from_index(i),
                    kind: ChurnKind::Fail,
                },
                ChurnEvent {
                    at: SimTime::ZERO + SimDuration::from_millis(8),
                    node: NodeId::from_index(i),
                    kind: ChurnKind::Recover,
                },
            ]
        })
        .collect();
    sys.install_churn(&events);
    let churned = run(&mut sys, 4, 8);
    assert_eq!(churned.rows, full.rows, "retries recover the full answer");
    assert_eq!(churned.stats.failures, 0, "{:?}", churned.stats);
    assert!(churned.stats.timeouts > 0, "downtime was actually hit");
    assert!(churned.stats.retransmits > 0);
    assert_eq!(
        churned.stats.sends,
        churned.stats.requests + churned.stats.retransmits
    );
    assert_eq!(sys.pending_events(), 0);
}

/// A request its issuer answers from its own `DB_p` sends nothing, so
/// no fault can reach it: on a single peer at 90 % loss, every search
/// returns its row with no message, timeout or failure.
#[test]
fn a_local_exchange_is_never_lost() {
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 1,
        fault: FaultConfig {
            loss: 0.9,
            ..FaultConfig::none()
        },
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    sys.insert_schema(p0, Schema::new("EMBL", ["Organism"]))
        .unwrap();
    let record = Triple::new(
        "seq:A78712",
        "EMBL#Organism",
        Term::literal("Aspergillus niger"),
    );
    sys.insert_triple(p0, record).unwrap();
    let plan = QueryPlan::search(TriplePatternQuery::example_aspergillus());
    let options = QueryOptions::new().max_retries(1);
    for _ in 0..20 {
        let out = sys.execute(p0, &plan, &options).unwrap();
        assert_eq!(out.rows.len(), 1, "{:?}", out.stats);
        let s = out.stats;
        assert_eq!((s.messages, s.timeouts, s.failures), (0, 0, 0), "{s:?}");
    }
}

/// A learned address whose peer is churn-down for the whole query
/// times out, is forgotten, and the same request is routed within the
/// unit: with a live replica of the leaf the rows are those of the
/// undisturbed run and nothing fails.
#[test]
fn a_churned_learned_address_fails_over_to_routing() {
    let (peers, seed, origin) = (24, 7, PeerId(5));
    let plan = QueryPlan::search(chain_query());
    let options = QueryOptions::new().max_retries(2);
    let mut healthy = chain_system_of(peers, FaultConfig::none(), seed);
    healthy.execute(origin, &plan, &options).unwrap();
    let warm = healthy.execute(origin, &plan, &options).unwrap();
    assert_eq!(warm.rows.len(), 4);

    let mut sys = chain_system_of(peers, FaultConfig::none(), seed);
    sys.execute(origin, &plan, &options).unwrap();
    // S1's and S2's predicates share a leaf of two peers; at this seed
    // the route from the origin lands on the live one.
    let key = sys.key_of("S1#a1");
    let learned = sys
        .learned_address(origin, &key)
        .expect("the reply taught it");
    assert_eq!(sys.topology().responsible(&key).len(), 2);
    sys.install_churn(&[ChurnEvent {
        at: SimTime::ZERO,
        node: NodeId::from_index(learned.index()),
        kind: ChurnKind::Fail,
    }]);
    let out = sys.execute(origin, &plan, &options).unwrap();
    assert_eq!(out.rows, warm.rows);
    assert_eq!(out.stats.failures, 0, "{:?}", out.stats);
    // Every attempt against the dead peer timed out; the routed retry
    // of the same request is one request more than the healthy replay.
    assert_eq!(out.stats.timeouts, 1 + 2, "{:?}", out.stats);
    assert_eq!(out.stats.requests, warm.stats.requests + 1);
    assert_eq!(out.stats.direct, warm.stats.direct);
    let relearned = sys.learned_address(origin, &key);
    assert!(relearned.is_some() && relearned != Some(learned));
}

#[test]
fn churned_peer_without_recovery_fails_like_a_crash() {
    // A peer that never recovers exhausts the retry budget: the hop is
    // recorded as a failure and the session still terminates with the
    // reachable rows — graceful degradation, not a hang.
    let mut sys = chain_system(FaultConfig::none(), 7);
    let s3_key = sys.key_of("S3#a3");
    let victims: Vec<PeerId> = sys.topology().responsible(&s3_key).to_vec();
    let events: Vec<ChurnEvent> = victims
        .iter()
        .map(|v| ChurnEvent {
            at: SimTime::ZERO,
            node: NodeId::from_index(v.index()),
            kind: ChurnKind::Fail,
        })
        .collect();
    sys.install_churn(&events);
    let out = run(&mut sys, 4, 3);
    assert!(out.stats.failures >= 1, "{:?}", out.stats);
    assert!(
        out.stats.timeouts > out.stats.retransmits,
        "exhausted unit counts every attempt"
    );
    assert_eq!(out.rows.len(), 3, "only the downed schema's row is missing");
    assert_eq!(sys.pending_events(), 0);
}

#[test]
fn asymmetric_link_faults_only_hit_the_configured_direction() {
    // A near-certainly-lossy directed link towards a peer index that
    // is never a destination of this walk: the per-link override must
    // not leak onto other links, so the run matches the fault-free one
    // exactly — no retransmits, same rows. (Link rates key on the
    // (issuer, destination) pair; the base rate here is zero.)
    let mut clean = chain_system(FaultConfig::none(), 11);
    let baseline = run(&mut clean, 1, 3);
    assert_eq!(baseline.stats.retransmits, 0);

    let mut faulty_cfg = FaultConfig::none();
    faulty_cfg.links = vec![LinkFault::lossy(5, 99, 0.99)];
    let mut unaffected = chain_system(faulty_cfg, 11);
    let out = run(&mut unaffected, 1, 3);
    assert_eq!(out.rows, baseline.rows);
    assert_eq!(
        out.stats.retransmits, 0,
        "a link the walk never crosses costs nothing"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Reply duplication at rate 1.0, in order and with half the
    /// replies reordered by up to 20 ms: every unit's reply arrives
    /// twice, the session drops the copies by request id — rows,
    /// messages and the logical counters are identical to the
    /// fault-free run and every duplicate is recorded.
    #[test]
    fn duplicate_replies_never_change_rows_or_charges(
        seed in 0u64..500,
        window in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let mut clean = chain_system(FaultConfig::none(), seed);
        let base = run(&mut clean, window, 3);
        let reordered = FaultConfig {
            duplication: 1.0,
            ..FaultConfig::reordering(0.5, SimDuration::from_millis(20))
        };
        for cfg in [FaultConfig::duplicating(1.0), reordered] {
            let mut dup = chain_system(cfg, seed);
            let out = run(&mut dup, window, 3);
            prop_assert_eq!(&out.rows, &base.rows);
            prop_assert_eq!(out.stats.messages, base.stats.messages);
            prop_assert_eq!(out.stats.subqueries, base.stats.subqueries);
            prop_assert_eq!(out.stats.requests, base.stats.requests);
            prop_assert!(out.stats.duplicates_dropped > 0, "stats: {:?}", out.stats);
            prop_assert_eq!(dup.pending_events(), 0);
        }
    }

    /// Send accounting: every send is the first attempt of a request or
    /// a retransmission of one, under any mix of loss and duplication.
    #[test]
    fn sends_are_requests_plus_retransmits(
        seed in 0u64..500,
        loss in 0.0f64..0.3,
        dup in 0.0f64..0.5,
        window in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let mut cfg = FaultConfig::lossy(loss);
        cfg.duplication = dup;
        let mut sys = chain_system(cfg, seed);
        let out = run(&mut sys, window, 10);
        prop_assert_eq!(
            out.stats.sends,
            out.stats.requests + out.stats.retransmits,
            "stats: {:?}", out.stats
        );
        prop_assert_eq!(sys.pending_events(), 0);
    }

    /// Dropping a session mid-flight under faults cancels every queued
    /// reply — duplicates included — leaving the system clean.
    #[test]
    fn dropped_faulty_session_leaves_no_pending_events(
        seed in 0u64..500,
        pulls in 0usize..4,
    ) {
        let mut cfg = FaultConfig::duplicating(1.0);
        cfg.loss = 0.2;
        cfg.reorder = 0.5;
        cfg.reorder_jitter = SimDuration::from_millis(20);
        let mut sys = chain_system(cfg, seed);
        let plan = QueryPlan::search(chain_query());
        let options = QueryOptions::new()
            .strategy(Strategy::Iterative)
            .window(4)
            .max_retries(10);
        {
            let mut session = sys.open(PeerId(5), &plan, &options).unwrap();
            for _ in 0..pulls {
                if session.next_event().unwrap().is_none() {
                    break;
                }
            }
        }
        prop_assert_eq!(sys.pending_events(), 0);
    }

    /// A lossless fault model is bit-identical to the fault-free
    /// scheduler for windows 1 and 4: same rows, same stats, and no
    /// fault randomness is consumed.
    #[test]
    fn lossless_fault_model_is_bit_identical(seed in 0u64..500) {
        for window in [1usize, 4] {
            let mut plain = chain_system(FaultConfig::none(), seed);
            let base = run(&mut plain, window, 3);
            let mut zeroed = chain_system(
                FaultConfig {
                    loss: 0.0,
                    duplication: 0.0,
                    reorder: 0.0,
                    reorder_jitter: SimDuration::ZERO,
                    links: vec![LinkFault::lossy(1, 2, 0.0)],
                },
                seed,
            );
            let out = run(&mut zeroed, window, 3);
            prop_assert_eq!(&out.rows, &base.rows);
            prop_assert_eq!(out.stats, base.stats);
        }
    }

    /// The acceptance bar: under loss ≤ 0.2 with a generous retry
    /// budget, the delivered rows — and the overlay messages charged —
    /// are identical to the fault-free run; only the protocol's own
    /// counters (timeouts, retransmits, sends) grow.
    #[test]
    fn bounded_loss_with_retries_preserves_rows_and_charges(
        seed in 0u64..500,
        loss in 0.0f64..=0.2,
        window in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let mut clean = chain_system(FaultConfig::none(), seed);
        let base = run(&mut clean, window, 10);
        let mut lossy = chain_system(FaultConfig::lossy(loss), seed);
        let out = run(&mut lossy, window, 10);
        prop_assert_eq!(&out.rows, &base.rows, "stats: {:?}", out.stats);
        prop_assert_eq!(out.stats.messages, base.stats.messages);
        prop_assert_eq!(out.stats.failures, base.stats.failures);
        prop_assert!(out.stats.timeouts >= base.stats.timeouts);
    }

    /// Under faults the window still only decides reply timing: the
    /// logical outcome — rows, messages, protocol counters — is the
    /// same for windows 1 and 4.
    #[test]
    fn window_invariance_holds_under_faults(
        seed in 0u64..500,
        loss in 0.0f64..0.25,
        dup in 0.0f64..0.5,
    ) {
        let mut cfg = FaultConfig::lossy(loss);
        cfg.duplication = dup;
        let mut narrow = chain_system(cfg.clone(), seed);
        let w1 = run(&mut narrow, 1, 10);
        let mut wide = chain_system(cfg, seed);
        let w4 = run(&mut wide, 4, 10);
        prop_assert_eq!(&w1.rows, &w4.rows);
        prop_assert_eq!(w1.stats.messages, w4.stats.messages);
        prop_assert_eq!(w1.stats.requests, w4.stats.requests);
        prop_assert_eq!(w1.stats.sends, w4.stats.sends);
        prop_assert_eq!(w1.stats.timeouts, w4.stats.timeouts);
        prop_assert_eq!(w1.stats.retransmits, w4.stats.retransmits);
    }
}
