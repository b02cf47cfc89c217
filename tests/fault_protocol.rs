//! Integration tests of the request/response protocol: the
//! scheduler's timeout–retry–backoff machinery under churn must degrade
//! gracefully — bounded retries never hang, every send is accounted
//! for, the window decides only when replies land, and churned peers
//! are survived by retrying past their downtime.

use gridvine_core::{
    GridVineConfig, GridVineSystem, QueryOptions, QueryOutcome, QueryPlan, Strategy,
};
use gridvine_netsim::churn::{ChurnEvent, ChurnKind};
use gridvine_netsim::{NodeId, SimDuration, SimTime};
use gridvine_pgrid::PeerId;
use gridvine_rdf::{Term, Triple, TriplePatternQuery};
use gridvine_semantic::Schema;
use proptest::prelude::*;

mod common;
use common::{chain_query, install_random_churn};

/// [`common::chain_system`] on 32 peers: the closure walk fans out
/// over several routed units, which is what the retry protocol needs
/// exercising.
fn chain_system(seed: u64) -> GridVineSystem {
    chain_system_of(32, seed)
}

/// [`chain_system`] on `peers` peers.
fn chain_system_of(peers: usize, seed: u64) -> GridVineSystem {
    common::chain_system(GridVineConfig {
        peers,
        hash: gridvine_pgrid::HashKind::Uniform,
        seed,
        ..GridVineConfig::default()
    })
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
    let mut healthy = chain_system(7);
    let full = run(&mut healthy, 4, 8);
    assert_eq!(full.rows.len(), 4);
    assert_eq!(full.stats.timeouts, 0);

    let mut sys = chain_system(7);
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
/// no churn can reach it: on a single peer whose churn timeline holds
/// it down from the start, every search returns its row with no
/// message, timeout or failure.
#[test]
fn a_local_exchange_is_never_lost() {
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 1,
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
    sys.install_churn(&[ChurnEvent {
        at: SimTime::ZERO,
        node: NodeId::from_index(0),
        kind: ChurnKind::Fail,
    }]);
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
    let mut healthy = chain_system_of(peers, seed);
    healthy.execute(origin, &plan, &options).unwrap();
    let warm = healthy.execute(origin, &plan, &options).unwrap();
    assert_eq!(warm.rows.len(), 4);

    let mut sys = chain_system_of(peers, seed);
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
    let mut sys = chain_system(7);
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

/// [`install_random_churn`] exercises what the proptests below lean
/// on: over a few seeds, some attempts of the chain walk time out and
/// are retransmitted.
#[test]
fn a_random_churn_timeline_makes_some_attempts_time_out() {
    let retransmits: usize = (0..8)
        .map(|seed| {
            let mut sys = chain_system(seed);
            install_random_churn(&mut sys, 32, seed);
            run(&mut sys, 4, 10).stats.retransmits
        })
        .sum();
    assert!(retransmits > 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Send accounting: every send is the first attempt of a request or
    /// a retransmission of one, under a random churn timeline.
    #[test]
    fn sends_are_requests_plus_retransmits(
        seed in 0u64..500,
        window in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let mut sys = chain_system(seed);
        install_random_churn(&mut sys, 32, seed);
        let out = run(&mut sys, window, 10);
        prop_assert_eq!(
            out.stats.sends,
            out.stats.requests + out.stats.retransmits,
            "stats: {:?}", out.stats
        );
        prop_assert_eq!(sys.pending_events(), 0);
    }

    /// Dropping a session mid-flight under a random churn timeline
    /// cancels every queued reply, leaving the system clean.
    #[test]
    fn dropped_faulty_session_leaves_no_pending_events(
        seed in 0u64..500,
        pulls in 0usize..4,
    ) {
        let mut sys = chain_system(seed);
        install_random_churn(&mut sys, 32, seed);
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

    /// Under churn the window still only decides reply timing: the
    /// logical outcome — rows, messages, failures — is the same for
    /// windows 1 and 4. The protocol counters are not: an attempt meets
    /// churn when it leaves, and a wider window sends units earlier, so
    /// they may time out against other downtime.
    #[test]
    fn window_invariance_holds_under_faults(seed in 0u64..500) {
        let run_churned = |window| {
            let mut sys = chain_system(seed);
            install_random_churn(&mut sys, 32, seed);
            run(&mut sys, window, 10)
        };
        let (w1, w4) = (run_churned(1), run_churned(4));
        prop_assert_eq!(&w1.rows, &w4.rows);
        prop_assert_eq!(w1.stats.messages, w4.stats.messages);
        prop_assert_eq!(w1.stats.failures, w4.stats.failures);
    }
}
