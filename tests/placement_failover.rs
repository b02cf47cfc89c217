//! Integration tests of the PR-9 placement subsystem
//! ([`gridvine_core::place`]): a null (or inert) `PlacementPolicy`
//! reproduces the placement-free scheduler bit-for-bit (rows, stats,
//! RNG stream), a crashed replica owner degrades to a failover with
//! identical rows and zero recorded failures, heat spikes pull replicas
//! toward hot origins, mid-commit crashes roll provisioning back
//! atomically, and a churn storm over replicated predicates sheds no
//! sessions in the open-loop driver.

use gridvine_core::{
    GridVineConfig, GridVineSystem, PlacementPolicy, QueryOptions, QueryPlan, SpikeAction,
    Strategy, SystemError,
};
use gridvine_load::{run_open_loop, ArrivalProcess, LoadConfig};
use gridvine_netsim::churn::{ChurnEvent, ChurnProcess};
use gridvine_netsim::{SimDuration, SimTime};
use gridvine_pgrid::PeerId;
use gridvine_rdf::{PatternTerm, Term, Triple, TriplePattern, TriplePatternQuery};
use gridvine_semantic::Schema;
use proptest::prelude::*;

const PEERS: usize = 32;

/// A single-schema system under `policy`: three Aspergillus triples on
/// the one predicate `S0#a0`, so the data resolution is the only
/// replica-path request a query issues (mapping discovery still routes
/// to the schema-key owner the classic way).
fn replicated_system(policy: PlacementPolicy, seed: u64) -> GridVineSystem {
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: PEERS,
        refs_per_level: 2,
        hash: gridvine_pgrid::HashKind::Uniform,
        placement: policy,
        seed,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    sys.insert_schema(p0, Schema::new("S0", ["a0"])).unwrap();
    for i in 0..3 {
        sys.insert_triple(
            p0,
            Triple::new(
                format!("seq:R{i}").as_str(),
                "S0#a0",
                Term::literal("Aspergillus niger"),
            ),
        )
        .unwrap();
    }
    sys
}

fn data_query() -> TriplePatternQuery {
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

fn options(window: usize) -> QueryOptions {
    QueryOptions::new()
        .strategy(Strategy::Iterative)
        .window(window)
        .max_retries(3)
}

/// First peer index that holds no copy of the data key (the failover
/// tests issue from it so the ranked holder list never starts at the
/// origin itself).
fn outside_origin(holders: &[PeerId]) -> PeerId {
    (0..PEERS as u32)
        .map(PeerId)
        .find(|p| !holders.contains(p))
        .expect("the replica set never covers all peers")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The null-policy acceptance bar, for windows 1 and 4: a policy
    /// whose rules match nothing in the workload takes the replica
    /// path exactly never, so rows, stats and the shared RNG stream
    /// are bit-identical to the default (null) policy — which is
    /// itself the PR-8 scheduler unchanged.
    #[test]
    fn inert_policy_is_bit_identical_to_null(seed in 0u64..500) {
        for window in [1usize, 4] {
            let plan = QueryPlan::search(data_query());
            let mut null = replicated_system(PlacementPolicy::default(), seed);
            let origin = outside_origin(&null.replica_holders("S0#a0"));
            let base = null.execute(origin, &plan, &options(window)).unwrap();

            let inert = PlacementPolicy::new().replicate("zzz-inert/", 3);
            let mut sys = replicated_system(inert, seed);
            let out = sys.execute(origin, &plan, &options(window)).unwrap();

            prop_assert_eq!(&out.rows, &base.rows);
            prop_assert_eq!(out.stats, base.stats);
            prop_assert_eq!(out.stats.replica_hits, 0);
            prop_assert_eq!(null.pending_events(), 0);
            prop_assert_eq!(sys.pending_events(), 0);
            // Same RNG stream afterwards: the inert policy consumed
            // exactly the draws the null policy did (none extra).
            for _ in 0..8 {
                prop_assert_eq!(null.random_peer(), sys.random_peer());
            }
        }
    }

    /// The failover acceptance bar: with replication factor ≥ 2,
    /// crashing one replica owner yields bit-identical rows to the
    /// fault-free run with zero recorded failures — only messages and
    /// the failover counter may differ — and the shared RNG stream is
    /// untouched by the crash.
    #[test]
    fn crashed_replica_owner_fails_over_with_identical_rows(
        seed in 0u64..300,
        factor in 2usize..5,
        window in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let policy = PlacementPolicy::new().replicate("S0#", factor);
        let plan = QueryPlan::search(data_query());

        let mut clean = replicated_system(policy.clone(), seed);
        let holders = clean.replica_holders("S0#a0");
        prop_assume!(holders.len() >= 2);
        let origin = outside_origin(&holders);
        // Under the flat latency model every holder ranks equal, ties
        // broken by index — so the lowest-index holder serves first
        // and crashing it forces a failover.
        let victim = *holders.iter().min_by_key(|p| p.0).unwrap();
        // Keep the classic-path mapping discovery identical across the
        // two runs: the victim must not own the schema key.
        prop_assume!(!clean.replica_holders("S0").contains(&victim));

        let base = clean.execute(origin, &plan, &options(window)).unwrap();

        let mut faulty = replicated_system(policy, seed);
        faulty.crash_peer(victim);
        let out = faulty.execute(origin, &plan, &options(window)).unwrap();

        prop_assert_eq!(base.rows.len(), 3);
        prop_assert_eq!(&out.rows, &base.rows);
        prop_assert_eq!(base.stats.failures, 0);
        prop_assert_eq!(out.stats.failures, 0);
        prop_assert_eq!(base.stats.failovers, 0);
        prop_assert!(out.stats.failovers >= 1, "stats: {:?}", out.stats);
        prop_assert_eq!(out.stats.replica_hits, base.stats.replica_hits);
        prop_assert!(base.stats.replica_hits >= 1);
        prop_assert_eq!(clean.pending_events(), 0);
        prop_assert_eq!(faulty.pending_events(), 0);
        for _ in 0..8 {
            prop_assert_eq!(clean.random_peer(), faulty.random_peer());
        }
    }

    /// Crashing *every* holder finally surfaces `PeerDown` — failover
    /// degrades gracefully but does not fabricate availability.
    #[test]
    fn all_holders_down_still_fails(seed in 0u64..100) {
        let policy = PlacementPolicy::new().replicate("S0#", 3);
        let mut sys = replicated_system(policy, seed);
        let holders = sys.replica_holders("S0#a0");
        let origin = outside_origin(&holders);
        for h in holders {
            sys.crash_peer(h);
        }
        let out = sys
            .execute(origin, &QueryPlan::search(data_query()), &options(1))
            .unwrap();
        prop_assert!(out.rows.is_empty());
        prop_assert!(out.stats.failures >= 1, "stats: {:?}", out.stats);
        prop_assert_eq!(sys.pending_events(), 0);
    }
}

/// Failover is paid for on the clock, never refunded: with every unit
/// on the critical path (`window(1)`), skipping the crashed first-ranked
/// holder costs the session a failed attempt, so its final reply lands
/// later than the fault-free twin's — same rows, zero failures.
#[test]
fn failover_surcharge_lands_on_the_simulated_clock() {
    let policy = PlacementPolicy::new().replicate("S0#", 3);
    let plan = QueryPlan::search(data_query());
    let run = |crash_primary: bool| {
        let mut sys = replicated_system(policy.clone(), 7);
        let holders = sys.replica_holders("S0#a0");
        let victim = *holders.iter().min_by_key(|p| p.0).unwrap();
        assert!(
            !sys.replica_holders("S0").contains(&victim),
            "the primary data holder must not own the schema key"
        );
        if crash_primary {
            sys.crash_peer(victim);
        }
        let origin = outside_origin(&holders);
        let mut session = sys.open(origin, &plan, &options(1)).unwrap();
        while session.next_event().unwrap().is_some() {}
        let elapsed = session.sim_elapsed();
        let out = session.into_outcome();
        assert_eq!((out.rows.len(), out.stats.failures), (3, 0));
        (elapsed, out.stats.failovers)
    };
    let (clean, no_failovers) = run(false);
    let (crashed, failovers) = run(true);
    assert_eq!(no_failovers, 0);
    assert!(failovers >= 1, "the crashed primary forces a failover");
    assert!(crashed > clean, "{crashed:?} crashed, {clean:?} clean");
}

/// Crashing a replica set's holders one at a time, lowest index first
/// (the flat model's serving order) and never a schema-key owner:
/// while any holder survives every row is delivered with no recorded
/// failure; once none does, none is. Every send is a request or a
/// retransmission of one throughout.
#[test]
fn every_row_is_served_while_any_holder_survives() {
    let plan = QueryPlan::search(data_query());
    for factor in [2, 3, 5] {
        let policy = PlacementPolicy::new().replicate("S0#", factor);
        let probe = replicated_system(policy.clone(), 0);
        let holders = probe.replica_holders("S0#a0");
        let owners = probe.replica_holders("S0");
        let crashable: Vec<PeerId> = (holders.iter())
            .filter(|p| !owners.contains(p))
            .copied()
            .collect();
        let origin = outside_origin(&holders);
        for down in 0..=crashable.len() {
            let mut sys = replicated_system(policy.clone(), 0);
            for &victim in &crashable[..down] {
                sys.crash_peer(victim);
            }
            let out = sys.execute(origin, &plan, &options(4)).unwrap();
            let s = out.stats;
            assert_eq!(s.sends, s.requests + s.retransmits, "{s:?}");
            if down < holders.len() {
                assert_eq!((out.rows.len(), s.failures), (3, 0), "{down} down: {s:?}");
            } else {
                assert!(out.rows.is_empty(), "{s:?}");
            }
        }
    }
}

/// A heat spike on a hot key pulls a replica onto the hot origin: under
/// the flat latency model the origin itself is the cheapest non-holder
/// (expected latency zero), so repeated reads replicate the data next
/// to the reader and later reads serve locally.
#[test]
fn heat_spike_replicates_toward_hot_origin() {
    let policy = PlacementPolicy::new()
        .replicate("S0#", 1)
        .heat(3, SimDuration::from_secs(5));
    let mut sys = replicated_system(policy, 7);
    let origin = outside_origin(&sys.replica_holders("S0#a0"));
    let plan = QueryPlan::search(data_query());

    assert!(sys.heat_spikes().is_empty());
    let mut outs = Vec::new();
    for _ in 0..4 {
        outs.push(sys.execute(origin, &plan, &options(1)).unwrap());
    }
    for o in &outs {
        assert_eq!(o.rows.len(), 3);
    }
    let spikes = sys.heat_spikes();
    assert!(!spikes.is_empty(), "three reads within the window spike");
    assert_eq!(
        spikes[0].action,
        SpikeAction::Replicate(origin),
        "the hot origin is the cheapest non-holder"
    );
    assert!(sys.replica_holders("S0#a0").contains(&origin));
    assert!(sys.replica_counters().migrations >= 1);
    let migrated: u64 = outs.iter().map(|o| o.stats.migrations as u64).sum();
    assert!(migrated >= 1, "the spike charged to a serving unit");
    // Once local, the read is free of response messages: the last
    // query moves fewer messages than the first.
    let first = outs.first().unwrap().stats.messages;
    let last = outs.last().unwrap().stats.messages;
    assert!(
        last < first,
        "local replica serves cheaper: {first} -> {last}"
    );
}

/// A system whose `S0#` rule asks for two extras beyond the natural σ
/// group of `S0#a0`, with the key's holders — σ owners first, then the
/// extras in commit order — and the second extra.
fn two_extras(seed: u64) -> (GridVineSystem, Vec<PeerId>, PeerId) {
    // The natural σ-group size, from a null-policy twin (same seed →
    // same topology).
    let owners = replicated_system(PlacementPolicy::default(), seed)
        .replica_holders("S0#a0")
        .len();
    let policy = PlacementPolicy::new().replicate("S0#", owners + 2);
    let sys = replicated_system(policy, seed);
    let holders = sys.replica_holders("S0#a0");
    assert_eq!(holders.len(), owners + 2, "provisioned up to the factor");
    let second_extra = holders[owners + 1];
    (sys, holders, second_extra)
}

/// Replica provisioning is atomic in the `commit_mapping_copies` style:
/// a crash armed to fire mid-fan-out rolls every written copy back —
/// including the σ-owner writes — so no holder serves rows a failed
/// insert half-placed.
#[test]
fn commit_crash_rolls_back_fan_out() {
    // The second extra crashes after the first already took the write.
    let (mut sys, holders, victim) = two_extras(11);
    let origin = outside_origin(&holders);

    sys.arm_commit_crash(victim);
    let err = sys.insert_triple(
        PeerId(0),
        Triple::new("seq:R9", "S0#a0", Term::literal("Aspergillus oryzae")),
    );
    assert!(err.is_err(), "mid-commit crash fails the insert");

    // Every surviving holder still serves exactly the three original
    // rows — the half-written fourth rolled back everywhere.
    let out = sys
        .execute(origin, &QueryPlan::search(data_query()), &options(1))
        .unwrap();
    assert_eq!(out.rows.len(), 3, "rows: {:?}", out.rows);
    assert_eq!(out.stats.failures, 0);
    sys.recover_peer(victim);
    let after = sys
        .execute(origin, &QueryPlan::search(data_query()), &options(1))
        .unwrap();
    assert_eq!(after.rows.len(), 3);
}

/// A failed insert takes back only what it wrote: re-inserting a stored
/// triple while one registered extra is down fails with `PeerDown`, and
/// the copy the first insert committed stays on every σ owner of its
/// three keys and on every surviving extra — the registry and the
/// holders still agree — so a lookup still answers it.
#[test]
fn failed_reinsert_keeps_the_committed_copy() {
    // The fan-out reaches the second extra after the first.
    let (mut sys, holders, victim) = two_extras(11);
    let stored = Triple::new("seq:R0", "S0#a0", Term::literal("Aspergillus niger"));
    let holding = |sys: &GridVineSystem| -> Vec<PeerId> {
        (0..PEERS as u32)
            .map(PeerId)
            .filter(|&p| sys.peer_db(p).contains(&stored))
            .collect()
    };
    let before = holding(&sys);
    for lexical in ["seq:R0", "S0#a0", "Aspergillus niger"] {
        let of_key = sys.replica_holders(lexical);
        assert!(of_key.iter().all(|p| before.contains(p)), "{lexical}");
    }

    sys.crash_peer(victim);
    assert_eq!(
        sys.insert_triple(PeerId(0), stored.clone()),
        Err(SystemError::PeerDown(victim))
    );
    assert_eq!(holding(&sys), before, "no committed copy was taken back");

    let origin = outside_origin(&holders);
    let out = sys
        .execute(origin, &QueryPlan::search(data_query()), &options(1))
        .unwrap();
    assert_eq!(out.rows.len(), 3, "rows: {:?}", out.rows);
    assert_eq!(out.stats.failures, 0);
}

/// A triple covered under two keys whose second fan-out fails is held
/// by nobody afterwards: the replicas provisioned for its first key
/// give it back with its σ copies, so no extra serves a row its owners
/// no longer hold.
#[test]
fn a_failed_second_fan_out_takes_back_the_first_keys_copies() {
    let seed = 11;
    let object = "Aspergillus niger";
    let owners = replicated_system(PlacementPolicy::default(), seed)
        .replica_holders(object)
        .len();
    let policy = PlacementPolicy::new()
        .replicate("seq:", owners + 1)
        .replicate("Aspergillus", owners + 1);
    let mut sys = replicated_system(policy, seed);
    let object_holders = sys.replica_holders(object);
    assert_eq!(
        object_holders.len(),
        owners + 1,
        "one extra of the object key"
    );
    let victim = object_holders[owners];
    sys.crash_peer(victim);

    let t = Triple::new("seq:R9", "S0#a0", Term::literal(object));
    assert_eq!(
        sys.insert_triple(PeerId(0), t.clone()),
        Err(SystemError::PeerDown(victim))
    );
    let subject_holders = sys.replica_holders("seq:R9");
    assert!(
        subject_holders.len() > owners,
        "the subject key was provisioned first"
    );
    let holding: Vec<PeerId> = (0..PEERS as u32)
        .map(PeerId)
        .filter(|&p| sys.peer_db(p).contains(&t))
        .collect();
    assert_eq!(holding, [], "every copy was taken back");

    let by_subject = TriplePatternQuery::new(
        "o",
        TriplePattern::new(
            PatternTerm::constant(Term::uri("seq:R9")),
            PatternTerm::var("p"),
            PatternTerm::var("o"),
        ),
    )
    .unwrap();
    for &origin in &subject_holders {
        let out = sys.execute(origin, &QueryPlan::pattern(by_subject.clone()), &options(1));
        assert_eq!(out.unwrap().rows, [], "served from {origin:?}");
    }
}

/// An insert judges a new replica holder's liveness at `now()`, the
/// instant it is made — not at the send instant of the last unit a
/// session issued, which a drained session leaves behind `now()`. The
/// best candidate churns down in between and is passed over.
#[test]
fn an_insert_judges_a_new_holder_live_at_now() {
    let seed = 11;
    let subject = "seq:R9";
    let owners = replicated_system(PlacementPolicy::default(), seed)
        .replica_holders(subject)
        .len();
    let policy = PlacementPolicy::new().replicate("seq:R9", owners + 1);
    let mut sys = replicated_system(policy, seed);
    let holders = sys.replica_holders(subject);
    assert_eq!(holders.len(), owners, "nothing provisioned yet");
    // Under the flat model every other peer is equally far from an
    // owner, so the best candidate is the first non-holder.
    let origin = holders[0];
    let candidate = outside_origin(&holders);

    sys.execute(origin, &QueryPlan::search(data_query()), &options(1))
        .unwrap();
    let now = sys.now();
    assert!(now > SimTime::ZERO);
    sys.install_churn(&[ChurnEvent {
        at: now,
        node: gridvine_netsim::NodeId::from_index(candidate.index()),
        kind: gridvine_netsim::churn::ChurnKind::Fail,
    }]);
    sys.insert_triple(
        origin,
        Triple::new(subject, "S0#a0", Term::literal("Aspergillus oryzae")),
    )
    .unwrap();
    let extra = sys.replica_holders(subject)[owners];
    assert_ne!(extra, candidate, "the churned candidate was passed over");
    assert!(!sys.churn_down_at(extra, sys.now()));
}

/// A correlated churn storm over a replicated predicate sheds no
/// sessions in the open-loop driver: every submitted session completes
/// (the retry protocol and replica failover ride out the outages), and
/// the replica path actually served traffic.
#[test]
fn churn_storm_over_replicated_predicate_sheds_no_sessions() {
    let seed = 3;
    let policy = PlacementPolicy::new().replicate("S0#", 4);
    let mut sys = replicated_system(policy, seed);
    let origins = 4usize;
    // Half the peers fail just after the run starts and recover within
    // a few simulated milliseconds — inside the retry budget. The
    // issuing origins stay up (the storm models remote failures).
    let storm = ChurnProcess::storm(PEERS, 0.5, SimTime::ZERO, SimDuration::from_millis(4), seed);
    let events: Vec<ChurnEvent> = storm
        .events()
        .iter()
        .filter(|e| e.node.index() >= origins)
        .copied()
        .collect();
    sys.install_churn(&events);

    let plans = vec![QueryPlan::search(data_query())];
    let cfg = LoadConfig {
        sessions: 40,
        arrivals: ArrivalProcess::Deterministic {
            gap: SimDuration::from_micros(200),
        },
        origins,
        max_concurrent: 8,
        queue_capacity: 40,
        message_budget: None,
        deadline: None,
        seed,
        ..LoadConfig::default()
    };
    let r = run_open_loop(&mut sys, &plans, &cfg);
    assert_eq!(r.submitted, 40);
    assert_eq!(r.failed, 0, "no session sheds: {r}");
    assert_eq!(r.rejected, 0, "generous queue rejects nothing: {r}");
    assert_eq!(r.completed, 40, "every session completes: {r}");
    assert!(
        sys.replica_counters().replica_hits > 0,
        "the replica path served the run: {}",
        sys.replica_counters()
    );
    assert_eq!(sys.pending_events(), 0);
}
