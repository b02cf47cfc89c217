//! Integration tests of the PR-7 semantic fault matrix: the
//! mediation-layer adversary ([`gridvine_semantic::adversary`]) gossips
//! stale, corrupted and Byzantine mappings into the network, Bayesian
//! assessment passes quarantine them, mediation commits are atomic
//! under crash injection, and query answers re-converge to the
//! fault-free ground truth — even when a mass-churn storm overlaps the
//! self-organization loop.

use std::collections::BTreeSet;

use gridvine_core::{
    GridVineConfig, GridVineSystem, QueryOptions, QueryOutcome, QueryPlan, ResultEvent,
    SelfOrgConfig, Strategy, SystemError,
};
use gridvine_netsim::churn::{ChurnEvent, ChurnProcess};
use gridvine_netsim::{SimDuration, SimTime};
use gridvine_pgrid::PeerId;
use gridvine_rdf::{PatternTerm, Term, Triple, TriplePattern, TriplePatternQuery};
use gridvine_semantic::{
    BayesConfig, Correspondence, MappingId, MappingKind, MappingStatus, Provenance, Schema,
    SchemaId, SemanticFaultConfig,
};
use proptest::prelude::*;

const ORIGIN: PeerId = PeerId(5);

const RING: usize = 5;

/// A 5-schema equivalence ring (S0 → S1 → … → S4 → S0) with two
/// attributes per schema, one Aspergillus triple per schema *and* one
/// decoy triple per schema on the b-attribute, plus a *deprecated*
/// wrong shortcut edge S0 → S2 so the stale-gossip dimension has a
/// candidate. The geometry makes injected faults genuinely harmful: a
/// resurrected shortcut reaches S2 at closure depth 1 — before the
/// correct depth-2 path — so its wrong predicate translation both
/// pulls in decoy rows and shadows the correct row. The ring keeps
/// every edge on short mapping cycles, which is what gives the
/// Bayesian analysis its evidence.
fn ring_system(semantic: SemanticFaultConfig, seed: u64) -> GridVineSystem {
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 32,
        hash: gridvine_pgrid::HashKind::Uniform,
        semantic_fault: semantic,
        seed,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    for i in 0..RING {
        sys.insert_schema(
            p0,
            Schema::new(format!("S{i}").as_str(), [format!("a{i}"), format!("b{i}")]),
        )
        .unwrap();
    }
    for i in 0..RING {
        let j = (i + 1) % RING;
        sys.insert_mapping(
            p0,
            format!("S{i}").as_str(),
            format!("S{j}").as_str(),
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![
                Correspondence::new(format!("a{i}"), format!("a{j}")),
                Correspondence::new(format!("b{i}"), format!("b{j}")),
            ],
        )
        .unwrap();
    }
    // The decoy: a wrong shortcut, already retired. Stale gossip can
    // resurrect copies of it.
    let decoy = sys
        .insert_mapping(
            p0,
            "S0",
            "S2",
            MappingKind::Equivalence,
            Provenance::Automatic,
            vec![
                Correspondence::new("a0", "b2"),
                Correspondence::new("b0", "a2"),
            ],
        )
        .unwrap();
    sys.deprecate_mapping(p0, decoy).unwrap();
    for i in 0..RING {
        sys.insert_triple(
            p0,
            Triple::new(
                format!("seq:R{i}").as_str(),
                format!("S{i}#a{i}").as_str(),
                Term::literal("Aspergillus niger"),
            ),
        )
        .unwrap();
        // Bait: a wrong correspondence that mistranslates the query
        // predicate onto the b-attribute picks these up as wrong rows.
        // Two decoys per attribute mean a wrong hop changes the row
        // count as well as the row identities.
        for d in ["D", "E"] {
            sys.insert_triple(
                p0,
                Triple::new(
                    format!("seq:{d}{i}").as_str(),
                    format!("S{i}#b{i}").as_str(),
                    Term::literal("Aspergillus decoy"),
                ),
            )
            .unwrap();
        }
    }
    sys
}

fn ring_query() -> TriplePatternQuery {
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

fn run(sys: &mut GridVineSystem, window: usize) -> QueryOutcome {
    let plan = QueryPlan::search(ring_query());
    let options = QueryOptions::new()
        .strategy(Strategy::Iterative)
        .window(window)
        .max_retries(8);
    sys.execute(ORIGIN, &plan, &options).unwrap()
}

/// Schemas reachable from `from` over *active* mappings only
/// (equivalence edges are walkable in both directions) — the ground
/// truth a closure walk must never exceed.
fn active_reachable(sys: &GridVineSystem, from: &SchemaId) -> BTreeSet<SchemaId> {
    let mut seen: BTreeSet<SchemaId> = BTreeSet::from([from.clone()]);
    let mut frontier = vec![from.clone()];
    while let Some(s) = frontier.pop() {
        for m in sys.registry().active_mappings() {
            let next = if m.source == s {
                Some(m.target.clone())
            } else if m.target == s && m.kind == MappingKind::Equivalence {
                Some(m.source.clone())
            } else {
                None
            };
            if let Some(n) = next {
                if seen.insert(n.clone()) {
                    frontier.push(n);
                }
            }
        }
    }
    seen
}

#[test]
fn crash_mid_commit_is_atomic_end_to_end() {
    // Build the mapping chain one edge at a time and crash the target
    // key space's responsible peer in the middle of the last commit:
    // the commit must roll back entirely, queries must keep answering
    // from the committed prefix, and the recovery scan must find
    // nothing half-live to repair.
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 32,
        hash: gridvine_pgrid::HashKind::Uniform,
        seed: 7,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    for i in 0..4 {
        sys.insert_schema(p0, Schema::new(format!("S{i}").as_str(), [format!("a{i}")]))
            .unwrap();
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
    let edge = |sys: &mut GridVineSystem, i: usize| {
        sys.insert_mapping(
            p0,
            format!("S{i}").as_str(),
            format!("S{}", i + 1).as_str(),
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new(format!("a{i}"), format!("a{}", i + 1))],
        )
    };
    edge(&mut sys, 0).unwrap();
    edge(&mut sys, 1).unwrap();
    let target_key = sys.key_of("S3");
    let victim = *sys.topology().responsible(&target_key).first().unwrap();
    sys.arm_commit_crash(victim);
    let res = edge(&mut sys, 2);
    assert!(matches!(res, Err(SystemError::PeerDown(_))), "{res:?}");
    assert_eq!(sys.registry().mapping_count(), 2, "failed commit retracted");

    sys.recover_peer(victim);
    let recovery = sys.recover_mapping_commits(p0).unwrap();
    assert_eq!(recovery.repaired_copies, 0, "no half-live copy to repair");
    let at_s3 = sys
        .mappings_at_schema(PeerId(1), &SchemaId::new("S3"))
        .unwrap();
    assert!(at_s3.is_empty(), "{at_s3:?}");
    let out = run(&mut sys, 4);
    assert_eq!(out.rows.len(), 3, "the committed prefix still answers");

    // The retry commits cleanly and the full chain answers.
    edge(&mut sys, 2).unwrap();
    let out = run(&mut sys, 4);
    assert_eq!(out.rows.len(), 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// A null `SemanticFaultConfig` — even spelled out field by field,
    /// with null gossip rounds interleaved between queries — reproduces
    /// the PR-6 scheduler bit-for-bit: same rows, same stats, no
    /// randomness consumed.
    #[test]
    fn null_semantic_fault_config_is_bit_identical(seed in 0u64..300) {
        for window in [1usize, 4] {
            let mut plain = ring_system(SemanticFaultConfig::none(), seed);
            let base1 = run(&mut plain, window);
            let base2 = run(&mut plain, window);
            prop_assert_eq!(base1.rows.len(), RING);

            let mut nulled = ring_system(
                SemanticFaultConfig {
                    stale: 0.0,
                    corrupt: 0.0,
                    byzantine: 0.0,
                    adversaries: vec![],
                },
                seed,
            );
            for _ in 0..3 {
                prop_assert!(nulled.adversary_gossip(PeerId(0)).unwrap().is_empty());
            }
            let out1 = run(&mut nulled, window);
            for _ in 0..2 {
                prop_assert!(nulled.adversary_gossip(PeerId(0)).unwrap().is_empty());
            }
            let out2 = run(&mut nulled, window);
            prop_assert_eq!(&out1.rows, &base1.rows);
            prop_assert_eq!(out1.stats, base1.stats);
            prop_assert_eq!(&out2.rows, &base2.rows);
            prop_assert_eq!(out2.stats, base2.stats);
        }
    }

    /// The tentpole invariant: under adversary rates ≤ 0.2 — with a
    /// mass-churn storm overlapping the self-organization round — enough
    /// assessment passes quarantine every harmful injected edge and the
    /// query rows re-converge to the fault-free ground truth.
    #[test]
    fn bounded_adversary_reconverges_to_ground_truth(
        seed in 0u64..200,
        stale in 0.0f64..=0.2,
        corrupt in 0.0f64..=0.2,
        byzantine in 0.0f64..=0.2,
    ) {
        let mut clean = ring_system(SemanticFaultConfig::none(), seed);
        let base = run(&mut clean, 4);
        prop_assert_eq!(base.rows.len(), RING);

        let mut sys = ring_system(
            SemanticFaultConfig {
                stale,
                corrupt,
                byzantine,
                adversaries: vec![7],
            },
            seed,
        );
        // A correlated storm: half the peers fail at time zero and
        // recover within a few simulated milliseconds — the retry
        // protocol and the mediation layer must both ride it out.
        let storm = ChurnProcess::storm(32, 0.5, SimTime::ZERO, SimDuration::from_millis(4), seed);
        let events: Vec<ChurnEvent> = storm
            .events()
            .iter()
            .filter(|e| e.node.index() != ORIGIN.index())
            .copied()
            .collect();
        sys.install_churn(&events);

        for _ in 0..6 {
            sys.adversary_gossip(PeerId(0)).unwrap();
        }
        // Self-repair: the self-organization round and dedicated
        // assessment passes both judge the network; either is allowed
        // to retire an injected edge.
        sys.self_organization_round(&SelfOrgConfig::default()).unwrap();
        let bayes = BayesConfig::default();
        for _ in 0..3 {
            sys.assessment_pass(ORIGIN, &bayes).unwrap();
        }
        let out = run(&mut sys, 4);
        prop_assert_eq!(
            &out.rows, &base.rows,
            "injected: {:?}", sys.semantic_fault_counters()
        );
    }

    /// The satellite invariant: no closure cache ever replays a hop
    /// through a non-active mapping. Random quarantine / reactivate
    /// flips (every one bumps the registry epoch) interleave with
    /// queries; every `SchemaHop` the session reports must stay within
    /// the schemas reachable over currently-active mappings.
    #[test]
    fn closure_cache_never_replays_an_inactive_hop(
        seed in 0u64..200,
        ops in proptest::collection::vec(0usize..8, 1..10),
    ) {
        let mut sys = ring_system(SemanticFaultConfig::none(), seed);
        let p0 = PeerId(0);
        let ids: Vec<MappingId> = sys.registry().mappings().map(|m| m.id).collect();
        // Warm the schema's closure cache so later queries would love
        // to replay it.
        run(&mut sys, 1);
        for op in ops {
            let id = ids[op % ids.len()];
            if op < 4 {
                sys.quarantine_mapping(p0, id).unwrap();
            } else {
                sys.reactivate_mapping(p0, id).unwrap();
            }
            let reachable = active_reachable(&sys, &SchemaId::new("S0"));
            let plan = QueryPlan::search(ring_query());
            let options = QueryOptions::new().strategy(Strategy::Iterative);
            let mut session = sys.open(ORIGIN, &plan, &options).unwrap();
            while let Some(event) = session.next_event().unwrap() {
                if let ResultEvent::SchemaHop { schema, .. } = event {
                    prop_assert!(
                        reachable.contains(&schema),
                        "hop to {schema} with only {reachable:?} active"
                    );
                }
            }
        }
    }
}

/// Mappings the assessment passes have quarantined so far.
fn quarantined(sys: &GridVineSystem) -> usize {
    let mappings = sys.registry().mappings();
    mappings
        .filter(|m| m.status == MappingStatus::Quarantined)
        .count()
}

/// Stale and corrupted gossip, then the query after 0, 1 and 3
/// assessment passes: a fault-free rate leaves exactly the ring's rows
/// and quarantines nothing, a pass never adds rows, and within the
/// bounded rate (0.2) a pass after an injection quarantines something.
/// At that rate a churn storm over half the peers at the start changes
/// nothing: the retry budget bridges it.
/// Rows coming back to exactly the ring's is not asserted: past that
/// rate a wrong copy can survive every pass.
#[test]
fn assessment_passes_never_add_rows_and_compose_with_a_storm() {
    let bayes = BayesConfig::default();
    for rate in [0.0, 0.2, 0.5] {
        let trace = |storm: f64| {
            let adversary = SemanticFaultConfig {
                stale: rate,
                corrupt: rate,
                ..SemanticFaultConfig::none()
            };
            let mut sys = ring_system(adversary, 0);
            let outage = SimDuration::from_millis(4);
            let storm = ChurnProcess::storm(32, storm, SimTime::ZERO, outage, 0);
            let events: Vec<ChurnEvent> = (storm.events().iter())
                .filter(|e| e.node.index() != ORIGIN.index())
                .copied()
                .collect();
            sys.install_churn(&events);
            for _ in 0..6 {
                sys.adversary_gossip(PeerId(0)).unwrap();
            }
            let counters = sys.semantic_fault_counters();
            let injected = counters.stale + counters.corrupted;
            // The query after 0, 1 and 3 passes in all.
            [0, 1, 2].map(|more| {
                for _ in 0..more {
                    sys.assessment_pass(ORIGIN, &bayes).unwrap();
                }
                (run(&mut sys, 4).rows.len(), injected, quarantined(&sys))
            })
        };
        let calm = trace(0.0);
        if rate == 0.2 {
            assert_eq!(trace(0.5), calm);
        }
        let [(none, injected, _), (one, _, isolated), (three, _, _)] = calm;
        assert!(three <= one && one <= none, "rate {rate}: {calm:?}");
        if rate == 0.0 {
            assert_eq!(calm, [(RING, 0, 0); 3]);
        }
        if rate <= 0.2 && injected > 0 {
            assert!(isolated > 0, "rate {rate}: {calm:?}");
        }
    }
}

/// Byzantine fabrication, then assessment passes: every cycle probe is
/// one routed request, counted as an assessment probe, charged as
/// overlay messages and paid for on the simulated clock; the rows stay
/// the ring's.
#[test]
fn assessment_probes_are_charged_like_subqueries() {
    let bayes = BayesConfig::default();
    for seed in 0..2 {
        let mut sys = ring_system(SemanticFaultConfig::byzantine(0.5, vec![0, 1]), seed);
        for _ in 0..4 {
            sys.adversary_gossip(PeerId(0)).unwrap();
        }
        assert!(sys.semantic_fault_counters().fabricated > 0);
        for _ in 0..2 {
            let before = sys.messages_sent();
            let report = sys.assessment_pass(ORIGIN, &bayes).unwrap();
            assert_eq!(sys.messages_sent() - before, report.stats.messages);
            assert_eq!(report.stats.requests, report.cycles_probed);
            let probes = report.stats.assessment_probes as usize;
            assert_eq!(probes, report.cycles_probed);
            assert!(report.elapsed > SimDuration::ZERO);
        }
        assert_eq!(run(&mut sys, 4).rows.len(), RING, "seed {seed}");
    }
}
