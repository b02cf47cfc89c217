//! Integration tests of the semantic fault matrix: wrong automatic
//! mappings are inserted into the network in the shapes a faulty
//! matcher or a peer that missed a deprecation gives them, Bayesian
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
    SchemaId,
};
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

const ORIGIN: PeerId = PeerId(5);

const RING: usize = 5;

/// A 5-schema equivalence ring (S0 → S1 → … → S4 → S0) with two
/// attributes per schema, one Aspergillus triple per schema *and* two
/// decoy triples per schema on the b-attribute, plus a *deprecated*
/// wrong shortcut edge S0 → S2 ([`WrongEdge::Decoy`] copies it). The
/// geometry makes wrong edges genuinely harmful: a live copy of the
/// shortcut reaches S2 at closure depth 1 — before the correct depth-2
/// path — so its wrong predicate translation both pulls in decoy rows
/// and shadows the correct row. The ring keeps every edge on short
/// mapping cycles, which is what gives the Bayesian analysis its
/// evidence.
fn ring_system(seed: u64) -> GridVineSystem {
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 32,
        hash: gridvine_pgrid::HashKind::Uniform,
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
    // The decoy: a wrong shortcut, already retired. A peer that missed
    // the deprecation can insert a live copy of it.
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

/// One wrong automatic mapping, in one of three shapes. Each type-checks
/// against the ring's schemas, so only cycle evidence exposes it.
#[derive(Debug, Clone, Copy)]
enum WrongEdge {
    /// A live copy of the deprecated decoy S0 → S2 (`a0 → b2`,
    /// `b0 → a2`).
    Decoy,
    /// The ring edge S`i` → S`i+1` with its targets rotated by one
    /// (`ai → b(i+1)`, `bi → a(i+1)`).
    Rotated(usize),
    /// An edge between two distinct schemas pairing `a` and `b` of the
    /// source with the target's attribute `pairs[0]` and `pairs[1]`
    /// (0 = `a`, 1 = `b`; both may name the same one).
    Fabricated {
        source: usize,
        target: usize,
        pairs: [usize; 2],
    },
}

fn wrong_edge() -> impl proptest::strategy::Strategy<Value = WrongEdge> {
    prop_oneof![
        Just(WrongEdge::Decoy),
        (0..RING).prop_map(WrongEdge::Rotated),
        (0..RING, 1..RING, 0usize..2, 0usize..2).prop_map(|(source, step, x, y)| {
            WrongEdge::Fabricated {
                source,
                target: (source + step) % RING,
                pairs: [x, y],
            }
        }),
    ]
}

/// Insert `edge` from peer 0 as an automatic equivalence, DHT copies
/// and all.
fn insert_wrong(sys: &mut GridVineSystem, edge: WrongEdge) {
    let (i, j, pairs) = match edge {
        WrongEdge::Decoy => (0, 2, [1, 0]),
        WrongEdge::Rotated(i) => (i, (i + 1) % RING, [1, 0]),
        WrongEdge::Fabricated {
            source,
            target,
            pairs,
        } => (source, target, pairs),
    };
    let attr = |k: usize| if pairs[k] == 0 { "a" } else { "b" };
    sys.insert_mapping(
        PeerId(0),
        format!("S{i}").as_str(),
        format!("S{j}").as_str(),
        MappingKind::Equivalence,
        Provenance::Automatic,
        vec![
            Correspondence::new(format!("a{i}"), format!("{}{j}", attr(0))),
            Correspondence::new(format!("b{i}"), format!("{}{j}", attr(1))),
        ],
    )
    .unwrap();
}

/// Install a churn storm over `fraction` of the 32 peers at time zero,
/// each down for 4 ms, sparing the query origin.
fn install_storm(sys: &mut GridVineSystem, fraction: f64, seed: u64) {
    let outage = SimDuration::from_millis(4);
    let storm = ChurnProcess::storm(32, fraction, SimTime::ZERO, outage, seed);
    let events: Vec<ChurnEvent> = (storm.events().iter())
        .filter(|e| e.node.index() != ORIGIN.index())
        .copied()
        .collect();
    sys.install_churn(&events);
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

    /// Up to four wrong edges of any shape (as many as stale, corrupted
    /// and fabricated gossip at rates ≤ 0.2 ever produced here) inserted
    /// while a mass-churn storm overlaps the self-organization round:
    /// enough assessment passes quarantine every harmful one and the
    /// query rows re-converge to the fault-free ground truth. Not every
    /// four-edge list does: two copies of one wrong edge can vouch for
    /// each other on their there-and-back cycle (ROADMAP 8(f)). The ten
    /// cases drawn here do.
    #[test]
    fn bounded_adversary_reconverges_to_ground_truth(
        seed in 0u64..200,
        wrong in proptest::collection::vec(wrong_edge(), 0..=4),
    ) {
        let mut clean = ring_system(seed);
        let base = run(&mut clean, 4);
        prop_assert_eq!(base.rows.len(), RING);

        let mut sys = ring_system(seed);
        // A correlated storm: half the peers fail at time zero and
        // recover within a few simulated milliseconds — the retry
        // protocol and the mediation layer must both ride it out.
        install_storm(&mut sys, 0.5, seed);
        for &edge in &wrong {
            insert_wrong(&mut sys, edge);
        }
        // Self-repair: the self-organization round and dedicated
        // assessment passes both judge the network; either is allowed
        // to retire a wrong edge.
        sys.self_organization_round(&SelfOrgConfig::default()).unwrap();
        let bayes = BayesConfig::default();
        for _ in 0..3 {
            sys.assessment_pass(ORIGIN, &bayes).unwrap();
        }
        let out = run(&mut sys, 4);
        prop_assert_eq!(&out.rows, &base.rows, "inserted: {:?}", wrong);
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
        let mut sys = ring_system(seed);
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

/// Live decoy copies and rotated ring edges, then the query after 0, 1
/// and 3 assessment passes: no wrong edge leaves exactly the ring's rows
/// and quarantines nothing, a pass never adds rows, and with a few
/// wrong edges a pass quarantines something. With a few, a churn storm
/// over half the peers at the start changes nothing: the retry budget
/// bridges it. Rows coming back to exactly the ring's is not asserted:
/// with many wrong edges a wrong copy can survive every pass.
#[test]
fn assessment_passes_never_add_rows_and_compose_with_a_storm() {
    use WrongEdge::{Decoy, Rotated};
    let bayes = BayesConfig::default();
    let few = [Decoy, Rotated(3), Decoy];
    let many = [
        Decoy,
        Rotated(3),
        Decoy,
        Rotated(0),
        Rotated(1),
        Decoy,
        Decoy,
        Rotated(3),
        Decoy,
    ];
    for wrong in [&[][..], &few, &many] {
        let trace = |storm: f64| {
            let mut sys = ring_system(0);
            install_storm(&mut sys, storm, 0);
            for &edge in wrong {
                insert_wrong(&mut sys, edge);
            }
            // The query after 0, 1 and 3 passes in all.
            [0, 1, 2].map(|more| {
                for _ in 0..more {
                    sys.assessment_pass(ORIGIN, &bayes).unwrap();
                }
                (run(&mut sys, 4).rows.len(), quarantined(&sys))
            })
        };
        let calm = trace(0.0);
        if wrong.len() == few.len() {
            assert_eq!(trace(0.5), calm);
        }
        let [(none, _), (one, isolated), (three, _)] = calm;
        assert!(three <= one && one <= none, "{wrong:?}: {calm:?}");
        if wrong.is_empty() {
            assert_eq!(calm, [(RING, 0); 3]);
        }
        if wrong.len() == few.len() {
            assert!(isolated > 0, "{wrong:?}: {calm:?}");
        }
    }
}

/// Fabricated edges, then assessment passes: every cycle probe is one
/// routed request, counted as an assessment probe, charged as overlay
/// messages and paid for on the simulated clock; the rows stay the
/// ring's.
#[test]
fn assessment_probes_are_charged_like_subqueries() {
    let bayes = BayesConfig::default();
    // (source, target, target attributes of `a` and `b`) per seed.
    let fabricated: [&[(usize, usize, [usize; 2])]; 2] = [
        &[
            (3, 0, [1, 1]),
            (0, 3, [1, 1]),
            (3, 2, [0, 0]),
            (1, 2, [0, 0]),
            (2, 1, [0, 1]),
            (3, 0, [0, 1]),
            (3, 1, [0, 0]),
        ],
        &[
            (4, 2, [1, 1]),
            (1, 0, [0, 0]),
            (1, 4, [1, 1]),
            (4, 2, [1, 1]),
            (3, 0, [0, 0]),
        ],
    ];
    for (seed, edges) in fabricated.into_iter().enumerate() {
        let mut sys = ring_system(seed as u64);
        for &(source, target, pairs) in edges {
            let edge = WrongEdge::Fabricated {
                source,
                target,
                pairs,
            };
            insert_wrong(&mut sys, edge);
        }
        for _ in 0..2 {
            let before = sys.messages_sent();
            let report = sys.assessment_pass(ORIGIN, &bayes).unwrap();
            assert_eq!(sys.messages_sent() - before, report.stats.messages);
            assert_eq!(report.stats.requests, report.cycles_probed);
            let probes = report.stats.assessment_probes;
            assert_eq!(probes, report.cycles_probed);
            assert!(report.elapsed > SimDuration::ZERO);
        }
        assert_eq!(run(&mut sys, 4).rows.len(), RING, "seed {seed}");
    }
}
