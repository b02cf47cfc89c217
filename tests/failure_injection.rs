//! Failure-injection integration tests: crashed peers, message loss and
//! poisoned mappings must degrade the system gracefully, never corrupt
//! it.
//!
//! Queries run through the plan surface (`QueryPlan::search` +
//! `execute`).

use gridvine_core::{
    GridVineConfig, GridVineSystem, MediationItem, QueryOptions, QueryOutcome, QueryPlan,
    SelfOrgConfig, Strategy, SystemError,
};
use gridvine_netsim::prelude::*;
use gridvine_pgrid::proto::{PGridMsg, PGridNode, Status};
use gridvine_pgrid::{KeyHasher, OrderPreservingHash, PeerId, RouteError, Topology};
use gridvine_rdf::{Term, Triple, TriplePatternQuery};
use gridvine_semantic::{Correspondence, MappingKind, Provenance, Schema};
use gridvine_workload::{Workload, WorkloadConfig};

type Net = Network<PGridNode<MediationItem>, PGridMsg<MediationItem>>;

fn search(sys: &mut GridVineSystem, origin: PeerId, q: &TriplePatternQuery) -> QueryOutcome {
    sys.execute(
        origin,
        &QueryPlan::search(q.clone()),
        &QueryOptions::new().strategy(Strategy::Iterative),
    )
    .unwrap()
}

fn wired(n: usize, loss: f64, seed: u64) -> (Net, Topology) {
    let mut rng = gridvine_netsim::rng::seeded(seed);
    let topo = Topology::balanced(n, 3, &mut rng);
    let cfg = NetworkConfig {
        loss,
        ..NetworkConfig::lan()
    };
    let mut net: Net = Network::new(cfg, seed);
    for i in 0..n {
        net.add_node(PGridNode::from_topology(
            &topo,
            i,
            SimDuration::from_secs(5),
        ));
    }
    (net, topo)
}

#[test]
fn message_loss_is_survived_by_retries() {
    let (mut net, topo) = wired(64, 0.10, 1);
    let h = OrderPreservingHash::default();
    // Preload 50 items on the responsible peers.
    let mut keys = Vec::new();
    for i in 0..50 {
        let key = h.hash(&format!("item-{i}"), 24);
        let t = Triple::new(format!("seq:I{i}").as_str(), "DB#V", Term::literal("x"));
        for p in topo.responsible(&key).to_vec() {
            net.node_mut(NodeId::from_index(p.index()))
                .store_mut()
                .insert(key.clone(), MediationItem::Triple(t.clone()));
        }
        keys.push(key);
    }
    for (i, key) in keys.iter().enumerate() {
        let origin = NodeId::from_index(i % 64);
        let k = key.clone();
        net.invoke(origin, move |node, ctx| node.start_retrieve(ctx, k));
    }
    net.run_until_quiescent();
    let mut ok = 0;
    let mut total = 0;
    for i in 0..64 {
        for o in net.node_mut(NodeId::from_index(i)).drain_completed() {
            total += 1;
            if o.status == Status::Ok {
                ok += 1;
            }
        }
    }
    assert!(net.stats().lost > 0, "the loss process dropped messages");
    assert_eq!(total, 50, "every request must complete one way or another");
    // 10% per-message loss across ~8 messages kills ~half the first
    // attempts; with 2 retries nearly everything gets through.
    assert!(ok >= 45, "only {ok}/50 answered under 10% loss");
}

#[test]
fn poisoned_mapping_cannot_break_unrelated_queries() {
    // A totally wrong mapping may add garbage reformulations but must
    // never remove correct results.
    let mut sys = GridVineSystem::new(GridVineConfig::default());
    let p = PeerId(0);
    sys.insert_schema(p, Schema::new("EMBL", ["Organism"]))
        .unwrap();
    sys.insert_schema(p, Schema::new("JUNK", ["Garbage"]))
        .unwrap();
    sys.insert_triple(
        p,
        Triple::new(
            "seq:A1",
            "EMBL#Organism",
            Term::literal("Aspergillus niger"),
        ),
    )
    .unwrap();
    let q = TriplePatternQuery::example_aspergillus();
    let before = search(&mut sys, PeerId(1), &q);

    sys.insert_mapping(
        p,
        "EMBL",
        "JUNK",
        MappingKind::Equivalence,
        Provenance::Automatic,
        vec![Correspondence::new("Organism", "Garbage")],
    )
    .unwrap();
    let after = search(&mut sys, PeerId(1), &q);
    assert_eq!(before.rows, after.rows, "poison must not eat results");
    assert_eq!(
        after.stats.reformulations, 1,
        "the junk reformulation ran (and found nothing)"
    );
}

#[test]
fn crashed_destination_mid_flight_fails_the_hop_not_the_session() {
    // A 4-schema equivalence chain; the session keeps several
    // subqueries in flight (window 4). Crashing the peers responsible
    // for a deep reformulated predicate's key while the walk is in
    // flight must surface as ExecStats::failures on that hop — the
    // session keeps draining and terminates instead of hanging, and
    // only the crashed schema's rows are missing.
    use gridvine_core::{QueryPlan, ResultEvent};
    let build = || {
        let mut sys = GridVineSystem::new(GridVineConfig {
            peers: 32,
            // Uniform hashing scatters the four predicate keys over
            // distinct peers (order-preserving hashing would co-locate
            // the common "S…#a…" prefix, so one crash would take out
            // every lookup).
            hash: gridvine_pgrid::HashKind::Uniform,
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
    };
    let q = gridvine_rdf::TriplePatternQuery::new(
        "x",
        gridvine_rdf::TriplePattern::new(
            gridvine_rdf::PatternTerm::var("x"),
            gridvine_rdf::PatternTerm::constant(Term::uri("S0#a0")),
            gridvine_rdf::PatternTerm::constant(Term::literal("%Aspergillus%")),
        ),
    )
    .unwrap();
    let plan = QueryPlan::search(q);
    let options = gridvine_core::QueryOptions::new().window(4);

    // Baseline: all peers up, every schema answers.
    let mut healthy = build();
    let full = healthy.execute(PeerId(5), &plan, &options).unwrap();
    assert_eq!(full.rows.len(), 4);
    assert_eq!(full.stats.failures, 0);

    // Crash run: open the session, pull one event (subqueries now in
    // flight), then crash every peer responsible for the deep S3
    // lookup's routing key while the walk is still going.
    let mut sys = build();
    let s3_key = sys.key_of("S3#a3");
    let victims: Vec<PeerId> = sys.topology().responsible(&s3_key).to_vec();
    assert!(!victims.is_empty());
    let outcome = {
        let mut session = sys.open(PeerId(5), &plan, &options).unwrap();
        let first = session.next_event().unwrap();
        assert!(first.is_some(), "the walk started");
        assert!(session.in_flight() > 0, "subqueries are in flight");
        drop(session);
        for &v in &victims {
            sys.crash_peer(v);
        }
        let mut session = sys.open(PeerId(5), &plan, &options).unwrap();
        let mut events = 0usize;
        while let Some(ev) = session.next_event().unwrap() {
            events += 1;
            assert!(events < 10_000, "the session must terminate, not hang");
            if let ResultEvent::Stats(_) = ev {}
        }
        assert!(session.is_complete());
        session.into_outcome()
    };
    assert!(
        outcome.stats.failures >= 1,
        "the crashed destination is recorded as a failure: {:?}",
        outcome.stats
    );
    assert_eq!(
        outcome.rows.len(),
        3,
        "only the crashed schema's row is missing"
    );
    assert_eq!(sys.pending_events(), 0);

    // Recovery restores the full answer.
    for &v in &victims {
        sys.recover_peer(v);
    }
    let healed = sys.execute(PeerId(5), &plan, &options).unwrap();
    assert_eq!(healed.rows.len(), 4);
}

/// A peer whose path the origin learned crashes: the request sent to it
/// fails at once, the origin forgets the address and routes the same
/// request within the unit, so the replay answers as a healthy one
/// does while the leaf has a live replica.
#[test]
fn a_crashed_learned_address_fails_over_to_routing() {
    let build = || {
        let mut sys = GridVineSystem::new(GridVineConfig {
            // 24 peers: half the leaves have two.
            peers: 24,
            hash: gridvine_pgrid::HashKind::Uniform,
            seed: 7,
            ..GridVineConfig::default()
        });
        let p0 = PeerId(0);
        for i in 0..4 {
            sys.insert_schema(p0, Schema::new(format!("S{i}").as_str(), [format!("a{i}")]))
                .unwrap();
        }
        for i in 0..3 {
            let (from, to) = (format!("S{i}"), format!("S{}", i + 1));
            let a = vec![Correspondence::new(format!("a{i}"), format!("a{}", i + 1))];
            let (equivalence, manual) = (MappingKind::Equivalence, Provenance::Manual);
            sys.insert_mapping(p0, from.as_str(), to.as_str(), equivalence, manual, a)
                .unwrap();
        }
        for i in 0..4 {
            let predicate = format!("S{i}#a{i}");
            let record = Triple::new(
                format!("seq:R{i}").as_str(),
                predicate.as_str(),
                Term::literal("Aspergillus niger"),
            );
            sys.insert_triple(p0, record).unwrap();
        }
        sys
    };
    let q = gridvine_rdf::TriplePatternQuery::new(
        "x",
        gridvine_rdf::TriplePattern::new(
            gridvine_rdf::PatternTerm::var("x"),
            gridvine_rdf::PatternTerm::constant(Term::uri("S0#a0")),
            gridvine_rdf::PatternTerm::constant(Term::literal("%Aspergillus%")),
        ),
    )
    .unwrap();
    let origin = PeerId(5);
    let mut healthy = build();
    search(&mut healthy, origin, &q);
    let warm = search(&mut healthy, origin, &q);
    assert_eq!((warm.rows.len(), warm.stats.failures), (4, 0));
    assert!(warm.stats.direct > 0, "{:?}", warm.stats);

    let mut sys = build();
    search(&mut sys, origin, &q);
    // S1's and S2's predicates share a leaf of two peers; at this seed
    // the route from the origin lands on the live one.
    let key = sys.key_of("S1#a1");
    let learned = sys
        .learned_address(origin, &key)
        .expect("the reply taught it");
    assert_eq!(sys.topology().responsible(&key).len(), 2);
    sys.crash_peer(learned);
    let out = search(&mut sys, origin, &q);
    assert_eq!(out.rows, warm.rows);
    assert_eq!(out.stats.failures, 0, "{:?}", out.stats);
    // The request to the dead peer, then the same one routed.
    assert_eq!(out.stats.requests, warm.stats.requests + 1);
    assert_eq!(out.stats.direct, warm.stats.direct);
    assert!(out.stats.messages > warm.stats.messages);
    let relearned = sys.learned_address(origin, &key);
    assert!(relearned.is_some() && relearned != Some(learned));
}

#[test]
fn failure_truncated_closure_is_never_cached_as_complete() {
    // Crash the peer serving an intermediate schema's mapping list: the
    // walk loses that subtree (failure recorded), and the truncated
    // closure must NOT be committed to the holder's cache — after the
    // peer recovers, the same query must see the full closure again
    // instead of replaying the amputated one.
    use gridvine_core::QueryPlan;
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 32,
        hash: gridvine_pgrid::HashKind::Uniform,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    for i in 0..3 {
        sys.insert_schema(p0, Schema::new(format!("T{i}").as_str(), [format!("a{i}")]))
            .unwrap();
    }
    for i in 0..2 {
        sys.insert_mapping(
            p0,
            format!("T{i}").as_str(),
            format!("T{}", i + 1).as_str(),
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new(format!("a{i}"), format!("a{}", i + 1))],
        )
        .unwrap();
    }
    for i in 0..3 {
        sys.insert_triple(
            p0,
            Triple::new(
                format!("seq:T{i}").as_str(),
                format!("T{i}#a{i}").as_str(),
                Term::literal("Aspergillus niger"),
            ),
        )
        .unwrap();
    }
    let q = gridvine_rdf::TriplePatternQuery::new(
        "x",
        gridvine_rdf::TriplePattern::new(
            gridvine_rdf::PatternTerm::var("x"),
            gridvine_rdf::PatternTerm::constant(Term::uri("T0#a0")),
            gridvine_rdf::PatternTerm::constant(Term::literal("%Aspergillus%")),
        ),
    )
    .unwrap();
    let plan = QueryPlan::search(q);
    let options = gridvine_core::QueryOptions::default();

    // Crash the peers serving T1's mapping list: expanding the T1 hop
    // fails, so T2 is never discovered.
    let t1_schema_key = sys.key_of("T1");
    let victims: Vec<PeerId> = sys.topology().responsible(&t1_schema_key).to_vec();
    for &v in &victims {
        sys.crash_peer(v);
    }
    let truncated = sys.execute(PeerId(5), &plan, &options).unwrap();
    assert!(truncated.stats.failures >= 1, "{:?}", truncated.stats);
    assert_eq!(truncated.rows.len(), 2, "T2 is unreachable while down");
    assert_eq!(
        sys.cached_closures(),
        0,
        "a failure-truncated closure must never be committed"
    );

    // Recovery: the same query re-walks the full closure (no stale
    // replay) and only now memoizes it.
    for &v in &victims {
        sys.recover_peer(v);
    }
    let healed = sys.execute(PeerId(5), &plan, &options).unwrap();
    assert_eq!(healed.rows.len(), 3, "full closure after recovery");
    assert_eq!(healed.stats.failures, 0);
    assert_eq!(sys.cached_closures(), 1);
    // And the memoized closure is the complete one. The origin hop
    // lands off the leaf holding T0's list, so the warm walk discovers
    // that list, where it finds the cache — and nothing deeper.
    let responsible = |lexical: &str| sys.topology().responsible(&sys.key_of(lexical)).to_vec();
    assert_ne!(responsible("T0#a0"), responsible("T0"));
    let warm = sys.execute(PeerId(5), &plan, &options).unwrap();
    assert_eq!(warm.rows, healed.rows);
    assert_eq!(warm.stats.cache_hits, 1);
    assert_eq!(warm.stats.mapping_fetches, 1);
}

#[test]
fn self_organization_with_noisy_matcher_still_terminates() {
    let w = Workload::generate(WorkloadConfig::small(9));
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 32,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    for s in &w.schemas {
        sys.insert_schema(p0, s.clone()).unwrap();
    }
    for s in &w.schemas {
        sys.insert_triples(p0, w.triples_of(s.id())).unwrap();
    }
    let a = w.schemas[0].id().clone();
    let b = w.schemas[1].id().clone();
    sys.insert_mapping(
        p0,
        a,
        b,
        MappingKind::Equivalence,
        Provenance::Manual,
        w.ground_truth
            .correct_pairs(w.schemas[0].id(), w.schemas[1].id()),
    )
    .unwrap();
    // A noisy matcher's output: automatic mappings whose correct
    // correspondences have their target attributes swapped.
    for (i, j) in [(1, 2), (0, 3)] {
        let (a, b) = (w.schemas[i].id(), w.schemas[j].id());
        let mut corrs = w.ground_truth.correct_pairs(a, b);
        assert!(corrs.len() >= 2, "need two correspondences to swap");
        let first = corrs[0].target_attr.clone();
        corrs[0].target_attr = std::mem::replace(&mut corrs[1].target_attr, first);
        sys.insert_mapping(
            p0,
            a.clone(),
            b.clone(),
            MappingKind::Equivalence,
            Provenance::Automatic,
            corrs,
        )
        .unwrap();
    }

    let cfg = SelfOrgConfig {
        max_new_mappings: 4,
        ..SelfOrgConfig::default()
    };
    for _ in 0..6 {
        let rep = sys.self_organization_round(&cfg).unwrap();
        // The system never deprecates manual mappings, whatever happens.
        assert!(sys
            .registry()
            .mappings()
            .filter(|m| m.provenance == Provenance::Manual)
            .all(|m| m.is_active()));
        let _ = rep;
    }
    // Queries still run after all that.
    let q = TriplePatternQuery::example_aspergillus();
    let out = search(&mut sys, PeerId(3), &q);
    assert!(out.stats.schemas_visited >= 1);
}

#[test]
fn crashed_majority_still_serves_surviving_keys() {
    let (mut net, topo) = wired(32, 0.0, 3);
    let h = OrderPreservingHash::default();
    let key = h.hash("survivor", 24);
    let t = Triple::new("seq:S", "DB#V", Term::literal("survivor"));
    for p in topo.responsible(&key).to_vec() {
        net.node_mut(NodeId::from_index(p.index()))
            .store_mut()
            .insert(key.clone(), MediationItem::Triple(t.clone()));
    }
    // Crash half the network, but keep the responsible group and one
    // origin alive.
    let keep: Vec<usize> = topo.responsible(&key).iter().map(|p| p.index()).collect();
    let origin = (0..32).find(|i| !keep.contains(i)).unwrap();
    let mut crashed = 0;
    for i in 0..32 {
        if i != origin && !keep.contains(&i) && crashed < 16 {
            net.crash(NodeId::from_index(i));
            crashed += 1;
        }
    }
    // Retries route around the dead half often enough to succeed
    // within a few attempts.
    let mut ok = false;
    for _ in 0..10 {
        let k = key.clone();
        let o = NodeId::from_index(origin);
        net.invoke(o, move |node, ctx| node.start_retrieve(ctx, k));
        net.run_until_quiescent();
        if net
            .node_mut(NodeId::from_index(origin))
            .drain_completed()
            .iter()
            .any(|r| r.status == Status::Ok)
        {
            ok = true;
            break;
        }
    }
    assert!(ok, "the surviving replica group must remain reachable");
}

#[test]
fn wan_lookups_survive_message_loss() {
    // 5 % message loss on the WAN: the retry machinery must still get
    // lookups answered, with only a small residue timing out. The
    // engine (`GridVineSystem`) has no message loss of its own; its
    // retry protocol is exercised under churn in
    // `tests/fault_protocol.rs`.
    use gridvine_core::{Deployment, DeploymentConfig};
    use gridvine_workload::{QueryConfig, QueryGenerator};

    let w = Workload::generate(WorkloadConfig::small(31));
    let mut d = Deployment::new(DeploymentConfig {
        peers: 48,
        network: NetworkConfig {
            loss: 0.05,
            ..NetworkConfig::planetlab()
        },
        ..DeploymentConfig::paper(31)
    });
    let triples: Vec<Triple> = w.all_triples().into_iter().map(|(_, t)| t).collect();
    d.preload(triples);
    for i in 0..48 {
        d.network_mut()
            .node_mut(gridvine_netsim::NodeId::from_index(i))
            .set_retries(3);
    }

    let gen = QueryGenerator::new(&w, QueryConfig::default());
    let mut r = gridvine_netsim::rng::seeded(8);
    let queries: Vec<_> = gen.batch(60, &mut r).into_iter().map(|g| g.query).collect();
    let rep = d.run_queries(&queries);
    assert!(
        d.network().stats().lost > 0,
        "the loss process dropped messages"
    );
    assert!(
        rep.answered >= 21,
        "answered {} of 60 under loss",
        rep.answered
    );
    // Retries convert most losses into successes; a residue may still
    // time out, but it must stay a small fraction of the lookups.
    assert!(
        (rep.timed_out as f64) <= 0.10 * rep.submitted as f64,
        "{} of {} lookups timed out",
        rep.timed_out,
        rep.submitted
    );
}

/// A triple is placed under all three of its keys or under none: when
/// the origin cannot route one of them, nothing of that triple is
/// stored (no rollback needed — copies are staged only once every key
/// routed), the call's earlier triples are stored in full and its later
/// ones are untouched. The hole is one emptied routing-table level at
/// the origin, then one at a peer inside the update tree, over an
/// otherwise balanced topology.
#[test]
fn a_routing_failure_places_a_triple_under_all_its_keys_or_none() {
    const PEERS: usize = 16;
    const HOLE: usize = 0;
    let config = GridVineConfig {
        peers: PEERS,
        hash: gridvine_pgrid::HashKind::Uniform,
        seed: 9,
        ..GridVineConfig::default()
    };
    let origin = PeerId(0);
    let balanced = GridVineSystem::new(config.clone());
    let peers = || (0..PEERS).map(PeerId::from_index);
    let paths = peers().map(|p| balanced.topology().path(p).clone());
    let mut routing: Vec<Vec<Vec<PeerId>>> =
        peers().map(|p| balanced.topology().view(p).refs).collect();
    routing[origin.index()][HOLE].clear();
    let holed = Topology::from_paths_and_routing(paths.collect(), routing);
    let mut sys = GridVineSystem::with_topology(config, holed);

    // The hole swallows exactly the keys that leave the origin at its
    // level; every other key routes (the other peers' tables are whole).
    let view = sys.topology().view(origin);
    let (lost, reachable): (Vec<String>, Vec<String>) = (0..64)
        .map(|i| format!("lex{i}"))
        .partition(|l| view.forwarding_level(&sys.key_of(l)) == Some(HOLE));
    assert!(lost.len() >= 2 && reachable.len() >= 9);
    let triple = |s: &str, p: &str, o: &str| Triple::new(s, p, Term::literal(o));
    let whole = triple(&reachable[0], &reachable[1], &reachable[2]);
    let lost_p = triple(&reachable[3], &lost[0], &reachable[4]);
    let lost_o = triple(&reachable[5], &reachable[6], &lost[1]);
    let later = triple(&reachable[7], &reachable[8], &reachable[0]);

    let holds = |sys: &GridVineSystem, p: PeerId, t: &Triple| sys.peer_db(p).contains(t);
    let copies = |sys: &GridVineSystem, t: &Triple| peers().filter(|&p| holds(sys, p, t)).count();
    let fully_stored = |sys: &GridVineSystem, t: &Triple| {
        [t.subject.as_str(), t.predicate.as_str(), t.object.lexical()]
            .iter()
            .flat_map(|l| sys.topology().responsible(&sys.key_of(l)).to_vec())
            .all(|p| holds(sys, p, t))
    };
    let no_route = SystemError::Route(RouteError::NoRoute {
        at_peer: origin,
        level: HOLE,
    });

    let batch = [whole.clone(), lost_p.clone(), later.clone()];
    assert_eq!(sys.insert_triples(origin, batch), Err(no_route.clone()));
    assert!(fully_stored(&sys, &whole), "earlier triples are stored");
    assert_eq!(copies(&sys, &lost_p), 0, "not even under its subject");
    assert_eq!(copies(&sys, &later), 0, "later triples are untouched");
    assert_eq!(
        sys.insert_triple(origin, lost_o.clone()),
        Err(no_route.clone())
    );
    assert_eq!(copies(&sys, &lost_o), 0);

    // "Nowhere it was not already": a copy another origin committed
    // survives the failed re-insert.
    sys.insert_triple(PeerId(1), lost_p.clone()).unwrap();
    assert!(fully_stored(&sys, &lost_p));
    let committed = copies(&sys, &lost_p);
    assert_eq!(sys.insert_triple(origin, lost_p.clone()), Err(no_route));
    assert_eq!(copies(&sys, &lost_p), committed);

    // The same contract with the hole inside the update tree: the
    // origin's level-0 group goes to one peer, whose level-1 references
    // are gone. The keys behind it fail; its sibling groups — kept
    // there or sent on at a deeper level — route in the same call.
    let mut routing: Vec<Vec<Vec<PeerId>>> =
        peers().map(|p| balanced.topology().view(p).refs).collect();
    let inner = routing[origin.index()][HOLE][0];
    routing[origin.index()][HOLE].truncate(1);
    routing[inner.index()][1].clear();
    let paths = peers().map(|p| balanced.topology().path(p).clone());
    let holed = Topology::from_paths_and_routing(paths.collect(), routing);
    let mut sys = GridVineSystem::with_topology(balanced.config().clone(), holed);
    let via_inner =
        |sys: &GridVineSystem, l: &str| sys.topology().view(inner).forwarding_level(&sys.key_of(l));
    let (behind, routed): (Vec<String>, Vec<String>) = (0..64)
        .map(|i| format!("lex{i}"))
        .partition(|l| via_inner(&sys, l) == Some(1));
    let siblings: Vec<&String> = routed
        .iter()
        .filter(|l| view.forwarding_level(&sys.key_of(l)) == Some(HOLE))
        .collect();
    assert!(!behind.is_empty() && siblings.len() >= 4);
    let whole = triple(siblings[0], &routed[0], siblings[1]);
    let lost_o = triple(siblings[2], &routed[1], &behind[0]);
    let later = triple(siblings[3], &routed[2], &routed[3]);
    let no_route = SystemError::Route(RouteError::NoRoute {
        at_peer: inner,
        level: 1,
    });
    let batch = [whole.clone(), lost_o.clone(), later.clone()];
    assert_eq!(sys.insert_triples(origin, batch), Err(no_route));
    assert!(fully_stored(&sys, &whole), "sibling groups route");
    assert_eq!(copies(&sys, &lost_o), 0, "not even under its subject");
    assert_eq!(copies(&sys, &later), 0, "later triples are untouched");
}
