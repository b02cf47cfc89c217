//! Ablation A2 — availability under churn vs replication (§2.1).
//!
//! "Peers also maintain references σ(p) to peers having the same path,
//! i.e., their replicas that duplicate their content to ensure
//! fault-tolerance and resilience to network churn. … The Retrieve and
//! the Update operations provide probabilistic guarantees for data
//! consistency and are efficient even in highly unreliable, dynamic
//! environments."
//!
//! Runs query batches over the event-driven deployment while a churn
//! process fails and recovers peers, sweeping the replication factor
//! (peers per path), and reports the answered fraction.
//!
//! Usage: `exp_a2_churn [queries] [seed]`

use gridvine_bench::{f, Args, Table};
use gridvine_core::MediationItem;
use gridvine_netsim::churn::ChurnKind;
use gridvine_netsim::prelude::*;
use gridvine_netsim::rng;
use gridvine_pgrid::proto::{PGridMsg, PGridNode, Status};
use gridvine_pgrid::{BitString, KeyHasher, OrderPreservingHash, Topology};
use gridvine_rdf::{Term, Triple};
use rand::Rng;

const PATHS: usize = 32; // depth-5 tree, 32 leaf paths

fn run(replication: usize, churn: &ChurnConfig, queries: usize, seed: u64) -> (f64, f64) {
    let peers = PATHS * replication;
    let mut rtop = rng::derive(seed, replication as u64);
    // Explicit paths: `replication` peers per depth-5 path.
    let mut paths = Vec::with_capacity(peers);
    for leaf in 0..PATHS {
        for _ in 0..replication {
            paths.push(BitString::from_u64(leaf as u64, 5));
        }
    }
    let topology = Topology::from_paths(paths, 3, &mut rtop);
    topology.validate().expect("valid");

    let mut net: Network<PGridNode<MediationItem>, PGridMsg<MediationItem>> =
        Network::new(NetworkConfig::planetlab(), seed);
    for i in 0..peers {
        net.add_node(PGridNode::from_topology(
            &topology,
            i,
            SimDuration::from_secs(10),
        ));
    }

    // Preload: one triple per key, placed on all replicas.
    let hasher = OrderPreservingHash::default();
    let n_items = 500;
    let mut keys = Vec::new();
    for i in 0..n_items {
        let value = format!("item-{i}");
        let key = hasher.hash(&value, 24);
        let t = Triple::new(
            format!("seq:I{i}").as_str(),
            "DB#Value",
            Term::literal(value),
        );
        for p in topology.responsible(&key).to_vec() {
            net.node_mut(NodeId::from_index(p.index()))
                .store_mut()
                .insert(key.clone(), MediationItem::Triple(t.clone()));
        }
        keys.push(key);
    }

    // Churn + queries interleaved over one simulated hour.
    let horizon = SimTime(3_600_000_000);
    let mut churn_proc = ChurnProcess::generate(churn, peers, horizon, seed);
    let mut qr = rng::derive(seed, 0xA2);
    let mut submitted = 0usize;
    let gap = horizon.as_micros() / queries as u64;
    for qi in 0..queries {
        let at = SimTime(qi as u64 * gap);
        net.run_until(at);
        for ev in churn_proc.due(at) {
            match ev.kind {
                ChurnKind::Fail => net.crash(ev.node),
                ChurnKind::Recover => net.recover(ev.node),
            }
        }
        let alive = net.alive_nodes();
        if alive.is_empty() {
            continue;
        }
        let origin = alive[qr.gen_range(0..alive.len())];
        let key = keys[qr.gen_range(0..keys.len())].clone();
        net.invoke(origin, move |node, ctx| node.start_retrieve(ctx, key));
        submitted += 1;
    }
    net.run_until_quiescent();

    let mut ok = 0usize;
    let mut failed = 0usize;
    for i in 0..peers {
        for o in net.node_mut(NodeId::from_index(i)).drain_completed() {
            match o.status {
                Status::Ok => ok += 1,
                Status::NotFound | Status::TimedOut => failed += 1,
            }
        }
    }
    let answered = ok as f64 / submitted.max(1) as f64;
    let lost = failed as f64 / submitted.max(1) as f64;
    (answered, lost)
}

fn main() {
    let mut args = Args::from_env("exp_a2_churn [queries] [seed]");
    let queries: usize = args.or(400);
    let seed: u64 = args.or(1);
    args.done();

    println!("A2: availability under churn vs replication factor ({queries} queries / hour)");
    let mut table = Table::new(&["churn", "replicas/path", "answered", "failed"]);
    for (name, cfg) in [
        (
            "none",
            ChurnConfig {
                churny_fraction: 0.0,
                ..ChurnConfig::moderate()
            },
        ),
        ("moderate", ChurnConfig::moderate()),
        ("harsh", ChurnConfig::harsh()),
    ] {
        for replication in [1usize, 2, 4] {
            let (answered, lost) = run(replication, &cfg, queries, seed);
            table.row(&[
                name.to_string(),
                replication.to_string(),
                f(answered, 3),
                f(lost, 3),
            ]);
        }
    }
    println!("\n{}", table.render());
    println!("expected shape: without churn everything answers; under churn availability\ndegrades for unreplicated paths and is largely recovered by σ(p) replication.");
}
