//! The one file that names APIs below the `GridVineSystem` façade.
//!
//! Everything else in the benchmark talks to
//! `GridVineSystem::{new, insert_schema, insert_triples, insert_mapping,
//! deprecate_mapping, open, peer_db, topology, registry,
//! cache_counters, key_of}`, `QuerySession` and `run_open_loop`. The
//! layer replays and the WAN deployment need more than that —
//! `Deployment`, `TripleStore`, `Overlay`, `reformulations`,
//! `EventQueue`, the latency sampler — and every such call lives here,
//! so that a change to one of those surfaces (the one-engine and
//! surface-diet items of the roadmap) is followed by editing this file
//! only.

use gridvine_core::{BatchReport, Deployment, DeploymentConfig, KeySpace, MediationItem};
use gridvine_netsim::{
    rng, EventQueue, LatencyConfig, LatencyModel, NetworkStats, NodeId, SimDuration, SimTime,
};
use gridvine_pgrid::{BitString, KeyHasher, Overlay, PeerId, Topology, UpdateOp};
use gridvine_rdf::{Binding, Triple, TriplePattern, TriplePatternQuery, TripleStore};
use gridvine_semantic::{reformulations, MappingRegistry, Reformulation};
use rand::rngs::StdRng;

/// The §2.3 deployment over the message-level simulator
/// (`netsim::Network` + `pgrid::proto`).
pub struct Wan {
    deployment: Deployment,
    hasher: Box<dyn KeyHasher + Send + Sync>,
    key_depth: usize,
}

impl Wan {
    /// 340 machines on the 2007 wide-area latency model: the paper's
    /// deployment, except that no request is given up on. With the
    /// paper configuration's 60 s timeout the slowest machines of the
    /// heavy-tailed model time out ~0.9 % of lookups; here they answer
    /// late instead, so no operation fails and the latency tail is
    /// measured rather than cut off.
    pub fn paper(seed: u64) -> Wan {
        let config = DeploymentConfig {
            timeout: SimDuration::from_secs(1_000_000),
            ..DeploymentConfig::paper(seed)
        };
        Wan {
            hasher: config.hash.build(),
            key_depth: config.key_depth,
            deployment: Deployment::new(config),
        }
    }

    /// Returns the number of (key, triple) placements.
    pub fn preload(&mut self, triples: Vec<Triple>) -> usize {
        self.deployment.preload(triples)
    }

    pub fn run_queries(&mut self, queries: &[TriplePatternQuery]) -> BatchReport {
        self.deployment.run_queries(queries)
    }

    pub fn topology(&self) -> &Topology {
        self.deployment.topology()
    }

    pub fn network_stats(&self) -> NetworkStats {
        self.deployment.network().stats()
    }

    pub fn key_of(&self, lexical: &str) -> BitString {
        KeySpace::new(self.hasher.as_ref(), self.key_depth).key_of(lexical)
    }
}

/// A second logical overlay over the live system's topology, so routes
/// and updates can be re-issued without disturbing the system's own
/// message accounting or RNG stream.
pub struct ReplayOverlay {
    overlay: Overlay<MediationItem>,
    rng: StdRng,
}

impl ReplayOverlay {
    pub fn new(topology: &Topology, seed: u64) -> ReplayOverlay {
        ReplayOverlay {
            overlay: Overlay::new(topology),
            rng: rng::derive(seed, 0x4E91),
        }
    }

    /// Route `key` from `origin`; the destination and the hop count.
    pub fn route(&mut self, origin: PeerId, key: &BitString) -> Option<(PeerId, u64)> {
        let route = self.overlay.route(origin, key, &mut self.rng).ok()?;
        Some((route.destination, route.messages()))
    }

    /// `Update(key, triple)` with bucket write and replica propagation.
    pub fn update(&mut self, origin: PeerId, key: BitString, triple: Triple) {
        let _ = self.overlay.update(
            origin,
            UpdateOp::Insert,
            key,
            MediationItem::Triple(triple),
            &mut self.rng,
        );
    }
}

/// Breadth-first closure of `query` through the mapping network.
pub fn closure(
    registry: &MappingRegistry,
    query: &TriplePatternQuery,
    ttl: usize,
) -> Vec<Reformulation> {
    reformulations(registry, query, ttl).unwrap_or_default()
}

pub fn match_pattern(db: &TripleStore, pattern: &TriplePattern) -> Vec<Binding> {
    db.match_pattern(pattern)
}

pub fn join(db: &TripleStore, left: &TriplePattern, right: &TriplePattern) -> Vec<Binding> {
    db.join(left, right)
}

/// Bulk-load `triples` into a fresh store; returns how many were new.
pub fn insert_batch(triples: Vec<Triple>) -> usize {
    TripleStore::new().insert_batch(triples)
}

/// An event queue held at a fixed depth, for timing schedule+pop pairs.
pub struct ReplayQueue {
    queue: EventQueue<u64>,
    now: u64,
    lcg: u64,
}

impl ReplayQueue {
    pub fn at_depth(depth: usize) -> ReplayQueue {
        let mut q = ReplayQueue {
            queue: EventQueue::new(),
            now: 0,
            lcg: 0x9E37_79B9_7F4A_7C15,
        };
        for _ in 0..depth {
            q.schedule();
        }
        q
    }

    fn schedule(&mut self) {
        // Delays spread over ~1 simulated second, like reply latencies.
        self.lcg = self
            .lcg
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let delay = (self.lcg >> 44) + 1;
        self.queue.schedule(SimTime(self.now + delay), self.lcg);
    }

    /// `n` schedule+pop pairs at the queue's standing depth.
    pub fn pairs(&mut self, n: u64) {
        for _ in 0..n {
            self.schedule();
            if let Some((at, payload)) = self.queue.pop() {
                self.now = at.0;
                std::hint::black_box(payload);
            }
        }
    }
}

/// Draw `n` one-way delays from the 2007 wide-area model between
/// `peers` nodes; returns their sum in simulated microseconds so the
/// work cannot be optimised away.
pub fn latency_samples(seed: u64, peers: usize, n: u64) -> u64 {
    let mut model: Box<dyn LatencyModel> = LatencyConfig::planetlab_2007()
        .build(seed)
        .expect("the regional model builds a sampler");
    let mut total = 0u64;
    for i in 0..n as usize {
        let from = NodeId::from_index(i % peers);
        let to = NodeId::from_index((i * 7 + 3) % peers);
        total += model.sample(from, to).as_micros();
    }
    total
}
