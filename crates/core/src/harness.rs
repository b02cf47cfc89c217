//! The §2.3 lookup driver: GridVine's plain lookups over the
//! event-driven simulator.
//!
//! Reproduces the §2.3 deployment: "340 machines scattered around the
//! world sharing 17000 triples … 40% of the 23000 triple pattern queries
//! we submitted were answered within one second only, and 75% within
//! five seconds."
//!
//! The driver builds a P-Grid topology over `n` simulated machines,
//! bulk-loads every peer's local triple database `DB_p`, then submits a
//! batch of single-pattern lookups ([`Deployment::run_queries`]) whose
//! routed retrieves run through the asynchronous protocol
//! ([`gridvine_pgrid::proto`]). Reformulation, conjunctive joins and
//! closure caches run on the one engine, [`crate::GridVineSystem`].
//!
//! **Where the data lives.** Triples are stored once per responsible
//! peer, in an indexed [`TripleStore`] ([`Deployment::peer_db`]) — the
//! same `DB_p` the synchronous [`crate::GridVineSystem`] serves queries
//! from. A data `Retrieve(key, q)` is routed and answered hop by hop
//! like any other request, and when its reply lands the driver
//! resolves `q` against the `DB_p` of the peer that answered
//! (`Results = π σ (DB_dest)`, §2.3) with the scan kernel both engines
//! share, here through [`TripleStore::match_pattern`], which decodes
//! the rows through the peer store's own dictionary (the driver's
//! stores are fed plain triples, so they ship their own ids),
//! materialising a [`Binding`] only for rows that match.
//!
//! The driver is **fully event-driven on the netsim clock**:
//! the network is pumped one event at a time
//! ([`gridvine_netsim::Network::step_node`]) and every completion is
//! processed *at its actual simulated completion instant*, so lookups
//! genuinely overlap in flight and the latency [`Cdf`] is derived from
//! real completion times (`completed_at − submitted_at`).
//! [`Deployment::run_queries_with`] additionally streams every reply's
//! rows to the caller as it lands.

use crate::item::{KeySpace, MediationItem, TripleStage};
use gridvine_netsim::rng;
use gridvine_netsim::{Cdf, Network, NetworkConfig, NodeId, SimDuration, SimTime};
use gridvine_pgrid::proto::{PGridMsg, PGridNode, Status};
use gridvine_pgrid::{BitString, HashKind, KeyHasher, PeerId, Topology};
use gridvine_rdf::{Binding, TaggedTriple, Triple, TriplePatternQuery, TripleStore};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Deployment parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeploymentConfig {
    /// Machines in the deployment (the paper used 340).
    pub peers: usize,
    pub refs_per_level: usize,
    pub key_depth: usize,
    pub hash: HashKind,
    /// Network model (the paper's machines were "scattered around the
    /// world" — use [`NetworkConfig::planetlab`]).
    pub network: NetworkConfig,
    /// Per-request timeout.
    pub timeout: SimDuration,
    /// Mean query inter-arrival time across the whole network.
    pub mean_interarrival: SimDuration,
    pub seed: u64,
}

impl DeploymentConfig {
    /// The paper's deployment: 340 machines, 2007-era wide-area
    /// latencies with heavy per-node heterogeneity.
    pub fn paper(seed: u64) -> DeploymentConfig {
        DeploymentConfig {
            peers: 340,
            refs_per_level: 3,
            key_depth: 24,
            hash: HashKind::OrderPreserving,
            network: NetworkConfig::planetlab_2007(),
            timeout: SimDuration::from_secs(60),
            mean_interarrival: SimDuration::from_millis(40),
            seed,
        }
    }
}

/// Result of a lookup batch ([`Deployment::run_queries`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchReport {
    /// Latency CDF over answered queries.
    pub latencies: Cdf,
    pub submitted: usize,
    pub answered: usize,
    pub not_found: usize,
    pub timed_out: usize,
    /// Mean overlay hops among answered queries.
    pub mean_hops: f64,
    /// Total messages the network carried during the batch.
    pub messages: u64,
    /// Simulated time the batch took.
    pub wall: SimDuration,
}

/// Progress of one query of a batch.
#[derive(Default)]
struct Lookup {
    /// When its retrieve was submitted; `None` for a pattern with no
    /// routable constant, which is never submitted.
    submitted_at: Option<SimTime>,
    /// Completion instant of the reply, if it matched rows.
    matched_at: Option<SimTime>,
    /// Overlay hops of the reply, once it completed.
    hops: Option<u32>,
    timed_out: bool,
}

/// One batch in flight.
struct Batch<'a> {
    queries: &'a [TriplePatternQuery],
    lookups: Vec<Lookup>,
    /// Retrieves in flight, by origin and request id: the query each
    /// answers and the key it was routed by.
    pending: BTreeMap<(usize, u64), (usize, BitString)>,
    sink: &'a mut dyn FnMut(usize, SimTime, &[Binding]),
}

/// GridVine deployed over the discrete-event simulator.
pub struct Deployment {
    config: DeploymentConfig,
    topology: Topology,
    net: Network<PGridNode<MediationItem>, PGridMsg<MediationItem>>,
    /// `DB_p` of every peer, indexed like the nodes of `net`: the only
    /// triple storage.
    dbs: Vec<TripleStore>,
    hasher: Box<dyn KeyHasher + Send + Sync>,
    rng: rand::rngs::StdRng,
}

impl Deployment {
    /// Build the network; all peers start live.
    pub fn new(config: DeploymentConfig) -> Deployment {
        let mut seed_rng = rng::derive(config.seed, 0xDEB);
        let topology = Topology::balanced(config.peers, config.refs_per_level, &mut seed_rng);
        debug_assert!(topology.validate().is_ok());
        let mut net = Network::new(config.network.clone(), config.seed);
        for i in 0..config.peers {
            net.add_node(PGridNode::from_topology(&topology, i, config.timeout));
        }
        Deployment {
            hasher: config.hash.build(),
            topology,
            net,
            dbs: vec![TripleStore::new(); config.peers],
            rng: rng::derive(config.seed, 0xF00D),
            config,
        }
    }

    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    pub fn network(&self) -> &Network<PGridNode<MediationItem>, PGridMsg<MediationItem>> {
        &self.net
    }

    pub fn network_mut(
        &mut self,
    ) -> &mut Network<PGridNode<MediationItem>, PGridMsg<MediationItem>> {
        &mut self.net
    }

    /// One peer's local triple database `DB_p`.
    pub fn peer_db(&self, peer: PeerId) -> &TripleStore {
        &self.dbs[peer.index()]
    }

    fn keyspace(&self) -> KeySpace<'_> {
        KeySpace::new(self.hasher.as_ref(), self.config.key_depth)
    }

    /// Preload triples into the local databases of the peers
    /// responsible for their three index keys (including σ replicas),
    /// as completed `Update(t)` operations would leave them. Returns the
    /// number of (key, triple) placements.
    ///
    /// The copies are staged and every touched `DB_p` is bulk-loaded
    /// once, through the routine [`crate::GridVineSystem::insert_triples`]
    /// stages its routed copies with; a peer responsible for several
    /// keys of one triple stores it once. Nothing is written into a
    /// node's overlay bucket: a data retrieve is answered from the
    /// `DB_p` of the peer that replies (see the module docs).
    pub fn preload(&mut self, triples: impl IntoIterator<Item = Triple>) -> usize {
        let ks = self.keyspace();
        let mut stage = TripleStage::new(triples.into_iter().map(TaggedTriple::new).collect());
        let mut placements = 0;
        for i in 0..stage.triples().len() {
            let keys = ks.triple_keys(stage.triples()[i].triple());
            let holders = keys.iter().flat_map(|key| self.topology.responsible(key));
            placements += stage.place(i, holders.copied());
        }
        stage.flush(&mut self.dbs);
        placements
    }

    /// Submit a batch of single-pattern lookups with exponential
    /// inter-arrival times from uniformly random origins (the §2.3
    /// latency experiment), streaming each reply's
    /// `(query, completion instant, rows)` to `sink` as it lands. A
    /// query is answered when its reply matched ≥ 1 row, as the paper
    /// counts answered queries; its latency runs from its submission to
    /// that reply.
    ///
    /// Every query draws an origin; only one with a routable constant
    /// draws an arrival gap and is submitted. The network is pumped to
    /// each arrival instant before the query is injected, so earlier
    /// lookups complete underneath at their own times.
    pub fn run_queries_with(
        &mut self,
        queries: &[TriplePatternQuery],
        sink: &mut dyn FnMut(usize, SimTime, &[Binding]),
    ) -> BatchReport {
        let start = self.net.now();
        let base_messages = self.net.stats().sent;
        let rate = 1.0 / self.config.mean_interarrival.as_secs_f64().max(1e-9);
        let mut batch = Batch {
            queries,
            lookups: Vec::with_capacity(queries.len()),
            pending: BTreeMap::new(),
            sink,
        };
        let mut submit_at = SimTime::ZERO;
        for (qi, query) in queries.iter().enumerate() {
            let origin = self.rng.gen_range(0..self.config.peers);
            batch.lookups.push(Lookup::default());
            let Some((_, term)) = query.pattern.routing_constant() else {
                continue;
            };
            let gap = rng::exponential(&mut self.rng, rate);
            submit_at += SimDuration::from_secs_f64(gap);
            self.pump(Some(start + (submit_at - SimTime::ZERO)), &mut batch);
            let key = self.keyspace().key_of(term.lexical());
            let routed = key.clone();
            let req = (self.net).invoke(NodeId::from_index(origin), move |n, ctx| {
                n.start_retrieve(ctx, routed)
            });
            batch.pending.insert((origin, req), (qi, key));
            batch.lookups[qi].submitted_at = Some(self.net.now());
            // A request whose origin is itself responsible completes
            // during submission without any network event: drain it
            // now, at its actual (current) instant.
            self.drain(origin, &mut batch);
        }
        // Every request terminates (response or timeout timer), so one
        // unbounded pump drains the batch.
        self.pump(None, &mut batch);
        debug_assert!(batch.pending.is_empty(), "all requests terminate");

        let mut report = BatchReport {
            latencies: Cdf::new(),
            submitted: 0,
            answered: 0,
            not_found: 0,
            timed_out: 0,
            mean_hops: 0.0,
            messages: self.net.stats().sent - base_messages,
            wall: self.net.now().saturating_since(start),
        };
        let (mut hops_sum, mut hopped) = (0u64, 0usize);
        for lookup in &batch.lookups {
            let Some(submitted_at) = lookup.submitted_at else {
                continue;
            };
            report.submitted += 1;
            report.timed_out += lookup.timed_out as usize;
            if let Some(at) = lookup.matched_at {
                report.answered += 1;
                (report.latencies).record_duration(at.saturating_since(submitted_at));
                if let Some(h) = lookup.hops {
                    hops_sum += h as u64;
                    hopped += 1;
                }
            } else if !lookup.timed_out {
                report.not_found += 1;
            }
        }
        if hopped > 0 {
            report.mean_hops = hops_sum as f64 / hopped as f64;
        }
        report
    }

    /// [`Deployment::run_queries_with`] without a streaming consumer.
    pub fn run_queries(&mut self, queries: &[TriplePatternQuery]) -> BatchReport {
        self.run_queries_with(queries, &mut |_, _, _| {})
    }

    /// Pump the network one event at a time, handling every request
    /// completion at its actual simulated completion instant. With a
    /// deadline, stops before the first event past it and advances the
    /// clock exactly to it.
    fn pump(&mut self, deadline: Option<SimTime>, batch: &mut Batch<'_>) {
        loop {
            if let Some(d) = deadline {
                match self.net.peek_time() {
                    Some(t) if t <= d => {}
                    _ => break,
                }
            }
            let Some(node) = self.net.step_node() else {
                break;
            };
            self.drain(node.index(), batch);
        }
        if let Some(d) = deadline {
            // Nothing left at or before the deadline: land the clock on
            // it so the next submission happens at its arrival instant.
            self.net.run_until(d);
        }
    }

    /// Drain and resolve one node's buffered request completions.
    ///
    /// Destination-side resolution (§2.3): `π σ (DB_p)` on the peer that
    /// answered. A reply from a peer that is not responsible for the key
    /// reports a routing hole, not an answer: it resolves to no rows.
    fn drain(&mut self, node_index: usize, batch: &mut Batch<'_>) {
        let completed = (self.net)
            .node_mut(NodeId::from_index(node_index))
            .drain_completed();
        for o in completed {
            let Some((qi, key)) = batch.pending.remove(&(node_index, o.id)) else {
                continue;
            };
            let lookup = &mut batch.lookups[qi];
            if o.status == Status::TimedOut {
                lookup.timed_out = true;
                continue;
            }
            let dest = (o.responder).filter(|r| self.net.node(*r).view().is_responsible(&key));
            if let Some(dest) = dest {
                let rows = self.dbs[dest.index()].match_pattern(&batch.queries[qi].pattern);
                if !rows.is_empty() {
                    lookup.matched_at = Some(o.completed_at);
                    (batch.sink)(qi, o.completed_at, &rows);
                }
            }
            lookup.hops = Some(o.hops);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvine_rdf::{PatternTerm, Term, TriplePattern};
    use gridvine_workload::{QueryConfig, QueryGenerator, Workload, WorkloadConfig};

    /// 48 machines holding a small workload.
    fn small_deployment(seed: u64) -> (Deployment, Workload) {
        let w = Workload::generate(WorkloadConfig::small(seed));
        let cfg = DeploymentConfig {
            peers: 48,
            // Homogeneous machines: unit tests should not depend on the
            // heavy-tailed 2007 calibration.
            network: gridvine_netsim::NetworkConfig::planetlab(),
            ..DeploymentConfig::paper(seed)
        };
        let mut d = Deployment::new(cfg);
        let triples: Vec<Triple> = w.all_triples().into_iter().map(|(_, t)| t).collect();
        d.preload(triples);
        (d, w)
    }

    #[test]
    fn preload_places_triples_with_replicas() {
        let (d, w) = small_deployment(1);
        let stored = |i: usize| d.peer_db(PeerId::from_index(i)).len();
        let total: usize = (0..48).map(stored).sum();
        // Three index keys per triple, each placed on ≥1 peer (a peer
        // holding several keys of one triple stores it once).
        assert!(total >= 3 * w.triple_count() / 2, "placed {total}");
        // σ replicas hold the same rows, and no triple sits in a bucket.
        for (_, group) in d.topology().groups() {
            assert!(group
                .iter()
                .all(|p| stored(p.index()) == stored(group[0].index())));
        }
        assert!((0..48).all(|i| d.network().node(NodeId::from_index(i)).store().is_empty()));
    }

    #[test]
    fn a_fail_over_reads_the_replica_that_answered() {
        let (mut d, w) = small_deployment(13);
        // A predicate whose σ group has a replica, and all its facts.
        let (key, group, pat) = w
            .all_triples()
            .into_iter()
            .find_map(|(_, t)| {
                let key = d.keyspace().key_of(t.predicate.as_str());
                let group = d.topology.responsible(&key).to_vec();
                let pat = TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::constant(Term::Uri(t.predicate)),
                    PatternTerm::var("o"),
                );
                (group.len() == 2).then_some((key, group, pat))
            })
            .expect("48 peers over 32 leaves replicate half the key space");
        let [down, replica] = [group[0], group[1]].map(|p| NodeId::from_index(p.index()));
        let expected = d.peer_db(group[1]).match_pattern(&pat);
        assert!(!expected.is_empty());
        // The first holder goes down and its store with it.
        d.net.crash(down);
        d.dbs[down.index()] = TripleStore::new();
        for i in 0..48 {
            // Attempts routed through the dead peer time out; retry
            // until a path ends at the live replica.
            d.net.node_mut(NodeId::from_index(i)).set_retries(12);
        }
        let query = TriplePatternQuery::new("x", pat).unwrap();
        let queries = vec![query; 12];
        let mut replies: Vec<Vec<Binding>> = Vec::new();
        let rep = d.run_queries_with(&queries, &mut |_, _, rows| replies.push(rows.to_vec()));
        assert_eq!(rep.timed_out, 0, "{rep:?}");
        // (A lookup submitted at the dead peer itself answers locally,
        // from nothing.)
        assert!(rep.answered >= 10, "{rep:?}");
        assert!(replies.iter().all(|rows| *rows == expected));

        // At the protocol level the outcome names the replica.
        let origin = (0..48)
            .map(NodeId::from_index)
            .find(|n| *n != down && *n != replica)
            .unwrap();
        d.net.invoke(origin, |n, ctx| n.start_retrieve(ctx, key));
        d.net.run_until_quiescent();
        let done = d.net.node_mut(origin).drain_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].responder, Some(replica));
    }

    #[test]
    fn queries_get_answered_with_realistic_latencies() {
        let (mut d, w) = small_deployment(2);
        let gen = QueryGenerator::new(&w, QueryConfig::default());
        let mut r = rng::seeded(3);
        let queries: Vec<TriplePatternQuery> =
            gen.batch(60, &mut r).into_iter().map(|g| g.query).collect();
        let mut replies: Vec<(usize, SimTime)> = Vec::new();
        let report = d.run_queries_with(&queries, &mut |q, at, rows| {
            assert!(!rows.is_empty(), "only matched replies stream");
            replies.push((q, at));
        });
        assert_eq!(report.submitted, 60);
        assert!(report.answered > 20, "answered {}", report.answered);
        assert_eq!(report.timed_out, 0);
        assert!(report.mean_hops >= 1.0);
        // Replies stream at their actual completion instants, one per
        // answered query: the event-driven pump delivers them in
        // non-decreasing simulated time.
        assert_eq!(replies.len(), report.answered);
        assert!(replies.windows(2).all(|w| w[0].1 <= w[1].1));
        let mut lat = report.latencies.clone();
        // Typical WAN queries pay several hops of processing + RTT
        // (queries whose origin happens to own the key finish locally,
        // so the minimum can be ~0 — but not the median).
        assert!(lat.median() > 0.02, "median {}", lat.median());
        // And the batch's tail stays within the timeout.
        assert!(lat.quantile(1.0) < 30.0);
    }

    #[test]
    fn batches_are_deterministic() {
        let run = |seed| {
            let (mut d, w) = small_deployment(seed);
            let gen = QueryGenerator::new(&w, QueryConfig::default());
            let mut r = rng::seeded(9);
            let queries: Vec<TriplePatternQuery> =
                gen.batch(30, &mut r).into_iter().map(|g| g.query).collect();
            let rep = d.run_queries(&queries);
            (rep.answered, rep.messages, rep.wall)
        };
        assert_eq!(run(4), run(4));
    }

    #[test]
    fn figure2_query_finds_aspergillus_over_the_wire() {
        let (mut d, _) = small_deployment(5);
        let q = TriplePatternQuery::example_aspergillus();
        let report = d.run_queries(&[q]);
        // EMBL#Organism data exists in every small workload.
        assert_eq!(report.answered, 1, "{report:?}");
    }
}
