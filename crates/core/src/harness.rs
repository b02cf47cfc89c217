//! The asynchronous deployment harness: GridVine over the event-driven
//! simulator.
//!
//! Reproduces the §2.3 deployment: "340 machines scattered around the
//! world sharing 17000 triples … 40% of the 23000 triple pattern queries
//! we submitted were answered within one second only, and 75% within
//! five seconds."
//!
//! The harness builds a P-Grid topology over `n` simulated machines,
//! bulk-loads every peer's local triple database `DB_p`, then submits a
//! query workload. Plain lookups, reformulated dissemination and
//! conjunctive joins are projections of **one plan-driven loop**,
//! [`Deployment::run_plans`]: every query is a logical [`QueryPlan`]
//! whose routed lookups and mapping fetches run through the
//! asynchronous protocol ([`gridvine_pgrid::proto`]).
//!
//! **Where the data lives.** Triples are stored once per responsible
//! peer, in an indexed [`TripleStore`] ([`Deployment::peer_db`]) — the
//! same `DB_p` the synchronous [`crate::GridVineSystem`] serves queries
//! from. A data `Retrieve(key, q)` is routed and answered hop by hop
//! like any other request, and when its reply lands the driver
//! resolves `q` against the `DB_p` of the peer that answered
//! (`Results = π σ (DB_dest)`, §2.3) with the scan kernel both engines
//! share ([`TripleStore::match_into`], here through
//! [`TripleStore::match_pattern`]), materialising a [`Binding`] only for
//! rows that match. Schemas and mappings live in the nodes' overlay
//! buckets and travel inside the reply, as mapping discovery needs the
//! items themselves.
//!
//! The driver is **fully event-driven on the netsim clock**:
//! the network is pumped one event at a time
//! ([`gridvine_netsim::Network::step_node`]) and every completion is
//! processed *at its actual simulated completion instant* — a
//! reformulated lookup is submitted the moment the mapping fetch that
//! revealed it lands, chains across queries genuinely overlap in
//! flight, and the latency [`Cdf`] is derived from real completion
//! times (`completed_at − submitted_at`) instead of per-chain latency
//! re-aggregation. [`Deployment::run_plans_with`] additionally streams
//! every matched partial result ([`WanPartial`]) to the caller as it
//! lands, so consumers see rows trickle in per chain instead of
//! waiting for the batch report. Closure queries warm a **per-origin
//! bounded LRU closure cache** ([`DeploymentConfig::closure_cache_capacity`]):
//! a repeated closure query from the same origin replays its recorded
//! hops and skips every mapping fetch.

use crate::item::{KeySpace, MediationItem};
use crate::plan::QueryPlan;
use crate::system::exec::with_predicate;
use gridvine_netsim::rng;
use gridvine_netsim::{Cdf, Network, NetworkConfig, NodeId, SimDuration, SimTime};
use gridvine_pgrid::proto::{PGridMsg, PGridNode, Status};
use gridvine_pgrid::{BitString, HashKind, KeyHasher, PeerId, Topology};
use gridvine_rdf::{
    Binding, ConjunctiveQuery, Triple, TriplePattern, TriplePatternQuery, TripleStore,
};
use gridvine_semantic::{CachedHop, ClosureCache, ClosureKey, Mapping, Schema, SchemaId};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

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
    /// Capacity of each origin peer's bounded LRU closure cache (see
    /// `gridvine_semantic::ClosureCache`). Zero disables WAN-side
    /// closure caching.
    pub closure_cache_capacity: usize,
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
            closure_cache_capacity: 64,
            seed,
        }
    }
}

/// Result of a plain single-pattern query batch (a projection of
/// [`WanBatchReport`]).
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

/// Result of a reformulated-query batch (a projection of
/// [`WanBatchReport`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReformulatedBatchReport {
    /// End-to-end latency CDF over answered queries. A query's latency
    /// is the longest reformulation chain it waited for: mapping-fetch
    /// latencies accumulate along the chain, plus the final data lookup.
    pub latencies: Cdf,
    pub submitted: usize,
    /// Queries with ≥ 1 matching result (across all reformulations).
    pub answered: usize,
    /// Queries whose predicate named no schema (not disseminated).
    pub skipped: usize,
    /// Total schema-key retrieves (mapping discovery).
    pub mapping_fetches: usize,
    /// Total data-key retrieves (original + reformulated patterns).
    pub data_lookups: usize,
    /// Requests lost to timeouts across the batch.
    pub timed_out: usize,
    /// Mean schemas reached per submitted query.
    pub mean_schemas: f64,
    /// Total messages the network carried during the batch.
    pub messages: u64,
}

/// Result of a conjunctive-query batch (a projection of
/// [`WanBatchReport`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConjunctiveWanReport {
    /// End-to-end latency CDF over answered queries: the moment the
    /// last pattern's last reformulated bindings arrived (the join
    /// itself is local at the origin and charged as free).
    pub latencies: Cdf,
    pub submitted: usize,
    /// Queries whose joined solution set is non-empty.
    pub answered: usize,
    /// Mean solution rows per answered query.
    pub mean_rows: f64,
    /// Patterns that could not be routed (no constant).
    pub unroutable_patterns: usize,
    pub mapping_fetches: usize,
    pub data_lookups: usize,
    pub timed_out: usize,
    /// Total messages the network carried during the batch.
    pub messages: u64,
}

/// Knobs for one plan-driven WAN batch ([`Deployment::run_plans`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WanBatchOptions {
    /// Reformulation TTL (mapping applications per pattern closure).
    /// Plain [`QueryPlan::Pattern`] lookups ignore it.
    pub ttl: usize,
    /// Poisson arrival process: mean inter-arrival between query
    /// submissions; `None` submits the whole batch at time zero.
    pub mean_interarrival: Option<SimDuration>,
    /// Per-query result cap for [`QueryPlan::Closure`] plans — the WAN
    /// twin of the synchronous session's early termination: once a
    /// query has collected `limit` **distinct** matched bindings, its
    /// mapping-fetch
    /// completions stop expanding (no further reformulated lookups or
    /// deeper fetches are submitted), so a limited query sends strictly
    /// fewer messages than an unlimited one whenever dissemination
    /// remained. Limited closure queries bypass the per-origin closure
    /// cache (a warm replay submits every recorded hop up front, which
    /// would defeat the truncation). Join plans ignore the cap
    /// (dropping a binding could drop the joining row, changing results
    /// rather than just truncating them); in-flight requests are
    /// allowed to land.
    pub limit: Option<usize>,
}

/// Everything one plan-driven WAN batch measured. The three legacy
/// report shapes are projections of this.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WanBatchReport {
    /// End-to-end latency CDF over answered queries (a query's latency
    /// is its slowest matched chain).
    pub latencies: Cdf,
    /// Plans that issued at least one request (or were counted as
    /// submitted by their shape).
    pub submitted: usize,
    /// Queries with results: ≥ 1 match for single-pattern plans, a
    /// non-empty joined solution set for join plans.
    pub answered: usize,
    /// Completed single-pattern queries with no match anywhere.
    pub not_found: usize,
    /// Plans not disseminated at all: unroutable [`QueryPlan::Pattern`]s,
    /// schema-less [`QueryPlan::Closure`]s, and [`QueryPlan::ObjectPrefix`]
    /// sweeps (the asynchronous protocol has no range retrieve).
    pub skipped: usize,
    /// Requests lost to timeouts across the batch.
    pub timed_out: usize,
    /// Join-plan patterns that could not be routed (no constant).
    pub unroutable_patterns: usize,
    /// Total schema-key retrieves (mapping discovery).
    pub mapping_fetches: usize,
    /// Total data-key retrieves (original + reformulated instances).
    pub data_lookups: usize,
    /// Mean overlay hops of the initial (own-vocabulary) lookup among
    /// answered queries that recorded one.
    pub mean_hops: f64,
    /// Mean schemas reached per submitted query.
    pub mean_schemas: f64,
    /// Mean solution rows per answered join plan.
    pub mean_rows: f64,
    /// Closure queries served from a per-origin closure-cache entry
    /// (their mapping fetches were skipped entirely).
    pub cache_hits: usize,
    /// Total messages the network carried during the batch.
    pub messages: u64,
    /// Simulated time the batch took.
    pub wall: SimDuration,
}

/// One streamed partial result of a plan-driven WAN batch: the fresh
/// bindings a data reply matched, delivered to the
/// [`Deployment::run_plans_with`] sink at the reply's actual simulated
/// completion instant, while the rest of the batch is still in flight.
#[derive(Debug)]
pub struct WanPartial<'a> {
    /// Index of the plan in the submitted batch.
    pub query: usize,
    /// Simulated completion instant of the reply that carried these
    /// bindings.
    pub at: SimTime,
    /// The fresh matched bindings (per reply, not cumulative).
    pub bindings: &'a [Binding],
}

/// Work attached to one in-flight retrieve of the plan driver.
enum WanWork {
    /// `Retrieve(Hash(routing constant))` — answer one (possibly
    /// reformulated, possibly bound-substituted) pattern instance.
    Data {
        query: usize,
        pattern: usize,
        pat: TriplePattern,
        /// The key the retrieve was routed by: only a reply from a peer
        /// responsible for it is resolved against that peer's `DB_p`.
        key: BitString,
        /// The query's own-vocabulary (depth-0) lookup; its hop count
        /// feeds [`WanBatchReport::mean_hops`].
        initial: bool,
    },
    /// `Retrieve(Hash(schema))` — mapping discovery for one chain.
    Schema {
        query: usize,
        pattern: usize,
        schema: SchemaId,
        pat: TriplePattern,
        depth: usize,
        /// Minimum mapping quality along the chain so far (recorded
        /// into the per-origin closure cache).
        quality: f64,
    },
}

/// Per-(query, pattern) progress of the plan driver.
struct WanTrack {
    visited: BTreeSet<SchemaId>,
    bindings: Vec<Binding>,
    /// Display forms of the distinct bindings collected so far — what
    /// [`WanBatchOptions::limit`] counts against (duplicates shipped by
    /// different schemas must not satisfy the cap early).
    distinct: BTreeSet<String>,
    /// Latest simulated completion instant among matched data replies
    /// — the query's end-to-end latency is `matched_at − submitted_at`.
    matched_at: Option<SimTime>,
    /// Hop count of the depth-0 lookup, once it completed.
    hops: Option<u32>,
    /// Any request of this track timed out.
    timed_out: bool,
    /// Mapping fetches of this track still in flight (a closure's
    /// expansion is complete — and cacheable — when this reaches 0).
    open_fetches: usize,
    /// Hop list recorded for the per-origin closure cache (root hop
    /// first, empty for warm replays). Only committed when the
    /// expansion completed untruncated.
    recorded: Vec<CachedHop>,
    /// The limit cap truncated this track's expansion (a partial
    /// closure must never be recorded as complete).
    limited: bool,
}

impl WanTrack {
    fn new() -> WanTrack {
        WanTrack {
            visited: BTreeSet::new(),
            bindings: Vec::new(),
            distinct: BTreeSet::new(),
            matched_at: None,
            hops: None,
            timed_out: false,
            open_fetches: 0,
            recorded: Vec::new(),
            limited: false,
        }
    }
}

/// Mutable batch state threaded through the event-driven drive loop.
struct WanDrive {
    pending: BTreeMap<(usize, u64), WanWork>,
    origins: Vec<usize>,
    /// tracks[query][pattern]
    tracks: Vec<Vec<WanTrack>>,
    submitted_at: Vec<SimTime>,
    /// Cache keys of cold closure expansions, `[query][pattern]`:
    /// closure plans use pattern 0, join plans one slot per pattern
    /// (None for non-closure shapes, TTL 0 and warm replays).
    closure_keys: Vec<Vec<Option<ClosureKey>>>,
    skipped_flags: Vec<bool>,
    skipped: usize,
    unroutable: usize,
    mapping_fetches: usize,
    data_lookups: usize,
    timed_out: usize,
    cache_hits: usize,
}

/// GridVine deployed over the discrete-event simulator.
pub struct Deployment {
    config: DeploymentConfig,
    topology: Topology,
    net: Network<PGridNode<MediationItem>, PGridMsg<MediationItem>>,
    /// `DB_p` of every peer, indexed like the nodes of `net`: the only
    /// triple storage (node buckets hold schemas and mappings).
    dbs: Vec<TripleStore>,
    hasher: Box<dyn KeyHasher + Send + Sync>,
    /// Per-origin bounded LRU closure caches (the WAN twin of the
    /// synchronous system's per-peer caches), keyed on the deployment's
    /// mediation epoch.
    caches: Vec<ClosureCache>,
    /// Bumped by every [`Deployment::preload_mediation`]: mapping
    /// changes invalidate all recorded closures wholesale.
    mediation_epoch: u64,
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
            caches: (0..config.peers)
                .map(|_| ClosureCache::bounded(config.closure_cache_capacity))
                .collect(),
            mediation_epoch: 0,
            rng: rng::derive(config.seed, 0xF00D),
            config,
        }
    }

    /// Closure queries currently memoized across all origin caches
    /// (valid for the current mediation epoch).
    pub fn cached_closures(&self) -> usize {
        self.caches
            .iter()
            .map(|c| c.coherent_len(self.mediation_epoch))
            .sum()
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
    /// The triples are staged per responsible peer and every `DB_p` is
    /// bulk-loaded once ([`TripleStore::insert_batch`]); a peer
    /// responsible for several keys of one triple stores it once.
    /// Nothing is written into a node's overlay bucket: a data retrieve
    /// is answered from the `DB_p` of the peer that replies (see the
    /// module docs).
    pub fn preload(&mut self, triples: impl IntoIterator<Item = Triple>) -> usize {
        let ks = self.keyspace();
        let mut placements = 0;
        let mut staged: Vec<Vec<Triple>> = vec![Vec::new(); self.dbs.len()];
        for t in triples {
            for key in ks.triple_keys(&t) {
                for p in self.topology.responsible(&key) {
                    staged[p.index()].push(t.clone());
                    placements += 1;
                }
            }
        }
        for (db, batch) in self.dbs.iter_mut().zip(staged) {
            db.insert_batch(batch);
        }
        placements
    }

    /// Place schema definitions and mappings at their overlay key
    /// spaces (including replicas), as completed `Update(Schema)` /
    /// `Update(Schema Mapping)` operations would leave them (§2.2, §3).
    pub fn preload_mediation<'m>(
        &mut self,
        schemas: impl IntoIterator<Item = Schema>,
        mappings: impl IntoIterator<Item = &'m Mapping>,
    ) -> usize {
        // The mapping network changed: recorded closures are stale.
        self.mediation_epoch += 1;
        let mut placements = 0;
        let schema_items: Vec<(BitString, MediationItem)> = schemas
            .into_iter()
            .map(|s| (self.keyspace().schema_key(&s), MediationItem::Schema(s)))
            .collect();
        let mapping_items: Vec<(BitString, MediationItem)> = mappings
            .into_iter()
            .flat_map(|m| {
                self.keyspace()
                    .mapping_keys(m)
                    .into_iter()
                    .map(|(key, at_source)| {
                        (
                            key,
                            MediationItem::Mapping {
                                mapping: m.clone(),
                                at_source,
                            },
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        for (key, item) in schema_items.into_iter().chain(mapping_items) {
            for p in self.topology.responsible(&key).to_vec() {
                self.net
                    .node_mut(NodeId::from_index(p.index()))
                    .store_mut()
                    .insert(key.clone(), item.clone());
                placements += 1;
            }
        }
        placements
    }

    /// Submit a retrieve and register its driver work.
    fn submit_wan(
        &mut self,
        origin: usize,
        key: BitString,
        work: WanWork,
        pending: &mut BTreeMap<(usize, u64), WanWork>,
    ) {
        let node = NodeId::from_index(origin);
        let req = self
            .net
            .invoke(node, move |n, ctx| n.start_retrieve(ctx, key));
        pending.insert((origin, req), work);
    }

    /// The routed data lookup answering `pat` — its key and its driver
    /// work — or `None` when the pattern has no routable constant.
    fn data_lookup(
        &self,
        query: usize,
        pattern: usize,
        pat: TriplePattern,
        initial: bool,
    ) -> Option<(BitString, WanWork)> {
        let (_, term) = pat.routing_constant()?;
        let key = self.keyspace().key_of(term.lexical());
        let work = WanWork::Data {
            query,
            pattern,
            pat,
            key: key.clone(),
            initial,
        };
        Some((key, work))
    }

    /// Drive a batch of logical [`QueryPlan`]s over the event-driven
    /// deployment — **the** WAN query loop — streaming every matched
    /// partial result to `sink` at its actual simulated completion
    /// instant.
    ///
    /// Each plan submits from a uniformly random origin (optionally on a
    /// Poisson arrival process): pattern plans issue one routed data
    /// lookup; closure plans additionally fetch their schema's mapping
    /// list and chase reformulations (iterative strategy, §4) up to the
    /// TTL; join plans disseminate every pattern like a closure and join
    /// the binding sets locally at the origin once the batch drains.
    ///
    /// The network is pumped one event at a time and every completion
    /// is processed when it *happens*: a reformulated lookup goes out
    /// the moment the mapping fetch that revealed it lands, so chains
    /// overlap in flight — across queries and within one query — and a
    /// query's reported latency is the real simulated span from its
    /// submission to its last matched data reply (for joins, over all
    /// patterns' chains).
    ///
    /// Closure plans consult the origin's bounded closure cache: a
    /// coherent entry replays the recorded hops (data lookups only —
    /// zero mapping fetches); a cold closure that expands to completion
    /// records its hops for the next query from that origin.
    pub fn run_plans_with(
        &mut self,
        plans: &[QueryPlan],
        options: &WanBatchOptions,
        sink: &mut dyn FnMut(WanPartial<'_>),
    ) -> WanBatchReport {
        let start = self.net.now();
        let base_messages = self.net.stats().sent;
        let ttl = options.ttl;
        let rate = options
            .mean_interarrival
            .map(|d| 1.0 / d.as_secs_f64().max(1e-9));

        let mut st = WanDrive {
            pending: BTreeMap::new(),
            origins: Vec::with_capacity(plans.len()),
            tracks: Vec::with_capacity(plans.len()),
            submitted_at: Vec::with_capacity(plans.len()),
            closure_keys: plans
                .iter()
                .map(|p| {
                    let patterns = match p {
                        QueryPlan::Join { query, .. } => query.patterns.len().max(1),
                        _ => 1,
                    };
                    vec![None; patterns]
                })
                .collect(),
            skipped_flags: vec![false; plans.len()],
            skipped: 0,
            unroutable: 0,
            mapping_fetches: 0,
            data_lookups: 0,
            timed_out: 0,
            cache_hits: 0,
        };
        let mut submit_at = SimTime::ZERO;

        // ---- Submission phase -------------------------------------
        // Interleaved with pumping: while the arrival process advances
        // the clock to the next submission instant, in-flight chains
        // keep completing (and expanding) underneath.
        for (qi, plan) in plans.iter().enumerate() {
            let origin = self.rng.gen_range(0..self.config.peers);
            st.origins.push(origin);
            // Whether this plan will issue any request (skipped shapes
            // never advance the arrival process). Decidable before
            // building the submissions, so the clock — and with it the
            // closure-cache lookup — can be advanced to the query's
            // actual arrival instant first: closures committed by
            // completions landing before the arrival must be visible.
            let will_submit = match plan {
                QueryPlan::Pattern { query } => query.pattern.routing_constant().is_some(),
                QueryPlan::ObjectPrefix { .. } => false,
                // A schema'd predicate is a constant URI, so closure
                // plans with a schema always route at least depth 0.
                QueryPlan::Closure { query } => gridvine_semantic::query_schema(query).is_ok(),
                QueryPlan::Join { query, .. } => query.patterns.iter().any(|p| {
                    p.routing_constant().is_some()
                        || (ttl > 0 && gridvine_semantic::pattern_schema(p).is_ok())
                }),
            };
            if will_submit {
                if let Some(rate) = rate {
                    // Pump the simulation to the submission instant —
                    // completions landing before it are processed at
                    // their own times — then inject the query.
                    let gap = rng::exponential(&mut self.rng, rate);
                    submit_at += SimDuration::from_secs_f64(gap);
                    let deadline = start + (submit_at - SimTime::ZERO);
                    self.pump_wan(Some(deadline), &mut st, plans, options, sink);
                }
            }
            let mut subs: Vec<(BitString, WanWork)> = Vec::new();
            let qtracks: Vec<WanTrack> = match plan {
                QueryPlan::Pattern { query } => {
                    match self.data_lookup(qi, 0, query.pattern.clone(), true) {
                        Some(sub) => {
                            st.data_lookups += 1;
                            subs.push(sub);
                        }
                        None => {
                            st.skipped_flags[qi] = true;
                            st.skipped += 1;
                        }
                    }
                    vec![WanTrack::new()]
                }
                QueryPlan::ObjectPrefix { .. } => {
                    // The asynchronous protocol has no range retrieve;
                    // prefix sweeps exist only on the synchronous system.
                    st.skipped_flags[qi] = true;
                    st.skipped += 1;
                    vec![WanTrack::new()]
                }
                QueryPlan::Closure { query } => {
                    let mut track = WanTrack::new();
                    match gridvine_semantic::query_schema(query) {
                        Err(_) => {
                            st.skipped_flags[qi] = true;
                            st.skipped += 1;
                        }
                        Ok((schema, attr)) => {
                            track.visited.insert(schema.clone());
                            let key = ClosureKey {
                                schema: schema.clone(),
                                attr,
                                ttl,
                            };
                            // Limited queries bypass the cache: a warm
                            // replay submits every recorded hop's data
                            // lookup up front, which would defeat the
                            // limit's strictly-fewer-messages guarantee
                            // (the cold path stops expanding at k
                            // distinct bindings).
                            let cached = (ttl > 0 && options.limit.is_none())
                                .then(|| self.caches[origin].lookup(self.mediation_epoch, &key))
                                .flatten();
                            if let Some(hops) = cached {
                                // Warm replay: the recorded hops name
                                // every reachable schema and predicate —
                                // submit their data lookups directly,
                                // zero mapping fetches.
                                st.cache_hits += 1;
                                for hop in hops.iter() {
                                    track.visited.insert(hop.schema.clone());
                                    let pat = if hop.depth == 0 {
                                        query.pattern.clone()
                                    } else {
                                        with_predicate(&query.pattern, &hop.predicate)
                                    };
                                    if let Some(sub) = self.data_lookup(qi, 0, pat, hop.depth == 0)
                                    {
                                        st.data_lookups += 1;
                                        subs.push(sub);
                                    }
                                }
                            } else {
                                // Cold: answer in the query's own
                                // vocabulary…
                                if let Some(sub) =
                                    self.data_lookup(qi, 0, query.pattern.clone(), true)
                                {
                                    st.data_lookups += 1;
                                    subs.push(sub);
                                }
                                // …and start discovering mappings.
                                if ttl > 0 {
                                    st.closure_keys[qi][0] = Some(key);
                                    track.recorded.push(CachedHop {
                                        schema: schema.clone(),
                                        predicate: crate::system::exec::pattern_predicate(
                                            &query.pattern,
                                        ),
                                        depth: 0,
                                        quality: 1.0,
                                    });
                                    st.mapping_fetches += 1;
                                    track.open_fetches += 1;
                                    subs.push((
                                        self.keyspace().key_of(schema.as_str()),
                                        WanWork::Schema {
                                            query: qi,
                                            pattern: 0,
                                            schema,
                                            pat: query.pattern.clone(),
                                            depth: 0,
                                            quality: 1.0,
                                        },
                                    ));
                                }
                            }
                        }
                    }
                    vec![track]
                }
                QueryPlan::Join { query, .. } => {
                    let mut qtracks: Vec<WanTrack> =
                        (0..query.patterns.len()).map(|_| WanTrack::new()).collect();
                    for (pi, pat) in query.patterns.iter().enumerate() {
                        match self.data_lookup(qi, pi, pat.clone(), true) {
                            Some(sub) => {
                                st.data_lookups += 1;
                                subs.push(sub);
                            }
                            None => st.unroutable += 1,
                        }
                        if ttl > 0 {
                            if let Ok((schema, attr)) = gridvine_semantic::pattern_schema(pat) {
                                qtracks[pi].visited.insert(schema.clone());
                                let key = ClosureKey {
                                    schema: schema.clone(),
                                    attr,
                                    ttl,
                                };
                                // Join patterns ride the same per-origin
                                // closure caches as single-pattern
                                // closure plans (limited batches bypass
                                // them for the same strictly-fewer-
                                // messages reason).
                                let cached = (options.limit.is_none())
                                    .then(|| self.caches[origin].lookup(self.mediation_epoch, &key))
                                    .flatten();
                                if let Some(hops) = cached {
                                    // Warm replay: submit the recorded
                                    // reformulated lookups directly —
                                    // zero mapping fetches. The depth-0
                                    // lookup was already submitted
                                    // above.
                                    st.cache_hits += 1;
                                    for hop in hops.iter().filter(|h| h.depth > 0) {
                                        qtracks[pi].visited.insert(hop.schema.clone());
                                        let rp = with_predicate(pat, &hop.predicate);
                                        if let Some(sub) = self.data_lookup(qi, pi, rp, false) {
                                            st.data_lookups += 1;
                                            subs.push(sub);
                                        }
                                    }
                                } else {
                                    st.closure_keys[qi][pi] = Some(key);
                                    qtracks[pi].recorded.push(CachedHop {
                                        schema: schema.clone(),
                                        predicate: crate::system::exec::pattern_predicate(pat),
                                        depth: 0,
                                        quality: 1.0,
                                    });
                                    st.mapping_fetches += 1;
                                    qtracks[pi].open_fetches += 1;
                                    subs.push((
                                        self.keyspace().key_of(schema.as_str()),
                                        WanWork::Schema {
                                            query: qi,
                                            pattern: pi,
                                            schema,
                                            pat: pat.clone(),
                                            depth: 0,
                                            quality: 1.0,
                                        },
                                    ));
                                }
                            }
                        }
                    }
                    qtracks
                }
            };
            st.tracks.push(qtracks);
            debug_assert_eq!(
                will_submit,
                !subs.is_empty(),
                "arrival-process advancement must match actual submission"
            );
            st.submitted_at.push(self.net.now());
            let origin = st.origins[qi];
            let had_subs = !subs.is_empty();
            for (key, work) in subs {
                self.submit_wan(origin, key, work, &mut st.pending);
            }
            if had_subs {
                // A request whose origin is itself responsible
                // completes during submission without any network
                // event: drain it now, at its actual (current) instant.
                self.drain_wan_node(origin, &mut st, plans, options, sink);
            }
        }

        // ---- Drive until no chain has work left -------------------
        // Every request terminates (response or timeout timer), so one
        // unbounded pump drains the batch; follow-up submissions made
        // inside completion handling keep the loop going.
        self.pump_wan(None, &mut st, plans, options, sink);
        debug_assert!(st.pending.is_empty(), "all requests terminate");

        // ---- Aggregate --------------------------------------------
        let mut latencies = Cdf::new();
        let mut answered = 0usize;
        let mut not_found = 0usize;
        let mut hops_sum = 0u64;
        let mut hopped = 0usize;
        let mut schema_sum = 0usize;
        let mut rows_sum = 0usize;
        for (qi, plan) in plans.iter().enumerate() {
            if st.skipped_flags[qi] {
                continue;
            }
            let submitted_at = st.submitted_at[qi];
            match plan {
                QueryPlan::Pattern { .. }
                | QueryPlan::ObjectPrefix { .. }
                | QueryPlan::Closure { .. } => {
                    let track = &st.tracks[qi][0];
                    schema_sum += track.visited.len();
                    if !track.bindings.is_empty() {
                        answered += 1;
                        let done = track.matched_at.unwrap_or(submitted_at);
                        latencies.record_duration(done.saturating_since(submitted_at));
                        if let Some(h) = track.hops {
                            hops_sum += h as u64;
                            hopped += 1;
                        }
                    } else if !track.timed_out {
                        not_found += 1;
                    }
                }
                QueryPlan::Join { query, .. } => {
                    // Join locally at the origin.
                    let mut rows: Vec<Binding> = vec![Binding::new()];
                    let mut latest = submitted_at;
                    for (pi, _) in query.patterns.iter().enumerate() {
                        let track = &st.tracks[qi][pi];
                        schema_sum += track.visited.len();
                        if let Some(m) = track.matched_at {
                            latest = latest.max(m);
                        }
                        let mut next = Vec::new();
                        for row in &rows {
                            for b in &track.bindings {
                                if let Some(j) = row.join(b) {
                                    next.push(j);
                                }
                            }
                        }
                        rows = next;
                        if rows.is_empty() {
                            break;
                        }
                    }
                    let vars: Vec<&str> = query.distinguished.iter().map(String::as_str).collect();
                    let mut projected: Vec<Binding> =
                        rows.into_iter().map(|b| b.project(&vars)).collect();
                    projected.sort_by_key(|b| b.to_string());
                    projected.dedup();
                    if !projected.is_empty() {
                        answered += 1;
                        rows_sum += projected.len();
                        latencies.record_duration(latest.saturating_since(submitted_at));
                    }
                }
            }
        }

        let submitted = plans.len() - st.skipped;
        WanBatchReport {
            latencies,
            submitted,
            answered,
            not_found,
            skipped: st.skipped,
            timed_out: st.timed_out,
            unroutable_patterns: st.unroutable,
            mapping_fetches: st.mapping_fetches,
            data_lookups: st.data_lookups,
            mean_hops: if hopped > 0 {
                hops_sum as f64 / hopped as f64
            } else {
                0.0
            },
            mean_schemas: if submitted > 0 {
                schema_sum as f64 / submitted as f64
            } else {
                0.0
            },
            mean_rows: if answered > 0 {
                rows_sum as f64 / answered as f64
            } else {
                0.0
            },
            cache_hits: st.cache_hits,
            messages: self.net.stats().sent - base_messages,
            wall: self.net.now().saturating_since(start),
        }
    }

    /// [`Deployment::run_plans_with`] without a streaming consumer.
    pub fn run_plans(&mut self, plans: &[QueryPlan], options: &WanBatchOptions) -> WanBatchReport {
        self.run_plans_with(plans, options, &mut |_| {})
    }

    /// Pump the network one event at a time, handling every request
    /// completion at its actual simulated completion instant (which may
    /// submit follow-up requests). With a deadline, stops before the
    /// first event past it and advances the clock exactly to it.
    fn pump_wan(
        &mut self,
        deadline: Option<SimTime>,
        st: &mut WanDrive,
        plans: &[QueryPlan],
        options: &WanBatchOptions,
        sink: &mut dyn FnMut(WanPartial<'_>),
    ) {
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
            self.drain_wan_node(node.index(), st, plans, options, sink);
        }
        if let Some(d) = deadline {
            // Nothing left at or before the deadline: land the clock on
            // it so the next submission happens at its arrival instant.
            self.net.run_until(d);
        }
    }

    /// Drain and handle one node's buffered request completions.
    /// Handling may submit follow-up requests whose origin completes
    /// them locally on the spot — recurse so those are processed at
    /// their own (identical) instant instead of lingering undrained.
    fn drain_wan_node(
        &mut self,
        node_index: usize,
        st: &mut WanDrive,
        plans: &[QueryPlan],
        options: &WanBatchOptions,
        sink: &mut dyn FnMut(WanPartial<'_>),
    ) {
        let completed = self
            .net
            .node_mut(NodeId::from_index(node_index))
            .drain_completed();
        for o in completed {
            self.handle_wan_completion(node_index, o, st, plans, options, sink);
        }
    }

    /// Process one completed retrieve of the plan driver.
    fn handle_wan_completion(
        &mut self,
        node_i: usize,
        o: gridvine_pgrid::proto::Outcome<MediationItem>,
        st: &mut WanDrive,
        plans: &[QueryPlan],
        options: &WanBatchOptions,
        sink: &mut dyn FnMut(WanPartial<'_>),
    ) {
        let Some(work) = st.pending.remove(&(node_i, o.id)) else {
            return;
        };
        let now = o.completed_at;
        if o.status == Status::TimedOut {
            st.timed_out += 1;
            match work {
                WanWork::Data { query, pattern, .. } => {
                    st.tracks[query][pattern].timed_out = true;
                }
                WanWork::Schema { query, pattern, .. } => {
                    let track = &mut st.tracks[query][pattern];
                    track.timed_out = true;
                    // A lost discovery leaves the expansion incomplete:
                    // never record it.
                    track.open_fetches = track.open_fetches.saturating_sub(1);
                }
            }
            return;
        }
        match work {
            WanWork::Data {
                query,
                pattern,
                pat,
                key,
                initial,
            } => {
                let track = &mut st.tracks[query][pattern];
                // Destination-side resolution (§2.3): `π σ (DB_p)` on
                // the peer that answered. A reply from a peer that is
                // not responsible for the key reports a routing hole,
                // not an answer: it resolves to no rows.
                let seen = track.bindings.len();
                if let Some(dest) = o
                    .responder
                    .filter(|r| self.net.node(*r).view().is_responsible(&key))
                {
                    track
                        .bindings
                        .extend(self.dbs[dest.index()].match_pattern(&pat));
                }
                let fresh = &track.bindings[seen..];
                if !fresh.is_empty() {
                    // Distinct tracking only matters to the limit
                    // check; unlimited batches skip its formatting cost.
                    if options.limit.is_some() {
                        track.distinct.extend(fresh.iter().map(Binding::to_string));
                    }
                    track.matched_at = Some(track.matched_at.map_or(now, |m| m.max(now)));
                    sink(WanPartial {
                        query,
                        at: now,
                        bindings: fresh,
                    });
                }
                if initial {
                    track.hops = Some(o.hops);
                }
            }
            WanWork::Schema {
                query,
                pattern,
                schema,
                pat,
                depth,
                quality,
            } => {
                st.tracks[query][pattern].open_fetches -= 1;
                // Early termination: a closure query that has already
                // collected its result cap stops expanding — the
                // reformulated lookups and deeper mapping fetches below
                // are never sent, and the truncated walk records
                // nothing.
                if matches!(plans[query], QueryPlan::Closure { .. })
                    && options
                        .limit
                        .is_some_and(|k| st.tracks[query][pattern].distinct.len() >= k)
                {
                    st.tracks[query][pattern].limited = true;
                    return;
                }
                // Mappings stored at this schema's key space; dedupe by
                // id (bidirectional copies).
                let mut seen_ids = BTreeSet::new();
                let mappings: Vec<Mapping> = o
                    .values
                    .iter()
                    .filter_map(|item| match item {
                        MediationItem::Mapping { mapping, .. } => {
                            seen_ids.insert(mapping.id).then(|| mapping.clone())
                        }
                        _ => None,
                    })
                    .collect();
                for m in mappings {
                    let Some(dir) = m.applicable_from(&schema) else {
                        continue;
                    };
                    let dest = m.destination(dir).clone();
                    if st.tracks[query][pattern].visited.contains(&dest) {
                        continue;
                    }
                    let Some(np) = gridvine_semantic::reformulate_pattern(&pat, &m, dir) else {
                        continue;
                    };
                    st.tracks[query][pattern].visited.insert(dest.clone());
                    let chain_quality = quality.min(m.quality);
                    if st.closure_keys[query][pattern].is_some() {
                        st.tracks[query][pattern].recorded.push(CachedHop {
                            schema: dest.clone(),
                            predicate: crate::system::exec::pattern_predicate(&np),
                            depth: depth + 1,
                            quality: chain_quality,
                        });
                    }
                    let origin = st.origins[query];
                    if let Some((key, work)) = self.data_lookup(query, pattern, np.clone(), false) {
                        st.data_lookups += 1;
                        self.submit_wan(origin, key, work, &mut st.pending);
                    }
                    if depth + 1 < options.ttl {
                        st.mapping_fetches += 1;
                        st.tracks[query][pattern].open_fetches += 1;
                        let key = self.keyspace().key_of(dest.as_str());
                        self.submit_wan(
                            origin,
                            key,
                            WanWork::Schema {
                                query,
                                pattern,
                                schema: dest,
                                pat: np,
                                depth: depth + 1,
                                quality: chain_quality,
                            },
                            &mut st.pending,
                        );
                    }
                }
                // Expansion complete and untruncated: memoize the hop
                // list in the origin's bounded cache for the next
                // closure query sharing this key. (`recorded` empties
                // on commit, so re-entrant completion handling cannot
                // commit twice.)
                let track = &mut st.tracks[query][pattern];
                if track.open_fetches == 0
                    && !track.timed_out
                    && !track.limited
                    && !track.recorded.is_empty()
                {
                    if let Some(key) = st.closure_keys[query][pattern].clone() {
                        let hops = std::mem::take(&mut track.recorded);
                        self.caches[st.origins[query]].insert(self.mediation_epoch, key, hops);
                    }
                }
                // Follow-ups whose origin answered locally completed
                // during submission: drain them at this same instant.
                self.drain_wan_node(st.origins[query], st, plans, options, sink);
            }
        }
    }

    /// Submit a batch of plain single-pattern lookups with exponential
    /// inter-arrival times from uniformly random origins (the §2.3
    /// latency experiment): [`QueryPlan::pattern`] per query, counted
    /// as answered when ≥1 result matches, as the paper counts answered
    /// queries. A thin projection of [`Deployment::run_plans`].
    pub fn run_queries(&mut self, queries: &[TriplePatternQuery]) -> BatchReport {
        let plans: Vec<QueryPlan> = queries.iter().cloned().map(QueryPlan::pattern).collect();
        let rep = self.run_plans(
            &plans,
            &WanBatchOptions {
                ttl: 0,
                mean_interarrival: Some(self.config.mean_interarrival),
                limit: None,
            },
        );
        BatchReport {
            latencies: rep.latencies,
            submitted: rep.submitted,
            answered: rep.answered,
            not_found: rep.not_found,
            timed_out: rep.timed_out,
            mean_hops: rep.mean_hops,
            messages: rep.messages,
            wall: rep.wall,
        }
    }

    /// Disseminate each query through the mapping network over the
    /// event-driven deployment, iterative strategy (§4):
    /// [`QueryPlan::search`] per query. A thin projection of
    /// [`Deployment::run_plans`].
    pub fn run_reformulated_queries(
        &mut self,
        queries: &[TriplePatternQuery],
        ttl: usize,
    ) -> ReformulatedBatchReport {
        let plans: Vec<QueryPlan> = queries.iter().cloned().map(QueryPlan::search).collect();
        let rep = self.run_plans(
            &plans,
            &WanBatchOptions {
                ttl,
                mean_interarrival: None,
                limit: None,
            },
        );
        ReformulatedBatchReport {
            latencies: rep.latencies,
            submitted: rep.submitted,
            answered: rep.answered,
            skipped: rep.skipped,
            mapping_fetches: rep.mapping_fetches,
            data_lookups: rep.data_lookups,
            timed_out: rep.timed_out,
            mean_schemas: rep.mean_schemas,
            messages: rep.messages,
        }
    }

    /// Resolve conjunctive queries over the event-driven deployment
    /// (§2.3): [`QueryPlan::conjunctive`] per query — every pattern is
    /// disseminated through the mapping network (iterative, independent
    /// join: the origin collects each pattern's bindings from all
    /// reachable schemas, then joins locally). A thin projection of
    /// [`Deployment::run_plans`].
    pub fn run_conjunctive_queries(
        &mut self,
        queries: &[ConjunctiveQuery],
        ttl: usize,
    ) -> ConjunctiveWanReport {
        let plans: Vec<QueryPlan> = queries
            .iter()
            .cloned()
            .map(QueryPlan::conjunctive)
            .collect();
        let rep = self.run_plans(
            &plans,
            &WanBatchOptions {
                ttl,
                mean_interarrival: None,
                limit: None,
            },
        );
        ConjunctiveWanReport {
            latencies: rep.latencies,
            submitted: queries.len(),
            answered: rep.answered,
            mean_rows: rep.mean_rows,
            unroutable_patterns: rep.unroutable_patterns,
            mapping_fetches: rep.mapping_fetches,
            data_lookups: rep.data_lookups,
            timed_out: rep.timed_out,
            messages: rep.messages,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvine_workload::{QueryConfig, QueryGenerator, Workload, WorkloadConfig};

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
                    gridvine_rdf::PatternTerm::var("x"),
                    gridvine_rdf::PatternTerm::constant(gridvine_rdf::Term::Uri(t.predicate)),
                    gridvine_rdf::PatternTerm::var("o"),
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
        let plans = vec![QueryPlan::pattern(query); 12];
        let mut replies: Vec<Vec<Binding>> = Vec::new();
        let rep = d.run_plans_with(
            &plans,
            &WanBatchOptions {
                ttl: 0,
                mean_interarrival: None,
                limit: None,
            },
            &mut |p| replies.push(p.bindings.to_vec()),
        );
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
        let report = d.run_queries(&queries);
        assert_eq!(report.submitted, 60);
        assert!(report.answered > 20, "answered {}", report.answered);
        assert_eq!(report.timed_out, 0);
        assert!(report.mean_hops >= 1.0);
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

    #[test]
    fn object_prefix_plans_are_skipped_on_the_wan() {
        // The asynchronous protocol has no range retrieve; the plan
        // driver reports the sweep as skipped rather than mis-routing.
        let (mut d, _) = small_deployment(12);
        let q = TriplePatternQuery::new(
            "x",
            gridvine_rdf::TriplePattern::new(
                gridvine_rdf::PatternTerm::var("x"),
                gridvine_rdf::PatternTerm::var("p"),
                gridvine_rdf::PatternTerm::constant(gridvine_rdf::Term::literal("Aspergillus%")),
            ),
        )
        .unwrap();
        let rep = d.run_plans(
            &[QueryPlan::object_prefix(q)],
            &WanBatchOptions {
                ttl: 0,
                mean_interarrival: None,
                limit: None,
            },
        );
        assert_eq!(rep.skipped, 1);
        assert_eq!(rep.submitted, 0);
        assert_eq!(rep.messages, 0);
    }

    /// Wire a deployment with a manual mapping chain over the workload
    /// schemas, preloaded into the DHT.
    fn chained_deployment(seed: u64) -> (Deployment, Workload) {
        let (mut d, w) = small_deployment(seed);
        let mut registry = gridvine_semantic::MappingRegistry::new();
        for s in &w.schemas {
            registry.add_schema(s.clone());
        }
        for i in 0..w.schemas.len() - 1 {
            let a = w.schemas[i].id().clone();
            let b = w.schemas[i + 1].id().clone();
            let corrs = w.ground_truth.correct_pairs(&a, &b);
            if !corrs.is_empty() {
                registry.add_mapping(
                    a,
                    b,
                    gridvine_semantic::MappingKind::Equivalence,
                    gridvine_semantic::Provenance::Manual,
                    corrs,
                );
            }
        }
        let mappings: Vec<Mapping> = registry.mappings().cloned().collect();
        d.preload_mediation(w.schemas.clone(), mappings.iter());
        (d, w)
    }

    #[test]
    fn reformulated_queries_reach_other_schemas_over_the_wire() {
        let (mut d, w) = chained_deployment(6);
        let gen = QueryGenerator::new(&w, QueryConfig::default());
        let fig2 = gen.figure2();
        let report = d.run_reformulated_queries(std::slice::from_ref(&fig2.query), 10);
        assert_eq!(report.submitted, 1);
        assert_eq!(report.answered, 1, "{report:?}");
        assert_eq!(report.timed_out, 0);
        // The chain covers every schema carrying the organism concept.
        assert!(report.mean_schemas > 1.0, "{report:?}");
        assert!(report.mapping_fetches >= 1);
        assert!(report.data_lookups > 1, "reformulations issued lookups");
    }

    #[test]
    fn limited_closure_sends_strictly_fewer_wan_messages() {
        // k = 1 on a query whose closure reaches many schemas: once one
        // binding landed, mapping-fetch completions stop expanding, so
        // the limited batch must carry strictly fewer messages (and
        // issue strictly fewer lookups) than the unlimited one.
        let run = |limit: Option<usize>| {
            let (mut d, w) = chained_deployment(6);
            let gen = QueryGenerator::new(&w, QueryConfig::default());
            let fig2 = gen.figure2();
            let rep = d.run_plans(
                &[QueryPlan::search(fig2.query.clone())],
                &WanBatchOptions {
                    ttl: 10,
                    mean_interarrival: None,
                    limit,
                },
            );
            (rep.answered, rep.messages, rep.data_lookups)
        };
        let (full_answered, full_messages, full_lookups) = run(None);
        let (lim_answered, lim_messages, lim_lookups) = run(Some(1));
        assert_eq!(full_answered, 1);
        assert_eq!(lim_answered, 1, "the capped query still answers");
        assert!(
            lim_messages < full_messages,
            "limit 1 must cut messages: {lim_messages} vs {full_messages}"
        );
        assert!(lim_lookups < full_lookups);
    }

    #[test]
    fn streamed_partials_arrive_in_completion_order_and_cover_answers() {
        let (mut d, w) = chained_deployment(6);
        let gen = QueryGenerator::new(&w, QueryConfig::default());
        let mut r = rng::seeded(8);
        let queries: Vec<TriplePatternQuery> =
            gen.batch(20, &mut r).into_iter().map(|g| g.query).collect();
        let plans: Vec<QueryPlan> = queries.into_iter().map(QueryPlan::search).collect();
        let mut partials: Vec<(usize, gridvine_netsim::SimTime, usize)> = Vec::new();
        let rep = d.run_plans_with(
            &plans,
            &WanBatchOptions {
                ttl: 6,
                mean_interarrival: None,
                limit: None,
            },
            &mut |p| partials.push((p.query, p.at, p.bindings.len())),
        );
        assert!(rep.answered > 0);
        // Partials stream at their actual completion instants: the
        // event-driven pump delivers them in non-decreasing sim time.
        assert!(partials.windows(2).all(|w| w[0].1 <= w[1].1));
        assert!(partials.iter().all(|&(_, _, n)| n > 0));
        // Every answered query streamed at least one partial.
        let with_partials: BTreeSet<usize> = partials.iter().map(|&(q, _, _)| q).collect();
        assert_eq!(with_partials.len(), rep.answered);
        // Streaming is observational: the report is identical shape.
        assert_eq!(rep.submitted, 20);
    }

    #[test]
    fn warm_origin_replays_closures_without_mapping_fetches() {
        // The same closure query submitted many times in one batch:
        // whenever the random origin repeats, the per-origin cache
        // replays the recorded hops — zero mapping fetches for those
        // queries, identical answers.
        let reps = 30usize;
        let run = |capacity: usize| {
            let (mut d, w) = {
                let (mut d, w) = small_deployment(6);
                d.config.closure_cache_capacity = capacity;
                d.caches = (0..d.config.peers)
                    .map(|_| ClosureCache::bounded(capacity))
                    .collect();
                let mut registry = gridvine_semantic::MappingRegistry::new();
                for s in &w.schemas {
                    registry.add_schema(s.clone());
                }
                for i in 0..w.schemas.len() - 1 {
                    let a = w.schemas[i].id().clone();
                    let b = w.schemas[i + 1].id().clone();
                    let corrs = w.ground_truth.correct_pairs(&a, &b);
                    if !corrs.is_empty() {
                        registry.add_mapping(
                            a,
                            b,
                            gridvine_semantic::MappingKind::Equivalence,
                            gridvine_semantic::Provenance::Manual,
                            corrs,
                        );
                    }
                }
                let mappings: Vec<Mapping> = registry.mappings().cloned().collect();
                d.preload_mediation(w.schemas.clone(), mappings.iter());
                (d, w)
            };
            let gen = QueryGenerator::new(&w, QueryConfig::default());
            let fig2 = gen.figure2();
            let plans: Vec<QueryPlan> = (0..reps)
                .map(|_| QueryPlan::search(fig2.query.clone()))
                .collect();
            // Spread arrivals out so earlier queries complete (and
            // warm their origin's cache) before later ones submit —
            // all at t=0 would be uniformly cold.
            let rep = d.run_plans(
                &plans,
                &WanBatchOptions {
                    ttl: 10,
                    mean_interarrival: Some(SimDuration::from_secs(30)),
                    limit: None,
                },
            );
            (rep, d.cached_closures())
        };
        let (cold, cached) = run(0); // capacity 0: caching disabled
        let (warm, warm_cached) = run(64);
        assert_eq!(cached, 0);
        assert!(warm_cached > 0, "origins memoized the closure");
        assert_eq!(cold.answered, reps);
        assert_eq!(warm.answered, reps, "replays answer identically");
        assert_eq!(cold.cache_hits, 0);
        assert!(warm.cache_hits > 0, "repeated origins hit the cache");
        assert!(
            warm.mapping_fetches < cold.mapping_fetches,
            "cache hits skip mapping fetches: {} vs {}",
            warm.mapping_fetches,
            cold.mapping_fetches
        );
        assert!(warm.messages < cold.messages);
    }

    #[test]
    fn warm_origin_replays_join_closures_without_mapping_fetches() {
        // Same story as the closure test above, but for `Join` plans:
        // every pattern of a conjunctive query routes its closure
        // expansion through the origin's cache, so a repeated join from
        // a warm origin replays every pattern's recorded hops — fewer
        // mapping fetches, identical answers.
        let reps = 30usize;
        let run = |capacity: usize| {
            let (mut d, w) = chained_deployment(6);
            d.config.closure_cache_capacity = capacity;
            d.caches = (0..d.config.peers)
                .map(|_| ClosureCache::bounded(capacity))
                .collect();
            let gen = QueryGenerator::new(&w, QueryConfig::default());
            let mut r = rng::seeded(5);
            let q = gen.conjunctive(&mut r).query;
            let plans: Vec<QueryPlan> = (0..reps)
                .map(|_| QueryPlan::conjunctive(q.clone()))
                .collect();
            let rep = d.run_plans(
                &plans,
                &WanBatchOptions {
                    ttl: 6,
                    mean_interarrival: Some(SimDuration::from_secs(30)),
                    limit: None,
                },
            );
            (rep, d.cached_closures())
        };
        let (cold, cached) = run(0); // capacity 0: caching disabled
        let (warm, warm_cached) = run(64);
        assert_eq!(cached, 0);
        assert!(warm_cached > 0, "origins memoized per-pattern closures");
        assert_eq!(cold.answered, warm.answered, "replays answer identically");
        assert_eq!(cold.cache_hits, 0);
        assert!(warm.cache_hits > 0, "repeated origins hit the cache");
        assert!(
            warm.mapping_fetches < cold.mapping_fetches,
            "join cache hits skip mapping fetches: {} vs {}",
            warm.mapping_fetches,
            cold.mapping_fetches
        );
    }

    #[test]
    fn reformulation_latency_exceeds_plain_lookup_latency() {
        // The same query answered with and without dissemination: the
        // reformulated run waits for mapping fetches + deeper lookups,
        // so its end-to-end latency dominates the plain lookup's.
        let (mut d, w) = chained_deployment(7);
        let gen = QueryGenerator::new(&w, QueryConfig::default());
        let mut r = rng::seeded(4);
        let queries: Vec<TriplePatternQuery> =
            gen.batch(20, &mut r).into_iter().map(|g| g.query).collect();
        let plain = d.run_queries(&queries);
        let reformulated = d.run_reformulated_queries(&queries, 10);
        assert!(reformulated.answered >= plain.answered, "{reformulated:?}");
        let mut pl = plain.latencies.clone();
        let mut rl = reformulated.latencies.clone();
        assert!(
            rl.median() > pl.median(),
            "reformulated median {} must exceed plain {}",
            rl.median(),
            pl.median()
        );
    }

    #[test]
    fn ttl_zero_disables_dissemination() {
        let (mut d, w) = chained_deployment(8);
        let gen = QueryGenerator::new(&w, QueryConfig::default());
        let fig2 = gen.figure2();
        let report = d.run_reformulated_queries(std::slice::from_ref(&fig2.query), 0);
        assert_eq!(report.mapping_fetches, 0);
        assert_eq!(report.data_lookups, 1);
        assert!(report.mean_schemas <= 1.0);
    }

    #[test]
    fn conjunctive_queries_join_over_the_wire() {
        let (mut d, w) = chained_deployment(10);
        let gen = QueryGenerator::new(&w, QueryConfig::default());
        let mut r = rng::seeded(5);
        let queries: Vec<ConjunctiveQuery> = gen
            .conjunctive_batch(12, &mut r)
            .into_iter()
            .map(|g| g.query)
            .collect();
        let rep = d.run_conjunctive_queries(&queries, 6);
        assert_eq!(rep.submitted, 12);
        assert!(rep.answered > 4, "{rep:?}");
        assert_eq!(rep.unroutable_patterns, 0);
        assert!(rep.mean_rows >= 1.0);
        // Two patterns per query: at least two data lookups each.
        assert!(rep.data_lookups >= 24, "{rep:?}");
        assert!(rep.mapping_fetches > 0);
    }

    #[test]
    fn conjunctive_wan_agrees_with_synchronous_system() {
        // The WAN driver and the synchronous executor resolve the same
        // query over the same corpus + chain: identical solution rows.
        use crate::exec::QueryOptions;
        use crate::system::{GridVineConfig, GridVineSystem, Strategy};
        use crate::JoinMode;
        let (mut d, w) = chained_deployment(11);
        let gen = QueryGenerator::new(&w, QueryConfig::default());
        let mut r = rng::seeded(6);
        let g = gen.conjunctive(&mut r);

        // Synchronous twin.
        let mut sys = GridVineSystem::new(GridVineConfig {
            peers: 48,
            ..GridVineConfig::default()
        });
        let p0 = gridvine_pgrid::PeerId(0);
        for s in &w.schemas {
            sys.insert_schema(p0, s.clone()).unwrap();
        }
        for s in &w.schemas {
            sys.insert_triples(p0, w.triples_of(s.id())).unwrap();
        }
        for i in 0..w.schemas.len() - 1 {
            let a = w.schemas[i].id().clone();
            let b = w.schemas[i + 1].id().clone();
            let corrs = w.ground_truth.correct_pairs(&a, &b);
            if !corrs.is_empty() {
                sys.insert_mapping(
                    p0,
                    a,
                    b,
                    gridvine_semantic::MappingKind::Equivalence,
                    gridvine_semantic::Provenance::Manual,
                    corrs,
                )
                .unwrap();
            }
        }
        let sync = sys
            .execute(
                p0,
                &QueryPlan::conjunctive(g.query.clone()),
                &QueryOptions::new()
                    .strategy(Strategy::Iterative)
                    .join_mode(JoinMode::Independent),
            )
            .unwrap();
        let wan = d.run_conjunctive_queries(std::slice::from_ref(&g.query), 10);
        // Row multisets are not directly exposed by the WAN report; the
        // answered flag and row count must agree.
        assert_eq!(wan.answered == 1, !sync.rows.is_empty(), "{}", g.query);
        if wan.answered == 1 {
            assert!(
                (wan.mean_rows - sync.rows.len() as f64).abs() < 1e-9,
                "rows {} vs {}",
                wan.mean_rows,
                sync.rows.len()
            );
        }
    }

    #[test]
    fn reformulated_batches_are_deterministic() {
        let run = || {
            let (mut d, w) = chained_deployment(9);
            let gen = QueryGenerator::new(&w, QueryConfig::default());
            let mut r = rng::seeded(2);
            let queries: Vec<TriplePatternQuery> =
                gen.batch(15, &mut r).into_iter().map(|g| g.query).collect();
            let rep = d.run_reformulated_queries(&queries, 6);
            (
                rep.answered,
                rep.messages,
                rep.data_lookups,
                rep.mapping_fetches,
            )
        };
        assert_eq!(run(), run());
    }
}
