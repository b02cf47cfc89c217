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
//! conjunctive joins all run through **one plan-driven loop**,
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
//! processed *at its actual simulated completion instant*, so chains
//! across queries genuinely overlap in flight and the latency [`Cdf`]
//! is derived from real completion times
//! (`completed_at − submitted_at`). [`Deployment::run_plans_with`]
//! additionally streams every matched partial result ([`WanPartial`])
//! to the caller as it lands.
//!
//! **Where the closure walk lives.** The reformulation rule is
//! [`gridvine_semantic::expand_hop`] — the step the synchronous
//! executor ([`crate::exec`]) and the registry-local
//! [`reformulations`](gridvine_semantic::reformulations) run too. This
//! driver adds only *when to send*: a plan is a list of per-pattern
//! tracks; opening a track sends its own-vocabulary lookup plus, within
//! the TTL, the fetch of its schema's mapping list; each hop the step
//! admits is sent — data lookup, and deeper fetch — the moment the
//! reply carrying the mapping list lands. A walk that completes is
//! recorded in the origin's **bounded LRU closure cache**
//! ([`DeploymentConfig::closure_cache_capacity`]); a later track with
//! the same key from that origin replays the recorded hops
//! ([`CachedHop::replay`]) and skips every mapping fetch. When the
//! batch drains, each plan's tracks are folded through
//! [`gridvine_rdf::join`], as the synchronous engine folds an
//! independent join's sweeps.

use crate::item::{KeySpace, MediationItem, TripleStage};
use crate::plan::QueryPlan;
use gridvine_netsim::rng;
use gridvine_netsim::{Cdf, Network, NetworkConfig, NodeId, SimDuration, SimTime};
use gridvine_pgrid::proto::{PGridMsg, PGridNode, Status};
use gridvine_pgrid::{BitString, HashKind, KeyHasher, PeerId, Topology};
use gridvine_rdf::join::{hash_join_rows, TermInterner, VarTable};
use gridvine_rdf::{Binding, Term, Triple, TriplePattern, TriplePatternQuery, TripleStore};
use gridvine_semantic::{
    expand_hop, pattern_schema, query_schema, CachedHop, ClosureCache, ClosureKey, Hop, Mapping,
    Schema, SchemaId,
};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;

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
    /// query has collected `limit` **distinct answers** (terms of its
    /// distinguished variable — what the session's cap counts), its
    /// mapping-fetch completions stop expanding (no further
    /// reformulated lookups or deeper fetches are submitted), so a
    /// limited query sends strictly fewer messages than an unlimited
    /// one whenever dissemination remained. Limited closure queries
    /// bypass the per-origin closure cache (a warm replay submits every
    /// recorded hop up front, which would defeat the truncation). Join
    /// plans ignore the cap (dropping a binding could drop the joining
    /// row, changing results rather than just truncating them);
    /// in-flight requests are allowed to land.
    pub limit: Option<usize>,
}

/// Everything one plan-driven WAN batch measured ([`BatchReport`] is a
/// projection of it).
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
    /// reformulated) pattern instance of a track.
    Data {
        track: usize,
        pat: TriplePattern,
        /// The key the retrieve was routed by: only a reply from a peer
        /// responsible for it is resolved against that peer's `DB_p`.
        key: BitString,
        /// The track's own-vocabulary (depth-0) lookup; its hop count
        /// feeds [`WanBatchReport::mean_hops`].
        initial: bool,
    },
    /// `Retrieve(Hash(schema))` — the mapping list `hop` is expanded
    /// with when the reply lands.
    Schema { track: usize, hop: Hop },
}

/// Progress of one track: one pattern of one plan, disseminated
/// through the mapping network.
#[derive(Default)]
struct WanTrack {
    /// Index of the plan in the submitted batch, and its origin peer.
    query: usize,
    origin: usize,
    visited: BTreeSet<SchemaId>,
    bindings: Vec<Binding>,
    /// Distinct answers collected so far — terms of the distinguished
    /// variable, as the session's row admission counts them: what
    /// [`WanBatchOptions::limit`] counts against.
    distinct: BTreeSet<Term>,
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
    /// A cold walk's cache key and the hops walked so far (root first);
    /// `None` for plain lookups, TTL 0 and warm replays. Committed to
    /// the origin's cache only if the expansion completes untruncated.
    recording: Option<(ClosureKey, Vec<CachedHop>)>,
    /// The limit cap truncated this track's expansion (a partial
    /// closure must never be recorded as complete).
    limited: bool,
}

/// One submitted plan of the batch.
struct WanQuery {
    submitted_at: SimTime,
    /// The plan's tracks in [`WanDrive::tracks`], one per pattern; none
    /// for a plan that was not disseminated
    /// ([`WanBatchReport::skipped`]).
    tracks: Range<usize>,
}

/// Mutable batch state threaded through the event-driven drive loop.
#[derive(Default)]
struct WanDrive {
    pending: BTreeMap<(usize, u64), WanWork>,
    queries: Vec<WanQuery>,
    tracks: Vec<WanTrack>,
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
    /// The copies are staged and every touched `DB_p` is bulk-loaded
    /// once, through the routine [`crate::GridVineSystem::insert_triples`]
    /// stages its routed copies with; a peer responsible for several
    /// keys of one triple stores it once. Nothing is written into a
    /// node's overlay bucket: a data retrieve is answered from the
    /// `DB_p` of the peer that replies (see the module docs).
    pub fn preload(&mut self, triples: impl IntoIterator<Item = Triple>) -> usize {
        let ks = self.keyspace();
        let mut stage = TripleStage::default();
        let mut placements = 0;
        for t in triples {
            let keys = ks.triple_keys(&t);
            let holders = keys.iter().flat_map(|key| self.topology.responsible(key));
            placements += stage.push(t, holders.copied());
        }
        stage.flush(&mut self.dbs);
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

    /// Submit a retrieve from the track's origin and register its
    /// driver work.
    fn submit_wan(&mut self, st: &mut WanDrive, track: usize, key: BitString, work: WanWork) {
        let origin = st.tracks[track].origin;
        let req = self.net.invoke(NodeId::from_index(origin), move |n, ctx| {
            n.start_retrieve(ctx, key)
        });
        st.pending.insert((origin, req), work);
    }

    /// Submit the routed data lookup answering `pat` for `track`;
    /// `false` when the pattern has no routable constant.
    fn submit_data(
        &mut self,
        st: &mut WanDrive,
        track: usize,
        pat: TriplePattern,
        initial: bool,
    ) -> bool {
        let Some((_, term)) = pat.routing_constant() else {
            return false;
        };
        let key = self.keyspace().key_of(term.lexical());
        st.data_lookups += 1;
        let work = WanWork::Data {
            track,
            pat,
            key: key.clone(),
            initial,
        };
        self.submit_wan(st, track, key, work);
        true
    }

    /// Submit the fetch of the mapping list `hop` will be expanded with.
    fn submit_fetch(&mut self, st: &mut WanDrive, track: usize, hop: Hop) {
        st.mapping_fetches += 1;
        st.tracks[track].open_fetches += 1;
        let key = self.keyspace().key_of(hop.schema.as_str());
        self.submit_wan(st, track, key, WanWork::Schema { track, hop });
    }

    /// Open the track disseminating `pat` for plan `query`. `root` is
    /// the schema (and attribute) its closure walks out of — `None`
    /// for a plain lookup.
    ///
    /// Cold, the track answers in the pattern's own vocabulary and,
    /// within the TTL, starts discovering mappings; every later send
    /// happens in [`Deployment::handle_wan_completion`]. Warm — the
    /// origin's cache holds the closure — it replays the recorded hops:
    /// data lookups only, zero mapping fetches.
    fn open_track(
        &mut self,
        st: &mut WanDrive,
        query: usize,
        origin: usize,
        pat: &TriplePattern,
        root: Option<(SchemaId, String)>,
        options: &WanBatchOptions,
    ) {
        let track = st.tracks.len();
        st.tracks.push(WanTrack {
            query,
            origin,
            ..WanTrack::default()
        });
        let closure = root.and_then(|(schema, attr)| {
            st.tracks[track].visited.insert(schema.clone());
            (options.ttl > 0).then_some(ClosureKey {
                schema,
                attr,
                ttl: options.ttl,
            })
        });
        // Limited batches bypass the cache: a warm replay submits every
        // recorded hop's data lookup up front, which would defeat the
        // limit's strictly-fewer-messages guarantee (the cold walk
        // stops expanding at k distinct answers).
        let cached = match &closure {
            Some(key) if options.limit.is_none() => {
                self.caches[origin].lookup(self.mediation_epoch, key)
            }
            _ => None,
        };
        if let Some((hops, ())) = cached {
            st.cache_hits += 1;
            for hop in hops.iter() {
                st.tracks[track].visited.insert(hop.schema.clone());
                self.submit_data(st, track, hop.replay(pat), hop.depth == 0);
            }
            return;
        }
        if !self.submit_data(st, track, pat.clone(), true) {
            st.unroutable += 1;
        }
        if let Some(key) = closure {
            let root = Hop::origin(key.schema.clone(), pat.clone());
            st.tracks[track].recording = Some((key, vec![CachedHop::record(&root)]));
            self.submit_fetch(st, track, root);
        }
    }

    /// Drive a batch of logical [`QueryPlan`]s over the event-driven
    /// deployment — **the** WAN query loop — streaming every matched
    /// partial result to `sink` at its actual simulated completion
    /// instant.
    ///
    /// Each plan submits from a uniformly random origin (optionally on a
    /// Poisson arrival process) as a list of tracks
    /// (`open_track`): pattern plans are one plain
    /// lookup; closure plans one track that chases reformulations
    /// (iterative strategy, §4) up to the TTL; join plans one such track
    /// per pattern, joined locally at the origin once the batch drains.
    ///
    /// The network is pumped one event at a time and every completion
    /// is processed when it *happens*: a reformulated lookup goes out
    /// the moment the mapping fetch that revealed it lands, so chains
    /// overlap in flight — across queries and within one query — and a
    /// query's reported latency is the real simulated span from its
    /// submission to its last matched data reply (for joins, over all
    /// patterns' chains).
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
        let mut st = WanDrive::default();
        let mut submit_at = SimTime::ZERO;

        // ---- Submission phase -------------------------------------
        // Interleaved with pumping: while the arrival process advances
        // the clock to the next submission instant, in-flight chains
        // keep completing (and expanding) underneath.
        for (qi, plan) in plans.iter().enumerate() {
            let origin = self.rng.gen_range(0..self.config.peers);
            // Whether this plan will issue any request (skipped shapes
            // never advance the arrival process). Decided before any
            // track opens, so the clock — and with it the closure-cache
            // lookup — can be advanced to the query's actual arrival
            // instant first: closures committed by completions landing
            // before the arrival must be visible.
            let will_submit = match plan {
                QueryPlan::Pattern { query } => query.pattern.routing_constant().is_some(),
                QueryPlan::ObjectPrefix { .. } => false,
                // A schema'd predicate is a constant URI, so closure
                // plans with a schema always route at least depth 0.
                QueryPlan::Closure { query } => query_schema(query).is_ok(),
                QueryPlan::Join { query, .. } => query.patterns.iter().any(|p| {
                    p.routing_constant().is_some() || (ttl > 0 && pattern_schema(p).is_ok())
                }),
            };
            if let (true, Some(rate)) = (will_submit, rate) {
                // Pump the simulation to the submission instant —
                // completions landing before it are processed at their
                // own times — then inject the query.
                let gap = rng::exponential(&mut self.rng, rate);
                submit_at += SimDuration::from_secs_f64(gap);
                let deadline = start + (submit_at - SimTime::ZERO);
                self.pump_wan(Some(deadline), &mut st, plans, options, sink);
            }
            let first = st.tracks.len();
            let in_flight = st.pending.len();
            match plan {
                QueryPlan::Pattern { query } if will_submit => {
                    self.open_track(&mut st, qi, origin, &query.pattern, None, options);
                }
                QueryPlan::Closure { query } if will_submit => {
                    let root = query_schema(query).ok();
                    self.open_track(&mut st, qi, origin, &query.pattern, root, options);
                }
                QueryPlan::Join { query, .. } => {
                    for pat in &query.patterns {
                        let root = (ttl > 0).then(|| pattern_schema(pat).ok()).flatten();
                        self.open_track(&mut st, qi, origin, pat, root, options);
                    }
                }
                // Not disseminated: an unroutable lookup, a closure
                // whose predicate names no schema, a prefix sweep (the
                // asynchronous protocol has no range retrieve).
                _ => st.skipped += 1,
            }
            debug_assert_eq!(
                will_submit,
                st.pending.len() > in_flight,
                "arrival-process advancement must match actual submission"
            );
            st.queries.push(WanQuery {
                submitted_at: self.net.now(),
                tracks: first..st.tracks.len(),
            });
            if will_submit {
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
        for (plan, q) in plans.iter().zip(&st.queries) {
            let tracks = &st.tracks[q.tracks.clone()];
            if tracks.is_empty() {
                continue; // skipped
            }
            let mut latest = q.submitted_at;
            let mut fold_in = |track: &WanTrack| {
                schema_sum += track.visited.len();
                if let Some(m) = track.matched_at {
                    latest = latest.max(m);
                }
            };
            let solutions = match plan {
                // Join locally at the origin: fold the tracks' binding
                // sets through the hash-join engine and project, as
                // `SessionCore::step_join_independent` folds its sweeps.
                QueryPlan::Join { query, .. } => {
                    let vars = VarTable::from_patterns(&query.patterns);
                    let mut interner = TermInterner::new();
                    let mut rows = vec![vars.empty_row()];
                    for track in tracks {
                        fold_in(track);
                        let set: Vec<Vec<u64>> = track
                            .bindings
                            .iter()
                            .map(|b| {
                                let mut row = vars.empty_row();
                                for (var, term) in b.iter() {
                                    let slot = vars.slot(var).expect("a pattern's own variable");
                                    row[slot] = interner.code_of(term.clone());
                                }
                                row
                            })
                            .collect();
                        rows = hash_join_rows(&rows, &set);
                        if rows.is_empty() {
                            break;
                        }
                    }
                    let slots: Vec<usize> = (query.distinguished.iter())
                        .filter_map(|d| vars.slot(d))
                        .collect();
                    let distinct: BTreeSet<Vec<u64>> = rows
                        .iter()
                        .map(|row| slots.iter().map(|&s| row[s]).collect())
                        .collect();
                    distinct.len()
                }
                // A single-pattern plan is the one-track join, whose
                // fold is the identity: nothing is encoded for it.
                _ => {
                    fold_in(&tracks[0]);
                    tracks[0].bindings.len()
                }
            };
            let join = matches!(plan, QueryPlan::Join { .. });
            if solutions > 0 {
                answered += 1;
                latencies.record_duration(latest.saturating_since(q.submitted_at));
                if join {
                    rows_sum += solutions;
                } else if let Some(h) = tracks[0].hops {
                    hops_sum += h as u64;
                    hopped += 1;
                }
            } else if !join && !tracks[0].timed_out {
                not_found += 1;
            }
        }

        let submitted = plans.len() - st.skipped;
        let mean = |sum: f64, n: usize| if n > 0 { sum / n as f64 } else { 0.0 };
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
            mean_hops: mean(hops_sum as f64, hopped),
            mean_schemas: mean(schema_sum as f64, submitted),
            mean_rows: mean(rows_sum as f64, answered),
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
        let index = match &work {
            WanWork::Data { track, .. } | WanWork::Schema { track, .. } => *track,
        };
        let track = &mut st.tracks[index];
        if matches!(work, WanWork::Schema { .. }) {
            track.open_fetches -= 1;
        }
        if o.status == Status::TimedOut {
            // (A lost discovery leaves the expansion incomplete: the
            // flag also keeps the walk from ever being recorded.)
            st.timed_out += 1;
            track.timed_out = true;
            return;
        }
        match work {
            WanWork::Data {
                pat, key, initial, ..
            } => {
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
                    // Only a limited closure plan reads the distinct
                    // count; everything else skips its cost.
                    if let (Some(_), QueryPlan::Closure { query }) =
                        (options.limit, &plans[track.query])
                    {
                        let answers = fresh.iter().filter_map(|b| b.get(&query.distinguished));
                        track.distinct.extend(answers.cloned());
                    }
                    track.matched_at = Some(track.matched_at.map_or(now, |m| m.max(now)));
                    sink(WanPartial {
                        query: track.query,
                        at: now,
                        bindings: fresh,
                    });
                }
                if initial {
                    track.hops = Some(o.hops);
                }
            }
            WanWork::Schema { hop, .. } => {
                // Early termination: a closure query that has already
                // collected its result cap stops expanding — the
                // reformulated lookups and deeper mapping fetches below
                // are never sent, and the truncated walk records
                // nothing.
                if matches!(plans[track.query], QueryPlan::Closure { .. })
                    && options.limit.is_some_and(|k| track.distinct.len() >= k)
                {
                    track.limited = true;
                    return;
                }
                // The mappings stored at this schema's key space came
                // back inside the reply. Each hop the shared step
                // admits is sent at once: its data lookup and, within
                // the TTL, the fetch that will expand it in turn.
                let origin = track.origin;
                let mut visited = std::mem::take(&mut track.visited);
                let mappings = o.values.iter().filter_map(|item| match item {
                    MediationItem::Mapping { mapping, .. } => Some(mapping),
                    _ => None,
                });
                expand_hop(&hop, mappings, &mut visited, |reached, _, _| {
                    if let Some((_, hops)) = &mut st.tracks[index].recording {
                        hops.push(CachedHop::record(&reached));
                    }
                    self.submit_data(st, index, reached.pattern.clone(), false);
                    if reached.depth < options.ttl {
                        self.submit_fetch(st, index, reached);
                    }
                });
                // Expansion complete and untruncated: memoize the hop
                // list in the origin's bounded cache for the next track
                // sharing this key. (`recording` empties on commit, so
                // re-entrant completion handling cannot commit twice.)
                let track = &mut st.tracks[index];
                track.visited = visited;
                if track.open_fetches == 0 && !track.timed_out && !track.limited {
                    if let Some((key, hops)) = track.recording.take() {
                        self.caches[origin].insert(self.mediation_epoch, key, hops, ());
                    }
                }
                // Follow-ups whose origin answered locally completed
                // during submission: drain them at this same instant.
                self.drain_wan_node(origin, st, plans, options, sink);
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvine_workload::{QueryConfig, QueryGenerator, Workload, WorkloadConfig};

    /// 48 machines holding a small workload; `chained` also preloads
    /// the schemas and the manual mapping chain across them.
    fn deployment(
        seed: u64,
        chained: bool,
        closure_cache_capacity: usize,
    ) -> (Deployment, Workload) {
        let w = Workload::generate(WorkloadConfig::small(seed));
        let cfg = DeploymentConfig {
            peers: 48,
            // Homogeneous machines: unit tests should not depend on the
            // heavy-tailed 2007 calibration.
            network: gridvine_netsim::NetworkConfig::planetlab(),
            closure_cache_capacity,
            ..DeploymentConfig::paper(seed)
        };
        let mut d = Deployment::new(cfg);
        let triples: Vec<Triple> = w.all_triples().into_iter().map(|(_, t)| t).collect();
        d.preload(triples);
        if chained {
            d.preload_mediation(w.schemas.clone(), w.chain_mappings().iter());
        }
        (d, w)
    }

    fn small_deployment(seed: u64) -> (Deployment, Workload) {
        deployment(seed, false, 64)
    }

    fn chained_deployment(seed: u64) -> (Deployment, Workload) {
        deployment(seed, true, 64)
    }

    /// The whole batch submitted at time zero, unlimited.
    fn at_once(ttl: usize) -> WanBatchOptions {
        WanBatchOptions {
            ttl,
            mean_interarrival: None,
            limit: None,
        }
    }

    fn searches(queries: &[TriplePatternQuery]) -> Vec<QueryPlan> {
        queries.iter().cloned().map(QueryPlan::search).collect()
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

    #[test]
    fn reformulated_queries_reach_other_schemas_over_the_wire() {
        let (mut d, w) = chained_deployment(6);
        let gen = QueryGenerator::new(&w, QueryConfig::default());
        let fig2 = gen.figure2();
        let report = d.run_plans(&searches(std::slice::from_ref(&fig2.query)), &at_once(10));
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
            let (mut d, w) = deployment(6, true, capacity);
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
            let (mut d, w) = deployment(6, true, capacity);
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
        let reformulated = d.run_plans(&searches(&queries), &at_once(10));
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
        let report = d.run_plans(&searches(std::slice::from_ref(&fig2.query)), &at_once(0));
        assert_eq!(report.mapping_fetches, 0);
        assert_eq!(report.data_lookups, 1);
        assert!(report.mean_schemas <= 1.0);
    }

    #[test]
    fn conjunctive_queries_join_over_the_wire() {
        let (mut d, w) = chained_deployment(10);
        let gen = QueryGenerator::new(&w, QueryConfig::default());
        let mut r = rng::seeded(5);
        let plans: Vec<QueryPlan> = gen
            .conjunctive_batch(12, &mut r)
            .into_iter()
            .map(|g| QueryPlan::conjunctive(g.query))
            .collect();
        let rep = d.run_plans(&plans, &at_once(6));
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
        for m in w.chain_mappings() {
            sys.insert_mapping(
                p0,
                m.source,
                m.target,
                m.kind,
                m.provenance,
                m.correspondences,
            )
            .unwrap();
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
        let wan = d.run_plans(&[QueryPlan::conjunctive(g.query.clone())], &at_once(10));
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
            let rep = d.run_plans(&searches(&queries), &at_once(6));
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
