//! The synchronous GridVine system: the full PDMS over the logical
//! overlay, with exact message accounting.
//!
//! [`GridVineSystem`] wires the three layers together (Figure 1): a
//! P-Grid [`Overlay`] at the overlay layer, [`MediationItem`]s in the
//! peers' stores, and the mediation-layer operations of §2.2–§3 —
//! `Update(data | schema | mapping | connectivity)` and
//! `SearchFor(query)` with iterative or recursive reformulation.
//!
//! Every operation is executed as hop-by-hop routing over peer-local
//! views — or, for a request under a trie leaf whose answering peer
//! the issuer learned from an earlier reply, as one direct message to
//! that peer — so the message counts are those of the distributed
//! protocol. Latency is simulated: this engine charges it on its own
//! clock ([`GridVineConfig::latency`]), the lookup driver in
//! [`crate::harness`] on the netsim event clock.

use crate::item::{KeySpace, MediationItem, TripleStage};
use gridvine_netsim::churn::{ChurnEvent, ChurnKind};
use gridvine_netsim::{EventQueue, LatencyConfig, LatencyModel, NodeId, SimDuration, SimTime};
use gridvine_pgrid::{
    BitString, HashKind, KeyHasher, Overlay, PeerId, RouteError, Topology, UpdateOp,
};
use gridvine_rdf::fasthash::FxHashMap;
use gridvine_rdf::{Term, TermDict, Triple, TriplePatternQuery, TripleStore};
use gridvine_semantic::{
    apply_quarantine, assess, BayesConfig, Correspondence, DegreeRecord, Mapping, MappingId,
    MappingKind, MappingRegistry, MappingStatus, Provenance, Schema, SchemaId,
};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

// Child modules so conjunctive evaluation and the plan executor can
// reuse the system's private overlay/rng state without widening the
// public surface.
pub mod conjunctive;
pub mod exec;
pub mod pool;
pub mod sched;
pub mod session;

/// System-wide configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridVineConfig {
    /// Number of peers in the overlay.
    pub peers: usize,
    /// Routing references per level.
    pub refs_per_level: usize,
    /// Overlay key depth in bits.
    pub key_depth: usize,
    /// Which hash maps lexical values to keys.
    pub hash: HashKind,
    /// Reformulation TTL (mapping applications per query).
    pub ttl: usize,
    /// Application domain name (the `Hash(Domain)` aggregation point).
    pub domain: String,
    /// Capacity of each peer's bounded LRU reformulation-closure cache
    /// (see [`sched`](self) and `gridvine_semantic::ClosureCache`): at
    /// most this many fully-expanded closures are retained per peer,
    /// least-recently-used evicted first. A closure is kept by the peer
    /// holding its origin schema's mapping list. Zero disables caching.
    pub closure_cache_capacity: usize,
    /// Latency model of the session scheduler's subquery/reply
    /// exchanges ([`gridvine_netsim::latency`]): with a non-flat model
    /// a unit's latency is `PROCESSING` plus one origin→destination
    /// sample per overlay message it charged, so heterogeneous WAN
    /// distributions shape the clock (and the latency CDF under load)
    /// without touching the logical accounting. The default
    /// [`LatencyConfig::Flat`] keeps the classic
    /// `PROCESSING + messages × PER_MESSAGE` formula, builds no model
    /// and consumes no randomness — bit-identical to the pre-latency
    /// scheduler.
    #[serde(default)]
    pub latency: LatencyConfig,
    /// RNG seed.
    pub seed: u64,
}

impl Default for GridVineConfig {
    fn default() -> Self {
        GridVineConfig {
            peers: 64,
            refs_per_level: 2,
            key_depth: 24,
            hash: HashKind::OrderPreserving,
            ttl: 10,
            domain: "protein-sequences".to_string(),
            closure_cache_capacity: 64,
            latency: LatencyConfig::Flat,
            seed: 0x6B1D,
        }
    }
}

/// State of the subquery request/response protocol: the active
/// session's retry budget, the unit being issued, and the deterministic
/// RNG stream driving backoff jitter — independent from the routing
/// RNG, so a timeout never perturbs route selection (and a run in
/// which no request times out draws nothing at all).
pub(crate) struct ProtocolState {
    /// Retransmit budget of the active session's requests (set from
    /// [`exec::QueryOptions::max_retries`] at open).
    pub(crate) max_retries: usize,
    /// The instant the unit being issued is sent: its session's latest
    /// delivery, raised to its ready time before its first exchange and
    /// to the stamp of every write it reads
    /// ([`ProtocolState::floor`]). Its attempts meet churn from here.
    pub(crate) now: SimTime,
    /// Timeout/backoff delay accumulated by the unit being issued
    /// (reset per issue, folded into the unit's completion instant).
    pub(crate) delay: SimDuration,
    /// Destination of the unit currently being issued: the peer the
    /// last request of this unit went to (reset per issue). Non-flat
    /// latency models sample the origin→destination link for each of
    /// the unit's messages.
    pub(crate) unit_dest: Option<PeerId>,
    /// What the unit being issued writes for later units to read,
    /// applied once its completion instant is known
    /// ([`GridVineSystem::commit_writes`]; reset per issue).
    pub(crate) writes: Vec<sched::Write>,
    /// The latest stamp among the writes the unit being issued read,
    /// collected at the read sites, and the instant of its first
    /// attempt: what [`ProtocolState::check_send`] holds its send
    /// instant against.
    read: SimTime,
    first_attempt: Option<SimTime>,
    /// Running counters of the retry protocol — `requests`, `direct`,
    /// `sends`, `timeouts` and `retransmits`; every other field stays
    /// 0 — accumulated system-wide and diffed per unit into a
    /// session's [`exec::ExecStats`].
    pub(crate) counters: exec::ExecStats,
    rng: StdRng,
}

impl ProtocolState {
    fn new(config: &GridVineConfig) -> ProtocolState {
        ProtocolState {
            max_retries: exec::DEFAULT_MAX_RETRIES,
            now: SimTime::ZERO,
            delay: SimDuration::ZERO,
            unit_dest: None,
            writes: Vec::new(),
            read: SimTime::ZERO,
            first_attempt: None,
            counters: exec::ExecStats::default(),
            rng: gridvine_netsim::rng::derive(config.seed, 0xB0FF),
        }
    }

    /// Arm the protocol for the next unit, sent no earlier than `now`:
    /// no delay, destination or writes yet.
    pub(crate) fn begin_unit(&mut self, now: SimTime) {
        self.now = now;
        self.delay = SimDuration::ZERO;
        self.unit_dest = None;
        self.writes.clear();
        self.read = SimTime::ZERO;
        self.first_attempt = None;
    }

    /// The unit being issued is sent no earlier than `at`: its ready
    /// time, or the stamp of a write it reads.
    pub(crate) fn floor(&mut self, at: SimTime) {
        self.now = self.now.max(at);
    }

    /// The unit being issued read a write stamped `at`.
    pub(crate) fn note_read(&mut self, at: SimTime) {
        self.read = self.read.max(at);
    }

    /// Debug builds: check the causality of the unit just issued, while
    /// the system clock reads `clock` — it is sent no earlier than the
    /// clock and than every stamp it read, and no later than any of its
    /// attempts.
    pub(crate) fn check_send(&self, clock: SimTime) {
        let (send, read) = (self.now, self.read);
        debug_assert!(
            send >= clock,
            "unit sent at {send:?}, before now() {clock:?}"
        );
        debug_assert!(
            send >= read,
            "unit sent at {send:?}, before a stamp {read:?} it read"
        );
        debug_assert!(
            self.first_attempt.is_none_or(|a| send <= a),
            "unit sent at {send:?}, after its first attempt at {:?}",
            self.first_attempt
        );
    }

    /// Backoff delay charged after the timeout of attempt `attempt`
    /// (0-based): `RETRY_TIMEOUT << attempt` plus jitter up to half
    /// that.
    fn backoff(&mut self, attempt: usize) -> SimDuration {
        let base = sched::RETRY_TIMEOUT.0 << attempt.min(10);
        SimDuration(base + self.rng.gen_range(0..=base / 2))
    }
}

/// How a query is disseminated through the mapping network (§4: "In
/// reformulating queries, we support two approaches: iterative, where a
/// peer iteratively looks for paths of mappings and reformulates the
/// query by itself, and recursive, where the successive reformulations
/// are delegated to intermediate peers").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Strategy {
    Iterative,
    Recursive,
}

/// Errors surfaced by mediation-layer operations.
#[derive(Debug, Clone, PartialEq)]
pub enum SystemError {
    Route(RouteError),
    /// The query has no routable constant (§2.3 requires one).
    NotRoutable,
    /// The query predicate does not name a schema.
    NoQuerySchema,
    /// The routed destination peer is crashed: the request was sent
    /// (and charged) but no response will ever come back.
    PeerDown(PeerId),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Route(e) => write!(f, "routing failed: {e}"),
            SystemError::NotRoutable => write!(f, "query has no routable constant term"),
            SystemError::NoQuerySchema => write!(f, "query predicate does not name a schema"),
            SystemError::PeerDown(p) => write!(f, "destination peer {p} is down"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<RouteError> for SystemError {
    fn from(e: RouteError) -> SystemError {
        SystemError::Route(e)
    }
}

/// What one [`GridVineSystem::assessment_pass`] did.
#[derive(Debug, Clone, Default)]
pub struct AssessmentReport {
    /// Mapping cycles found and probed (one probe each).
    pub cycles_probed: usize,
    /// Mappings left quarantined by this pass (fresh quarantines and
    /// re-confirmed paroles alike).
    pub quarantined: Vec<MappingId>,
    /// Previously quarantined mappings the cycle evidence cleared:
    /// paroled into this assessment and left active.
    pub reactivated: Vec<MappingId>,
    /// The pass's charged work: probe messages/requests/latency plus
    /// the DHT refreshes of changed mappings
    /// (`assessment_probes` / `quarantined_mappings` included).
    pub stats: exec::ExecStats,
    /// Simulated time the pass advanced the system clock by.
    pub elapsed: SimDuration,
}

/// What one [`GridVineSystem::recover_mapping_commits`] scan repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitRecovery {
    /// Missing DHT copies re-inserted for live registry mappings.
    pub repaired_copies: usize,
    /// Orphaned DHT copies (retracted registry entries) deleted.
    pub orphans_removed: usize,
}

/// The synchronous GridVine PDMS.
pub struct GridVineSystem {
    config: GridVineConfig,
    hasher: Box<dyn KeyHasher + Send + Sync>,
    topology: Topology,
    pub(crate) overlay: Overlay<MediationItem>,
    /// Per-peer local triple databases `DB_p` (§2.2): every peer
    /// responsible for one of a triple's keys indexes it here, and
    /// destination-side resolution evaluates these indexed stores
    /// instead of scanning (and cloning) the overlay's key buckets.
    ///
    /// This is the **only** triple storage: overlay buckets hold no
    /// `MediationItem::Triple` copies (they keep schemas, mappings and
    /// connectivity records). Triple placement still routes through the
    /// overlay and is charged: one update tree per insert call
    /// ([`Overlay::route_updates`]); the self-organization matcher
    /// reads these stores too, so per-peer triple memory is paid once.
    local_dbs: Vec<TripleStore>,
    /// The string pool every triple is canonicalized through before it
    /// is staged ([`TermDict::canonical_triple`]): each distinct lexical
    /// is stored once no matter how many peers' `DB_p`s hold triples
    /// mentioning it.
    lexicon: TermDict,
    /// The logical mediation state: schemas and mappings as stored in
    /// the DHT (kept in lock-step with the DHT copies by the insert /
    /// deprecate operations below).
    registry: MappingRegistry,
    /// The one simulated clock (see [`sched`]): the instant of the
    /// latest reply delivered. Never goes backwards.
    now: SimTime,
    /// The replies of every in-flight unit, earliest first, ties in
    /// schedule order.
    pub(crate) replies: EventQueue<sched::QueuedReply>,
    /// Per-peer execution state: the peer's bounded LRU
    /// reformulation-closure cache and its learned leaves (see
    /// [`sched`]). A closure is cached at the peer holding its origin
    /// schema's mapping list, for every origin and both strategies.
    exec: Vec<sched::PeerExecState>,
    /// Peers currently crashed by failure injection: routed requests
    /// whose destination is down are charged but never answered
    /// ([`SystemError::PeerDown`]).
    pub(crate) crashed: BTreeSet<PeerId>,
    /// Request/retry protocol state (fault rates, retry budget,
    /// counters, its own RNG stream) — see [`sched`].
    pub(crate) proto: ProtocolState,
    /// Per-peer churn timelines installed by
    /// [`GridVineSystem::install_churn`]: sorted `(instant, down)`
    /// transitions; empty timelines mean always up.
    churn: Vec<Vec<(SimTime, bool)>>,
    /// One-shot failure-injection hook armed by
    /// [`GridVineSystem::arm_commit_crash`]: the named peer is crashed
    /// *between* the key-space writes of the next mapping commit,
    /// exercising the atomic-commit rollback path.
    commit_crash: Option<PeerId>,
    /// The scheduler's latency model ([`GridVineConfig::latency`]),
    /// built once at construction with its own derived seed. `None`
    /// under the flat default — [`GridVineSystem::unit_delay`] then
    /// uses the classic per-message formula and draws nothing.
    latency: Option<Box<dyn LatencyModel>>,
    /// Monotone session-id allocator shared by standalone sessions and
    /// pools (ids stay unique when both run against one system).
    next_session: u64,
    pub(crate) rng: StdRng,
    /// The update trees' reference draws
    /// ([`GridVineSystem::insert_triples`]), apart from the routing
    /// stream, so what queries draw does not depend on how much was
    /// inserted or how it was cut into calls.
    update_rng: StdRng,
}

impl GridVineSystem {
    /// Build a system with a balanced overlay.
    pub fn new(config: GridVineConfig) -> GridVineSystem {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let topology = Topology::balanced(config.peers, config.refs_per_level, &mut rng);
        debug_assert!(topology.validate().is_ok());
        // The routing stream continues where topology construction
        // left it.
        GridVineSystem::assemble(config, topology, rng)
    }

    /// Build over an explicit topology (e.g. one with routing holes,
    /// as the failure-injection tests build).
    pub fn with_topology(config: GridVineConfig, topology: Topology) -> GridVineSystem {
        let rng = StdRng::seed_from_u64(config.seed);
        GridVineSystem::assemble(config, topology, rng)
    }

    fn assemble(config: GridVineConfig, topology: Topology, rng: StdRng) -> GridVineSystem {
        let overlay = Overlay::new(&topology);
        GridVineSystem {
            hasher: config.hash.build(),
            local_dbs: (0..topology.len()).map(|_| TripleStore::new()).collect(),
            lexicon: TermDict::new(),
            now: SimTime::ZERO,
            replies: EventQueue::new(),
            exec: (0..topology.len())
                .map(|_| sched::PeerExecState::new(config.closure_cache_capacity))
                .collect(),
            crashed: BTreeSet::new(),
            proto: ProtocolState::new(&config),
            churn: vec![Vec::new(); topology.len()],
            commit_crash: None,
            latency: config
                .latency
                .build(gridvine_netsim::rng::derive_seed(config.seed, 0x1A7E)),
            next_session: 0,
            topology,
            overlay,
            registry: MappingRegistry::new(),
            rng,
            update_rng: gridvine_netsim::rng::derive(config.seed, 0x7EE5),
            config,
        }
    }

    pub fn config(&self) -> &GridVineConfig {
        &self.config
    }

    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    pub fn overlay(&self) -> &Overlay<MediationItem> {
        &self.overlay
    }

    /// The logical mediation state (schemas + mappings).
    pub fn registry(&self) -> &MappingRegistry {
        &self.registry
    }

    /// Number of memoized reformulation closures currently valid for
    /// the registry's epoch, summed over every peer's cache (0 right
    /// after any mapping mutation — a stale cache counts as empty even
    /// before its lazy clear).
    pub fn cached_closures(&self) -> usize {
        let epoch = self.registry.epoch();
        self.exec.iter().map(|e| e.cache.coherent_len(epoch)).sum()
    }

    /// Lifetime closure-cache hit/miss/eviction counters, summed over
    /// every peer's cache.
    pub fn cache_counters(&self) -> gridvine_semantic::CacheCounters {
        let mut total = gridvine_semantic::CacheCounters::default();
        for e in &self.exec {
            let c = e.cache.counters();
            total.hits += c.hits;
            total.misses += c.misses;
            total.evictions += c.evictions;
        }
        total
    }

    /// The peer `issuer` would send a request for `key` to directly,
    /// without routing: the one that answered for the trie path covering
    /// `key` in an earlier reply to `issuer`, if any (see the
    /// [`exec`] module docs). Updates never fill it.
    pub fn learned_address(&self, issuer: PeerId, key: &BitString) -> Option<PeerId> {
        let (peer, _) = self.exec[issuer.index()].leaves.lookup(key)?;
        Some(peer)
    }

    /// The system's simulated clock: the instant of the latest reply it
    /// delivered (see [`sched`]). Never goes backwards.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Scheduled-but-undelivered replies on the reply queue. Non-zero
    /// only while a session holds subqueries in flight; dropping a
    /// session cancels its queued events, so this returns to zero.
    pub fn pending_events(&self) -> usize {
        self.replies.len()
    }

    /// Failure injection: crash a peer. Requests routed *to* it are
    /// charged but never answered ([`SystemError::PeerDown`]); closure
    /// walks record the failure in `ExecStats::failures` and continue.
    /// Routing *through* a crashed peer is not modeled — the overlay's
    /// reference structure stands in for the live peers a real P-Grid
    /// would fail over to.
    pub fn crash_peer(&mut self, peer: PeerId) {
        self.crashed.insert(peer);
    }

    /// Bring a crashed peer back.
    pub fn recover_peer(&mut self, peer: PeerId) {
        self.crashed.remove(&peer);
    }

    /// Install a pre-generated churn schedule
    /// ([`gridvine_netsim::churn`]) on the query path: a peer whose
    /// timeline marks it down at a request's attempt instant behaves
    /// like a crashed destination for that attempt — the request times
    /// out and is retransmitted with backoff — and serves again once
    /// its recovery instant passes, so a retrying unit survives a
    /// mid-flight failure. Node indexes map to peer indexes; events
    /// for out-of-range nodes are ignored. Replaces any previously
    /// installed schedule.
    pub fn install_churn(&mut self, events: &[ChurnEvent]) {
        for timeline in &mut self.churn {
            timeline.clear();
        }
        for ev in events {
            if let Some(timeline) = self.churn.get_mut(ev.node.index()) {
                timeline.push((ev.at, matches!(ev.kind, ChurnKind::Fail)));
            }
        }
        for timeline in &mut self.churn {
            timeline.sort_by_key(|&(at, _)| at);
        }
    }

    /// Whether the installed churn schedule has `peer` down at `at`
    /// (down iff the latest transition at or before `at` is a
    /// failure; peers start up).
    fn churn_down_at(&self, peer: PeerId, at: SimTime) -> bool {
        let timeline = &self.churn[peer.index()];
        let i = timeline.partition_point(|&(ev_at, _)| ev_at <= at);
        i > 0 && timeline[i - 1].1
    }

    /// One request/response exchange from `from` about `key`, through
    /// the retry protocol ([`GridVineSystem::proto_request`]): the
    /// exchange every data request, mapping discovery, prefix probe and
    /// cycle probe is. Returns the peer that answered.
    ///
    /// * `from`'s own path covers `key`: the exchange is local — no
    ///   message, so no churn or crash can reach it.
    /// * A path `from` learned covers `key`: one direct message to the
    ///   peer that answered for it, plus the response when `respond`.
    ///   The unit is sent no earlier than the instant `from` learned it
    ///   ([`ProtocolState::floor`]), which is also when its attempts
    ///   meet churn. Counted in `direct`. If that peer
    ///   is crashed, or the retries run out against it, `from` forgets
    ///   the path and the same request is routed, both attempts charged
    ///   — a learned address never costs an answer routing would find.
    /// * Otherwise it is routed hop by hop: one message per forwarding
    ///   edge, plus the response when `respond`.
    ///
    /// Every peer on a path holds the same copies, so which peer of it
    /// answers changes no reply. When a reply comes back, `from` learns
    /// the responder's path, which the reply carries, once the unit's
    /// completion instant is known ([`GridVineSystem::commit_writes`]).
    /// `respond` is false only for a recursive discovery, which the
    /// holder carries on instead of answering: no reply, so nothing is
    /// learned.
    pub(crate) fn exchange(
        &mut self,
        from: PeerId,
        key: &BitString,
        respond: bool,
    ) -> Result<PeerId, SystemError> {
        if self.overlay.view(from).is_responsible(key) {
            self.proto_request(from, from)?;
            return Ok(from);
        }
        if let Some((peer, learned_at)) = self.exec[from.index()].leaves.lookup(key) {
            self.proto.counters.direct += 1;
            self.proto.note_read(learned_at);
            // Churn sees the instant the request leaves.
            self.proto.floor(learned_at);
            self.overlay
                .charge_direct(from, peer, 1 + u64::from(respond));
            match self.proto_request(from, peer) {
                Ok(()) => {
                    if respond {
                        self.proto.writes.push(sched::Write::Leaf(from, peer));
                    }
                    return Ok(peer);
                }
                Err(SystemError::PeerDown(_)) => self.exec[from.index()].leaves.forget(key),
                Err(e) => return Err(e),
            }
        }
        let dest = self.overlay.route(from, key, &mut self.rng)?.destination;
        if respond {
            self.overlay.charge_response(from, dest);
        }
        // The request (and the response charge) went out; the retry
        // protocol decides whether a reply ever comes back.
        self.proto_request(from, dest)?;
        if respond {
            self.proto.writes.push(sched::Write::Leaf(from, dest));
        }
        Ok(dest)
    }

    /// Apply what the unit just issued writes for later units to read,
    /// stamped with `at`, its completion instant: each issuer learns
    /// the path of the peer that answered it, and a closure its walk
    /// finished is memoized. Returns the cache entries that displaced.
    pub(crate) fn commit_writes(&mut self, at: SimTime) -> usize {
        let mut evictions = 0;
        for write in std::mem::take(&mut self.proto.writes) {
            match write {
                sched::Write::Leaf(issuer, peer) => {
                    let path = &self.overlay.view(peer).path;
                    self.exec[issuer.index()].leaves.learn(path, peer, at);
                }
                sched::Write::Closure { peer, key, hops } => {
                    let epoch = self.registry.epoch();
                    let cache = &mut self.exec[peer.index()].cache;
                    let before = cache.counters().evictions;
                    cache.insert(epoch, key, hops, at);
                    evictions += (cache.counters().evictions - before) as usize;
                }
            }
        }
        evictions
    }

    /// Drive one logical request/response exchange with `dest` through
    /// the timeout–retry–backoff protocol (see the [`sched`] module
    /// docs). Its messages are charged by the caller; this decides
    /// whether — and after how much retry delay — a reply arrives.
    ///
    /// A local exchange (`dest == from`) is answered at once: it sends
    /// nothing, so no churn or crash can reach it. A destination held
    /// down by [`GridVineSystem::crash_peer`] fails immediately
    /// (retransmitting to a peer that failure injection keeps down
    /// forever cannot help, and no backoff draw is consumed). A
    /// churn-down destination times out per attempt — each timeout
    /// draws its backoff jitter — and succeeds on the first attempt
    /// scheduled after its recovery.
    /// Exhausting the retry budget surfaces as
    /// [`SystemError::PeerDown`] — the same recorded failure the
    /// closure walks already survive.
    pub(crate) fn proto_request(&mut self, from: PeerId, dest: PeerId) -> Result<(), SystemError> {
        self.proto.counters.requests += 1;
        self.proto.counters.sends += 1;
        self.proto.unit_dest = Some(dest);
        if dest == from {
            return Ok(());
        }
        if self.crashed.contains(&dest) {
            return Err(SystemError::PeerDown(dest));
        }
        for attempt in 0..=self.proto.max_retries {
            if attempt > 0 {
                self.proto.counters.sends += 1;
                self.proto.counters.retransmits += 1;
            }
            let at = self.proto.now + self.proto.delay;
            self.proto.first_attempt.get_or_insert(at);
            if !self.churn_down_at(dest, at) {
                return Ok(());
            }
            self.proto.counters.timeouts += 1;
            let backoff = self.proto.backoff(attempt);
            self.proto.delay += backoff;
        }
        Err(SystemError::PeerDown(dest))
    }

    /// Allocate the next session id (see [`pool::SessionId`]): unique
    /// for the system's lifetime, shared by standalone sessions and
    /// pools.
    pub(crate) fn alloc_session_id(&mut self) -> pool::SessionId {
        let id = pool::SessionId(self.next_session);
        self.next_session += 1;
        id
    }

    /// Simulated latency of one issued unit that charged `messages`
    /// overlay messages from `origin`.
    ///
    /// Flat (default) config: the classic deterministic
    /// `PROCESSING + messages × PER_MESSAGE` formula. With a model from
    /// [`GridVineConfig::latency`]: `PROCESSING` plus one sampled
    /// origin→destination delay per message, where the destination is
    /// the peer the unit's last request went to, routed or sent to a
    /// learned address (`ProtocolState::unit_dest`; local-only units
    /// fall back to the origin itself).
    pub(crate) fn unit_delay(&mut self, origin: PeerId, messages: u64) -> SimDuration {
        let Some(model) = self.latency.as_deref_mut() else {
            return sched::unit_latency(messages);
        };
        let dest = self.proto.unit_dest.unwrap_or(origin);
        let from = NodeId::from_index(origin.index());
        let to = NodeId::from_index(dest.index());
        let mut total = sched::PROCESSING;
        for _ in 0..messages {
            total += model.sample(from, to);
        }
        total
    }

    /// One peer's local triple database `DB_p`.
    pub fn peer_db(&self, peer: PeerId) -> &TripleStore {
        &self.local_dbs[peer.index()]
    }

    /// Total overlay messages since construction (or the last reset).
    pub fn messages_sent(&self) -> u64 {
        self.overlay.messages_sent()
    }

    pub fn reset_messages(&mut self) {
        self.overlay.reset_messages();
    }

    /// A uniformly random peer (for issuing operations "from anywhere").
    pub fn random_peer(&mut self) -> PeerId {
        PeerId::from_index(self.rng.gen_range(0..self.config.peers))
    }

    fn keyspace(&self) -> KeySpace<'_> {
        KeySpace::new(self.hasher.as_ref(), self.config.key_depth)
    }

    /// Overlay key of a lexical value.
    pub fn key_of(&self, lexical: &str) -> BitString {
        self.keyspace().key_of(lexical)
    }

    // -----------------------------------------------------------------
    // Update operations (§2.2, §3, §3.1)
    // -----------------------------------------------------------------

    /// `Update(t)` — index the triple under subject, predicate and
    /// object keys: [`GridVineSystem::insert_triples`] of one (an update
    /// tree of up to three keys), with the same contract.
    pub fn insert_triple(&mut self, origin: PeerId, t: Triple) -> Result<(), SystemError> {
        self.insert_triples(origin, [t]).map(|_| ())
    }

    /// `Update(t)` for each triple, from one origin; returns how many
    /// were placed.
    ///
    /// The call's keys travel as one update tree
    /// ([`Overlay::route_updates`]): each peer receives at most one
    /// message, so a call charges at most `peers - 1`. A route reads
    /// no more of a key than the deepest peer path, so the tree carries
    /// each distinct leaf prefix once; its reference draws come from
    /// their own stream, which leaves the routing stream to queries. No
    /// `MediationItem::Triple` enters an overlay bucket: every peer that
    /// receives a copy (each key's destination and its replicas)
    /// indexes it in its `DB_p`, which is what destination-side
    /// resolution evaluates. Each triple's lexicals are canonicalized
    /// through the shared lexicon first (all peer databases share one
    /// buffer per distinct string).
    ///
    /// The copies are staged in triple order and every touched `DB_p`
    /// is bulk-loaded once per call: each peer's rows and row ids are
    /// those of storing every copy as it arrives, however the corpus is
    /// cut into calls. Only the messages depend on the cut.
    ///
    /// A triple is placed under all three keys or under none. On `Err`
    /// at some triple — the first with a key the tree could not route —
    /// every earlier triple of the call is fully stored, that one and
    /// the later ones are stored nowhere they were not already (what
    /// the tree cost stays charged), and the error is that key's.
    pub fn insert_triples(
        &mut self,
        origin: PeerId,
        triples: impl IntoIterator<Item = Triple>,
    ) -> Result<usize, SystemError> {
        // The call's distinct leaf prefixes, and per triple the slots of
        // its three keys' prefixes among them. (Collecting the triples
        // alone reuses a `Vec` argument's buffer.)
        let depth = self.overlay.max_path_len();
        let mut prefixes: Vec<BitString> = Vec::new();
        let mut slot_of: FxHashMap<BitString, u32> = FxHashMap::default();
        let triples = triples.into_iter();
        let mut slots: Vec<[u32; 3]> = Vec::with_capacity(triples.size_hint().0);
        let triples: Vec<Triple> = triples
            .inspect(|t| {
                slots.push(self.keyspace().triple_keys(t).map(|key| {
                    let slot = u32::try_from(prefixes.len()).expect("fewer than 2^32 trie leaves");
                    *slot_of
                        .entry(key.prefix(depth.min(key.len())))
                        .or_insert_with_key(|prefix| {
                            prefixes.push(prefix.clone());
                            slot
                        })
                }));
            })
            .collect();
        let dests = self
            .overlay
            .route_updates(origin, &prefixes, &mut self.update_rng);
        let mut stage = TripleStage::default();
        let placed = triples.into_iter().zip(slots).try_fold(0, |n, (t, slots)| {
            // Every key routed, or the triple is stored nowhere.
            let [s, p, o] = slots.map(|slot| dests[slot as usize].clone());
            let holders = [s?, p?, o?];
            stage.push(
                self.lexicon.canonical_triple(&t),
                holders.iter().flat_map(|&dest| {
                    std::iter::once(dest).chain(self.overlay.view(dest).replicas.iter().copied())
                }),
            );
            Ok(n + 1)
        });
        stage.flush(&mut self.local_dbs);
        placed
    }

    /// `Update(Schema)` — store the definition at `Hash(Schema Name)`.
    pub fn insert_schema(&mut self, origin: PeerId, schema: Schema) -> Result<(), SystemError> {
        let key = self.keyspace().schema_key(&schema);
        self.overlay.update(
            origin,
            UpdateOp::Insert,
            key,
            MediationItem::Schema(schema.clone()),
            &mut self.rng,
        )?;
        self.registry.add_schema(schema);
        Ok(())
    }

    /// `Update(Schema Mapping)` — store at the source key space (and
    /// the target's, see [`KeySpace::mapping_keys`]).
    ///
    /// The commit is **atomic** across the mapping's key spaces: either
    /// every DHT copy is written and the registry keeps the entry, or —
    /// when any key-space write fails (its responsible peer is crashed,
    /// possibly mid-commit via [`GridVineSystem::arm_commit_crash`]) —
    /// the already-written copies are deleted, the registry entry is
    /// [retracted](MappingRegistry::retract) and `Err` is returned. A
    /// crash during commit can therefore never leave a mapping visible
    /// from one schema's key space but not the other's (the seed's
    /// one-way `mapping_keys` bug class); if even the rollback is cut
    /// short by the crash, [`GridVineSystem::recover_mapping_commits`]
    /// detects and repairs the half-committed item.
    pub fn insert_mapping(
        &mut self,
        origin: PeerId,
        source: impl Into<SchemaId>,
        target: impl Into<SchemaId>,
        kind: MappingKind,
        provenance: Provenance,
        correspondences: Vec<Correspondence>,
    ) -> Result<MappingId, SystemError> {
        let id = self
            .registry
            .add_mapping(source, target, kind, provenance, correspondences);
        let mapping = self.registry.mapping(id).expect("just added").clone();
        if let Err(e) = self.commit_mapping_copies(origin, &mapping) {
            self.registry.retract(id);
            return Err(e);
        }
        Ok(id)
    }

    /// Arm the one-shot commit-crash hook: the named peer is crashed
    /// between the key-space writes of the *next* multi-key mapping
    /// commit (failure injection for the atomic-commit tests; a real
    /// deployment's analogue is the committing peer failing mid-write).
    pub fn arm_commit_crash(&mut self, peer: PeerId) {
        self.commit_crash = Some(peer);
    }

    /// Store or delete one mediation-item copy. A write whose
    /// responsible destination peer is crashed fails with
    /// [`SystemError::PeerDown`] *before* any state lands — a down peer
    /// can never acknowledge the update (the failed attempt's wire cost
    /// is not modeled; the success path is bit-identical to a plain
    /// overlay update).
    fn mediation_update(
        &mut self,
        origin: PeerId,
        op: UpdateOp,
        key: BitString,
        item: MediationItem,
    ) -> Result<(), SystemError> {
        if let Some(&dest) = self.topology.responsible(&key).first() {
            if self.crashed.contains(&dest) {
                return Err(SystemError::PeerDown(dest));
            }
        }
        self.overlay.update(origin, op, key, item, &mut self.rng)?;
        Ok(())
    }

    /// Write all DHT copies of `mapping`, atomically: on any failed
    /// write the already-written copies are deleted (best effort — a
    /// rollback write to a crashed peer is skipped and left to the
    /// recovery scan) and the error is returned.
    fn commit_mapping_copies(
        &mut self,
        origin: PeerId,
        mapping: &Mapping,
    ) -> Result<(), SystemError> {
        let mut written: Vec<(BitString, bool)> = Vec::new();
        for (key, at_source) in self.keyspace().mapping_keys(mapping) {
            if !written.is_empty() {
                // Between the first and second key-space writes: the
                // armed crash hook fires here.
                if let Some(victim) = self.commit_crash.take() {
                    self.crash_peer(victim);
                }
            }
            let item = MediationItem::Mapping {
                mapping: mapping.clone(),
                at_source,
            };
            match self.mediation_update(origin, UpdateOp::Insert, key.clone(), item) {
                Ok(()) => written.push((key, at_source)),
                Err(e) => {
                    for (k, at_src) in written {
                        let _ = self.mediation_update(
                            origin,
                            UpdateOp::Delete,
                            k,
                            MediationItem::Mapping {
                                mapping: mapping.clone(),
                                at_source: at_src,
                            },
                        );
                    }
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// Mark a mapping deprecated, refreshing its DHT copies. Returns
    /// `false` for unknown ids.
    pub fn deprecate_mapping(
        &mut self,
        origin: PeerId,
        id: MappingId,
    ) -> Result<bool, SystemError> {
        self.transition_mapping(origin, id, MappingRegistry::deprecate)
    }

    /// Move a mapping to `Quarantined` (reversible containment — see
    /// [`MappingStatus`]), refreshing its DHT copies. Returns `false`
    /// for unknown ids.
    pub fn quarantine_mapping(
        &mut self,
        origin: PeerId,
        id: MappingId,
    ) -> Result<bool, SystemError> {
        self.transition_mapping(origin, id, MappingRegistry::quarantine)
    }

    /// Return a deprecated or quarantined mapping to `Active`,
    /// refreshing its DHT copies. Returns `false` for unknown ids.
    pub fn reactivate_mapping(
        &mut self,
        origin: PeerId,
        id: MappingId,
    ) -> Result<bool, SystemError> {
        self.transition_mapping(origin, id, MappingRegistry::reactivate)
    }

    /// Apply one registry status transition and replace the mapping's
    /// DHT copies with its new state.
    fn transition_mapping(
        &mut self,
        origin: PeerId,
        id: MappingId,
        transition: fn(&mut MappingRegistry, MappingId) -> bool,
    ) -> Result<bool, SystemError> {
        let Some(old) = self.registry.mapping(id).cloned() else {
            return Ok(false);
        };
        if !transition(&mut self.registry, id) {
            return Ok(false);
        }
        self.refresh_mapping(origin, id, &old)?;
        Ok(true)
    }

    /// Push updated mapping state (quality/status) to its DHT copies.
    pub fn refresh_mapping(
        &mut self,
        origin: PeerId,
        id: MappingId,
        old: &Mapping,
    ) -> Result<(), SystemError> {
        let Some(new) = self.registry.mapping(id).cloned() else {
            return Ok(());
        };
        self.replace_mapping_copies(origin, old, &new)
    }

    fn replace_mapping_copies(
        &mut self,
        origin: PeerId,
        old: &Mapping,
        new: &Mapping,
    ) -> Result<(), SystemError> {
        for (key, at_source) in self.keyspace().mapping_keys(old) {
            self.mediation_update(
                origin,
                UpdateOp::Delete,
                key.clone(),
                MediationItem::Mapping {
                    mapping: old.clone(),
                    at_source,
                },
            )?;
            self.mediation_update(
                origin,
                UpdateOp::Insert,
                key,
                MediationItem::Mapping {
                    mapping: new.clone(),
                    at_source,
                },
            )?;
        }
        Ok(())
    }

    /// Internal access for the self-organization driver.
    pub(crate) fn registry_mut(&mut self) -> &mut MappingRegistry {
        &mut self.registry
    }

    /// One periodic quality-assessment pass, run from `origin` as
    /// scheduler units on the simulated clock (see [`sched`]), from
    /// [`GridVineSystem::now`] on, one probe after another; the clock
    /// advances to the pass's end. Every
    /// mapping cycle costs one *cycle probe* (a retrieve at the
    /// cycle's base schema key, driven through the retry protocol), so
    /// probes are charged as messages, requests and latency in
    /// [`exec::ExecStats`] exactly like subqueries. After probing, the
    /// Bayesian analysis (§3.2) runs and condemned non-manual mappings
    /// are **quarantined** — reversibly: previously quarantined edges
    /// are paroled into this assessment and stay active if the cycle
    /// evidence now clears them (`reactivated`). Changed mappings'
    /// DHT copies are refreshed, and every status transition bumps the
    /// registry epoch, so all closure caches self-invalidate.
    pub fn assessment_pass(
        &mut self,
        origin: PeerId,
        cfg: &BayesConfig,
    ) -> Result<AssessmentReport, SystemError> {
        let start_messages = self.overlay.messages_sent();
        let start_proto = self.proto.counters;
        let started_at = self.now;
        let mut clock = started_at;
        let mut stats = exec::ExecStats::default();

        // Parole quarantined edges so the fresh cycle evidence judges
        // them again; snapshot everything for the DHT refresh diff.
        let before: Vec<Mapping> = self.registry.mappings().cloned().collect();
        let paroled: Vec<MappingId> = before
            .iter()
            .filter(|m| m.status == MappingStatus::Quarantined)
            .map(|m| m.id)
            .collect();
        for &id in &paroled {
            self.registry.reactivate(id);
        }

        // One cycle probe per mapping cycle: fetch the evidence at the
        // cycle's base schema key. A crashed destination is a recorded
        // failure, not an aborted pass. The pass cascades to a fixpoint:
        // identical wrong copies lend each other consistent
        // there-and-back cycles, so a single judgment can leave part of
        // a copy swarm standing — but once the weakest copies are
        // quarantined they drop out of the active evidence pool, and
        // re-probing the shrunken cycle set condemns the rest. Iterate
        // until a judgment condemns nothing new.
        let mut cycles_probed = 0usize;
        let mut quarantined: Vec<MappingId> = Vec::new();
        loop {
            let cycles = gridvine_semantic::bayes::find_cycles(&self.registry, cfg.max_cycle_len);
            for cycle in &cycles {
                let key = self.key_of(cycle.base.as_str());
                let msgs_before = self.overlay.messages_sent();
                self.proto.begin_unit(clock);
                stats.assessment_probes += 1;
                match self.exchange(origin, &key, true) {
                    Ok(_) => {}
                    Err(SystemError::PeerDown(_)) => stats.failures += 1,
                    Err(e) => return Err(e),
                }
                self.proto.check_send(self.now);
                let delta = self.overlay.messages_sent() - msgs_before;
                clock = self.proto.now + self.proto.delay + self.unit_delay(origin, delta);
                self.commit_writes(clock);
            }
            cycles_probed += cycles.len();

            let assessment = assess(&self.registry, cfg);
            let newly = apply_quarantine(&mut self.registry, &assessment, cfg);
            if newly.is_empty() {
                break;
            }
            quarantined.extend(newly);
        }
        quarantined.sort();
        let reactivated: Vec<MappingId> = paroled
            .iter()
            .copied()
            .filter(|id| !quarantined.contains(id))
            .collect();
        stats.quarantined_mappings = quarantined.len();

        // Refresh the DHT copies of every mapping the pass changed
        // (status or posterior): each refresh is more charged work.
        for old in &before {
            let changed = self
                .registry
                .mapping(old.id)
                .map(|new| new != old)
                .unwrap_or(false);
            if changed {
                let msgs_before = self.overlay.messages_sent();
                self.proto.unit_dest = None;
                self.refresh_mapping(origin, old.id, old)?;
                let delta = self.overlay.messages_sent() - msgs_before;
                let d = self.unit_delay(origin, delta);
                clock += d;
            }
        }

        stats.messages = self.overlay.messages_sent() - start_messages;
        stats += self.proto.counters - start_proto;
        self.now = self.now.max(clock);
        Ok(AssessmentReport {
            cycles_probed,
            quarantined,
            reactivated,
            stats,
            elapsed: clock.saturating_since(started_at),
        })
    }

    /// Recovery scan for half-committed mediation items: repairs
    /// registry mappings missing a DHT copy at one of their key spaces
    /// (re-inserting the current state) and deletes orphaned DHT
    /// mapping copies whose registry entry was retracted. Run it after
    /// recovering crashed peers; with the atomic commit path this is a
    /// no-op unless a crash cut a commit's rollback short.
    pub fn recover_mapping_commits(
        &mut self,
        origin: PeerId,
    ) -> Result<CommitRecovery, SystemError> {
        let mut report = CommitRecovery::default();
        // Direction 1: registry entries missing a DHT copy.
        let mappings: Vec<Mapping> = self.registry.mappings().cloned().collect();
        for m in &mappings {
            for (key, at_source) in self.keyspace().mapping_keys(m) {
                let present = self.items_at(&key).iter().any(|i| {
                    matches!(i, MediationItem::Mapping { mapping, at_source: a }
                        if mapping.id == m.id && *a == at_source)
                });
                if !present {
                    self.mediation_update(
                        origin,
                        UpdateOp::Insert,
                        key,
                        MediationItem::Mapping {
                            mapping: m.clone(),
                            at_source,
                        },
                    )?;
                    report.repaired_copies += 1;
                }
            }
        }
        // Direction 2: DHT copies whose registry entry is gone. Every
        // mapping copy lives at a schema's key space, so scanning the
        // registered schemas' keys covers all commit sites.
        let live: BTreeSet<MappingId> = self.registry.mappings().map(|m| m.id).collect();
        let schema_keys: Vec<BitString> = self
            .registry
            .schemas()
            .map(|s| self.key_of(s.id().as_str()))
            .collect();
        for key in schema_keys {
            let orphans: Vec<MediationItem> = self
                .items_at(&key)
                .into_iter()
                .filter(|i| {
                    matches!(i, MediationItem::Mapping { mapping, .. } if !live.contains(&mapping.id))
                })
                .collect();
            for item in orphans {
                self.mediation_update(origin, UpdateOp::Delete, key.clone(), item)?;
                report.orphans_removed += 1;
            }
        }
        Ok(report)
    }

    /// `Update(Domain Connectivity)` — every schema's responsible peer
    /// publishes `{Schema, InDegree, OutDegree}` under `Hash(Domain)`,
    /// replacing its previous record (§3.1). Returns records published.
    pub fn publish_connectivity(&mut self, origin: PeerId) -> Result<usize, SystemError> {
        let records = self.registry.degree_records();
        let domain_key = self.keyspace().domain_key(&self.config.domain);
        // Remove stale records for the same schemas, then insert fresh.
        let stale: Vec<MediationItem> = self
            .items_at(&domain_key)
            .into_iter()
            .filter(|i| matches!(i, MediationItem::Connectivity(_)))
            .collect();
        for s in stale {
            self.overlay.update(
                origin,
                UpdateOp::Delete,
                domain_key.clone(),
                s,
                &mut self.rng,
            )?;
        }
        let n = records.len();
        for r in records {
            self.overlay.update(
                origin,
                UpdateOp::Insert,
                domain_key.clone(),
                MediationItem::Connectivity(r),
                &mut self.rng,
            )?;
        }
        Ok(n)
    }

    /// Ask the domain peer for the connectivity indicator: one
    /// `Retrieve(Hash(Domain))` plus local aggregation (§3.1–3.2).
    pub fn connectivity_indicator(&mut self, origin: PeerId) -> Result<f64, SystemError> {
        let domain_key = self.keyspace().domain_key(&self.config.domain);
        let (items, _) = self.overlay.retrieve(origin, &domain_key, &mut self.rng)?;
        let records: Vec<DegreeRecord> = items
            .into_iter()
            .filter_map(|i| match i {
                MediationItem::Connectivity(r) => Some(r),
                _ => None,
            })
            .collect();
        Ok(gridvine_semantic::connectivity_indicator(&records))
    }

    /// Fetch the mappings stored at a schema's key space via the
    /// overlay: `Retrieve(Hash(schema))`, the iterative discovery.
    pub fn mappings_at_schema(
        &mut self,
        origin: PeerId,
        schema: &SchemaId,
    ) -> Result<Vec<Mapping>, SystemError> {
        let key = self.key_of(schema.as_str());
        let (_, mappings) = self.discover_mappings(origin, &key, Strategy::Iterative)?;
        Ok(mappings)
    }

    /// The mapping list `peer`'s overlay store holds under a schema key.
    pub(crate) fn stored_mappings(&self, peer: PeerId, key: &BitString) -> Vec<Mapping> {
        let items = self.overlay.store(peer).get(key).iter();
        let mappings = items.filter_map(|item| match item {
            MediationItem::Mapping { mapping, .. } => Some(mapping.clone()),
            _ => None,
        });
        mappings.collect()
    }

    fn items_at(&self, key: &BitString) -> Vec<MediationItem> {
        let peers = self.topology.responsible(key);
        peers
            .first()
            .map(|p| self.overlay.store(*p).get(key).to_vec())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::exec::{QueryOptions, QueryOutcome};
    use super::*;
    use crate::plan::QueryPlan;
    use gridvine_rdf::{PatternTerm, TriplePattern};

    /// The reformulated `SearchFor` as most tests drive it: a closure
    /// plan drained through `execute`.
    fn search(
        sys: &mut GridVineSystem,
        origin: PeerId,
        q: &TriplePatternQuery,
        strategy: Strategy,
    ) -> Result<QueryOutcome, SystemError> {
        sys.execute(
            origin,
            &QueryPlan::search(q.clone()),
            &QueryOptions::new().strategy(strategy),
        )
    }

    fn fig2_system() -> GridVineSystem {
        let mut sys = GridVineSystem::new(GridVineConfig {
            peers: 32,
            ..GridVineConfig::default()
        });
        let p0 = PeerId(0);
        sys.insert_schema(p0, Schema::new("EMBL", ["Organism"]))
            .unwrap();
        sys.insert_schema(p0, Schema::new("EMP", ["SystematicName"]))
            .unwrap();
        sys.insert_mapping(
            p0,
            "EMBL",
            "EMP",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("Organism", "SystematicName")],
        )
        .unwrap();
        // Figure 2 data: two EMBL records, one EMP record.
        for (s, p, o) in [
            ("seq:A78712", "EMBL#Organism", "Aspergillus niger"),
            ("seq:A78767", "EMBL#Organism", "Aspergillus nidulans"),
            (
                "seq:NEN94295-05",
                "EMP#SystematicName",
                "Aspergillus oryzae",
            ),
            ("seq:X99999", "EMP#SystematicName", "Escherichia coli"),
        ] {
            sys.insert_triple(p0, Triple::new(s, p, Term::literal(o)))
                .unwrap();
        }
        sys
    }

    #[test]
    fn single_pattern_resolution() {
        let mut sys = fig2_system();
        let q = TriplePatternQuery::example_aspergillus();
        let out = sys
            .execute(
                PeerId(7),
                &QueryPlan::pattern(q.clone()),
                &QueryOptions::default(),
            )
            .unwrap();
        let results = out.terms(&q.distinguished);
        assert_eq!(results.len(), 2);
        assert!(results.contains(&Term::uri("seq:A78712")));
        assert!(out.stats.messages <= 2 * sys.topology().depth() as u64 + 2);
    }

    #[test]
    fn figure2_search_aggregates_across_schemas() {
        // Without mappings: 2 results. With the EMBL≡EMP mapping the
        // reformulated query finds the EMP record too (Figure 2).
        let mut sys = fig2_system();
        let q = TriplePatternQuery::example_aspergillus();
        for strategy in [Strategy::Iterative, Strategy::Recursive] {
            let out = search(&mut sys, PeerId(3), &q, strategy).unwrap();
            let results = out.terms(&q.distinguished);
            assert_eq!(results.len(), 3, "{strategy:?}: {results:?}");
            assert!(results.contains(&Term::uri("seq:NEN94295-05")));
            assert_eq!(out.stats.reformulations, 1);
            assert_eq!(out.stats.schemas_visited, 2);
            assert_eq!(
                out.accessions(),
                BTreeSet::from([
                    "A78712".to_string(),
                    "A78767".to_string(),
                    "NEN94295-05".to_string()
                ])
            );
            assert!(out.stats.messages > 0);
        }
    }

    #[test]
    fn deprecated_mapping_stops_reformulation() {
        let mut sys = fig2_system();
        let id = sys.registry().mappings().next().map(|m| m.id).unwrap();
        sys.deprecate_mapping(PeerId(0), id).unwrap();
        let q = TriplePatternQuery::example_aspergillus();
        let out = search(&mut sys, PeerId(3), &q, Strategy::Iterative).unwrap();
        assert_eq!(out.rows.len(), 2, "EMP record must be unreachable");
        assert_eq!(out.stats.reformulations, 0);
        // The DHT copies must reflect the deprecation too.
        let maps = sys
            .mappings_at_schema(PeerId(1), &SchemaId::new("EMBL"))
            .unwrap();
        assert!(maps.iter().all(|m| !m.is_active()));
    }

    #[test]
    fn ttl_zero_stops_all_reformulation() {
        let mut sys = GridVineSystem::new(GridVineConfig {
            peers: 16,
            ttl: 0,
            ..GridVineConfig::default()
        });
        let p0 = PeerId(0);
        sys.insert_schema(p0, Schema::new("EMBL", ["Organism"]))
            .unwrap();
        sys.insert_schema(p0, Schema::new("EMP", ["SystematicName"]))
            .unwrap();
        sys.insert_mapping(
            p0,
            "EMBL",
            "EMP",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("Organism", "SystematicName")],
        )
        .unwrap();
        let q = TriplePatternQuery::example_aspergillus();
        let out = search(&mut sys, PeerId(1), &q, Strategy::Iterative).unwrap();
        assert_eq!(out.stats.reformulations, 0);
        assert_eq!(out.stats.schemas_visited, 1);
    }

    #[test]
    fn connectivity_round_trip_via_dht() {
        let mut sys = fig2_system();
        let n = sys.publish_connectivity(PeerId(0)).unwrap();
        assert_eq!(n, 2);
        let ci = sys.connectivity_indicator(PeerId(9)).unwrap();
        // Two schemas joined by an equivalence mapping: both (1,1) ⇒ 0.
        assert!((ci - 0.0).abs() < 1e-12);
        // Republishing replaces rather than duplicates.
        sys.publish_connectivity(PeerId(0)).unwrap();
        let ci2 = sys.connectivity_indicator(PeerId(9)).unwrap();
        assert_eq!(ci, ci2);
    }

    #[test]
    fn unroutable_query_reports_not_routable() {
        let mut sys = fig2_system();
        let q = TriplePatternQuery::new(
            "x",
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::var("p"),
                PatternTerm::constant(Term::literal("%wild%")),
            ),
        )
        .unwrap();
        assert!(matches!(
            sys.execute(
                PeerId(0),
                &QueryPlan::pattern(q.clone()),
                &QueryOptions::default()
            ),
            Err(SystemError::NotRoutable)
        ));
        assert!(matches!(
            search(&mut sys, PeerId(0), &q, Strategy::Iterative),
            Err(SystemError::NoQuerySchema)
        ));
    }

    #[test]
    fn recursive_uses_no_more_messages_than_iterative_on_chains() {
        // Chain of 5 schemas; the iterative origin pays a round trip per
        // schema, the recursive expansion forwards instead.
        let build = || {
            let mut sys = GridVineSystem::new(GridVineConfig {
                peers: 64,
                ..GridVineConfig::default()
            });
            let p0 = PeerId(0);
            for i in 0..5 {
                sys.insert_schema(p0, Schema::new(format!("S{i}").as_str(), [format!("a{i}")]))
                    .unwrap();
            }
            for i in 0..4 {
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
            for i in 0..5 {
                sys.insert_triple(
                    p0,
                    Triple::new(
                        format!("seq:R{i}").as_str(),
                        format!("S{i}#a{i}").as_str(),
                        Term::literal("shared-value"),
                    ),
                )
                .unwrap();
            }
            sys
        };
        let q = TriplePatternQuery::new(
            "x",
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri("S0#a0")),
                PatternTerm::constant(Term::literal("shared-value")),
            ),
        )
        .unwrap();
        let mut iter_sys = build();
        let it = search(&mut iter_sys, PeerId(9), &q, Strategy::Iterative).unwrap();
        let mut rec_sys = build();
        let rec = search(&mut rec_sys, PeerId(9), &q, Strategy::Recursive).unwrap();
        assert_eq!(it.rows.len(), 5);
        assert_eq!(rec.rows.len(), 5);
        assert!(
            rec.stats.messages <= it.stats.messages,
            "recursive {} should not exceed iterative {}",
            rec.stats.messages,
            it.stats.messages
        );
    }

    #[test]
    fn object_prefix_range_search() {
        let mut sys = fig2_system();
        // (?x, ?p, "Aspergillus%") — rangeable on the object prefix,
        // across predicates of both schemas.
        let q = TriplePatternQuery::new(
            "x",
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::var("p"),
                PatternTerm::constant(Term::literal("Aspergillus%")),
            ),
        )
        .unwrap();
        let out = sys
            .execute(
                PeerId(9),
                &QueryPlan::object_prefix(q.clone()),
                &QueryOptions::default(),
            )
            .unwrap();
        let results = out.terms(&q.distinguished);
        // All three Aspergillus records, EMBL and EMP alike, found by
        // one range scan with no mappings involved.
        assert_eq!(results.len(), 3, "{results:?}");
        assert!(results.contains(&Term::uri("seq:NEN94295-05")));
        assert!(out.stats.messages > 0);
        // A plain pattern plan cannot route this query at all.
        assert!(matches!(
            sys.execute(PeerId(9), &QueryPlan::pattern(q), &QueryOptions::default()),
            Err(SystemError::NotRoutable)
        ));
    }

    #[test]
    fn object_prefix_requires_order_preserving_hash() {
        let mut sys = GridVineSystem::new(GridVineConfig {
            peers: 16,
            hash: HashKind::Uniform,
            ..GridVineConfig::default()
        });
        let q = TriplePatternQuery::new(
            "x",
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::var("p"),
                PatternTerm::constant(Term::literal("Asp%")),
            ),
        )
        .unwrap();
        assert!(matches!(
            sys.execute(
                PeerId(0),
                &QueryPlan::object_prefix(q),
                &QueryOptions::default()
            ),
            Err(SystemError::NotRoutable)
        ));
    }

    #[test]
    fn object_prefix_rejects_non_prefix_patterns() {
        let mut sys = fig2_system();
        for bad in ["%Aspergillus%", "Aspergillus", "%", "a%b%"] {
            let q = TriplePatternQuery::new(
                "x",
                TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::var("p"),
                    PatternTerm::constant(Term::literal(bad)),
                ),
            )
            .unwrap();
            assert!(
                matches!(
                    sys.execute(
                        PeerId(0),
                        &QueryPlan::object_prefix(q),
                        &QueryOptions::default()
                    ),
                    Err(SystemError::NotRoutable)
                ),
                "{bad} must be rejected"
            );
        }
    }

    #[test]
    fn crash_during_commit_never_leaves_a_half_committed_mapping() {
        let mut sys = GridVineSystem::new(GridVineConfig {
            peers: 32,
            ..GridVineConfig::default()
        });
        let p0 = PeerId(0);
        sys.insert_schema(p0, Schema::new("EMBL", ["Organism"]))
            .unwrap();
        sys.insert_schema(p0, Schema::new("EMP", ["SystematicName"]))
            .unwrap();
        for (s, p, o) in [
            ("seq:A78712", "EMBL#Organism", "Aspergillus niger"),
            ("seq:A78767", "EMBL#Organism", "Aspergillus nidulans"),
            (
                "seq:NEN94295-05",
                "EMP#SystematicName",
                "Aspergillus oryzae",
            ),
        ] {
            sys.insert_triple(p0, Triple::new(s, p, Term::literal(o)))
                .unwrap();
        }
        // Crash the target key space's responsible peer between the two
        // key-space writes: the commit must roll back entirely.
        let target_key = sys.key_of("EMP");
        let victim = *sys.topology().responsible(&target_key).first().unwrap();
        sys.arm_commit_crash(victim);
        let res = sys.insert_mapping(
            p0,
            "EMBL",
            "EMP",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("Organism", "SystematicName")],
        );
        assert!(matches!(res, Err(SystemError::PeerDown(_))), "{res:?}");
        assert_eq!(sys.registry().mapping_count(), 0, "registry rolled back");
        // After recovery + scan, no copy survives at either key space
        // (the scan sweeps up whatever a cut-short rollback left).
        sys.recover_peer(victim);
        let rec = sys.recover_mapping_commits(p0).unwrap();
        assert_eq!(rec.repaired_copies, 0, "nothing half-live to repair");
        for schema in ["EMBL", "EMP"] {
            let maps = sys
                .mappings_at_schema(PeerId(1), &SchemaId::new(schema))
                .unwrap();
            assert!(maps.is_empty(), "{schema}: {maps:?}");
        }
        // And no query ever observes a one-way mapping: the EMP record
        // stays unreachable from the EMBL query.
        let q = TriplePatternQuery::example_aspergillus();
        let out = search(&mut sys, PeerId(3), &q, Strategy::Iterative).unwrap();
        assert_eq!(out.rows.len(), 2);
        assert_eq!(out.stats.reformulations, 0);
        // Rerunning the insert now commits both key spaces.
        sys.insert_mapping(
            p0,
            "EMBL",
            "EMP",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("Organism", "SystematicName")],
        )
        .unwrap();
        let out = search(&mut sys, PeerId(3), &q, Strategy::Iterative).unwrap();
        assert_eq!(out.rows.len(), 3);
    }

    #[test]
    fn recovery_scan_repairs_a_manufactured_half_commit() {
        let mut sys = fig2_system();
        let m = sys.registry().mappings().next().unwrap().clone();
        // Manufacture the seed's one-way bug: delete the target-side
        // copy behind the commit path's back.
        let keys = sys.keyspace().mapping_keys(&m);
        assert_eq!(keys.len(), 2, "equivalence writes both key spaces");
        let (key, at_source) = keys[1].clone();
        sys.overlay
            .update(
                PeerId(0),
                UpdateOp::Delete,
                key,
                MediationItem::Mapping {
                    mapping: m.clone(),
                    at_source,
                },
                &mut sys.rng,
            )
            .unwrap();
        assert!(sys
            .mappings_at_schema(PeerId(1), &SchemaId::new("EMP"))
            .unwrap()
            .is_empty());
        let rec = sys.recover_mapping_commits(PeerId(0)).unwrap();
        assert_eq!(
            rec,
            CommitRecovery {
                repaired_copies: 1,
                orphans_removed: 0
            }
        );
        assert_eq!(
            sys.mappings_at_schema(PeerId(1), &SchemaId::new("EMP"))
                .unwrap()
                .len(),
            1
        );
        // Idempotent: a second scan finds nothing.
        assert_eq!(
            sys.recover_mapping_commits(PeerId(0)).unwrap(),
            CommitRecovery::default()
        );
    }

    /// Three schemas with a correct Manual chain and one wrong
    /// Automatic closure — the inconsistent triangle the Bayesian
    /// analysis condemns (§3.2).
    fn triangle_system() -> (GridVineSystem, MappingId) {
        let mut sys = GridVineSystem::new(GridVineConfig {
            peers: 32,
            ..GridVineConfig::default()
        });
        let p0 = PeerId(0);
        sys.insert_schema(p0, Schema::new("A", ["xa", "wa"]))
            .unwrap();
        sys.insert_schema(p0, Schema::new("B", ["xb", "wb"]))
            .unwrap();
        sys.insert_schema(p0, Schema::new("C", ["xc", "wc"]))
            .unwrap();
        sys.insert_mapping(
            p0,
            "A",
            "B",
            MappingKind::Subsumption,
            Provenance::Manual,
            vec![Correspondence::new("xa", "xb")],
        )
        .unwrap();
        sys.insert_mapping(
            p0,
            "B",
            "C",
            MappingKind::Subsumption,
            Provenance::Manual,
            vec![Correspondence::new("xb", "xc")],
        )
        .unwrap();
        // The closure is wrong: xc should come back as xa, not wa.
        let bad = sys
            .insert_mapping(
                p0,
                "C",
                "A",
                MappingKind::Subsumption,
                Provenance::Automatic,
                vec![Correspondence::new("xc", "wa")],
            )
            .unwrap();
        (sys, bad)
    }

    #[test]
    fn assessment_pass_quarantines_and_charges_probes() {
        let (mut sys, bad) = triangle_system();
        let origin = PeerId(5);
        let clock_before = sys.now();
        let cfg = gridvine_semantic::BayesConfig::default();
        let report = sys.assessment_pass(origin, &cfg).unwrap();
        assert!(report.cycles_probed >= 1);
        assert_eq!(report.stats.assessment_probes, report.cycles_probed);
        assert!(
            report.stats.messages > 0,
            "cycle probes cost overlay messages"
        );
        assert!(report.stats.requests >= report.cycles_probed);
        assert_eq!(report.stats.sends, report.stats.requests);
        assert!(report.elapsed > SimDuration::ZERO);
        assert_eq!(sys.now(), clock_before + report.elapsed);
        assert_eq!(report.quarantined, vec![bad]);
        assert_eq!(report.stats.quarantined_mappings, 1);
        assert_eq!(
            sys.registry().mapping(bad).unwrap().status,
            MappingStatus::Quarantined
        );
        // The DHT copies reflect the quarantine.
        let maps = sys
            .mappings_at_schema(PeerId(1), &SchemaId::new("C"))
            .unwrap();
        assert!(maps.iter().all(|m| !m.is_active()));
        // A second pass paroles and re-confirms: same quarantine set,
        // nothing reactivated, statuses unchanged.
        let again = sys.assessment_pass(origin, &cfg).unwrap();
        assert_eq!(again.quarantined, vec![bad]);
        assert!(again.reactivated.is_empty());
        assert_eq!(
            sys.registry().mapping(bad).unwrap().status,
            MappingStatus::Quarantined
        );
    }

    #[test]
    fn assessment_pass_reactivates_a_cleared_quarantine() {
        let (mut sys, bad) = triangle_system();
        let p0 = PeerId(0);
        // Quarantine a *good* manual edge by hand, and retire the bad
        // closure so the remaining evidence is clean.
        sys.deprecate_mapping(p0, bad).unwrap();
        let good = sys
            .registry()
            .mappings()
            .find(|m| m.is_active())
            .map(|m| m.id)
            .unwrap();
        assert!(sys.quarantine_mapping(p0, good).unwrap());
        assert!(!sys.registry().mapping(good).unwrap().is_active());
        let report = sys
            .assessment_pass(p0, &gridvine_semantic::BayesConfig::default())
            .unwrap();
        assert!(report.reactivated.contains(&good), "{report:?}");
        assert!(sys.registry().mapping(good).unwrap().is_active());
    }

    #[test]
    fn search_is_deterministic_per_seed() {
        let run = |seed| {
            let mut sys = GridVineSystem::new(GridVineConfig {
                peers: 32,
                seed,
                ..GridVineConfig::default()
            });
            let p0 = PeerId(0);
            sys.insert_schema(p0, Schema::new("EMBL", ["Organism"]))
                .unwrap();
            sys.insert_triple(
                p0,
                Triple::new(
                    "seq:P1",
                    "EMBL#Organism",
                    Term::literal("Aspergillus niger"),
                ),
            )
            .unwrap();
            let q = TriplePatternQuery::example_aspergillus();
            let out = search(&mut sys, PeerId(5), &q, Strategy::Iterative).unwrap();
            (out.terms(&q.distinguished), out.stats.messages)
        };
        assert_eq!(run(1), run(1));
    }
}
