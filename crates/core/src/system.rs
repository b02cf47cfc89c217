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
    apply_assessment, assess_cycles, find_cycles, BayesConfig, Correspondence, CycleOutcome,
    DegreeRecord, Mapping, MappingId, MappingKind, MappingRegistry, MappingStatus, Provenance,
    Schema, SchemaId,
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
    /// Automatic mappings this pass condemned and deprecated, in id
    /// order.
    pub deprecated: Vec<MappingId>,
    /// The pass's charged work: probe messages, requests and latency
    /// (`assessment_probes` counts the probes) plus the DHT refreshes
    /// of changed mappings.
    pub stats: exec::ExecStats,
    /// Simulated time the pass advanced the system clock by.
    pub elapsed: SimDuration,
}

/// The first invariant [`GridVineSystem::check`] found broken, naming
/// what a person needs to find it.
#[derive(Debug, Clone, PartialEq)]
pub enum Broken {
    /// `peer` stores `triple` in its `DB_p` but is in no σ group of the
    /// triple's three keys.
    Misplaced { peer: PeerId, triple: Triple },
    /// `owner`, in the σ group of one of `triple`'s keys, lacks the
    /// triple `peer` stores.
    Unreplicated { owner: PeerId, triple: Triple },
    /// Holder `peer` of `key`, one of registry mapping `id`'s key
    /// spaces, keeps `copies` of it there, not exactly one equal to the
    /// registry's entry.
    MappingCopies {
        id: MappingId,
        key: BitString,
        peer: PeerId,
        copies: Vec<Mapping>,
    },
    /// Holder `peer` of registry schema `schema`'s key lacks its
    /// definition.
    MissingSchema { schema: SchemaId, peer: PeerId },
    /// `peer` keeps a copy of mapping `id` under `key`, where no
    /// registry entry places one.
    Orphan {
        id: MappingId,
        key: BitString,
        peer: PeerId,
    },
    /// A queued reply is due at `at`, before the clock's `now`.
    LateReply { at: SimTime, now: SimTime },
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
    /// mentioning it, and numbered once — every `DB_p` ships its rows as
    /// codes over these ids, so a session joins and dedups rows from
    /// many peers on codes and reads a term here only for an admitted
    /// answer ([`TermDict::term_of_code`]), and a bound join's seeds go
    /// out as codes with their tags.
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
    /// buffer per distinct string), and the lexicon's tags and ids travel
    /// with every copy ([`gridvine_rdf::TaggedTriple`]): a call reads
    /// each lexical's bytes in the lexicon and in one key hash, no copy
    /// reads them again, and each store keeps the lexicon id of every
    /// term it holds. The lexicon pools the buffers of every triple of
    /// the call, placed or not.
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
        // Every triple is rebuilt over the lexicon's buffers first, with
        // its tags: the lexicon reads each lexical's bytes, and nothing
        // after it does.
        let mut stage = TripleStage::new(
            triples
                .into_iter()
                .map(|t| self.lexicon.canonical_triple(&t))
                .collect(),
        );
        // The call's distinct leaf prefixes, and per triple the slots of
        // its three keys' prefixes among them. A canonical buffer is one
        // distinct lexical, so each is keyed once per call.
        let depth = self.overlay.max_path_len();
        let ks = self.keyspace();
        let mut prefixes: Vec<BitString> = Vec::new();
        let mut slot_of: FxHashMap<BitString, u32> = FxHashMap::default();
        let mut slot_of_buffer: FxHashMap<*const u8, u32> = FxHashMap::default();
        let slots: Vec<[u32; 3]> = stage
            .triples()
            .iter()
            .map(|t| {
                let t = t.triple();
                [t.subject.as_str(), t.predicate.as_str(), t.object.lexical()].map(|lexical| {
                    *slot_of_buffer.entry(lexical.as_ptr()).or_insert_with(|| {
                        let key = ks.key_of(lexical);
                        let slot =
                            u32::try_from(prefixes.len()).expect("fewer than 2^32 trie leaves");
                        *slot_of
                            .entry(key.prefix(depth.min(key.len())))
                            .or_insert_with_key(|prefix| {
                                prefixes.push(prefix.clone());
                                slot
                            })
                    })
                })
            })
            .collect();
        let dests = self
            .overlay
            .route_updates(origin, &prefixes, &mut self.update_rng);
        let placed = slots.into_iter().enumerate().try_fold(0, |n, (i, slots)| {
            // Every key routed, or the triple is stored nowhere.
            let [s, p, o] = slots.map(|slot| dests[slot as usize].clone());
            let holders = [s?, p?, o?];
            stage.place(
                i,
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
    /// A down holder refuses it ([`SystemError::PeerDown`]) and the
    /// registry does not learn the schema.
    pub fn insert_schema(&mut self, origin: PeerId, schema: Schema) -> Result<(), SystemError> {
        let key = self.keyspace().schema_key(&schema);
        let item = MediationItem::Schema(schema.clone());
        self.mediation_update(origin, UpdateOp::Insert, key, item)?;
        self.registry.add_schema(schema);
        Ok(())
    }

    /// `Update(Schema Mapping)` — store at the source key space (and
    /// the target's, see [`KeySpace::mapping_keys`]).
    ///
    /// The registry keeps the entry only if every DHT copy was written.
    /// A down holder of either key space refuses the insert before the
    /// registry hears of the mapping and before anything is sent, so
    /// the registry's epoch — and with it every closure cache — stays
    /// as it was. A route error rolls back the copies already written,
    /// [retracts](MappingRegistry::retract) the entry and returns `Err`.
    /// No query can observe the mapping from one schema's key space but
    /// not the other's.
    pub fn insert_mapping(
        &mut self,
        origin: PeerId,
        source: impl Into<SchemaId>,
        target: impl Into<SchemaId>,
        kind: MappingKind,
        provenance: Provenance,
        correspondences: Vec<Correspondence>,
    ) -> Result<MappingId, SystemError> {
        let (source, target) = (source.into(), target.into());
        let keys = self.writable_mapping_keys(&source, &target, kind)?;
        let id = self
            .registry
            .add_mapping(source, target, kind, provenance, correspondences);
        let mapping = self.registry.mapping(id).expect("just added").clone();
        if let Err(e) = self.write_mapping_copies(origin, keys, None, &mapping) {
            self.registry.retract(id);
            return Err(e);
        }
        Ok(id)
    }

    /// The liveness rule of every mediation write: the first σ holder
    /// of `key` must be up, for a down peer can never acknowledge the
    /// update. The refusal sends nothing and draws nothing.
    fn holder_up(&self, key: &BitString) -> Result<(), SystemError> {
        match self.topology.responsible(key).first() {
            Some(&dest) if self.crashed.contains(&dest) => Err(SystemError::PeerDown(dest)),
            _ => Ok(()),
        }
    }

    /// Store or delete one mediation-item copy, under
    /// [`GridVineSystem::holder_up`]'s rule: a write whose holder is
    /// down fails with [`SystemError::PeerDown`] before any state lands
    /// (the success path is bit-identical to a plain overlay update).
    fn mediation_update(
        &mut self,
        origin: PeerId,
        op: UpdateOp,
        key: BitString,
        item: MediationItem,
    ) -> Result<(), SystemError> {
        self.holder_up(&key)?;
        self.overlay.update(origin, op, key, item, &mut self.rng)?;
        Ok(())
    }

    /// The keys of a mapping of `kind` from `source` to `target`
    /// ([`KeySpace::mapping_keys`]), each key's holder checked up
    /// ([`GridVineSystem::holder_up`]), so that a down one refuses a
    /// whole write before anything is sent — and, for an insert, before
    /// the registry hears of the mapping.
    fn writable_mapping_keys(
        &self,
        source: &SchemaId,
        target: &SchemaId,
        kind: MappingKind,
    ) -> Result<Vec<(BitString, bool)>, SystemError> {
        let keys = self.keyspace().mapping_keys(source, target, kind);
        for (key, _) in &keys {
            self.holder_up(key)?;
        }
        Ok(keys)
    }

    /// The one writer of mapping copies: at each of `new`'s key spaces
    /// (`keys`, from [`GridVineSystem::writable_mapping_keys`], so every
    /// holder is up) delete `old`'s copy (none for an insert) and insert
    /// `new`'s, all or nothing. Only a route error can fail a write; the
    /// writes already made are then undone in reverse (best effort: an
    /// undo that meets a routing hole too is left for
    /// [`GridVineSystem::check`] to name), and the error is returned.
    /// The registry is the caller's to change, on `Ok`.
    fn write_mapping_copies(
        &mut self,
        origin: PeerId,
        keys: Vec<(BitString, bool)>,
        old: Option<&Mapping>,
        new: &Mapping,
    ) -> Result<(), SystemError> {
        let mut done: Vec<(UpdateOp, BitString, MediationItem)> = Vec::new();
        for (key, at_source) in keys {
            let copy = |mapping: &Mapping| MediationItem::Mapping {
                mapping: mapping.clone(),
                at_source,
            };
            // (write, its undo, the copy)
            let delete_old = old.map(|old| (UpdateOp::Delete, UpdateOp::Insert, copy(old)));
            let insert_new = (UpdateOp::Insert, UpdateOp::Delete, copy(new));
            for (op, undo, item) in delete_old.into_iter().chain([insert_new]) {
                if let Err(e) = self.mediation_update(origin, op, key.clone(), item.clone()) {
                    for (undo, key, item) in done.into_iter().rev() {
                        let _ = self.mediation_update(origin, undo, key, item);
                    }
                    return Err(e);
                }
                done.push((undo, key.clone(), item));
            }
        }
        Ok(())
    }

    /// Mark a mapping deprecated, copies first: on `Err` (a down holder,
    /// or a route error rolled back) its registry entry and its DHT
    /// copies still say what they said. Returns `false` for unknown
    /// ids.
    pub fn deprecate_mapping(
        &mut self,
        origin: PeerId,
        id: MappingId,
    ) -> Result<bool, SystemError> {
        let Some(mut new) = self.registry.mapping(id).cloned() else {
            return Ok(false);
        };
        new.status = MappingStatus::Deprecated;
        self.refresh_mapping(origin, new)?;
        Ok(true)
    }

    /// Replace a registered mapping's state (quality, status) by `new`,
    /// the DHT copies first: the registry entry changes only if every
    /// copy did.
    pub(crate) fn refresh_mapping(
        &mut self,
        origin: PeerId,
        new: Mapping,
    ) -> Result<(), SystemError> {
        let old = self.registry.mapping(new.id).expect("registered").clone();
        let keys = self.writable_mapping_keys(&new.source, &new.target, new.kind)?;
        self.write_mapping_copies(origin, keys, Some(&old), &new)?;
        *self.registry.mapping_mut(old.id).expect("registered") = new;
        Ok(())
    }

    /// One periodic quality-assessment pass (§3.2), run from `origin` as
    /// scheduler units on the simulated clock (see [`sched`]), from
    /// [`GridVineSystem::now`] on, one probe after another; the clock
    /// advances to the pass's end. The Bayesian analysis enumerates the
    /// mapping cycles once, and every cycle costs one *cycle probe* (a
    /// retrieve at the cycle's base schema key, driven through the
    /// retry protocol), so probes are charged as messages, requests and
    /// latency in [`exec::ExecStats`] exactly like subqueries. The reply
    /// decides its cycle: a probe that meets a down peer (`PeerDown`)
    /// makes the cycle unobservable for this pass, and the posteriors
    /// are swept without it; a routing error aborts the pass. Condemned
    /// automatic mappings are **deprecated** through [`apply_assessment`].
    /// Changed mappings' DHT copies are refreshed; a mapping whose
    /// refresh fails (a down holder, or a route error rolled back) keeps
    /// its old registry entry, is left out of `deprecated` and counts
    /// one `failures`, and the pass goes on. Every status transition
    /// bumps the registry epoch, so all closure caches self-invalidate.
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
        let before: Vec<Mapping> = self.registry.mappings().cloned().collect();

        // One cycle probe per mapping cycle: fetch the evidence at the
        // cycle's base schema key. A probe that meets a down peer is a
        // recorded failure, not an aborted pass, and its cycle is no
        // evidence in this pass.
        let mut cycles = find_cycles(&self.registry, cfg.max_cycle_len);
        for cycle in &mut cycles {
            let key = self.key_of(cycle.base.as_str());
            let msgs_before = self.overlay.messages_sent();
            self.proto.begin_unit(clock);
            stats.assessment_probes += 1;
            match self.exchange(origin, &key, true) {
                Ok(_) => {}
                Err(SystemError::PeerDown(_)) => {
                    stats.failures += 1;
                    cycle.outcome = CycleOutcome::Unobservable;
                }
                Err(e) => return Err(e),
            }
            self.proto.check_send(self.now);
            let delta = self.overlay.messages_sent() - msgs_before;
            clock = self.proto.now + self.proto.delay + self.unit_delay(origin, delta);
            self.commit_writes(clock);
        }
        let assessment = assess_cycles(&self.registry, cycles, cfg);
        let mut deprecated = apply_assessment(&mut self.registry, &assessment, cfg);

        // Refresh the DHT copies of every mapping the pass changed
        // (status or posterior): each refresh is more charged work.
        for old in &before {
            let Some(new) = self.registry.mapping(old.id).filter(|new| *new != old) else {
                continue;
            };
            let new = new.clone();
            let msgs_before = self.overlay.messages_sent();
            self.proto.unit_dest = None;
            let written = (self.writable_mapping_keys(&new.source, &new.target, new.kind))
                .and_then(|keys| self.write_mapping_copies(origin, keys, Some(old), &new));
            if written.is_err() {
                // The copies still hold `old`, and so does the registry.
                *self.registry.mapping_mut(old.id).expect("registered") = old.clone();
                deprecated.retain(|&id| id != old.id);
                stats.failures += 1;
            }
            clock += self.unit_delay(origin, self.overlay.messages_sent() - msgs_before);
        }

        stats.messages = self.overlay.messages_sent() - start_messages;
        stats += self.proto.counters - start_proto;
        self.now = self.now.max(clock);
        Ok(AssessmentReport {
            cycles_probed: assessment.cycles.len(),
            deprecated,
            stats,
            elapsed: clock.saturating_since(started_at),
        })
    }

    /// `Update(Domain Connectivity)` — every schema's responsible peer
    /// publishes `{Schema, InDegree, OutDegree}` under `Hash(Domain)`,
    /// replacing its previous record (§3.1). Returns records published.
    pub fn publish_connectivity(&mut self, origin: PeerId) -> Result<usize, SystemError> {
        let records = self.registry.degree_records();
        let domain_key = self.keyspace().domain_key(&self.config.domain);
        // Remove stale records for the same schemas, then insert fresh.
        let holder = self.topology.responsible(&domain_key).first();
        let stale = holder.map_or(&[][..], |&p| self.overlay.store(p).get(&domain_key));
        let mut writes: Vec<(UpdateOp, MediationItem)> = (stale.iter())
            .filter(|item| matches!(item, MediationItem::Connectivity(_)))
            .map(|item| (UpdateOp::Delete, item.clone()))
            .collect();
        let n = records.len();
        let fresh = records.into_iter().map(MediationItem::Connectivity);
        writes.extend(fresh.map(|item| (UpdateOp::Insert, item)));
        for (op, item) in writes {
            self.mediation_update(origin, op, domain_key.clone(), item)?;
        }
        Ok(n)
    }

    /// Check the invariants the engine's state keeps, reading state
    /// only (no message, no draw), and return the first one broken:
    ///
    /// 1. every `DB_p` row lies in a σ group of one of its three keys,
    ///    and every peer of each of those groups holds it (§2.1);
    /// 2. the registry agrees with the DHT: every registry mapping has
    ///    exactly one copy, equal to its entry, at each of its key
    ///    spaces at every σ holder; every registry schema has its
    ///    definition at every holder of its key; and no mapping copy
    ///    lies where no registry entry places it;
    /// 3. no queued reply is due before [`GridVineSystem::now`].
    pub fn check(&self) -> Result<(), Broken> {
        let ks = self.keyspace();
        for (i, db) in self.local_dbs.iter().enumerate() {
            let peer = PeerId::from_index(i);
            for triple in db.iter() {
                let t = &triple;
                let groups = [t.subject.as_str(), t.predicate.as_str(), t.object.lexical()]
                    .map(|lexical| self.topology.responsible(&ks.key_of(lexical)));
                if !groups.iter().any(|g| g.contains(&peer)) {
                    return Err(Broken::Misplaced { peer, triple });
                }
                let mut owners = groups.into_iter().flatten();
                if let Some(&owner) = owners.find(|o| !self.peer_db(**o).contains(t)) {
                    return Err(Broken::Unreplicated { owner, triple });
                }
            }
        }
        for m in self.registry.mappings() {
            for (key, at_source) in ks.mapping_keys(&m.source, &m.target, m.kind) {
                for &peer in self.topology.responsible(&key) {
                    let copies: Vec<Mapping> = (self.overlay.store(peer).get(&key).iter())
                        .filter_map(|item| match item {
                            MediationItem::Mapping {
                                mapping,
                                at_source: a,
                            } if mapping.id == m.id && *a == at_source => Some(mapping.clone()),
                            _ => None,
                        })
                        .collect();
                    if copies != [m.clone()] {
                        let (id, key) = (m.id, key.clone());
                        return Err(Broken::MappingCopies {
                            id,
                            key,
                            peer,
                            copies,
                        });
                    }
                }
            }
        }
        for s in self.registry.schemas() {
            let key = ks.schema_key(s);
            let definition = MediationItem::Schema(s.clone());
            for &peer in self.topology.responsible(&key) {
                if !self.overlay.store(peer).get(&key).contains(&definition) {
                    let schema = s.id().clone();
                    return Err(Broken::MissingSchema { schema, peer });
                }
            }
        }
        for peer in (0..self.topology.len()).map(PeerId::from_index) {
            for (key, item) in self.overlay.store(peer).iter() {
                let MediationItem::Mapping { mapping, at_source } = item else {
                    continue;
                };
                let placed = (self.registry.mapping(mapping.id)).is_some_and(|m| {
                    let keys = ks.mapping_keys(&m.source, &m.target, m.kind);
                    keys.contains(&(key.clone(), *at_source))
                });
                if !placed {
                    let (id, key) = (mapping.id, key.clone());
                    return Err(Broken::Orphan { id, key, peer });
                }
            }
        }
        match self.replies.peek_time() {
            Some(at) if at < self.now => Err(Broken::LateReply { at, now: self.now }),
            _ => Ok(()),
        }
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
}

#[cfg(test)]
mod tests {
    use super::exec::{QueryOptions, QueryOutcome};
    use super::*;
    use crate::plan::QueryPlan;
    use gridvine_rdf::{PatternTerm, TriplePattern};
    use gridvine_semantic::MappingStatus;

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

    /// Figure 2's EMBL ≡ EMP mapping, inserted from peer 0.
    fn fig2_mapping(sys: &mut GridVineSystem) -> Result<MappingId, SystemError> {
        sys.insert_mapping(
            PeerId(0),
            "EMBL",
            "EMP",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("Organism", "SystematicName")],
        )
    }

    fn fig2_system() -> GridVineSystem {
        let mut sys = fig2_unmapped();
        fig2_mapping(&mut sys).unwrap();
        sys
    }

    /// Figure 2's schemas and data, without the mapping.
    fn fig2_unmapped() -> GridVineSystem {
        let mut sys = GridVineSystem::new(GridVineConfig {
            peers: 32,
            ..GridVineConfig::default()
        });
        let p0 = PeerId(0);
        sys.insert_schema(p0, Schema::new("EMBL", ["Organism"]))
            .unwrap();
        sys.insert_schema(p0, Schema::new("EMP", ["SystematicName"]))
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
        let mut sys = fig2_unmapped();
        // The target key space's holder is down before the commit: the
        // commit is refused before anything is sent.
        let victim = sys.topology().responsible(&sys.key_of("EMP"))[0];
        sys.crash_peer(victim);
        let messages = sys.messages_sent();
        assert_eq!(fig2_mapping(&mut sys), Err(SystemError::PeerDown(victim)));
        assert_eq!(
            sys.messages_sent(),
            messages,
            "a refused commit sends nothing"
        );
        assert_eq!(sys.registry().mappings().count(), 0, "registry rolled back");
        // A schema under a down holder is refused too, and not registered.
        let (emp2, key) = (Schema::new("EMP2", ["Other"]), sys.key_of("EMP2"));
        assert_eq!(sys.topology().responsible(&key)[0], victim);
        assert_eq!(
            sys.insert_schema(PeerId(0), emp2),
            Err(SystemError::PeerDown(victim))
        );
        assert!(sys.registry().schema(&SchemaId::new("EMP2")).is_none());
        assert_eq!(sys.check(), Ok(()));
        sys.recover_peer(victim);
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
        fig2_mapping(&mut sys).unwrap();
        assert_eq!(sys.check(), Ok(()));
        let out = search(&mut sys, PeerId(3), &q, Strategy::Iterative).unwrap();
        assert_eq!(out.rows.len(), 3);
    }

    #[test]
    fn a_deprecation_refused_by_a_down_holder_changes_nothing() {
        let mut sys = fig2_system();
        let id = sys.registry().mappings().next().map(|m| m.id).unwrap();
        let keys = [sys.key_of("EMBL"), sys.key_of("EMP")];
        let holder = sys.topology().responsible(&keys[0])[0];
        assert_eq!(sys.topology().responsible(&keys[1])[0], holder);
        let q = TriplePatternQuery::example_aspergillus();
        sys.crash_peer(holder);
        let refused = sys.deprecate_mapping(PeerId(0), id);
        assert_eq!(refused, Err(SystemError::PeerDown(holder)));
        let status = |sys: &GridVineSystem| sys.registry().mapping(id).unwrap().status;
        assert_eq!(status(&sys), MappingStatus::Active);
        assert_eq!(sys.check(), Ok(()));
        sys.recover_peer(holder);
        let out = search(&mut sys, PeerId(3), &q, Strategy::Iterative).unwrap();
        assert_eq!(out.stats.reformulations, 1, "the mapping is still live");

        // One retry leaves one deprecated copy per key space, and the
        // EMP record is unreachable.
        assert_eq!(sys.deprecate_mapping(PeerId(0), id), Ok(true));
        assert_eq!(status(&sys), MappingStatus::Deprecated);
        for key in &keys {
            let copies = sys.stored_mappings(holder, key);
            let statuses: Vec<MappingStatus> = copies.iter().map(|m| m.status).collect();
            assert_eq!(statuses, [MappingStatus::Deprecated]);
        }
        assert_eq!(sys.check(), Ok(()));
        let out = search(&mut sys, PeerId(3), &q, Strategy::Iterative).unwrap();
        assert_eq!((out.rows.len(), out.stats.reformulations), (2, 0));
    }

    /// A refused mapping insert leaves the registry's epoch, hence every
    /// closure cache, as it found them: the holders are checked before
    /// the registry takes the mapping.
    #[test]
    fn a_refused_mapping_insert_keeps_the_closure_caches() {
        let mut sys = fig2_unmapped();
        let q = TriplePatternQuery::example_aspergillus();
        search(&mut sys, PeerId(3), &q, Strategy::Iterative).unwrap();
        let state = |sys: &GridVineSystem| (sys.cached_closures(), sys.registry().epoch());
        assert_eq!(state(&sys), (1, 0), "one warm closure");
        let holder = sys.topology().responsible(&sys.key_of("EMP"))[0];
        sys.crash_peer(holder);
        assert_eq!(fig2_mapping(&mut sys), Err(SystemError::PeerDown(holder)));
        assert_eq!(state(&sys), (1, 0));
        assert_eq!(sys.registry().mappings().count(), 0);
        assert_eq!(sys.check(), Ok(()));
    }

    /// Write a target-side copy of `mapping` under `key` by hand, behind
    /// the write path's back, and check the system.
    fn write_behind(
        sys: &mut GridVineSystem,
        op: UpdateOp,
        key: &BitString,
        mapping: &Mapping,
    ) -> Result<(), Broken> {
        let item = MediationItem::Mapping {
            mapping: mapping.clone(),
            at_source: false,
        };
        let rng = &mut sys.rng;
        sys.overlay
            .update(PeerId(0), op, key.clone(), item, rng)
            .unwrap();
        sys.check()
    }

    #[test]
    fn check_names_a_manufactured_half_commit() {
        let mut sys = fig2_system();
        assert_eq!(sys.check(), Ok(()));
        let m = sys.registry().mappings().next().unwrap().clone();
        let holder = |sys: &GridVineSystem, key| sys.topology().responsible(key)[0];
        // The one-way bug: the target-side copy is gone.
        let key = sys.key_of("EMP");
        let (id, peer) = (m.id, holder(&sys, &key));
        let at = key.clone();
        let broken = move |copies| {
            let key = at.clone();
            Err(Broken::MappingCopies {
                id,
                key,
                peer,
                copies,
            })
        };
        let missing = write_behind(&mut sys, UpdateOp::Delete, &key, &m);
        assert_eq!(missing, broken(vec![]));
        // A stale copy beside the right one.
        write_behind(&mut sys, UpdateOp::Insert, &key, &m).unwrap();
        let mut stale = m.clone();
        stale.status = MappingStatus::Deprecated;
        let twice = write_behind(&mut sys, UpdateOp::Insert, &key, &stale);
        assert_eq!(twice, broken(vec![m.clone(), stale.clone()]));
        write_behind(&mut sys, UpdateOp::Delete, &key, &stale).unwrap();
        // A copy where no registry entry places one.
        let elsewhere = sys.key_of("EMBL#Organism");
        let peer = holder(&sys, &elsewhere);
        let orphan = write_behind(&mut sys, UpdateOp::Insert, &elsewhere, &m);
        let key = elsewhere.clone();
        assert_eq!(orphan, Err(Broken::Orphan { id, key, peer }));
        write_behind(&mut sys, UpdateOp::Delete, &elsewhere, &m).unwrap();
        // A schema whose holder lost its definition.
        let schema = SchemaId::new("EMP");
        let emp = sys.registry().schema(&schema).unwrap().clone();
        let (key, item) = (sys.key_of("EMP"), MediationItem::Schema(emp));
        let peer = holder(&sys, &key);
        let rng = &mut sys.rng;
        sys.overlay
            .update(PeerId(0), UpdateOp::Delete, key, item, rng)
            .unwrap();
        assert_eq!(sys.check(), Err(Broken::MissingSchema { schema, peer }));
        // A row outside its keys' σ groups.
        let t = Triple::new("seq:Z1", "EMBL#Organism", Term::literal("Zea mays"));
        let keys = sys.keyspace().triple_keys(&t);
        let owners: Vec<&PeerId> = keys
            .iter()
            .flat_map(|k| sys.topology().responsible(k))
            .collect();
        let stray = (0..32).map(PeerId).find(|p| !owners.contains(&p)).unwrap();
        sys.local_dbs[stray.index()].insert(t.clone());
        let misplaced = Broken::Misplaced {
            peer: stray,
            triple: t,
        };
        assert_eq!(sys.check(), Err(misplaced));
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
    fn assessment_pass_deprecates_and_charges_probes() {
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
        assert_eq!(report.deprecated, vec![bad]);
        assert_eq!(
            sys.registry().mapping(bad).unwrap().status,
            MappingStatus::Deprecated
        );
        // The DHT copies reflect the deprecation.
        let maps = sys
            .mappings_at_schema(PeerId(1), &SchemaId::new("C"))
            .unwrap();
        assert!(maps.iter().all(|m| !m.is_active()));
        // A second pass deprecates nothing: the bad mapping is
        // inactive, so it is outside the new assessment.
        let again = sys.assessment_pass(origin, &cfg).unwrap();
        assert!(again.deprecated.is_empty(), "{again:?}");
        assert_eq!(
            sys.registry().mapping(bad).unwrap().status,
            MappingStatus::Deprecated
        );
    }

    #[test]
    fn a_probe_that_meets_a_down_peer_leaves_its_cycle_out() {
        let (mut sys, bad) = triangle_system();
        let cfg = gridvine_semantic::BayesConfig::default();
        let cycles = find_cycles(sys.registry(), cfg.max_cycle_len);
        let [cycle] = &cycles[..] else {
            panic!("the triangle is one cycle: {cycles:?}");
        };
        assert_eq!(cycle.outcome, CycleOutcome::Inconsistent);
        // Every peer holding the cycle's base key is down, and the
        // origin is not one of them.
        let key = sys.key_of(cycle.base.as_str());
        let holders: Vec<PeerId> = (0..32)
            .map(PeerId)
            .filter(|&p| sys.overlay.view(p).is_responsible(&key))
            .collect();
        let origin = (0..32).map(PeerId).find(|p| !holders.contains(p)).unwrap();
        holders.iter().for_each(|&p| sys.crash_peer(p));

        let report = sys.assessment_pass(origin, &cfg).unwrap();
        assert_eq!(report.cycles_probed, 1);
        assert_eq!(report.stats.failures, 1);
        // Without its one cycle the wrong mapping has no evidence against
        // it: it keeps the prior and stays active.
        assert!(report.deprecated.is_empty(), "{report:?}");
        let m = sys.registry().mapping(bad).unwrap();
        assert_eq!(m.quality, cfg.prior);
        assert_eq!(m.status, MappingStatus::Active);

        // With the holders back, the probe answers and the cycle
        // condemns it.
        holders.iter().for_each(|&p| sys.recover_peer(p));
        let report = sys.assessment_pass(origin, &cfg).unwrap();
        assert_eq!(report.stats.failures, 0);
        assert_eq!(report.deprecated, vec![bad]);
    }

    #[test]
    fn a_refresh_that_meets_a_down_holder_keeps_its_registry_entry() {
        let (mut sys, bad) = triangle_system();
        let cfg = gridvine_semantic::BayesConfig::default();
        let cycles = find_cycles(sys.registry(), cfg.max_cycle_len);
        let base = sys.key_of(cycles[0].base.as_str());
        // The wrong mapping C → A lives at C's key space only.
        let holder = sys.topology().responsible(&sys.key_of("C"))[0];
        assert!(!sys.topology().responsible(&base).contains(&holder));
        let origin = PeerId(5);
        assert_ne!(origin, holder);
        sys.crash_peer(holder);
        let report = sys.assessment_pass(origin, &cfg).unwrap();
        assert!(report.deprecated.is_empty(), "{report:?}");
        assert!(report.stats.failures >= 1, "{report:?}");
        let m = sys.registry().mapping(bad).unwrap();
        assert_eq!(m.status, MappingStatus::Active);
        assert_eq!(sys.check(), Ok(()));

        sys.recover_peer(holder);
        let report = sys.assessment_pass(origin, &cfg).unwrap();
        assert_eq!(report.deprecated, vec![bad]);
        assert_eq!(sys.check(), Ok(()));
    }

    #[test]
    fn the_rounds_assessment_is_the_pass() {
        let (mut sys, bad) = triangle_system();
        let clock_before = sys.now();
        let cfg = crate::selforg::SelfOrgConfig {
            max_new_mappings: 0,
            ..Default::default()
        };
        let report = sys.self_organization_round(&cfg).unwrap();
        assert_eq!(report.deprecated, vec![bad]);
        assert_eq!(
            sys.registry().mapping(bad).unwrap().status,
            MappingStatus::Deprecated
        );
        let maps = sys
            .mappings_at_schema(PeerId(1), &SchemaId::new("C"))
            .unwrap();
        assert!(maps.iter().all(|m| !m.is_active()));
        assert!(sys.now() > clock_before, "the probes advance the clock");
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
