//! The physical executor's blocking surface: [`GridVineSystem::execute`]
//! evaluates every logical [`QueryPlan`] by draining a pull-based
//! [`QuerySession`](super::session::QuerySession).
//!
//! Callers build a plan and either drain it blockingly here or pull
//! it incrementally (first-result latency, early termination, per-hop
//! provenance) through [`GridVineSystem::open`](super::session) — the
//! two are equivalent on results and message accounting when the
//! session is drained; see the [`super::session`] module docs for the
//! event protocol. Every plan shape answers with one [`QueryOutcome`]
//! ([`QueryOutcome::rows`], or [`QueryOutcome::terms`] of a
//! distinguished variable) and the shared [`ExecStats`] counters.
//!
//! ## Execution model
//!
//! Every plan bottoms out in *routed pattern resolutions*: route to
//! `Hash(routing constant)`, charge the response message, and evaluate
//! the destination peer's indexed `DB_p` through the store's scan
//! kernel
//! ([`TripleStore::match_into`](gridvine_rdf::TripleStore::match_into)),
//! which appends the matching rows to the caller's columnar
//! [`BindingBatch`] — variable names once per batch, terms row-major —
//! so a destination ships exactly the terms it matched and builds no
//! per-row map. Shipped rows stay in that form up to the result
//! boundary: all hops of one closure sweep append to one batch (a
//! reformulation only swaps the predicate constant, so they share its
//! header), single-pattern plans dedup straight off the batch's
//! distinguished column, and join plans hand whole batches to
//! [`TermInterner::encode_batch`](gridvine_rdf::join::TermInterner::encode_batch).
//! [`Binding`]s are built in one place per plan shape — the session's
//! row admission — once per admitted *distinct* row, for
//! [`ResultEvent::Rows`](super::session::ResultEvent) and
//! [`QueryOutcome::rows`].
//! Join plans feed the per-pattern row sets through the
//! [`hash-join engine`](gridvine_rdf::join) in the planner's order.
//!
//! ## The closure walk
//!
//! The reformulation rule itself — which mappings apply out of a hop,
//! which schemas they admit, at what path quality — is
//! [`gridvine_semantic::expand_hop`], shared with the registry-local
//! [`reformulations`](gridvine_semantic::reformulations) and the WAN
//! driver ([`crate::harness`]). `ClosureSweep` adds what is this
//! engine's own: mapping lists are *fetched* (one routed discovery per
//! expanded hop, iterative or recursive), hops are resolved depth-first,
//! one per session pull, with discovery deferred so early termination
//! never pays for it, and a walk that completes is committed to the
//! per-peer epoch-keyed [`ClosureCache`](gridvine_semantic::ClosureCache)
//! — the origin's, or the recursive delegate's — from which repeated
//! closures are replayed ([`CachedHop::replay`]) with no discovery at
//! all (see the session docs).
//!
//! ```
//! use gridvine_core::{GridVineConfig, GridVineSystem, QueryOptions, QueryPlan, Strategy};
//! use gridvine_pgrid::PeerId;
//! use gridvine_rdf::{Term, Triple, TriplePatternQuery};
//! use gridvine_semantic::{Correspondence, MappingKind, Provenance, Schema};
//!
//! let mut sys = GridVineSystem::new(GridVineConfig::default());
//! let p = PeerId(0);
//! sys.insert_schema(p, Schema::new("EMBL", ["Organism"]))?;
//! sys.insert_schema(p, Schema::new("EMP", ["SystematicName"]))?;
//! sys.insert_mapping(p, "EMBL", "EMP", MappingKind::Equivalence, Provenance::Manual,
//!     vec![Correspondence::new("Organism", "SystematicName")])?;
//! sys.insert_triple(p, Triple::new("seq:A78712", "EMBL#Organism",
//!     Term::literal("Aspergillus niger")))?;
//! sys.insert_triple(p, Triple::new("seq:NEN94295-05", "EMP#SystematicName",
//!     Term::literal("Aspergillus oryzae")))?;
//!
//! let plan = QueryPlan::search(TriplePatternQuery::example_aspergillus());
//! let out = sys.execute(PeerId(3), &plan, &QueryOptions::new().strategy(Strategy::Recursive))?;
//! assert_eq!(out.rows.len(), 2); // both records, across schemas
//! assert_eq!(out.stats.reformulations, 1);
//! assert!(out.stats.messages > 0);
//! # Ok::<(), gridvine_core::SystemError>(())
//! ```

use super::conjunctive::JoinMode;
use super::*;
use crate::plan::QueryPlan;
use gridvine_rdf::{Binding, BindingBatch, TriplePattern};
use gridvine_semantic::{expand_hop, CachedHop, ClosureKey, Hop, Mapping};

/// Physical execution knobs for one [`GridVineSystem::execute`] /
/// [`GridVineSystem::open`] call: a builder carrying the reformulation
/// [`Strategy`], the conjunctive [`JoinMode`], a TTL override and an
/// optional result cap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryOptions {
    pub(crate) strategy: Strategy,
    pub(crate) join_mode: JoinMode,
    pub(crate) ttl: Option<usize>,
    pub(crate) limit: Option<usize>,
    pub(crate) window: usize,
    pub(crate) max_retries: usize,
}

/// Default retransmit budget of one routed request (see
/// [`QueryOptions::max_retries`]).
pub(crate) const DEFAULT_MAX_RETRIES: usize = 3;

impl Default for QueryOptions {
    /// Iterative reformulation, bound-substitution joins, the system's
    /// configured TTL, unlimited results, one subquery in flight.
    fn default() -> QueryOptions {
        QueryOptions {
            strategy: Strategy::Iterative,
            join_mode: JoinMode::BoundSubstitution,
            ttl: None,
            limit: None,
            window: 1,
            max_retries: DEFAULT_MAX_RETRIES,
        }
    }
}

impl QueryOptions {
    pub fn new() -> QueryOptions {
        QueryOptions::default()
    }

    /// How reformulated queries travel the mapping network (§4).
    pub fn strategy(mut self, strategy: Strategy) -> QueryOptions {
        self.strategy = strategy;
        self
    }

    /// How conjunctive binding sets are combined (ablation A4).
    pub fn join_mode(mut self, mode: JoinMode) -> QueryOptions {
        self.join_mode = mode;
        self
    }

    /// Override the system's reformulation TTL for this query.
    pub fn ttl(mut self, ttl: usize) -> QueryOptions {
        self.ttl = Some(ttl);
        self
    }

    /// Keep up to `window` subqueries of this session in flight on the
    /// simulated clock (see [`crate::system::sched`]): independent
    /// closure hops, prefix probes and bound-join groups pipeline
    /// instead of serializing, cutting simulated first-result latency.
    /// The row multiset and the total message count are identical for
    /// every window size — only the clock (and event delivery order)
    /// changes. Clamped to at least 1; the default of 1 reproduces the
    /// strictly serial pull order.
    pub fn window(mut self, window: usize) -> QueryOptions {
        self.window = window.max(1);
        self
    }

    /// Stop after `limit` distinct result rows — **genuine early
    /// termination**: the session stops advancing the closure walk (or
    /// the bound-join group queue) the moment the cap is reached, so
    /// the remaining remote subqueries are never issued and a limited
    /// query sends strictly fewer messages than an unlimited one
    /// whenever any dissemination remained. The kept rows are the
    /// first `limit` distinct rows in (deterministic) discovery order,
    /// returned sorted.
    pub fn limit(mut self, limit: usize) -> QueryOptions {
        self.limit = Some(limit);
        self
    }

    /// Retransmit budget per routed request: a request whose reply
    /// times out (lost under [`GridVineConfig::fault`](crate::GridVineConfig),
    /// or the destination is churn-down) is retransmitted with
    /// exponential backoff + jitter up to `retries` times before the
    /// unit resolves as a recorded failure — the closure walk
    /// terminates that branch and the session continues with partial
    /// results (see [`crate::system::sched`]). Irrelevant under the
    /// default null fault config with no churn, where no request ever
    /// times out.
    pub fn max_retries(mut self, retries: usize) -> QueryOptions {
        self.max_retries = retries;
        self
    }
}

/// Execution counters shared by every plan shape.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Overlay messages consumed.
    pub messages: u64,
    /// Routed pattern resolutions (original patterns, reformulations
    /// and bound-substituted instances all count; prefix sweeps count
    /// one per visited region).
    pub subqueries: usize,
    /// Mapping applications across the whole plan.
    pub reformulations: usize,
    /// Schemas reached, summed over patterns (each pattern's traversal
    /// counts its own distinct set, including its own schema).
    pub schemas_visited: usize,
    /// Resolutions that could not be routed or resolved.
    pub failures: usize,
    /// Matching bindings returned by destination peers before any join
    /// or dedup — a proxy for result bytes on the wire.
    pub bindings_shipped: usize,
    /// High-water mark of simultaneously in-flight subqueries (1 for a
    /// fully serial session; up to [`QueryOptions::window`]).
    pub max_in_flight: usize,
    /// Mapping-list retrieves performed (closure discovery steps that
    /// actually went to the network — warm cache replays skip these).
    pub mapping_fetches: usize,
    /// Closure-cache lookups served from a coherent entry.
    pub cache_hits: usize,
    /// Closure-cache lookups that found no coherent entry.
    pub cache_misses: usize,
    /// Closure-cache entries displaced by a capacity bound.
    pub cache_evictions: usize,
    /// Routed request/response exchanges driven through the retry
    /// protocol (see [`crate::system::sched`]); charged at issue.
    pub requests: usize,
    /// Protocol-level transmissions: first sends plus retransmits
    /// (`sends == requests + retransmits` always holds).
    pub sends: usize,
    /// Request attempts whose reply never arrived before the retry
    /// timer fired (lost, or the destination was churn-down).
    pub timeouts: usize,
    /// Timed-out requests sent again after backoff.
    pub retransmits: usize,
    /// Duplicated unit replies dropped by request-id dedup. Charged at
    /// *delivery* (unlike every other counter, which charges at
    /// issue), so duplicates of a session's final units may land after
    /// the last per-unit `Stats` delta was emitted.
    pub duplicates_dropped: usize,
    /// Cycle probes issued by quality-assessment passes
    /// ([`GridVineSystem::assessment_pass`]): one routed retrieve per
    /// mapping cycle, driven through the retry protocol, so every probe
    /// costs messages, requests and simulated latency like any
    /// subquery. Always 0 for query sessions.
    pub assessment_probes: usize,
    /// Mappings moved to
    /// [`MappingStatus::Quarantined`](gridvine_semantic::MappingStatus)
    /// by an assessment pass (re-confirmed quarantines of paroled edges
    /// included). Always 0 for query sessions.
    pub quarantined_mappings: usize,
    /// Pattern resolutions served off the replica-aware routing path
    /// (a placement rule covered the routed key — see
    /// [`crate::system::place`]). Always 0 under the null policy.
    pub replica_hits: usize,
    /// Replica holders skipped because they were down (crashed, or the
    /// retry budget ran out against a churn-down holder) before a live
    /// holder served the unit.
    pub failovers: usize,
    /// Heat-spike placement changes (replica creations and migrations)
    /// charged to this session's units.
    pub migrations: usize,
}

/// What one [`GridVineSystem::execute`] call produced: solution rows
/// (projected onto the distinguished variables, deduplicated, sorted)
/// plus the shared [`ExecStats`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct QueryOutcome {
    /// Solution rows. Single-pattern plans bind exactly the
    /// distinguished variable; join plans bind the query's
    /// distinguished variables.
    pub rows: Vec<Binding>,
    pub stats: ExecStats,
}

impl QueryOutcome {
    /// Distinct terms bound to `var` across the rows, sorted.
    pub fn terms(&self, var: &str) -> Vec<Term> {
        let mut out: Vec<Term> = self
            .rows
            .iter()
            .filter_map(|b| b.get(var).cloned())
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Accessions extracted from `seq:` subjects among the bound terms
    /// (for recall against workload ground truth).
    pub fn accessions(&self) -> BTreeSet<String> {
        self.rows
            .iter()
            .flat_map(|b| b.iter())
            .filter_map(|(_, t)| t.as_uri())
            .filter_map(|u| u.as_str().strip_prefix("seq:"))
            .map(|s| s.to_string())
            .collect()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }
}

/// One pattern's traversal of the mapping network (the per-pattern
/// inner loop of join plans; single-pattern closures run the same hops
/// through the incremental session state instead).
#[derive(Debug, Clone)]
pub(crate) struct NetSweep {
    /// Every hop's shipped rows, in hop order, under the pattern's one
    /// header.
    pub(crate) batch: BindingBatch,
    /// Per-hop counters accumulated via [`SweepHop::charge`]
    /// (`bindings_shipped` stays 0 here — the sweep level charges it
    /// from `batch`).
    stats: ExecStats,
}

impl NetSweep {
    /// Fold this pattern-level traversal into the plan-level stats.
    pub(crate) fn charge(&self, stats: &mut ExecStats) {
        stats.subqueries += self.stats.subqueries;
        stats.reformulations += self.stats.reformulations;
        stats.schemas_visited += self.stats.schemas_visited;
        stats.failures += self.stats.failures;
        stats.bindings_shipped += self.batch.len();
        stats.mapping_fetches += self.stats.mapping_fetches;
        stats.cache_hits += self.stats.cache_hits;
        stats.cache_misses += self.stats.cache_misses;
        stats.cache_evictions += self.stats.cache_evictions;
    }
}

/// A one-variable solution row.
pub(crate) fn one_var_row(var: &str, term: Term) -> Binding {
    let mut b = Binding::new();
    b.bind(var.to_string(), term);
    b
}

/// Incremental closure expansion of one schema'd pattern — the single
/// implementation behind both consumers: the session drives it one
/// [`ClosureSweep::resolve_next`] per pull (with
/// [`ClosureSweep::expand_pending`] skipped on early termination), the
/// bulk join sweep drains it in a loop. Both observe the identical hop
/// sequence, resolutions and cache interactions, so their accounting
/// agrees by construction.
pub(crate) enum ClosureSweep {
    /// Live walk over DHT-fetched mapping lists; `record` accumulates
    /// the hop list for the closure cache. `pending` is the hop
    /// resolved by the last `resolve_next` (with the peer that issued
    /// it and, recursively, forwards the discovery) whose mapping
    /// discovery has not run yet. `delegate` is the intermediate peer
    /// that served
    /// the first recursive mapping discovery — the peer whose cache a
    /// completed recursive walk warms.
    ///
    /// The sweep owns its pattern (and the walk's reformulated
    /// patterns) so session state can live in a
    /// [`SessionPool`](super::pool::SessionPool) that outlives the
    /// plan borrow.
    Cold {
        pattern: TriplePattern,
        /// Schemas entered or queued so far (the loop-prevention set of
        /// [`expand_hop`]).
        visited: BTreeSet<SchemaId>,
        /// Admitted hops not yet resolved, each with the peer that will
        /// issue it; popped from the back (depth-first: each
        /// reformulation chain is driven to its TTL before siblings).
        frontier: Vec<(Hop, PeerId)>,
        record: (ClosureKey, Vec<CachedHop>),
        pending: Option<Box<(Hop, PeerId)>>,
        delegate: Option<PeerId>,
        /// A discovery failed (crashed destination): the walk is
        /// missing a subtree, so the record must never be committed —
        /// a partial closure replayed as complete would silently drop
        /// rows even after the peer recovers.
        tainted: bool,
    },
    /// Replay of a memoized closure: resolve each recorded hop's
    /// predicate from `issuer` (the origin for iterative replays, the
    /// delegate peer for recursive ones), no mapping discovery at all.
    Warm {
        pattern: TriplePattern,
        hops: std::sync::Arc<[CachedHop]>,
        next: usize,
        issuer: PeerId,
    },
}

/// What one [`ClosureSweep::expand_pending`] call did: the schemas it
/// admitted to the frontier (the session stamps their scheduler ready
/// times with the expansion's completion instant).
#[derive(Debug, Default)]
pub(crate) struct Expansion {
    pub(crate) admitted: Vec<SchemaId>,
}

/// One resolved hop of a [`ClosureSweep`].
pub(crate) struct SweepHop {
    pub(crate) schema: SchemaId,
    pub(crate) depth: usize,
    pub(crate) quality: f64,
    /// How many rows the destination appended to the caller's batch,
    /// or `None` when the resolution failed (charged as a failure, the
    /// walk continues).
    pub(crate) shipped: Option<usize>,
}

impl SweepHop {
    /// Fold this hop into the consumer's counters — the one charging
    /// rule both the session and the bulk sweep apply, so their
    /// accounting cannot drift. `bindings_shipped` is charged by the
    /// consumer (it decides whether bindings are shipped per hop or
    /// aggregated per sweep).
    pub(crate) fn charge(&self, stats: &mut ExecStats) {
        stats.subqueries += 1;
        stats.schemas_visited += 1;
        if self.depth > 0 {
            stats.reformulations += 1;
        }
        if self.shipped.is_none() {
            stats.failures += 1;
        }
    }
}

impl ClosureSweep {
    /// Start a sweep for one schema'd pattern. The **iterative**
    /// strategy consults the *origin* peer's bounded cache here: a
    /// coherent entry means a warm replay (no BFS, no mapping-list
    /// retrieves). The **recursive** strategy cannot know its delegate
    /// peer before routing the first discovery, so its cache consult
    /// happens inside [`ClosureSweep::expand_pending`] instead. Either
    /// way exactly one lookup is charged per sweep
    /// (`cache_hits`/`cache_misses`).
    #[allow(clippy::too_many_arguments)] // one call site per consumer; a
                                         // params struct would just rename the arguments
    pub(crate) fn open(
        sys: &mut GridVineSystem,
        origin: PeerId,
        pattern: &TriplePattern,
        schema: SchemaId,
        attr: String,
        strategy: Strategy,
        ttl: usize,
        stats: &mut ExecStats,
    ) -> ClosureSweep {
        let key = ClosureKey {
            schema: schema.clone(),
            attr,
            ttl,
        };
        if strategy == Strategy::Iterative {
            let epoch = sys.registry.epoch();
            if let Some(hops) = sys.exec_state_mut(origin).cache.lookup(epoch, &key) {
                stats.cache_hits += 1;
                return ClosureSweep::Warm {
                    pattern: pattern.clone(),
                    hops,
                    next: 0,
                    issuer: origin,
                };
            }
            stats.cache_misses += 1;
        }
        ClosureSweep::Cold {
            pattern: pattern.clone(),
            visited: BTreeSet::from([schema.clone()]),
            frontier: vec![(Hop::origin(schema, pattern.clone()), origin)],
            record: (key, Vec::new()),
            pending: None,
            delegate: None,
            tainted: false,
        }
    }

    /// No hops left to resolve or expand.
    pub(crate) fn is_exhausted(&self) -> bool {
        match self {
            ClosureSweep::Cold {
                frontier, pending, ..
            } => frontier.is_empty() && pending.is_none(),
            ClosureSweep::Warm { hops, next, .. } => *next >= hops.len(),
        }
    }

    /// A resolved hop is waiting for its expansion.
    pub(crate) fn has_pending(&self) -> bool {
        matches!(
            self,
            ClosureSweep::Cold {
                pending: Some(_),
                ..
            }
        )
    }

    /// Pop and resolve the next hop, appending the destination's rows
    /// to `out` (expansion deferred to
    /// [`ClosureSweep::expand_pending`], so an early-terminating caller
    /// never pays for discovery it will not use). Every hop's pattern
    /// differs from the sweep's only in its predicate constant, so all
    /// hops share `out`'s header. Returns `None` once the sweep is
    /// drained.
    pub(crate) fn resolve_next(
        &mut self,
        sys: &mut GridVineSystem,
        origin: PeerId,
        out: &mut BindingBatch,
    ) -> Result<Option<SweepHop>, SystemError> {
        match self {
            ClosureSweep::Warm {
                pattern,
                hops,
                next,
                issuer,
            } => {
                let Some(hop) = hops.get(*next).cloned() else {
                    return Ok(None);
                };
                *next += 1;
                let pat = hop.replay(pattern);
                // Iterative replays issue from the origin (which is
                // also `issuer`); recursive replays from the delegate
                // peer that memoized the closure.
                let from = if hop.depth == 0 { origin } else { *issuer };
                let shipped = sys.resolve_pattern_once(from, &pat, out).ok();
                Ok(Some(SweepHop {
                    schema: hop.schema,
                    depth: hop.depth,
                    quality: hop.quality,
                    shipped,
                }))
            }
            ClosureSweep::Cold {
                frontier,
                record,
                pending,
                ..
            } => {
                debug_assert!(
                    pending.is_none(),
                    "expand or discard the previous hop first"
                );
                let Some((hop, at_peer)) = frontier.pop() else {
                    return Ok(None);
                };
                record.1.push(CachedHop::record(&hop));
                let shipped = sys.resolve_pattern_once(at_peer, &hop.pattern, out).ok();
                let resolved = SweepHop {
                    schema: hop.schema.clone(),
                    depth: hop.depth,
                    quality: hop.quality,
                    shipped,
                };
                *pending = Some(Box::new((hop, at_peer)));
                Ok(Some(resolved))
            }
        }
    }

    /// Expand the hop the last `resolve_next` produced: discover the
    /// mappings applicable at its schema (within the TTL) and admit the
    /// newly reachable schemas (a no-op on warm replays — the recorded
    /// closure already is the expansion). When the walk exhausts here,
    /// the recorded closure is committed to a per-peer cache — the
    /// origin's for iterative walks, the delegate's for recursive ones;
    /// an early-terminating caller that stops pulling (or calls
    /// [`ClosureSweep::discard_pending`]) never commits a partial walk.
    ///
    /// A recursive walk additionally consults the delegate peer's cache
    /// at its first discovery: on a coherent entry the sweep switches
    /// to a warm replay of the remaining recorded hops and every deeper
    /// mapping-list retrieve is skipped.
    ///
    /// A crashed discovery destination ([`SystemError::PeerDown`]) is
    /// charged as a failure and the hop is simply not expanded — the
    /// walk continues rather than hanging or erroring out.
    pub(crate) fn expand_pending(
        &mut self,
        sys: &mut GridVineSystem,
        origin: PeerId,
        strategy: Strategy,
        ttl: usize,
        stats: &mut ExecStats,
    ) -> Result<Expansion, SystemError> {
        let ClosureSweep::Cold {
            pattern,
            visited,
            frontier,
            record,
            pending,
            delegate,
            tainted,
        } = self
        else {
            return Ok(Expansion::default());
        };
        let Some(resolved) = pending.take() else {
            return Ok(Expansion::default());
        };
        let (hop, at_peer) = *resolved;
        let mut admitted = Vec::new();
        if hop.depth < ttl {
            let (next_peer, mappings) =
                match sys.discover_mappings(origin, at_peer, &hop.schema, strategy) {
                    Ok(found) => found,
                    Err(SystemError::PeerDown(_)) => {
                        stats.failures += 1;
                        *tainted = true;
                        return Ok(Expansion { admitted });
                    }
                    Err(e) => return Err(e),
                };
            stats.mapping_fetches += 1;
            if strategy == Strategy::Recursive && hop.depth == 0 {
                *delegate = Some(next_peer);
                // The delegate may have memoized this closure from an
                // earlier recursive walk: replay its tail instead of
                // chasing deeper mapping lists.
                let epoch = sys.registry.epoch();
                let cached = sys.exec_state_mut(next_peer).cache.lookup(epoch, &record.0);
                match cached {
                    Some(hops) => {
                        stats.cache_hits += 1;
                        let admitted: Vec<SchemaId> =
                            hops.iter().skip(1).map(|h| h.schema.clone()).collect();
                        let pattern = pattern.clone();
                        *self = ClosureSweep::Warm {
                            pattern,
                            hops,
                            next: 1, // depth 0 was already resolved live
                            issuer: next_peer,
                        };
                        return Ok(Expansion { admitted });
                    }
                    None => stats.cache_misses += 1,
                }
            }
            expand_hop(&hop, &mappings, visited, |reached, _, _| {
                admitted.push(reached.schema.clone());
                frontier.push((reached, next_peer));
            });
        }
        if frontier.is_empty() && !*tainted {
            let key = record.0.clone();
            let hops = std::mem::take(&mut record.1);
            let target = match strategy {
                Strategy::Iterative => Some(origin),
                Strategy::Recursive => *delegate,
            };
            if let Some(at) = target {
                let epoch = sys.registry.epoch();
                let cache = &mut sys.exec_state_mut(at).cache;
                let evictions_before = cache.counters().evictions;
                cache.insert(epoch, key, hops);
                stats.cache_evictions += (cache.counters().evictions - evictions_before) as usize;
            }
        }
        Ok(Expansion { admitted })
    }

    /// Drop the pending hop without expanding it (early termination:
    /// its discovery messages are never sent and no cache entry is
    /// committed).
    pub(crate) fn discard_pending(&mut self) {
        if let ClosureSweep::Cold { pending, .. } = self {
            *pending = None;
        }
    }
}

impl GridVineSystem {
    /// Evaluate a logical [`QueryPlan`] from `origin` under `options` —
    /// the blocking `SearchFor` entry point (§2.3, §3, §4) behind which
    /// pattern lookups, prefix range sweeps, reformulation closures and
    /// conjunctive joins all run.
    ///
    /// This is a thin drain of [`GridVineSystem::open`]: it pulls the
    /// session to completion and returns the accumulated outcome, so
    /// `execute` and a drained session are identical on results *and*
    /// message accounting (the equivalence proptests pin this). Every
    /// hop, response and replica propagation is charged on the overlay
    /// counter and reported in [`ExecStats::messages`].
    pub fn execute(
        &mut self,
        origin: PeerId,
        plan: &QueryPlan,
        options: &QueryOptions,
    ) -> Result<QueryOutcome, SystemError> {
        let mut session = self.open(origin, plan, options)?;
        while session.next_event()?.is_some() {}
        Ok(session.into_outcome())
    }

    /// Route one concrete triple pattern and append every matching row
    /// of the destination's `DB_p` to `out` (whose header is the
    /// pattern's variables), returning how many it shipped; the
    /// response message is charged exactly as a `Retrieve`. Nothing is
    /// appended on `Err`.
    pub(crate) fn resolve_pattern_once(
        &mut self,
        origin: PeerId,
        pattern: &TriplePattern,
        out: &mut BindingBatch,
    ) -> Result<usize, SystemError> {
        let Some((_, term)) = pattern.routing_constant() else {
            return Err(SystemError::NotRoutable);
        };
        // Replica-aware fast path: if a placement rule covers this
        // key, serve from the lowest-expected-latency live holder and
        // fail over across the replica set before reporting PeerDown.
        // Returns None under the null policy — the classic routed
        // path below then runs with untouched accounting and RNG.
        if let Some(resolved) = self.replica_route(origin, term.lexical()) {
            let dest = resolved?;
            let db = &self.local_dbs[dest.index()];
            return Ok(db.match_into(pattern, out));
        }
        // Consecutive resolutions often route by the same constant (a
        // bound-join instance routes by its substituted subject at
        // every hop of its closure): hash it once.
        if !matches!(&self.routed_key, Some((t, _)) if t == term) {
            self.routed_key = Some((term.clone(), self.key_of(term.lexical())));
        }
        let (_, key) = self.routed_key.as_ref().expect("just memoized");
        let route = self.overlay.route(origin, key, &mut self.rng)?;
        self.overlay.charge_response(origin, route.destination);
        // The request (and the response charge) went out; the retry
        // protocol decides whether a reply ever comes back.
        self.proto_request(origin, route.destination)?;
        let db = &self.local_dbs[route.destination.index()];
        Ok(db.match_into(pattern, out))
    }

    /// Fetch the mappings applicable at `schema` per the strategy:
    /// iterative pulls the list back to the origin (one Retrieve +
    /// response); recursive forwards the query to the schema-key peer,
    /// which reads its local list for free and becomes the next hop's
    /// issuer. Returns `(issuing peer for the next hops, mappings)`.
    pub(crate) fn discover_mappings(
        &mut self,
        origin: PeerId,
        at_peer: PeerId,
        schema: &SchemaId,
        strategy: Strategy,
    ) -> Result<(PeerId, Vec<Mapping>), SystemError> {
        match strategy {
            Strategy::Iterative => Ok((origin, self.mappings_at_schema(origin, schema)?)),
            Strategy::Recursive => {
                let schema_key = self.key_of(schema.as_str());
                let route = self.overlay.route(at_peer, &schema_key, &mut self.rng)?;
                self.proto_request(at_peer, route.destination)?;
                let maps = self
                    .overlay
                    .store(route.destination)
                    .get(&schema_key)
                    .iter()
                    .filter_map(|i| i.clone().into_mapping())
                    .collect();
                Ok((route.destination, maps))
            }
        }
    }

    /// Resolve a pattern over the mapping network: answer it in its own
    /// schema, then in every schema reachable through active mappings
    /// (within the TTL), aggregating bindings. Patterns whose predicate
    /// is a variable (or does not name a schema) are resolved once,
    /// without reformulation — there is no schema to translate from.
    ///
    /// Under the iterative strategy the fully-expanded closure is
    /// memoized in the system's epoch-keyed
    /// [`ClosureCache`](gridvine_semantic::ClosureCache): while the
    /// mapping network is unchanged, a repeated sweep replays the
    /// recorded hops from the origin — identical resolutions, identical
    /// result bindings, but no mapping-list retrieves at all. This is
    /// the bulk (join-pattern) twin of the session's incremental
    /// closure state; both record and replay the same cache entries.
    pub(crate) fn sweep_pattern_network(
        &mut self,
        origin: PeerId,
        pattern: &TriplePattern,
        strategy: Strategy,
        ttl: usize,
    ) -> Result<NetSweep, SystemError> {
        let mut net = NetSweep {
            batch: BindingBatch::for_pattern(pattern),
            stats: ExecStats::default(),
        };
        let Ok((origin_schema, attr)) = gridvine_semantic::pattern_schema(pattern) else {
            // Un-schema'd pattern: a single routed resolution.
            net.stats.subqueries = 1;
            self.resolve_pattern_once(origin, pattern, &mut net.batch)?;
            return Ok(net);
        };
        let mut sweep = ClosureSweep::open(
            self,
            origin,
            pattern,
            origin_schema,
            attr,
            strategy,
            ttl,
            &mut net.stats,
        );
        while let Some(hop) = sweep.resolve_next(self, origin, &mut net.batch)? {
            hop.charge(&mut net.stats);
            sweep.expand_pending(self, origin, strategy, ttl, &mut net.stats)?;
        }
        Ok(net)
    }
}
