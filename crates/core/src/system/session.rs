//! Pull-based query sessions: incremental `SearchFor` with genuine
//! early termination, scheduled on the simulated clock.
//!
//! GridVine's query model is inherently incremental — reformulations
//! fan out hop-by-hop through the mapping network and results trickle
//! back per destination peer — but a monolithic
//! [`GridVineSystem::execute`] drains the whole closure walk before
//! returning anything. A [`QuerySession`] exposes the walk itself:
//! [`GridVineSystem::open`] validates the plan and *performs no work*;
//! [`QuerySession::next_event`] pulls advance the underlying closure
//! walk (`ClosureSweep`; or prefix sweep, or join pipeline) and
//! yield the [`ResultEvent`]s it produces.
//!
//! ## The scheduler seam
//!
//! The session is **message-driven** (see
//! [`crate::system::sched`]): each request — routed, or sent to an
//! address its issuer learned — is a unit issued as a `Subquery` at a
//! send instant and answered by a `Reply` scheduled
//! on the system's reply queue at
//! `send + latency`, with up to [`QueryOptions::window`] units in
//! flight at once. Units are issued in one canonical order — the
//! `window = 1` order, where every pull advances exactly one request —
//! and all logical state (routing and its RNG draws, learned leaves,
//! message charging, row admission, closure expansion, cache recording)
//! evolves at issue. The clock models *when* replies land:
//! event delivery order, simulated first-result latency and the
//! [`ExecStats::max_in_flight`] high-water mark. Row multiset and
//! message count are therefore identical for every window size, by
//! construction. Dependencies serialize through per-unit ready times:
//! a closure hop's request can only be sent once the unit that brought
//! the mapping list which revealed it — a discovery, or a data reply
//! that carried the list — completed; a bound join's pattern waits for
//! its predecessor pattern's rows; a request to a learned address
//! waits for the unit whose reply taught it, and a warm cache replay's
//! hops for the unit that committed the closure; prefix probes and
//! replayed hops are otherwise independent and pipeline `window`-wide.
//! A unit's ready time is known before its first exchange, so its
//! attempts meet churn when it leaves.
//!
//! A data request is a pattern *list* (see the
//! [executor docs](crate::system::exec)): the request of the closure
//! hop being popped also lists every hop the same issuer already has
//! queued, and its one reply answers all of them that the destination
//! is responsible for — with the mapping list of each it answers whose
//! schema key the destination holds too. A hop answered that way is
//! part of that unit — its `SchemaHop` and `Rows` are among the unit's
//! events, its counters in the unit's `Stats` — and has no unit of its
//! own later: when the walk pops it there is nothing to send. Every
//! closure unit is one exchange: a hop has a second unit only for a
//! discovery, when it lies below the TTL and no reply carried its list;
//! an expansion that sends nothing is done in the step of the unit
//! before it. A rider was queued, hence ready, no later than the hop
//! whose request carried it, so the unit's ready time is that hop's.
//!
//! A join pattern's sweep of the mapping network is issued the same
//! way, in either [`JoinMode`]: each data request and each mapping
//! discovery of its closure walk is a unit of its own, ready by the
//! same rules — the hop a walk starts with when its sweep may start,
//! every other hop when the unit that brought the list which admitted
//! it completed. An independent join's sweeps may all start at session
//! start, so their units overlap; a bound join's pattern *n* + 1 starts
//! at a barrier — the max completion over every unit issued before it —
//! because its requests carry the binding column that pattern *n*'s
//! rows make (see the [executor docs](crate::system::exec)). Within a
//! pattern the sweeps of its parts — one per predicate the partial
//! solutions substitute into it — are independent of each other.
//! However many partial solutions a bound pattern is substituted
//! with, its walk is one, with the exchanges of an unbound one: the
//! substitutions ride the requests, they do not multiply them. A
//! pattern with no closure — no schema, or routed only by what its
//! seeds put in — is one unit per request too; the requests of a bound
//! pattern's instances go out one after another, because each lists
//! what the replies before it left unanswered.
//!
//! Rows travel as codes: every peer store is loaded through the
//! system's lexicon and ships each term as its lexicon id with its kind
//! bit (see [`gridvine_rdf::dict`]), so equal terms from different
//! peers arrive as equal `u64`s. Join rows are those codes placed into
//! variable slots; dedup compares codes; a bound join's binding column
//! goes out as codes ([`SeedColumn`], built once per part, tagged only
//! if a destination probes with it); the admitted answers stay codes, in
//! the session's rows and in its `Rows` events ([`CodedRows`]); and a
//! string is read only when a caller takes the outcome, which sorts the
//! codes into the canonical order and decodes each row once through the
//! lexicon, or decodes an event ([`QuerySession::decode`]).
//!
//! An independent join's fold pays for the rows that can join, not for
//! every row shipped. Each sweep keeps its pattern's batch as it
//! arrived; the fold places the smallest batch in full and of every
//! other one only the rows whose variables shared with the smallest
//! carry codes the smallest holds there — a probe of a set of its key
//! codes, a semi-join in the sense of distributed query processing. No
//! other row can join, and the fold still runs left-major, then in
//! right insertion order, over the sets in written order, so the answer
//! rows come in the order they would over everything shipped, and a
//! [`QueryOptions::limit`] keeps the same ones.
//!
//! Early termination is structural, not cosmetic: a subquery is only
//! issued by a pull, so dropping the session — or hitting the
//! [`QueryOptions::limit`] result cap — stops the dissemination right
//! there: the remaining remote subqueries are *never sent*, and every
//! reply still queued on the scheduler is cancelled
//! ([`GridVineSystem::pending_events`] returns to zero).
//!
//! ## Concurrency
//!
//! A `QuerySession` borrows the system mutably and runs alone: it is a
//! [`SessionPool`] of one. The state
//! behind it (`SessionCore`) is owned — it holds no borrow of the plan
//! or the system — so a pool can keep many of them in flight at once,
//! from many origins, interleaved on the system's reply queue under its
//! one clock. See the [`crate::system::pool`] module docs for the
//! multiplexer lifecycle.
//!
//! ## Blocking vs incremental
//!
//! Draining a session and calling [`GridVineSystem::execute`] are the
//! same thing — `execute` *is* `open` + drain (+ the canonical result
//! sort) — so callers that want blocking behaviour use `execute` and
//! get identical results and message accounting. The outcome is where
//! the answers become [`Binding`]s: the session's coded rows are sorted
//! into the canonical order and each decoded once.
//!
//! ## Events
//!
//! * [`ResultEvent::Rows`] — fresh **distinct** solution rows
//!   (projected onto the distinguished variables), in discovery order
//!   (request by request; within a closure reply, hop by hop; within a
//!   hop of a bound join's last pattern, seed by seed — one `Rows` per
//!   reply that completed any, in that reply's unit).
//!   A row is never repeated across batches. A batch is
//!   [`CodedRows`]: destinations ship columnar [`BindingBatch`]es of
//!   codes, projection and dedup run on the codes, and the admitted rows
//!   stay codes under a header the session shares with every batch, so
//!   building or dropping one builds no [`Binding`] and no `String`;
//!   [`QuerySession::decode`] reads one through the lexicon.
//! * [`ResultEvent::SchemaHop`] — the closure walk resolved the query
//!   at a schema: mapping-path depth and path quality (the minimum
//!   mapping quality along the path, the confidence proxy of
//!   [`Reformulation::path_quality`](gridvine_semantic::Reformulation::path_quality)).
//!   Emitted by single-pattern closure plans, one per hop a request
//!   answered (or failed for), each followed by that hop's `Rows` if
//!   it had fresh ones — several per unit when hops rode the request;
//!   a join plan's units report the hops they resolved through `Stats`
//!   only.
//! * [`ResultEvent::Stats`] — the [`ExecStats`] *delta* of the unit
//!   (messages, subqueries, reformulations, …) since the previous
//!   unit. Summing the deltas of a drained session reproduces
//!   [`QueryOutcome::stats`]. Every unit emits one, last, so progress
//!   is observable even while a request returns no rows; every unit but
//!   an independent join's local fold is one exchange (see
//!   [`ExecStats::requests`]).
//!
//! ## The reformulation-closure caches
//!
//! The closure a pattern expands to depends only on its schema, its
//! attribute, the TTL and the mapping network — not on the origin, nor
//! on the strategy. So there is one cache entry per closure, at the
//! peer holding the origin schema's mapping list (the **holder**),
//! which every walk of the schema reaches when it expands its origin
//! hop: the hop's data reply carried the list, or its discovery landed
//! there. Each peer keeps its entries in a **bounded LRU**, epoch-keyed
//! [`ClosureCache`](gridvine_semantic::ClosureCache) (capacity
//! [`GridVineConfig::closure_cache_capacity`](crate::GridVineConfig)):
//! while the registry
//! [`epoch`](gridvine_semantic::MappingRegistry::epoch) is unchanged,
//! a walk that finds a coherent entry replays the recorded tail —
//! skipping the BFS *and* every deeper mapping-list retrieve — from the
//! origin (iterative) or the holder (recursive); a mapping insert /
//! deprecation / repair invalidates everything at once. A finished
//! walk commits its record to the holder, for one direct message from
//! an iterative origin that is not the holder, charged in the walk's
//! last unit. A walk that never expands its origin hop (TTL 0, early
//! termination, a failed discovery) looks nothing up; a walk cut short
//! by a limit or a failure commits nothing (a partial closure must
//! never be replayed as complete).
//!
//! ```
//! use gridvine_core::{GridVineConfig, GridVineSystem, QueryOptions, QueryPlan, ResultEvent};
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
//!
//! let plan = QueryPlan::search(TriplePatternQuery::example_aspergillus());
//! // window(4): up to four subqueries in flight on the simulated clock.
//! let mut session = sys.open(PeerId(3), &plan, &QueryOptions::new().window(4))?;
//! while let Some(event) = session.next_event()? {
//!     match event {
//!         ResultEvent::SchemaHop { schema, depth, quality } => {
//!             println!("answering in {schema} at depth {depth} (quality {quality})");
//!         }
//!         ResultEvent::Rows(batch) => {
//!             for row in session.decode(&batch) {
//!                 println!("new row {row}");
//!             }
//!         }
//!         ResultEvent::Stats(delta) => println!("+{} messages", delta.messages),
//!     }
//! }
//! println!("simulated time to drain: {}", session.sim_elapsed());
//! let outcome = session.into_outcome();
//! assert_eq!(outcome.rows.len(), 1);
//! # Ok::<(), gridvine_core::SystemError>(())
//! ```

use super::conjunctive::JoinMode;
use super::exec::{
    charge_hop, ClosureSweep, ExecStats, Listed, QueryOptions, QueryOutcome, Reply, RoutedBy,
};
use super::pool::{PoolEvent, SessionId, SessionPool};
use super::sched::QueuedReply;
use super::*;
use crate::plan::{object_prefix_core, QueryPlan};
use gridvine_netsim::{SimDuration, SimTime};
use gridvine_rdf::fasthash::{FxHashMap, FxHashSet};
use gridvine_rdf::join::{batch_rows, hash_join_rows, VarTable, UNBOUND};
use gridvine_rdf::{
    Binding, BindingBatch, CodedRows, ConjunctiveQuery, PatternTerm, RowOrder, SeedColumn,
    TermDict, TriplePattern,
};
use std::collections::VecDeque;

/// One increment of a [`QuerySession`] (see the module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum ResultEvent {
    /// Fresh distinct solution rows, projected onto the distinguished
    /// variables, in discovery order, as lexicon codes
    /// ([`QuerySession::decode`] reads them).
    Rows(CodedRows),
    /// The closure walk resolved the query at `schema`, reached over
    /// `depth` mapping applications with path quality `quality`
    /// (single-pattern closure plans; a join plan's units report their
    /// hops through `Stats` only).
    SchemaHop {
        schema: SchemaId,
        depth: usize,
        quality: f64,
    },
    /// Counter movement since the previous event.
    Stats(ExecStats),
}

/// The share of a join pattern's partial solutions that one sweep of
/// the mapping network answers: those whose substitutions leave the
/// pattern the same predicate, hence the same closure. An independent
/// join's pattern is one part, bound to nothing.
struct BoundPart {
    /// The pattern as every request of the sweep lists it. It is the
    /// query's pattern unless its predicate is a variable the partial
    /// solutions bind: then the part's predicate is substituted, which
    /// is what gives it a schema and a closure of its own.
    template: TriplePattern,
    /// The binding column the requests carry: one seed per distinct
    /// substitution the part's rows make of the template's bound
    /// variables, in first-seen order (none in independent mode).
    seeds: SeedColumn,
    /// Per seed, the partial rows (indices into [`JoinState::rows`])
    /// that agree on it — its group: a row shipped for the seed joins
    /// each of them.
    members: Vec<Vec<usize>>,
}

/// The sweep of one [`BoundPart`], issued one exchange per unit.
struct PatternSweep {
    part: BoundPart,
    requests: Requests,
    /// Rows its replies shipped that the join has not taken, under the
    /// variables an instance of the template leaves unbound.
    rows: BindingBatch,
}

/// How a [`PatternSweep`] reaches the data.
enum Requests {
    /// A schema'd template: its closure walk.
    Walk(Box<Walk>),
    /// A template with no schema: one request listing it alone, ready
    /// at `ready` (`routed` is `None` once it is sent).
    Alone {
        routed: Option<RoutedBy>,
        ready: SimTime,
    },
    /// A template with no routing constant of its own: its instances,
    /// one per seed — `alone` holds each seed as a column of its own —
    /// each routed by what the seed puts in (`None`: nothing). `todo`
    /// marks those no reply answered yet; `unroutable` counts the others
    /// until the first unit records them as failures.
    Instances {
        routed: Vec<Option<RoutedBy>>,
        alone: Vec<SeedColumn>,
        todo: Vec<bool>,
        unroutable: usize,
    },
}

/// A closure walk as the scheduler sees it: the sweep, and what makes
/// each of its hops ready.
struct Walk {
    sweep: ClosureSweep,
    /// When the hops the walk starts with are ready: session start, or
    /// a bound join pattern's barrier.
    start: SimTime,
    /// Per hop, the completion instant of the latest unit that heard
    /// it: answered it, or brought its mapping list.
    heard_at: FxHashMap<SchemaId, SimTime>,
    /// Per admitted hop, the hop whose expansion admitted it.
    parent_of: FxHashMap<SchemaId, SchemaId>,
}

/// Per-pattern progress of a join plan.
enum JoinPhase {
    /// Independent mode: one full network sweep per pattern, in written
    /// order, each keeping the rows it shipped as they arrived; a final
    /// local fold unit encodes, joins and projects them once every
    /// sweep completed.
    Independent {
        next_pattern: usize,
        shipped: Vec<BindingBatch>,
    },
    /// Bound substitution in the planner's order: `oi` patterns of the
    /// order are opened, the last of them is being swept — its parts
    /// not opened yet wait in `parts`, last first — and `next` holds the
    /// partial rows it completed so far. Every request carries its
    /// part's binding column; rows complete at the last pattern. The
    /// parts' walks start at `barrier`, when the predecessor's rows are
    /// all in.
    Bound {
        oi: usize,
        parts: Vec<BoundPart>,
        next: Vec<Vec<u64>>,
        barrier: SimTime,
    },
}

/// Join-plan execution state: the hash-join binding engine of
/// [`gridvine_rdf::join`], advanced one unit of network work per issue.
/// Owns its query (cloned from the plan at open) so sessions can
/// outlive the plan borrow inside a pool.
struct JoinState {
    query: ConjunctiveQuery,
    order: Vec<usize>,
    vars: VarTable,
    /// Partial solution rows (term-code vectors over the variable slots).
    rows: Vec<Vec<u64>>,
    phase: JoinPhase,
    /// The sweep whose units are being issued.
    sweep: Option<PatternSweep>,
    projection: Projection,
}

/// π onto a join's distinguished variables.
struct Projection {
    /// Slots into the join rows' layout, in the order of the session
    /// rows' header.
    slots: Vec<usize>,
    /// Dedups on projected codes.
    seen: FxHashSet<Vec<u64>>,
    /// A row's projected codes, reused from row to row.
    key: Vec<u64>,
}

enum State {
    Done,
    /// One routed lookup.
    Pattern {
        query: TriplePatternQuery,
    },
    /// One peer-region probe per unit (probes are independent).
    Prefix {
        query: TriplePatternQuery,
        probes: std::vec::IntoIter<BitString>,
        seen: FxHashSet<u64>,
    },
    /// One request of the closure walk — a data request, answering
    /// every hop its destination is responsible for, or a mapping
    /// discovery — per pull. Every request ships into `shipped`, which
    /// is emptied once its rows are admitted.
    Closure {
        query: TriplePatternQuery,
        walk: Box<Walk>,
        shipped: BindingBatch,
        seen: FxHashSet<u64>,
    },
    Join(Box<JoinState>),
}

impl State {
    /// The closure walk whose unit was issued last, if it was a walk's.
    fn walk_mut(&mut self) -> Option<&mut Walk> {
        match self {
            State::Closure { walk, .. } => Some(walk),
            State::Join(join) => match join.sweep.as_mut()?.requests {
                Requests::Walk(ref mut walk) => Some(walk),
                _ => None,
            },
            _ => None,
        }
    }
}

/// One hop of a closure walk as a request resolved it.
struct SweepHop {
    schema: SchemaId,
    depth: usize,
    quality: f64,
    /// Rows its destination shipped, over all instances, or `None` when
    /// the request this hop was routed for failed.
    shipped: Option<usize>,
}

/// What one canonical step did.
enum StepOutcome {
    /// No work left at this state boundary; no unit was issued.
    Idle,
    /// One unit was issued: its send instant was set on the protocol
    /// before its first exchange (see [`ProtocolState::floor`]), its
    /// messages were charged and its events produced; `done` means the
    /// plan has no further work.
    Unit {
        /// The closure hops the unit's reply answered (a data request)
        /// or whose mapping list it brought (a discovery). A list one
        /// of them is expanded with reached the issuer no earlier, so
        /// the hops that expansion admits become ready at this unit's
        /// completion instant — unless a later discovery brings the
        /// list.
        heard: Vec<SchemaId>,
        done: bool,
    },
}

/// The owned state of one in-flight session: everything a
/// [`QuerySession`] is, minus the `&mut GridVineSystem` borrow. Every
/// method takes the system explicitly, so a
/// [`SessionPool`](super::pool::SessionPool) can own many cores and
/// lend each one the system in turn.
pub(crate) struct SessionCore {
    pub(crate) id: SessionId,
    origin: PeerId,
    strategy: Strategy,
    ttl: usize,
    limit: Option<usize>,
    window: usize,
    /// Retransmit budget armed onto the shared protocol state at every
    /// issue (sessions with different budgets interleave correctly).
    max_retries: usize,
    /// Units issued whose reply has not been delivered yet — this
    /// session's share of the system's reply queue.
    pub(crate) inflight: usize,
    /// Cumulative counters, folded in per issue (messages and protocol
    /// counters as deltas of the shared system counters around each
    /// issue, so concurrent sessions never charge each other's work).
    stats: ExecStats,
    /// The cumulative state already folded into per-unit `Stats`
    /// deltas.
    issued_reported: ExecStats,
    /// Accumulated distinct solution rows, discovery order, as codes
    /// over the projected variables; every `Rows` event shares their
    /// header.
    rows: CodedRows,
    /// How [`SessionCore::outcome`] sorts them: single-pattern plans by
    /// the distinguished variable's term, join plans by display form
    /// (the canonical order the drained `execute` promises).
    order_by: RowOrder,
    /// Events a failing unit produced before erroring, surfaced after
    /// every queued reply but before the error itself.
    pub(crate) error_events: Vec<ResultEvent>,
    /// A unit failure waiting to surface once everything already
    /// produced has been delivered.
    pub(crate) error: Option<SystemError>,
    state: State,
    /// The system clock when the session opened, or its arrival
    /// instant if that was later.
    started_at: SimTime,
    /// Simulated time of the latest reply delivered to this session.
    sim_now: SimTime,
    /// Max completion instant over every issued unit.
    max_completion: SimTime,
}

/// A lazily-advancing handle on one executing [`QueryPlan`] — see the
/// [module docs](self) for the event protocol, the scheduler seam,
/// early-termination guarantees and the closure caches.
///
/// The session borrows the system mutably, so standalone sessions run
/// one at a time, exactly as they do through `execute` (which is a
/// drain of this handle). It is a
/// [`SessionPool`] of one; use a pool
/// to interleave many sessions. Its scheduled replies wait on the
/// system's reply queue; dropping the session cancels them.
pub struct QuerySession<'a> {
    sys: &'a mut GridVineSystem,
    pool: SessionPool,
    id: SessionId,
    /// Events of delivered replies not handed out yet.
    events: VecDeque<ResultEvent>,
}

impl GridVineSystem {
    /// Open a pull-based session on `plan` — the incremental
    /// counterpart of [`GridVineSystem::execute`].
    ///
    /// Validates the plan shape (the same errors `execute` reports:
    /// [`SystemError::NotRoutable`], [`SystemError::NoQuerySchema`])
    /// but issues **no** subquery: all network work happens inside
    /// [`QuerySession::next_event`] pulls, so a dropped session costs
    /// nothing further. The session starts at [`GridVineSystem::now`].
    pub fn open<'a>(
        &'a mut self,
        origin: PeerId,
        plan: &QueryPlan,
        options: &QueryOptions,
    ) -> Result<QuerySession<'a>, SystemError> {
        debug_assert_eq!(
            self.pending_events(),
            0,
            "one pool or standalone session drives a system at a time"
        );
        let mut pool = SessionPool::new();
        let id = pool.open(self, origin, plan, options)?;
        Ok(QuerySession {
            sys: self,
            pool,
            id,
            events: VecDeque::new(),
        })
    }
}

impl SessionCore {
    /// Validate `plan` and build the owned session state. Issues no
    /// subquery; `started_at` is the session's scheduler epoch (see
    /// [`SessionPool::open_at`]).
    pub(crate) fn open(
        sys: &mut GridVineSystem,
        origin: PeerId,
        plan: &QueryPlan,
        options: &QueryOptions,
        started_at: SimTime,
    ) -> Result<SessionCore, SystemError> {
        let ttl = options.ttl.unwrap_or(sys.config.ttl);
        // Arm the retry protocol immediately so work between open and
        // the first issue (none today) would see this query's budget;
        // every issue re-arms it, which is what makes interleaved
        // sessions with different budgets correct.
        sys.proto.max_retries = options.max_retries;
        // The header of the session's rows: the projected variables.
        let mut proj = VarTable::new();
        let state = match plan {
            QueryPlan::Pattern { query } => {
                if query.pattern.routing_constant().is_none() {
                    return Err(SystemError::NotRoutable);
                }
                State::Pattern {
                    query: query.clone(),
                }
            }
            QueryPlan::ObjectPrefix { query } => {
                if sys.config.hash != HashKind::OrderPreserving {
                    return Err(SystemError::NotRoutable);
                }
                let Some(prefix) = object_prefix_core(&query.pattern) else {
                    return Err(SystemError::NotRoutable);
                };
                let key_prefix = sys.keyspace().prefix_key(prefix);
                let probes: Vec<BitString> = sys
                    .overlay
                    .range_regions(&key_prefix)
                    .into_iter()
                    .map(|region| {
                        if region.len() >= key_prefix.len() {
                            region
                        } else {
                            key_prefix.clone()
                        }
                    })
                    .collect();
                State::Prefix {
                    query: query.clone(),
                    probes: probes.into_iter(),
                    seen: FxHashSet::default(),
                }
            }
            QueryPlan::Closure { query } => {
                // The `SearchFor` contract requires a schema'd predicate
                // (§2.3); a schema-less pattern is an error here, not a
                // plain lookup.
                let (schema, attr) = gridvine_semantic::query_schema(query)
                    .map_err(|_| SystemError::NoQuerySchema)?;
                let sweep = ClosureSweep::open(
                    sys,
                    origin,
                    &query.pattern,
                    schema,
                    attr,
                    options.strategy,
                    ttl,
                );
                State::Closure {
                    query: query.clone(),
                    walk: Box::new(Walk::new(sweep, started_at)),
                    shipped: BindingBatch::for_pattern(&query.pattern),
                    seen: FxHashSet::default(),
                }
            }
            QueryPlan::Join { query, order } => {
                // A pattern with nothing to route by goes out by what the
                // partial solutions bind in it, so only bound mode can
                // send one — and not as the first pattern of its order,
                // which nothing is bound to.
                let unroutable = |&i: &usize| query.patterns[i].routing_constant().is_none();
                let need_a_constant = match options.join_mode {
                    JoinMode::Independent => order.len(),
                    JoinMode::BoundSubstitution => 1,
                };
                if order.iter().take(need_a_constant).any(unroutable) {
                    return Err(SystemError::NotRoutable);
                }
                let vars = VarTable::from_patterns(&query.patterns);
                let mut slots = Vec::with_capacity(query.distinguished.len());
                // `slots` and the rows' header share one filtered name
                // set so a distinguished variable absent from every
                // pattern, or named twice, is skipped rather than
                // misaligning names.
                for d in &query.distinguished {
                    if let (Some(s), None) = (vars.slot(d), proj.slot(d)) {
                        slots.push(s);
                        proj.slot_of(d);
                    }
                }
                let rows = vec![vars.empty_row()];
                let phase = match options.join_mode {
                    JoinMode::Independent => JoinPhase::Independent {
                        next_pattern: 0,
                        shipped: Vec::with_capacity(query.patterns.len()),
                    },
                    JoinMode::BoundSubstitution => JoinPhase::Bound {
                        oi: 0,
                        parts: Vec::new(),
                        next: Vec::new(),
                        barrier: started_at,
                    },
                };
                State::Join(Box::new(JoinState {
                    query: query.clone(),
                    order: order.clone(),
                    vars,
                    rows,
                    phase,
                    sweep: None,
                    projection: Projection {
                        slots,
                        seen: FxHashSet::default(),
                        key: Vec::new(),
                    },
                }))
            }
        };
        let order_by = match plan {
            QueryPlan::Join { .. } => RowOrder::ByDisplay,
            // The distinguished variable is the header's one column.
            QueryPlan::Pattern { query }
            | QueryPlan::ObjectPrefix { query }
            | QueryPlan::Closure { query } => {
                proj.slot_of(&query.distinguished);
                RowOrder::ByTerm(0)
            }
        };
        Ok(SessionCore {
            id: sys.alloc_session_id(),
            origin,
            strategy: options.strategy,
            ttl,
            limit: options.limit,
            window: options.window.max(1),
            max_retries: options.max_retries,
            inflight: 0,
            stats: ExecStats::default(),
            issued_reported: ExecStats::default(),
            rows: CodedRows::new(proj),
            order_by,
            error_events: Vec::new(),
            error: None,
            state,
            started_at,
            sim_now: started_at,
            max_completion: started_at,
        })
    }

    /// The plan still has units to issue (not drained, not failed).
    pub(crate) fn has_work(&self) -> bool {
        self.error.is_none() && !matches!(self.state, State::Done)
    }

    /// The session's window has room for another unit.
    pub(crate) fn wants_issue(&self) -> bool {
        self.has_work() && self.inflight < self.window
    }

    /// Issue one canonical unit (the pool's round-robin replenisher
    /// calls this once per session per round while the session
    /// [`SessionCore::wants_issue`], preserving each session's
    /// canonical issue order); a unit failure parks the error for
    /// delivery.
    pub(crate) fn issue_one(&mut self, sys: &mut GridVineSystem) {
        if let Err(e) = self.issue_step(sys) {
            self.state = State::Done;
            self.error = Some(e);
        }
    }

    /// Deliver one popped reply to this session: advance its clock.
    /// Returns the reply's events.
    pub(crate) fn deliver(&mut self, at: SimTime, reply: QueuedReply) -> Vec<ResultEvent> {
        debug_assert_eq!(reply.session, self.id, "reply routed to the wrong session");
        self.inflight = self.inflight.saturating_sub(1);
        self.sim_now = self.sim_now.max(at);
        reply.events
    }

    /// Cancel the session's remaining scheduled replies (other
    /// sessions' replies on the reply queue survive).
    pub(crate) fn cancel(&mut self, sys: &mut GridVineSystem) {
        if self.inflight > 0 {
            let id = self.id;
            sys.replies.retain(|r| r.session != id);
            self.inflight = 0;
        }
    }

    /// Cumulative execution counters so far. Work is accounted at
    /// *issue*, so in-flight units are already counted.
    pub(crate) fn stats(&self) -> ExecStats {
        self.stats
    }

    pub(crate) fn sim_now(&self) -> SimTime {
        self.sim_now
    }

    /// Finish: the rows accumulated so far in the canonical sorted
    /// order plus cumulative stats (exactly what `execute` returns
    /// after a full drain). Each row is decoded through the `lexicon`
    /// once ([`CodedRows::sorted_bindings`]): the one place a session
    /// builds [`Binding`]s.
    pub(crate) fn outcome(self, lexicon: &TermDict) -> QueryOutcome {
        QueryOutcome {
            rows: self.rows.sorted_bindings(lexicon, self.order_by),
            stats: self.stats,
        }
    }

    /// Rows admitted so far.
    pub(crate) fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// The result cap has been reached.
    fn limit_reached(&self) -> bool {
        self.limit.is_some_and(|k| self.rows.len() >= k)
    }

    /// Issue the next canonical unit: run its logical work, charge its
    /// counters, compute its send/completion instants and schedule its
    /// reply on the system's reply queue.
    fn issue_step(&mut self, sys: &mut GridVineSystem) -> Result<(), SystemError> {
        if self.limit_reached() {
            self.state = State::Done;
            return Ok(());
        }
        // Arm the retry protocol for this unit: this session's budget,
        // sent no earlier than its last delivery (the step raises that
        // to the unit's ready time before its first exchange), and the
        // backoff delay, latency destination and writes reset per
        // issue. Re-arming every issue is what lets sessions interleave
        // on the shared protocol state.
        sys.proto.max_retries = self.max_retries;
        sys.proto.begin_unit(self.sim_now);
        // Snapshot the shared counters so exactly this unit's movement
        // is folded into this session's stats.
        let m0 = sys.overlay.messages_sent();
        let c0 = sys.proto.counters;
        let mut state = std::mem::replace(&mut self.state, State::Done);
        let mut out: Vec<ResultEvent> = Vec::new();
        let result = match &mut state {
            State::Done => Ok(StepOutcome::Idle),
            State::Pattern { query } => self.step_pattern(sys, query, &mut out),
            State::Prefix {
                query,
                probes,
                seen,
            } => self.step_prefix(sys, query, probes, seen, &mut out),
            State::Closure {
                query,
                walk,
                shipped,
                seen,
            } => self.step_closure(sys, query, walk, shipped, seen, &mut out),
            State::Join(join) => self.step_join(sys, join, &mut out),
        };
        // Fold the unit's counter movement in on success *and* failure
        // (a failing unit's messages were still sent and charged).
        self.stats.messages += sys.overlay.messages_sent() - m0;
        self.stats += sys.proto.counters - c0;
        match result {
            Ok(StepOutcome::Idle) => Ok(()), // state stays Done
            Ok(StepOutcome::Unit { heard, done }) => {
                sys.proto.check_send(sys.now());
                let completion = self.schedule_unit(sys, out);
                if !done {
                    if let Some(walk) = state.walk_mut() {
                        for schema in heard {
                            walk.heard_at.insert(schema, completion);
                        }
                    }
                    self.state = state;
                }
                Ok(())
            }
            Err(e) => {
                // Events the failing unit already produced (rows that
                // were shipped and charged) surface before the error.
                self.error_events = out;
                Err(e)
            }
        }
    }

    /// Scheduler bookkeeping of one issued unit, sent at the protocol's
    /// `now`: stamp what it writes with its completion instant and
    /// schedule its reply. Returns the completion instant.
    fn schedule_unit(&mut self, sys: &mut GridVineSystem, mut events: Vec<ResultEvent>) -> SimTime {
        // The unit's reply lands after its overlay work plus whatever
        // backoff delay its retried requests accumulated.
        let messages = self.stats.messages - self.issued_reported.messages;
        let completion = sys.proto.now + sys.proto.delay + sys.unit_delay(self.origin, messages);
        self.max_completion = self.max_completion.max(completion);
        // A closure the unit memoized may displace another.
        self.stats.cache_evictions += sys.commit_writes(completion);
        // The unit is in flight from here: fold the high-water mark in
        // *before* the delta snapshot so delta sums stay exact.
        let in_flight = self.inflight + 1;
        self.stats.max_in_flight = self.stats.max_in_flight.max(in_flight);
        let cur = self.stats;
        let delta = cur - self.issued_reported;
        self.issued_reported = cur;
        events.push(ResultEvent::Stats(delta));
        let session = self.id;
        sys.replies
            .schedule(completion, QueuedReply { session, events });
        self.inflight += 1;
        completion
    }

    /// Admit freshly-shipped rows of a single-pattern plan: project
    /// onto the distinguished variable (`col`, its column in the
    /// shipped batch), dedup its codes against `seen`, and append each
    /// fresh code to the session rows and to the `Rows` event it goes
    /// out in, pushed onto `out` if it holds any. Reads no string.
    /// Returns whether the result limit was reached.
    fn admit_terms<'r>(
        &mut self,
        seen: &mut FxHashSet<u64>,
        col: Option<usize>,
        shipped: impl Iterator<Item = &'r [u64]>,
        out: &mut Vec<ResultEvent>,
    ) -> bool {
        let Some(col) = col else {
            return false;
        };
        let mut fresh = self.rows.empty_like();
        let mut limit_hit = false;
        for shipped_row in shipped {
            let code = &shipped_row[col..=col];
            if !seen.insert(code[0]) {
                continue;
            }
            self.rows.push(code);
            fresh.push(code);
            if self.limit_reached() {
                limit_hit = true;
                break;
            }
        }
        if !fresh.is_empty() {
            out.push(ResultEvent::Rows(fresh));
        }
        limit_hit
    }

    /// [`QueryPlan::Pattern`]: the single routed lookup.
    fn step_pattern(
        &mut self,
        sys: &mut GridVineSystem,
        query: &TriplePatternQuery,
        out: &mut Vec<ResultEvent>,
    ) -> Result<StepOutcome, SystemError> {
        self.stats.subqueries += 1;
        let (_, term) = query
            .pattern
            .routing_constant()
            .ok_or(SystemError::NotRoutable)?;
        let routed = sys.routed_by(term);
        let alone = Listed {
            pattern: &query.pattern,
            seed: None,
            routed: &routed,
            schema_key: None,
        };
        let mut shipped = BindingBatch::for_pattern(&query.pattern);
        let (none, no_column) = (std::iter::empty(), &SeedColumn::default());
        let reply = &mut Reply::default();
        sys.resolve_patterns(self.origin, alone, none, no_column, &mut shipped, reply)?;
        self.stats.bindings_shipped += shipped.len();
        let col = shipped.column(&query.distinguished);
        self.admit_terms(&mut FxHashSet::default(), col, shipped.rows(), out);
        Ok(StepOutcome::Unit {
            heard: Vec::new(),
            done: true,
        })
    }

    /// [`QueryPlan::ObjectPrefix`]: probe the next peer region of the
    /// prefix's bit-region (same regions and response charges as a
    /// range `Retrieve`; a region whose path the origin learned is
    /// probed directly). Probes are independent units: they are all
    /// ready at session start and pipeline `window`-wide.
    fn step_prefix(
        &mut self,
        sys: &mut GridVineSystem,
        query: &TriplePatternQuery,
        probes: &mut std::vec::IntoIter<BitString>,
        seen: &mut FxHashSet<u64>,
        out: &mut Vec<ResultEvent>,
    ) -> Result<StepOutcome, SystemError> {
        let Some(probe) = probes.next() else {
            return Ok(StepOutcome::Idle);
        };
        let dest = sys.exchange(self.origin, &probe, true)?;
        self.stats.subqueries += 1;
        let mut shipped = BindingBatch::for_pattern(&query.pattern);
        self.stats.bindings_shipped +=
            sys.local_dbs[dest.index()].match_into(&query.pattern, &mut shipped);
        let col = shipped.column(&query.distinguished);
        let limit_hit = self.admit_terms(seen, col, shipped.rows(), out);
        Ok(StepOutcome::Unit {
            heard: Vec::new(),
            done: limit_hit || probes.as_slice().is_empty(),
        })
    }

    /// Emit the hops one closure reply answered — a `SchemaHop` each,
    /// then its fresh `Rows` — consuming `shipped`, which holds their
    /// rows in the same order. Past the result limit the reply's
    /// remaining hops admit nothing (they were answered, shipped and
    /// charged all the same).
    fn admit_hops(
        &mut self,
        query: &TriplePatternQuery,
        answered: Vec<SweepHop>,
        shipped: &mut BindingBatch,
        seen: &mut FxHashSet<u64>,
        out: &mut Vec<ResultEvent>,
    ) {
        let col = shipped.column(&query.distinguished);
        let mut rows = shipped.rows();
        let mut limit_hit = false;
        for hop in answered {
            let n = hop.shipped.unwrap_or(0);
            out.push(ResultEvent::SchemaHop {
                schema: hop.schema,
                depth: hop.depth,
                quality: hop.quality,
            });
            if !limit_hit {
                limit_hit = self.admit_terms(seen, col, rows.by_ref().take(n), out);
            }
        }
        drop(rows);
        shipped.clear();
    }

    /// One exchange of a closure walk — the next hop's data request, or
    /// the popped hop's mapping discovery — of a closure plan or of a
    /// join pattern's sweep. A data request carries `seeds`, the binding
    /// column of a bound join (empty otherwise); the hops it resolved
    /// are charged once per instance, then handed to `admit` with the
    /// rows shipped per (hop, seed) and `rows`, which holds those rows
    /// in the same order.
    ///
    /// A hop has one unit, or two when its expansion needs a discovery
    /// — it lies below the TTL and its data reply did not carry its
    /// list; the two share a ready time. Whatever the walk does next
    /// without sending — an expansion from a carried list or at the
    /// TTL, the pop of a hop an earlier reply answered — is done in this
    /// step, up to the next exchange; it is free, and it keeps the clock
    /// causal: the hops an expansion admits become ready when the unit
    /// that brought the list completes (see [`Walk::hop_ready`]). Once
    /// the result limit is reached the walk stops where it is: it
    /// expands nothing more and commits nothing to the cache, so the
    /// rest of its messages are never sent. `Idle` when the walk has
    /// nothing left to send; `done` when it is exhausted or stopped.
    fn step_walk(
        &mut self,
        sys: &mut GridVineSystem,
        walk: &mut Walk,
        seeds: &SeedColumn,
        rows: &mut BindingBatch,
        mut admit: impl FnMut(&mut SessionCore, Vec<SweepHop>, &[usize], &mut BindingBatch),
    ) -> Result<StepOutcome, SystemError> {
        let heard = match walk.sweep.pending_schema() {
            // Left pending by the previous step for its discovery.
            Some(schema) => {
                let schema = schema.clone();
                sys.proto.floor(walk.hop_ready(&schema));
                walk.expand(sys, &mut self.stats)?;
                vec![schema]
            }
            None => {
                if let Some(next) = walk.sweep.next_schema() {
                    sys.proto.floor(walk.hop_ready(next));
                }
                let mut answered = Vec::new();
                let mut shipped = Vec::new();
                let popped = walk
                    .sweep
                    .resolve_next(sys, seeds, rows, |hop, per_instance| {
                        answered.push(SweepHop {
                            schema: hop.schema.clone(),
                            depth: hop.depth,
                            quality: hop.quality,
                            shipped: per_instance.map(|counts| counts.iter().sum()),
                        });
                        shipped.extend_from_slice(per_instance.unwrap_or_default());
                    });
                if answered.is_empty() {
                    debug_assert!(!popped, "a popped hop sent its request");
                    return Ok(StepOutcome::Idle);
                }
                let heard = answered.iter().map(|h| h.schema.clone()).collect();
                let instances = seeds.len().max(1);
                for hop in &answered {
                    charge_hop(&mut self.stats, hop.depth, instances, hop.shipped.is_some());
                }
                self.stats.bindings_shipped += shipped.iter().sum::<usize>();
                self.stats.bindings_carried += seeds.values();
                admit(self, answered, &shipped, rows);
                if self.limit_reached() {
                    walk.sweep.discard_pending();
                    let done = true;
                    return Ok(StepOutcome::Unit { heard, done });
                }
                heard
            }
        };
        loop {
            if walk.sweep.pending_schema().is_some() {
                if walk.sweep.pending_discovers() {
                    break;
                }
                walk.expand(sys, &mut self.stats)?;
            } else if walk.sweep.next_answered() {
                walk.sweep
                    .resolve_next(sys, &SeedColumn::default(), rows, |_, _| {
                        unreachable!("an answered hop sends nothing")
                    });
            } else {
                break;
            }
        }
        let done = walk.sweep.is_exhausted();
        Ok(StepOutcome::Unit { heard, done })
    }

    /// [`QueryPlan::Closure`]: one unit of the reformulation closure
    /// ([`SessionCore::step_walk`]). A data request emits one
    /// `SchemaHop` (+ `Rows`) per hop its destination answered, the hop
    /// it was routed for first and the queued hops that rode it after,
    /// in the order the walk pops them.
    fn step_closure(
        &mut self,
        sys: &mut GridVineSystem,
        query: &TriplePatternQuery,
        walk: &mut Walk,
        shipped: &mut BindingBatch,
        seen: &mut FxHashSet<u64>,
        out: &mut Vec<ResultEvent>,
    ) -> Result<StepOutcome, SystemError> {
        let no_column = &SeedColumn::default();
        self.step_walk(sys, walk, no_column, shipped, |core, answered, _, rows| {
            core.admit_hops(query, answered, rows, seen, out)
        })
    }

    /// [`QueryPlan::Join`]: one unit of join work — one exchange of the
    /// sweep in flight ([`SessionCore::step_sweep`]), or (independent
    /// mode) the local fold. A sweep with nothing left to send hands its
    /// rows on, and the next sweep opens, in the step of the next unit:
    /// by then every unit issued before is scheduled, so a bound
    /// pattern's barrier — the max completion over them — is known.
    ///
    /// Independent mode sweeps the patterns in written order (the order
    /// its message accounting is defined over), each from session start
    /// and keeping the batch it shipped; once every sweep is issued, a
    /// final zero-message unit, ready at their max completion, places
    /// the rows that can join ([`place_for_fold`]), joins them through
    /// the hash-join engine and emits the projected rows.
    ///
    /// Bound substitution resolves the patterns in the planner's order,
    /// each for every partial solution at once: one sweep per
    /// [`BoundPart`] (a part per substituted predicate, so one unless
    /// the pattern's predicate is a bound variable), whose requests
    /// carry the part's binding column. Each reply says how many rows
    /// it ships per (hop, seed); a row joins every member of its seed's
    /// group. Rows complete at the last pattern of the order, where the
    /// result limit is checked after each reply: reaching it ends the
    /// plan, so the leftover requests are never sent. The plan also ends
    /// when a pattern leaves no partial row, and no later pattern's
    /// requests are sent.
    fn step_join(
        &mut self,
        sys: &mut GridVineSystem,
        join: &mut JoinState,
        out: &mut Vec<ResultEvent>,
    ) -> Result<StepOutcome, SystemError> {
        let JoinState {
            query,
            order,
            vars,
            rows: partial,
            phase,
            sweep,
            projection,
        } = join;
        loop {
            if let Some(in_flight) = sweep {
                let step = match phase {
                    // The replies' rows accumulate into the sweep's batch.
                    JoinPhase::Independent { .. } => {
                        self.step_sweep(sys, in_flight, |_, _, _, _| {})
                    }
                    JoinPhase::Bound { oi, next, .. } => {
                        let last = *oi == order.len();
                        self.step_sweep(sys, in_flight, |core, part, reply, shipped| {
                            // A seed's matches bind only the pattern's
                            // remaining variables: merge each into every
                            // member row of its group.
                            let fragments = batch_rows(reply, vars, &[]);
                            reply.clear();
                            let mut fresh = core.rows.empty_like();
                            let mut joined = Vec::new();
                            let mut at = 0;
                            'reply: for (i, &n) in shipped.iter().enumerate() {
                                let fragment = &fragments[at..at + n];
                                at += n;
                                if n == 0 {
                                    continue;
                                }
                                for &m in &part.members[i % part.members.len()] {
                                    for f in fragment {
                                        merge_fragment(&partial[m], f, &mut joined);
                                        if !last {
                                            next.push(joined.clone());
                                            continue;
                                        }
                                        let (rows, limit) = (&mut core.rows, core.limit);
                                        if projection.admit(&joined, rows, limit, &mut fresh) {
                                            break 'reply;
                                        }
                                    }
                                }
                            }
                            if !fresh.is_empty() {
                                out.push(ResultEvent::Rows(fresh));
                            }
                        })
                    }
                }?;
                if let StepOutcome::Unit { heard, .. } = step {
                    // A sweep's end is not the plan's.
                    let done = self.limit_reached();
                    return Ok(StepOutcome::Unit { heard, done });
                }
                let finished = sweep.take().expect("a sweep in flight");
                if let JoinPhase::Independent { shipped, .. } = phase {
                    shipped.push(finished.rows);
                }
            }
            match phase {
                JoinPhase::Independent {
                    next_pattern,
                    shipped,
                } => {
                    if let Some(pattern) = query.patterns.get(*next_pattern) {
                        *next_pattern += 1;
                        let part = BoundPart {
                            template: pattern.clone(),
                            seeds: SeedColumn::default(),
                            members: Vec::new(),
                        };
                        *sweep = Some(self.open_sweep(sys, part, self.started_at));
                        continue;
                    }
                    sys.proto.floor(self.max_completion);
                    let sets = place_for_fold(vars, std::mem::take(shipped));
                    let mut rows = std::mem::take(partial);
                    for set in &sets {
                        rows = hash_join_rows(&rows, set);
                        if rows.is_empty() {
                            break;
                        }
                    }
                    let mut fresh = self.rows.empty_like();
                    for row in &rows {
                        if projection.admit(row, &mut self.rows, self.limit, &mut fresh) {
                            break;
                        }
                    }
                    if !fresh.is_empty() {
                        out.push(ResultEvent::Rows(fresh));
                    }
                    return Ok(StepOutcome::Unit {
                        heard: Vec::new(),
                        done: true,
                    });
                }
                JoinPhase::Bound {
                    oi,
                    parts,
                    next,
                    barrier,
                } => {
                    if let Some(part) = parts.pop() {
                        *sweep = Some(self.open_sweep(sys, part, *barrier));
                        continue;
                    }
                    // The pattern opened last is swept: the rows it
                    // completed are the partial solutions.
                    if *oi > 0 {
                        *partial = std::mem::take(next);
                    }
                    if *oi == order.len() || partial.is_empty() {
                        return Ok(StepOutcome::Idle);
                    }
                    let pattern = &query.patterns[order[*oi]];
                    *parts = bound_parts(pattern, vars, &sys.lexicon, partial);
                    // Popped from the back, in first-seen order.
                    parts.reverse();
                    *barrier = self.max_completion;
                    *oi += 1;
                }
            }
        }
    }

    /// Open the sweep of `part`, its first units ready at `start`. A
    /// template with a schema is swept by its closure walk — the walk a
    /// closure plan of the same pattern takes, consulting and filling
    /// the same closure caches (the lookup is charged here); one whose
    /// predicate is a variable, or names no schema, has no schema to
    /// translate from and is one request, without reformulation. A
    /// template with nothing to route by goes out by its instances,
    /// each routed by what its seed puts in.
    ///
    /// The hops are the template's: its requests route by *its* routing
    /// constants, never by what a seed would put into a variable (the
    /// predicate's peer indexes every triple of the predicate, so the
    /// rows are the same), and a hop answered is answered for every
    /// seed, a hop whose request failed has failed for every seed. The
    /// template has a closure of its own only while the seeds leave its
    /// predicate alone, which [`bound_parts`] sees to.
    fn open_sweep(
        &mut self,
        sys: &mut GridVineSystem,
        part: BoundPart,
        start: SimTime,
    ) -> PatternSweep {
        let template = &part.template;
        let requests = match template.routing_constant() {
            None => {
                let seeds = &part.seeds;
                let routed: Vec<Option<RoutedBy>> = (0..seeds.len())
                    .map(|i| {
                        let seed = seeds.binding(i, &sys.lexicon);
                        let (_, term) = template.instance_routing_constant(&seed)?;
                        Some(sys.routed_by(term))
                    })
                    .collect();
                let alone = (0..seeds.len()).map(|i| seeds.one(i)).collect();
                let todo: Vec<bool> = routed.iter().map(Option::is_some).collect();
                let unroutable = todo.iter().filter(|&&t| !t).count();
                Requests::Instances {
                    routed,
                    alone,
                    todo,
                    unroutable,
                }
            }
            Some((_, term)) => match gridvine_semantic::pattern_schema(template) {
                Err(_) => Requests::Alone {
                    routed: Some(sys.routed_by(term)),
                    ready: start,
                },
                Ok((schema, attr)) => {
                    let (origin, strategy, ttl) = (self.origin, self.strategy, self.ttl);
                    let sweep =
                        ClosureSweep::open(sys, origin, template, schema, attr, strategy, ttl);
                    Requests::Walk(Box::new(Walk::new(sweep, start)))
                }
            },
        };
        PatternSweep {
            rows: part.header(),
            part,
            requests,
        }
    }

    /// One exchange of a join pattern's sweep — a closure walk's
    /// ([`SessionCore::step_walk`]), the request of a template with no
    /// schema, or the next request of a bound pattern's instances. Its
    /// rows are handed to `take` with the sweep's part and the rows
    /// shipped per seed, per (hop, seed) on a walk, in row order —
    /// `shipped[i]` belongs to seed `i % seeds.len()`. The counters move
    /// once per (pattern, seed) answered, as if each instance had been
    /// asked on its own, and the carried column is charged per request.
    /// `Idle` once the sweep has nothing left to send.
    fn step_sweep(
        &mut self,
        sys: &mut GridVineSystem,
        sweep: &mut PatternSweep,
        mut take: impl FnMut(&mut SessionCore, &BoundPart, &mut BindingBatch, &[usize]),
    ) -> Result<StepOutcome, SystemError> {
        let PatternSweep {
            part,
            requests,
            rows,
        } = sweep;
        let seeds = &part.seeds;
        let shipped = match requests {
            Requests::Walk(walk) => {
                return self.step_walk(sys, walk, seeds, rows, |core, _, shipped, rows| {
                    take(core, part, rows, shipped)
                });
            }
            Requests::Alone { routed, ready } => {
                let Some(routed) = routed.take() else {
                    return Ok(StepOutcome::Idle);
                };
                let alone = Listed {
                    pattern: &part.template,
                    seed: None,
                    routed: &routed,
                    schema_key: None,
                };
                let mut reply = Reply::default();
                let none = std::iter::empty();
                sys.proto.floor(*ready);
                sys.resolve_patterns(self.origin, alone, none, seeds, rows, &mut reply)?;
                self.stats.subqueries += seeds.len().max(1);
                self.stats.bindings_carried += seeds.values();
                reply.shipped
            }
            Requests::Instances {
                routed,
                alone,
                todo,
                unroutable,
            } => {
                // The instances with nothing to route by fail before
                // anything is sent.
                let failed = std::mem::take(unroutable);
                self.stats.failures += failed;
                // Each request lists what the replies before it left
                // unanswered, so it waits for them all.
                sys.proto.floor(self.max_completion);
                // Seed indices, rising, of the instances still to
                // answer: the request of the first lists the others.
                let open: Vec<usize> = (0..seeds.len()).filter(|&i| todo[i]).collect();
                let Some((&first, rest)) = open.split_first() else {
                    // Recording the failures, if any, is the unit.
                    return Ok(match failed {
                        0 => StepOutcome::Idle,
                        _ => StepOutcome::Unit {
                            heard: Vec::new(),
                            done: false,
                        },
                    });
                };
                let listed = |&i: &usize| Listed {
                    pattern: &part.template,
                    seed: Some(&alone[i]),
                    routed: routed[i].as_ref().expect("routable instances only"),
                    schema_key: None,
                };
                let mut reply = Reply::default();
                let rest = rest.iter().map(listed);
                let no_column = &SeedColumn::default();
                sys.resolve_patterns(
                    self.origin,
                    listed(&first),
                    rest,
                    no_column,
                    rows,
                    &mut reply,
                )?;
                self.stats.subqueries += reply.answered.len();
                self.stats.bindings_carried +=
                    open.iter().map(|&i| alone[i].values()).sum::<usize>();
                let mut shipped = vec![0; seeds.len()];
                for (&position, &n) in reply.answered.iter().zip(&reply.shipped) {
                    shipped[open[position]] = n;
                    todo[open[position]] = false;
                }
                shipped
            }
        };
        self.stats.bindings_shipped += shipped.iter().sum::<usize>();
        take(self, part, rows, &shipped);
        Ok(StepOutcome::Unit {
            heard: Vec::new(),
            done: false,
        })
    }
}

impl Walk {
    fn new(sweep: ClosureSweep, start: SimTime) -> Walk {
        Walk {
            sweep,
            start,
            heard_at: FxHashMap::default(),
            parent_of: FxHashMap::default(),
        }
    }

    /// Scheduler ready time of `schema`'s hop: the completion instant
    /// of the unit that brought the mapping list which admitted it — a
    /// discovery, or the data reply that carried the list. A hop the
    /// walk started with (every hop of a warm replay) is ready at its
    /// start. A replayed hop waits for its closure's commit, too.
    fn hop_ready(&self, schema: &SchemaId) -> SimTime {
        let parent = self.parent_of.get(schema);
        let heard = parent.and_then(|p| self.heard_at.get(p));
        heard.copied().unwrap_or(self.start).max(self.sweep.stamp())
    }

    /// Expand the pending hop, remembering which hop admitted each
    /// schema it reaches.
    fn expand(
        &mut self,
        sys: &mut GridVineSystem,
        stats: &mut ExecStats,
    ) -> Result<(), SystemError> {
        let parent = self.sweep.pending_schema().cloned();
        let expansion = self.sweep.expand_pending(sys, stats)?;
        if let Some(parent) = parent {
            for s in expansion.admitted {
                self.parent_of.insert(s, parent.clone());
            }
        }
        Ok(())
    }
}

impl BoundPart {
    /// An empty batch for the part's rows: the variables an instance of
    /// its template leaves unbound.
    fn header(&self) -> BindingBatch {
        BindingBatch::for_instances(&self.template, &self.seeds)
    }
}

impl Projection {
    /// Project a completed join row onto the distinguished variables,
    /// dedup on codes and, if it is fresh, append its projected codes to
    /// the session `rows` and to the `fresh` event batch; no string is
    /// read. The projected codes are probed in a reused slice, so a
    /// duplicate row allocates nothing. Returns whether admitting it
    /// reached the result limit.
    fn admit(
        &mut self,
        row: &[u64],
        rows: &mut CodedRows,
        limit: Option<usize>,
        fresh: &mut CodedRows,
    ) -> bool {
        self.key.clear();
        self.key.extend(self.slots.iter().map(|&s| row[s]));
        if self.seen.contains(self.key.as_slice()) {
            return false;
        }
        self.seen.insert(self.key.clone());
        rows.push(&self.key);
        fresh.push(&self.key);
        limit.is_some_and(|k| rows.len() >= k)
    }
}

/// Merge a bound join's partial row with one fragment its seed's
/// instance shipped, into `out`. The seed binds every slot the partial
/// row binds among the pattern's variables, and the fragment binds only
/// the others, so no slot is bound on both sides and there is nothing to
/// compare.
fn merge_fragment(row: &[u64], fragment: &[u64], out: &mut Vec<u64>) {
    out.clear();
    out.extend(row.iter().zip(fragment).map(|(&l, &r)| {
        debug_assert!(l == UNBOUND || r == UNBOUND, "slot {l} bound twice");
        if l != UNBOUND {
            l
        } else {
            r
        }
    }));
}

/// Place the batches an independent join's sweeps shipped, one per
/// pattern, into the row sets its fold joins, paying only for the rows
/// that can join: the smallest batch in full, every other one filtered
/// on the variables it shares with the smallest, keeping a row only if
/// its code in each is one the smallest batch holds there
/// ([`batch_rows`], probing a set of the smallest batch's key codes). A
/// row that fails cannot join any row of the smallest set, so it is in
/// no answer. The sets keep their order and the kept rows theirs, so
/// the fold — left-major, then right insertion order — emits the answer
/// rows in the order it would over everything shipped, and a limit
/// keeps the same rows.
fn place_for_fold(vars: &VarTable, mut shipped: Vec<BindingBatch>) -> Vec<Vec<Vec<u64>>> {
    let Some(smallest) = (0..shipped.len()).min_by_key(|&i| shipped[i].len()) else {
        return Vec::new();
    };
    let head = shipped.remove(smallest);
    let head_rows = batch_rows(&head, vars, &[]);
    // The smallest batch's codes per slot it binds, built on first use.
    let mut keys: FxHashMap<usize, FxHashSet<u64>> = FxHashMap::default();
    let mut sets: Vec<Vec<Vec<u64>>> = shipped
        .iter()
        .map(|batch| {
            if head_rows.is_empty() {
                // Nothing can join an empty set.
                return Vec::new();
            }
            let slots = batch.vars().iter().filter_map(|v| vars.slot(v));
            let shared: Vec<usize> = slots
                .filter(|&s| head.column(&vars.names()[s]).is_some())
                .collect();
            for &s in &shared {
                keys.entry(s)
                    .or_insert_with(|| head_rows.iter().map(|r| r[s]).collect());
            }
            let held: Vec<(usize, &FxHashSet<u64>)> =
                shared.iter().map(|s| (*s, &keys[s])).collect();
            batch_rows(batch, vars, &held)
        })
        .collect();
    sets.insert(smallest, head_rows);
    sets
}

/// Split the partial solutions `rows` of a bound join by what they
/// substitute into `pattern`: rows agreeing on the pattern's
/// already-bound variables make the same instance of it and share a
/// seed; seeds that leave the pattern the same predicate share a
/// [`BoundPart`] (every row does unless the predicate itself is a bound
/// variable). Parts, and seeds within a part, come in first-seen order.
/// A part's seed column holds the rows' codes as they are, untagged (a
/// destination that probes tags the column once); only a bound
/// predicate is read as a term, once per part, to substitute it into
/// the template.
fn bound_parts(
    pattern: &TriplePattern,
    vars: &VarTable,
    lexicon: &TermDict,
    rows: &[Vec<u64>],
) -> Vec<BoundPart> {
    // Every partial row binds the same slots: those of the patterns
    // already joined.
    let mut column: Vec<(usize, &str)> = Vec::new();
    for v in pattern.variables() {
        let slot = vars.slot(v).expect("the table covers every pattern");
        if rows[0][slot] != UNBOUND && !column.iter().any(|&(s, _)| s == slot) {
            column.push((slot, v));
        }
    }
    // A bound variable in predicate position picks the part, and goes
    // into the part's template rather than into its column.
    let predicate: Option<(usize, &str)> = match &pattern.predicate {
        PatternTerm::Var(p) => column
            .iter()
            .position(|&(_, v)| v == p)
            .map(|at| column.remove(at)),
        PatternTerm::Const(_) => None,
    };
    let names: Vec<&str> = column.iter().map(|&(_, v)| v).collect();
    let mut parts: Vec<BoundPart> = Vec::new();
    let mut part_of: FxHashMap<u64, usize> = FxHashMap::default();
    let mut group_of: FxHashMap<Vec<u64>, (usize, usize)> = FxHashMap::default();
    for (i, row) in rows.iter().enumerate() {
        let bound = predicate.iter().chain(&column);
        let key: Vec<u64> = bound.map(|&(slot, _)| row[slot]).collect();
        if let Some(&(p, g)) = group_of.get(&key) {
            parts[p].members[g].push(i);
            continue;
        }
        let predicate_code = predicate.map_or(UNBOUND, |(slot, _)| row[slot]);
        let p = *part_of.entry(predicate_code).or_insert_with(|| {
            let mut substituted = Binding::new();
            if let Some((slot, v)) = predicate {
                substituted.bind(v.to_string(), lexicon.term_of_code(row[slot]));
            }
            parts.push(BoundPart {
                template: pattern.substitute(&substituted),
                seeds: SeedColumn::new(names.iter().copied()),
                members: Vec::new(),
            });
            parts.len() - 1
        });
        let seed = &key[predicate.is_some() as usize..];
        parts[p].seeds.push(seed);
        group_of.insert(key, (p, parts[p].members.len()));
        parts[p].members.push(vec![i]);
    }
    parts
}

impl QuerySession<'_> {
    /// Return the next [`ResultEvent`], or `Ok(None)` once the plan is
    /// fully drained or the result limit terminated it.
    ///
    /// Internally this steps its pool of one: it keeps up to
    /// [`QueryOptions::window`] units in flight, issuing canonical units
    /// until the window is full (or the plan runs out of ready work),
    /// then delivers the earliest scheduled reply, advancing the
    /// simulated clock. Errors end the session: events already produced
    /// (rows that *were* shipped and charged) are delivered first, then
    /// the error surfaces exactly once, then the session reports
    /// drained.
    pub fn next_event(&mut self) -> Result<Option<ResultEvent>, SystemError> {
        loop {
            if let Some(event) = self.events.pop_front() {
                return Ok(Some(event));
            }
            match self.pool.step(self.sys) {
                Some(PoolEvent::Delivered { events, .. }) => self.events.extend(events),
                Some(PoolEvent::Failed { error, .. }) => return Err(error),
                Some(PoolEvent::Finished { .. }) | None => return Ok(None),
            }
        }
    }

    fn core(&self) -> &SessionCore {
        let core = self.pool.core(self.id);
        core.expect("the session stays in its pool until taken")
    }

    /// Cumulative execution counters so far (messages included). Work
    /// is accounted at *issue*, so in-flight units are already counted.
    pub fn stats(&self) -> ExecStats {
        self.core().stats()
    }

    /// A `Rows` event's batch as [`Binding`]s, in discovery order,
    /// decoded through the lexicon every peer store is loaded through.
    pub fn decode(&self, rows: &CodedRows) -> Vec<Binding> {
        rows.bindings(&self.sys.lexicon)
    }

    /// The plan has no work left (drained, limit-terminated or failed)
    /// and every event was handed out.
    pub fn is_complete(&self) -> bool {
        self.events.is_empty() && self.pool.is_empty()
    }

    /// Simulated time of the latest reply delivered to this session.
    pub fn sim_now(&self) -> SimTime {
        self.core().sim_now()
    }

    /// Simulated time elapsed since the session opened.
    pub fn sim_elapsed(&self) -> SimDuration {
        let core = self.core();
        core.sim_now.saturating_since(core.started_at)
    }

    /// Units currently in flight (issued, reply not yet delivered).
    pub fn in_flight(&self) -> usize {
        self.core().inflight
    }

    /// Finish the session: the rows accumulated so far in the canonical
    /// order (sorted as `execute` returns them) plus cumulative stats.
    /// Valid at any point — after a full drain this is exactly the
    /// [`QueryOutcome`] `execute` would have returned; mid-flight it
    /// cancels the remaining scheduled replies.
    pub fn into_outcome(mut self) -> QueryOutcome {
        self.pool.cancel(self.sys, self.id);
        let outcome = self.pool.take_outcome(self.sys, self.id);
        outcome.expect("the session stays in its pool until taken")
    }
}

impl Drop for QuerySession<'_> {
    /// Cancel every still-scheduled reply of this session (the reply
    /// queue drops them — `pending_events() == 0`).
    fn drop(&mut self) {
        self.pool.shutdown(self.sys);
    }
}

impl Iterator for QuerySession<'_> {
    type Item = Result<ResultEvent, SystemError>;

    /// Iterator adapter over [`QuerySession::next_event`]: yields
    /// `Err` once on failure, then ends.
    fn next(&mut self) -> Option<Self::Item> {
        self.next_event().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvine_rdf::Triple;
    use gridvine_semantic::Schema;

    /// An independent join of an attribute every entity has to a
    /// selective pattern written after it: the fold places the
    /// selective side's rows and the answer's, holding their codes, not
    /// the ≈ 200 rows the attribute's sweep shipped — and answers as a
    /// join over everything would.
    #[test]
    fn an_independent_fold_places_only_the_rows_that_can_join() {
        let mut sys = GridVineSystem::new(GridVineConfig {
            peers: 16,
            ..GridVineConfig::default()
        });
        let p0 = PeerId(0);
        sys.insert_schema(p0, Schema::new("S", ["tag", "size"]))
            .unwrap();
        let triples = (0..200).flat_map(|i| {
            let tag = if i % 40 == 0 { "rare" } else { "common" };
            let e = format!("e:{i}");
            [
                Triple::new(e.as_str(), "S#size", Term::literal(format!("{i} kb"))),
                Triple::new(e.as_str(), "S#tag", Term::literal(tag)),
            ]
        });
        sys.insert_triples(p0, triples).unwrap();
        let var = PatternTerm::var;
        let uri = |u: &str| PatternTerm::constant(Term::uri(u));
        let query = ConjunctiveQuery::new(
            vec!["x".into(), "n".into()],
            vec![
                TriplePattern::new(var("x"), uri("S#size"), var("n")),
                TriplePattern::new(
                    var("x"),
                    uri("S#tag"),
                    PatternTerm::constant(Term::literal("rare")),
                ),
            ],
        )
        .unwrap();
        let plan = QueryPlan::conjunctive(query);
        let options = QueryOptions::new().join_mode(JoinMode::Independent);
        let origin = PeerId(3);
        let mut core = SessionCore::open(&mut sys, origin, &plan, &options, SimTime::ZERO).unwrap();
        let State::Join(mut join) = std::mem::replace(&mut core.state, State::Done) else {
            panic!("a join plan");
        };
        let mut events = Vec::new();
        // The exchanges of two sweeps, then the fold. Before each step,
        // what the fold would take if the step folded: the batches of
        // the finished sweeps and the one in flight.
        let mut folded: Vec<BindingBatch>;
        loop {
            let JoinPhase::Independent { shipped, .. } = &join.phase else {
                panic!("independent mode");
            };
            folded = shipped.clone();
            folded.extend(join.sweep.as_ref().map(|s| s.rows.clone()));
            let step = core.step_join(&mut sys, &mut join, &mut events).unwrap();
            if matches!(step, StepOutcome::Unit { done: true, .. }) {
                break;
            }
        }
        let JoinPhase::Independent { shipped, .. } = &join.phase else {
            panic!("independent mode");
        };
        assert!(shipped.is_empty(), "the fold took the shipped batches");
        assert_eq!(folded.iter().map(BindingBatch::len).sum::<usize>(), 200 + 5);
        let sets = place_for_fold(&join.vars, folded);

        let rows = core.rows.bindings(&sys.lexicon);
        let mut answer: Vec<String> = rows.iter().map(Binding::to_string).collect();
        let mut expected: Vec<String> = (0..200)
            .step_by(40)
            .map(|i| format!("{{?n=\"{i} kb\", ?x=<e:{i}>}}"))
            .collect();
        answer.sort();
        expected.sort();
        assert_eq!(answer, expected);
        assert_eq!(core.stats.bindings_shipped, 200 + 5);
        // The selective side binds 5 entities; the answer adds their 5
        // sizes. Placing every shipped row would hold 400 codes.
        let (head, answer_only) = (5, 5);
        let held: FxHashSet<u64> = sets.iter().flatten().flatten().copied().collect();
        let held = held.len() - held.contains(&UNBOUND) as usize;
        assert!(held <= head + answer_only, "{held} codes placed");
        assert_eq!(sets.iter().map(Vec::len).sum::<usize>(), 5 + 5);
    }
}
