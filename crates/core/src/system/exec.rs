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
//! Every plan bottoms out in *data requests*: a request carries a
//! **list** of patterns and, for a bound join, a **binding column**;
//! it goes to `Hash(routing constant)` of the first pattern, routed or
//! sent to a learned address (below), and is charged as one `Retrieve`
//! — its messages, one response, one exchange through the retry
//! protocol — whatever the length of the list and of the column
//! (`GridVineSystem::resolve_patterns`). The peer it lands on answers
//! every listed pattern whose key lies under its own path, one call of
//! the store's scan kernel per answered pattern: the pattern is
//! compiled once and, when there is a column, answered for each seed
//! — by one scan of the pattern whose rows are matched to the seeds by
//! code when its posting list is shorter than what the seeds would
//! walk, else by a bound scan per seed
//! ([`TripleStore::match_seeds_into`](gridvine_rdf::TripleStore::match_seeds_into);
//! [`TripleStore::match_into`](gridvine_rdf::TripleStore::match_into)
//! without one) — appending the matching rows of the peer's indexed
//! `DB_p` to the caller's [`CodedRows`] table — variable names
//! once per table, rows as term *codes* — so a destination ships
//! exactly the terms it matched, builds no per-row map, and replies
//! once, saying how many rows each (pattern, seed) shipped. Every
//! `DB_p` is loaded through the system's lexicon
//! ([`TermDict::canonical_triple`](gridvine_rdf::TermDict::canonical_triple)),
//! so a code is the term's lexicon id with its kind bit, one code per
//! term whichever peer ships it (see [`gridvine_rdf::dict`]). A pattern
//! lookup, a prefix probe and an un-schema'd join pattern list one
//! pattern; a closure walk lists every hop the issuer knows and has not
//! had answered (below). Shipped rows stay columnar, and coded, up to
//! the result boundary: the hops one request answers append to one
//! table (a reformulation only swaps the predicate constant, so they
//! share its header), single-pattern plans dedup straight off the
//! codes of the table's distinguished column, a bound join places each
//! reply's codes into a table of join rows
//! ([`batch_rows`](gridvine_rdf::join::batch_rows)), and an independent
//! join keeps each pattern's table until its fold places only the rows
//! that can join (see the session docs). No string is read between a
//! destination's scan and the caller taking the answer: the session
//! admits each *distinct* row as codes, into its rows and into a
//! [`ResultEvent::Rows`](super::session::ResultEvent) table that shares
//! their header, and [`Binding`]s are built in one place — the
//! session's outcome, which puts the rows in the canonical order and
//! decodes each row once through the lexicon for
//! [`QueryOutcome::rows`] (an event is decoded only when a caller asks,
//! [`QuerySession::decode`](super::session::QuerySession::decode)).
//! Join plans feed the per-pattern row sets through the
//! [`hash-join engine`](gridvine_rdf::join) in the planner's order.
//!
//! **The binding column.** A pattern of a
//! [`JoinMode::BoundSubstitution`] join is resolved for every partial
//! solution at once: the distinct substitutions the partial solutions
//! make of the pattern's already-bound variables — the *seeds* — travel
//! as a column on every data request of the pattern's one sweep (the
//! session's, one exchange per unit), beside the pattern list. The
//! column is a [`SeedColumn`]: a table of the seeds' codes. A
//! destination whose pattern has a short posting list scans it once and
//! matches each row to its seeds by the codes it ships, without a
//! dictionary probe;
//! otherwise it binds each seed by probing its dictionary with the
//! lexical's dictionary tag and the lexicon's buffer, the column's tags
//! computed on its first probe and kept. Either way no value is hashed
//! per hop.
//! The sweep is the pattern's own: its hops route by the pattern's
//! routing constants, not by what a seed would put into a variable
//! (the predicate's peer indexes every triple of the predicate, so the
//! rows are the same), a hop is answered for every seed or for none,
//! and `subqueries`, `schemas_visited`, `reformulations` and — when a
//! request fails — `failures` move once per (hop, seed), as if each
//! instance had been asked on its own. What the column costs is
//! counted, not hidden: [`ExecStats::bindings_carried`] beside
//! [`ExecStats::bindings_shipped`]. An independent join runs the same
//! sweep with no column.
//!
//! ## The closure walk
//!
//! The reformulation rule itself — which mappings apply out of a hop,
//! which schemas they admit, at what path quality — is
//! [`gridvine_semantic::expand_hop`], shared with the registry-local
//! [`reformulations`](gridvine_semantic::reformulations) and the WAN
//! driver ([`crate::harness`]). `ClosureSweep` adds what is this
//! engine's own: each hop below the TTL is expanded with the mapping
//! list stored at `Hash(S)` of its schema `S` — carried by its data
//! reply, or else *fetched* by one discovery, iterative or
//! recursive — hops are popped depth-first, one per session pull, and
//! expanded when popped, so early termination never pays for a
//! discovery. A walk that completes is committed to the epoch-keyed
//! [`ClosureCache`](gridvine_semantic::ClosureCache) of the peer that
//! holds the origin schema's mapping list — the *holder*, which every
//! walk of that schema reaches when it expands its origin hop — and a
//! later walk from any origin, under either strategy, that finds the
//! entry there replays its tail ([`CachedHop::replay`]) with no further
//! discovery (see the session docs). An iterative origin that is not
//! the holder sends the record in one direct message; it learned the
//! holder's address from the reply that brought the list. The entry is
//! committed once the unit whose expansion finished the walk has a
//! completion instant, stamped with it, and a replay's hops are ready
//! no earlier (see [`super::sched`]).
//!
//! **What rides.** The request a popped hop sends lists, after the
//! hop's own pattern, every hop of the same issuing peer that is
//! already queued: on a warm replay the rest of the recorded tail (the
//! origin hop went out on its own, before the cache was found), on a
//! live walk the frontier (a recursive walk changes issuer per
//! delegate, so only siblings share one). A predicate rewrite leaves a
//! subject or object constant alone, so hops that route by one keep
//! their key, and the order-preserving hash puts look-alike predicate
//! URIs under one leaf: the destination is often responsible for
//! several of them, answers them in the same reply, and they send
//! nothing of their own — no route, no routing-RNG draw, no message —
//! when the walk pops them. **Mapping lists ride the reply too**: the
//! order-preserving hash puts `S` and its `S#attr` predicates under one
//! leaf, so the peer that answers a live walk's hop usually holds the
//! hop's list as well. For every hop it answers that the walk will
//! expand and whose `Hash(S)` lies under its own path, the reply
//! carries the list — read from the same overlay store a discovery
//! routed to `Hash(S)` would read — and the hop keeps it until the walk
//! pops and expands it: that expansion sends nothing. An iterative walk
//! expands at the issuer; a recursive one makes the answering peer the
//! issuer of the hops the list admits, as a discovery landing there
//! would; at depth 0, either way, the answering peer is the holder
//! whose cache is consulted.
//! Riding moves only *when a hop's rows and list arrive*. Which hops
//! the walk reaches, the order it pops, records and expands them in,
//! and what it commits to the cache are those of a walk in which
//! nothing rides; so are the rows. A request that fails (crashed
//! destination, retries exhausted) answers nothing and carries no list:
//! the hop it was routed for is the recorded failure, the hops it
//! merely listed go out on their own at their turn. The binding
//! column of a bound join is on every one of these requests, whole:
//! riding decides which hops a reply answers, the column for which
//! seeds — all.
//!
//! **Learned addresses.** A reply tells its issuer who answered and
//! for which trie path, and the issuer keeps one entry per leaf (its
//! `PeerExecState`'s leaf table). Its next request — data request,
//! discovery, prefix probe or cycle probe — for a key under a learned
//! path is one direct message to that peer instead of a route, plus
//! the response wherever one is charged, so a warm replay's remote
//! requests cost two messages each. Every peer of a path holds the
//! same copies and lists, so the reply is the one a route would have
//! reached: rows, riding, discoveries and caches do not move, only the
//! hop count, the routing-RNG draws and the clock.
//! [`ExecStats::direct`] counts these requests. A learned peer that is
//! crashed, or silent until the retries run out, is forgotten and the
//! request routed within the same unit with a fresh retry budget
//! (`GridVineSystem::exchange`). Only a reply teaches: a recursive
//! discovery, which the holder carries on instead of answering,
//! leaves its issuer's table as it was. Updates neither read nor fill
//! the table.
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
use super::sched::Write;
use super::*;
use crate::plan::QueryPlan;
use gridvine_rdf::{Binding, CodedRows, Position, SeedColumn, TriplePattern};
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

/// Default retransmit budget of one request (see
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
    /// closure hops — a closure plan's, or those of a join pattern's
    /// sweep — prefix probes and the pattern sweeps of an independent
    /// join pipeline instead of serializing, cutting simulated
    /// first-result latency. (A bound join's pattern still waits for
    /// its predecessor's rows: only the requests within a pattern
    /// overlap.)
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
    /// the sweep of a bound join's last pattern) the moment the cap is
    /// reached, so the remaining remote subqueries are never issued and
    /// a limited query sends strictly fewer messages than an unlimited
    /// one whenever any dissemination remained. The kept rows are the
    /// first `limit` distinct rows in (deterministic) discovery order —
    /// request by request, within one reply hop by hop in the order
    /// the walk pops them, and within a hop of a bound join seed by
    /// seed — returned sorted. The reply that reaches the cap is
    /// charged whole (every pattern and seed it answered, every row it
    /// shipped).
    pub fn limit(mut self, limit: usize) -> QueryOptions {
        self.limit = Some(limit);
        self
    }

    /// Retransmit budget per request: a request whose reply times out
    /// — its destination is down on the churn timeline installed by
    /// [`GridVineSystem::install_churn`](crate::GridVineSystem::install_churn)
    /// — is retransmitted with exponential backoff + jitter up to
    /// `retries` times before the unit resolves as a recorded failure:
    /// the closure walk terminates that branch and the session
    /// continues with partial results (see [`crate::system::sched`]). A
    /// request sent to a learned address that exhausts its budget is
    /// first routed again with a fresh one, within the same unit (see
    /// the [module docs](self)), so such a request gets up to
    /// `2 × (retries + 1)` attempts. Irrelevant without churn, where no
    /// request ever times out.
    pub fn max_retries(mut self, retries: usize) -> QueryOptions {
        self.max_retries = retries;
        self
    }
}

/// Declares a counter struct and, from the same field list, its
/// field-wise `-` (the per-unit delta `cur - prev` of a session) and
/// `+=` (summing deltas back up): a counter is listed once.
macro_rules! counters {
    (
        $(#[$meta:meta])*
        pub struct $name:ident { $($(#[$doc:meta])* pub $field:ident: $ty:ty,)* }
    ) => {
        $(#[$meta])*
        pub struct $name { $($(#[$doc])* pub $field: $ty,)* }

        impl std::ops::Sub for $name {
            type Output = $name;
            fn sub(self, prev: $name) -> $name {
                $name { $($field: self.$field - prev.$field,)* }
            }
        }

        impl std::ops::AddAssign for $name {
            fn add_assign(&mut self, delta: $name) {
                $(self.$field += delta.$field;)*
            }
        }
    };
}

counters! {
    /// Execution counters shared by every plan shape.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct ExecStats {
        /// Overlay messages consumed: every exchange's, plus one per
        /// closure an iterative origin commits to another peer, the
        /// holder (see the [module docs](self)), which is no request.
        pub messages: u64,
        /// Patterns resolved at a destination (original patterns,
        /// reformulations and bound-substituted instances all count; prefix
        /// sweeps count one per visited region) — plus the patterns whose
        /// own request failed. A request that answers several patterns, or
        /// a pattern for several seeds of a binding column, counts each
        /// instance; see [`ExecStats::requests`] for the exchanges.
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
        /// Seed terms listed on data requests — the request-side twin of
        /// `bindings_shipped`: a bound-join request carries its pattern's
        /// binding column, and each request charges one term per seed per
        /// variable the column binds. 0 for every plan that carries no
        /// column (lookups, prefix sweeps, closures, independent joins).
        pub bindings_carried: usize,
        /// High-water mark of simultaneously in-flight subqueries (1 for a
        /// fully serial session; up to [`QueryOptions::window`]).
        pub max_in_flight: usize,
        /// Mapping discoveries that went to the network: one per expanded
        /// hop whose data reply did not carry its schema's list (see the
        /// [module docs](self)). Lists that rode a reply fetch nothing,
        /// and a warm cache replay nothing past the origin hop's list.
        pub mapping_fetches: usize,
        /// Closure-cache lookups served from a coherent entry: one per
        /// walk that expands its origin hop, at the holder of the
        /// origin schema's list; none for one that never does.
        pub cache_hits: usize,
        /// Closure-cache lookups that found no coherent entry.
        pub cache_misses: usize,
        /// Closure-cache entries displaced by a capacity bound.
        pub cache_evictions: usize,
        /// Request/response exchanges driven through the retry protocol
        /// (see [`crate::system::sched`]), routed or sent to a learned
        /// address; charged at issue. A data request is one exchange
        /// however many patterns it answers and mapping lists it carries,
        /// and a mapping discovery is one: `requests <= subqueries +
        /// mapping_fetches` as long as every discovery is answered (one
        /// that is sent and never answered counts in `failures`, not in
        /// `mapping_fetches`), with equality when no pattern rode and
        /// nothing failed. A request whose learned address was down and
        /// which was then routed counts twice. The message that commits a
        /// closure to its holder is not a request.
        ///
        /// A session emits one
        /// [`ResultEvent::Stats`](super::session::ResultEvent) per unit,
        /// and each unit of a closure walk or a join pattern's sweep is
        /// one exchange — a hop that rode another's request has no data
        /// unit, an expansion whose list rode a reply or that lies at the
        /// TTL has no discovery unit, and no zero-message unit stands in
        /// for either — so a drained closure session emits exactly
        /// `requests` of them, a drained join session as many plus one
        /// for an independent join's local fold (a bound pattern whose
        /// instances have nothing to route by is one zero-message unit,
        /// and a learned address that was down adds one).
        pub requests: usize,
        /// Requests sent straight to a peer whose trie path the issuer
        /// learned from an earlier reply, one message each instead of a
        /// route (see the [module docs](self)) — the address-side twin of
        /// riding, counted among `requests`. Whether a request goes
        /// direct depends only on what its issuer's earlier requests
        /// taught it, in issue order: like every other counter, it is
        /// the same for every window size.
        pub direct: usize,
        /// Protocol-level transmissions: first sends plus retransmits
        /// (`sends == requests + retransmits` always holds).
        pub sends: usize,
        /// Request attempts whose reply never arrived before the retry
        /// timer fired (the destination was churn-down).
        pub timeouts: usize,
        /// Timed-out requests sent again after backoff.
        pub retransmits: usize,
        /// Cycle probes issued by quality-assessment passes
        /// ([`GridVineSystem::assessment_pass`]): one retrieve per
        /// mapping cycle, driven through the retry protocol, so every probe
        /// costs messages, requests and simulated latency like any
        /// subquery. Always 0 for query sessions.
        pub assessment_probes: usize,
    }
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

/// A routing constant and the overlay key its data requests route by,
/// hashed once (hasher and key depth are fixed at construction, so the
/// key is a pure function of the term).
pub(crate) struct RoutedBy {
    term: Term,
    key: BitString,
}

/// One pattern listed on a data request (see
/// [`GridVineSystem::resolve_patterns`]).
pub(crate) struct Listed<'a> {
    pub(crate) pattern: &'a TriplePattern,
    /// `Some` when the entry stands for the one instance its seed makes
    /// of `pattern` — routed by what that seed put in, for a bound
    /// pattern with no routing constant of its own — rather than for the
    /// instances the request's binding column makes.
    pub(crate) seed: Option<&'a SeedColumn>,
    pub(crate) routed: &'a RoutedBy,
    /// The key of the schema whose mapping list the reply carries if
    /// the destination holds it — `Some` for a closure hop the walk
    /// will expand.
    pub(crate) schema_key: Option<&'a BitString>,
}

/// What the destination of one data request answered (see
/// [`GridVineSystem::resolve_patterns`]).
#[derive(Default)]
pub(crate) struct Reply {
    /// The peer that answered.
    pub(crate) peer: Option<PeerId>,
    /// Positions in the request's list of the patterns answered,
    /// rising; the pattern the request was routed for — position 0 —
    /// first.
    pub(crate) answered: Vec<usize>,
    /// Rows shipped per answered pattern and instance — one instance
    /// per seed of the request's binding column, a single one when it
    /// carries none — in the order the rows were appended.
    pub(crate) shipped: Vec<usize>,
    /// Per answered pattern, the mapping list the reply carries for it:
    /// `Some` when the pattern listed a schema key the peer holds.
    pub(crate) lists: Vec<Option<Vec<Mapping>>>,
}

impl Reply {
    fn clear(&mut self) {
        self.peer = None;
        self.answered.clear();
        self.shipped.clear();
        self.lists.clear();
    }
}

/// A hop a [`ClosureSweep`] knows and has not popped yet — or, in
/// [`LiveWalk::pending`], has popped and not expanded.
struct Queued {
    hop: Hop,
    /// The peer that issues its request: the origin, or — recursively —
    /// the peer that handed the walk the mapping list which admitted it.
    issuer: PeerId,
    /// Its routing constant, as an index into [`Frontier::keys`].
    routed: usize,
    /// `Hash(S)` of its schema `S`, hashed once when the hop is queued,
    /// for a hop a live walk will expand (depth below the TTL): where
    /// its discovery routes, and what a peer answering its data request
    /// checks its own path against.
    schema_key: Option<BitString>,
    /// An earlier request of the same issuer landed on the peer
    /// responsible for this hop's key and answered it there: the hop
    /// sends nothing at its turn.
    answered: bool,
    /// The reply that answered the hop also carried `S`'s mapping list:
    /// the peer that sent it, and the list. Expanding the hop sends
    /// nothing.
    ridden: Option<(PeerId, Vec<Mapping>)>,
}

impl Queued {
    fn listed<'a>(&'a self, keys: &'a [RoutedBy]) -> Listed<'a> {
        Listed {
            pattern: &self.hop.pattern,
            seed: None,
            routed: &keys[self.routed],
            schema_key: self.schema_key.as_ref(),
        }
    }
}

/// What only a live walk carries, beside the frontier every sweep has.
struct LiveWalk {
    strategy: Strategy,
    ttl: usize,
    /// Schemas entered or queued so far (the loop-prevention set of
    /// [`expand_hop`]).
    visited: BTreeSet<SchemaId>,
    /// The hop list accumulated for the closure cache, in pop order.
    record: (ClosureKey, Vec<CachedHop>),
    /// The hop popped by the last `resolve_next` that has not been
    /// expanded yet.
    pending: Option<Queued>,
    /// Who commits the record and where, known once the origin hop is
    /// expanded: the peer that expanded it — the origin of an iterative
    /// walk, the holder itself on a recursive one — and the *holder*,
    /// the peer that held the origin schema's mapping list, whose cache
    /// every walk of the schema reads.
    commit: Option<(PeerId, PeerId)>,
    /// A discovery failed (crashed destination): the walk is missing a
    /// subtree, so the record must never be committed — a partial
    /// closure replayed as complete would silently drop rows even
    /// after the peer recovers.
    tainted: bool,
}

/// Incremental closure expansion of one schema'd pattern, stepped by
/// the session one exchange per unit — a [`ClosureSweep::resolve_next`]
/// that sends, or an [`ClosureSweep::expand_pending`] that discovers —
/// with the expansion skipped on early termination. A closure plan's
/// walk and a join pattern's are the same walk, the latter carrying its
/// binding column on every data request, so the two observe the
/// identical hop sequence, requests and cache interactions.
///
/// A sweep is a stack of known hops. A **live walk** over the DHT's
/// mapping lists starts from the origin hop, pushes what each expansion
/// admits (depth-first: each reformulation chain is driven to its TTL
/// before siblings) and records the hops it pops for the closure cache.
/// When it expands the origin hop it looks in the cache of the peer
/// holding that list; on a coherent entry the sweep becomes a **warm
/// replay** of the recorded tail: every recorded hop past the origin's
/// queued, in recorded order, issued by the origin (iterative) or by
/// the holder (recursive), and nothing more discovered. Either way the
/// request a popped hop sends lists every queued hop of the same
/// issuer, and those the destination answers send nothing of their
/// own; on a live walk the reply also carries the lists the destination
/// holds of the hops it answers, and their expansions send nothing
/// either.
///
/// The sweep owns its patterns so session state can live in a
/// [`SessionPool`](super::pool::SessionPool) that outlives the plan
/// borrow.
pub(crate) struct ClosureSweep {
    frontier: Frontier,
    /// `None` on a warm replay.
    live: Option<Box<LiveWalk>>,
    /// The instant the closure a warm replay replays was committed at:
    /// its hops are sent no earlier. Zero on a live walk.
    stamp: SimTime,
}

/// The hops a sweep knows and has not popped, with their routing keys.
#[derive(Default)]
struct Frontier {
    /// Popped from the back.
    hops: Vec<Queued>,
    /// One entry per distinct routing constant among the hops queued so
    /// far — a hop that keeps its subject or object constant across a
    /// predicate rewrite shares its entry with the hop it came from.
    keys: Vec<RoutedBy>,
    /// Per-request scratch, kept for its allocation.
    reply: Reply,
}

impl Frontier {
    /// Queue `hop`, hashing its routing constant unless a hop queued
    /// before it routes by the same term, and — if the walk `expands`
    /// it — its schema.
    fn push(&mut self, sys: &GridVineSystem, hop: Hop, issuer: PeerId, expands: bool) {
        let (position, term) = hop
            .pattern
            .routing_constant()
            .expect("a hop's predicate is a constant URI");
        // A walk enters each schema once, so no two hops share a
        // predicate: only a subject or object constant is shared.
        let known = (position != Position::Predicate)
            .then(|| self.keys.iter().position(|k| k.term == *term))
            .flatten();
        let routed = known.unwrap_or_else(|| {
            self.keys.push(sys.routed_by(term));
            self.keys.len() - 1
        });
        let schema_key = expands.then(|| sys.key_of(hop.schema.as_str()));
        self.hops.push(Queued {
            hop,
            issuer,
            routed,
            schema_key,
            answered: false,
            ridden: None,
        });
    }

    /// Queue a memoized closure for `pattern`, to pop in recorded order.
    fn replay(
        &mut self,
        sys: &GridVineSystem,
        pattern: &TriplePattern,
        recorded: &[CachedHop],
        issuer: PeerId,
    ) {
        debug_assert!(self.hops.is_empty());
        self.hops.reserve(recorded.len());
        for h in recorded.iter().rev() {
            let hop = Hop {
                schema: h.schema.clone(),
                pattern: h.replay(pattern),
                depth: h.depth,
                quality: h.quality,
            };
            self.push(sys, hop, issuer, false);
        }
    }
}

/// What one [`ClosureSweep::expand_pending`] call did: the schemas it
/// admitted to the frontier (the session makes them ready when the unit
/// that brought the expanded list completes).
#[derive(Debug, Default)]
pub(crate) struct Expansion {
    pub(crate) admitted: Vec<SchemaId>,
}

/// Fold one hop a request resolved at `depth` — for `instances`
/// instances of its pattern: one per seed of the request's binding
/// column, one when it carried none — into a consumer's counters;
/// `answered` is false if the request it was routed for failed, which
/// fails every instance. The one charging rule of every walk's hops,
/// whether a closure plan's or a join pattern's, so their accounting
/// cannot drift. `bindings_shipped` is charged per reply.
pub(crate) fn charge_hop(stats: &mut ExecStats, depth: usize, instances: usize, answered: bool) {
    stats.subqueries += instances;
    stats.schemas_visited += instances;
    if depth > 0 {
        stats.reformulations += instances;
    }
    if !answered {
        stats.failures += instances;
    }
}

impl ClosureSweep {
    /// Start a live walk for one schema'd pattern from its origin hop.
    /// Its cache lookup waits until it expands that hop and so knows
    /// the holder ([`ClosureSweep::expand_pending`]).
    pub(crate) fn open(
        sys: &GridVineSystem,
        origin: PeerId,
        pattern: &TriplePattern,
        schema: SchemaId,
        attr: String,
        strategy: Strategy,
        ttl: usize,
    ) -> ClosureSweep {
        let key = ClosureKey {
            schema: schema.clone(),
            attr,
            ttl,
        };
        let live = Box::new(LiveWalk {
            strategy,
            ttl,
            visited: BTreeSet::from([schema.clone()]),
            record: (key, Vec::new()),
            pending: None,
            commit: None,
            tainted: false,
        });
        let mut frontier = Frontier::default();
        let hop = Hop::origin(schema, pattern.clone());
        frontier.push(sys, hop, origin, 0 < ttl);
        ClosureSweep {
            frontier,
            live: Some(live),
            stamp: SimTime::ZERO,
        }
    }

    /// No hops left to resolve or expand.
    pub(crate) fn is_exhausted(&self) -> bool {
        self.frontier.hops.is_empty() && self.pending_schema().is_none()
    }

    fn pending(&self) -> Option<&Queued> {
        self.live.as_ref()?.pending.as_ref()
    }

    /// The schema of the popped hop that is waiting for its expansion.
    pub(crate) fn pending_schema(&self) -> Option<&SchemaId> {
        Some(&self.pending()?.hop.schema)
    }

    /// The schema of the hop [`ClosureSweep::resolve_next`] pops next.
    pub(crate) fn next_schema(&self) -> Option<&SchemaId> {
        Some(&self.frontier.hops.last()?.hop.schema)
    }

    /// When the closure a warm replay replays was committed: its hops
    /// are ready no earlier. Zero on a live walk.
    pub(crate) fn stamp(&self) -> SimTime {
        self.stamp
    }

    /// Expanding the pending hop sends a mapping discovery: it lies
    /// below the TTL and no reply carried its list.
    pub(crate) fn pending_discovers(&self) -> bool {
        self.pending()
            .is_some_and(|q| q.schema_key.is_some() && q.ridden.is_none())
    }

    /// An earlier request answered the next hop to pop: popping it
    /// sends nothing.
    pub(crate) fn next_answered(&self) -> bool {
        self.frontier.hops.last().is_some_and(|q| q.answered)
    }

    /// Pop the next hop and — unless an earlier request already
    /// answered it — send its request, appending the destination's
    /// rows to `out` (expansion deferred to
    /// [`ClosureSweep::expand_pending`], so an early-terminating caller
    /// never pays for discovery it will not use). The request lists the
    /// popped hop and every queued hop of the same issuer, and carries
    /// `seeds` (the binding column of a bound join; empty otherwise);
    /// `resolved` is told each hop its destination answered and how
    /// many rows it shipped per instance (per seed, or the one count of
    /// a request without a column), in pop order — the order their rows
    /// have in `out` — or the popped hop alone with `None` if the
    /// request failed (the hops it merely listed stay queued and go out
    /// on their own). So it hears of at least one hop whenever a
    /// request was sent, and of nothing when the popped hop of a live
    /// walk had ridden an earlier request: nothing is sent, and its
    /// expansion is pending as for any other hop. An answered hop the
    /// walk will expand keeps the mapping list the reply carried for it,
    /// if any. Every hop's pattern differs from the sweep's only in its
    /// predicate constant, so all hops (and all their instances) share
    /// `out`'s header. Returns `false` once the sweep is drained.
    pub(crate) fn resolve_next(
        &mut self,
        sys: &mut GridVineSystem,
        seeds: &SeedColumn,
        out: &mut CodedRows,
        mut resolved: impl FnMut(&Hop, Option<&[usize]>),
    ) -> bool {
        let Some(mut popped) = self.frontier.hops.pop() else {
            return false;
        };
        if let Some(live) = &mut self.live {
            debug_assert!(
                live.pending.is_none(),
                "expand or discard the previous hop first"
            );
            live.record.1.push(CachedHop::record(&popped.hop));
        }
        if !popped.answered {
            if self.live.is_none() {
                sys.proto.note_read(self.stamp);
            }
            let Frontier { hops, keys, reply } = &mut self.frontier;
            // In pop order: back to front.
            let rides = |q: &Queued| !q.answered && q.issuer == popped.issuer;
            let riders = hops.iter().rev().filter(|q| rides(q));
            let riders = riders.map(|q| q.listed(keys));
            reply.clear();
            let first = popped.listed(keys);
            match sys.resolve_patterns(popped.issuer, first, riders, seeds, out, reply) {
                Ok(()) => {
                    // `answered` names positions in the list, rising:
                    // walk the same riders again beside it.
                    let Reply {
                        peer,
                        answered,
                        shipped,
                        lists,
                    } = reply;
                    let peer = *peer;
                    let per_pattern = shipped.chunks(seeds.len().max(1));
                    let next = answered.iter().zip(per_pattern).zip(lists.drain(..));
                    let mut next = next.peekable();
                    if let Some(((_, shipped), list)) = next.next_if(|((&i, _), _)| i == 0) {
                        popped.ridden = peer.zip(list);
                        resolved(&popped.hop, Some(shipped));
                    }
                    let riders = hops.iter_mut().rev().filter(|q| rides(q));
                    for (rider, position) in riders.zip(1..) {
                        if let Some(((_, shipped), list)) =
                            next.next_if(|((&i, _), _)| i == position)
                        {
                            rider.answered = true;
                            rider.ridden = peer.zip(list);
                            resolved(&rider.hop, Some(shipped));
                        } else if next.peek().is_none() {
                            break;
                        }
                    }
                    if self.live.is_none() && answered.len() > 1 {
                        // Nothing is left to do for a replayed hop
                        // once it is answered.
                        hops.retain(|q| !q.answered);
                    }
                }
                Err(_) => resolved(&popped.hop, None),
            }
        }
        if let Some(live) = &mut self.live {
            live.pending = Some(popped);
        }
        true
    }

    /// Expand the hop the last `resolve_next` popped: take the mappings
    /// applicable at its schema — from the list its data reply carried,
    /// or else from a discovery sent for it (within the TTL) — and
    /// admit the newly reachable schemas (a no-op on warm replays — the
    /// recorded closure already is the expansion). An iterative walk
    /// expands at the issuer; a recursive one makes the peer that held
    /// the list the issuer of the hops it admits.
    ///
    /// Expanding the origin hop, the walk looks in the cache of the
    /// peer that held the origin schema's list — the holder: on a
    /// coherent entry, committed by a walk from any origin under either
    /// strategy, the sweep becomes a warm replay of the recorded tail,
    /// issued by the peer that would have issued the hops the list
    /// admits, and every deeper mapping-list retrieve is skipped. When
    /// the walk exhausts here, the recorded closure is written to the
    /// holder's cache once the unit's completion instant is known
    /// ([`GridVineSystem::commit_writes`]), for one direct message
    /// charged to this unit unless the holder expanded the origin hop
    /// itself; an early-terminating caller that stops pulling (or calls
    /// [`ClosureSweep::discard_pending`]) never commits a partial
    /// walk.
    ///
    /// A crashed discovery destination ([`SystemError::PeerDown`]) is
    /// charged as a failure and the hop is simply not expanded — the
    /// walk continues rather than hanging or erroring out.
    pub(crate) fn expand_pending(
        &mut self,
        sys: &mut GridVineSystem,
        stats: &mut ExecStats,
    ) -> Result<Expansion, SystemError> {
        let ClosureSweep {
            frontier,
            live: walk,
            stamp,
        } = self;
        let Some(live) = walk else {
            return Ok(Expansion::default());
        };
        let Some(popped) = live.pending.take() else {
            return Ok(Expansion::default());
        };
        let (hop, strategy, ttl) = (popped.hop, live.strategy, live.ttl);
        let mut admitted = Vec::new();
        if let Some(schema_key) = &popped.schema_key {
            let found = match popped.ridden {
                Some(carried) => Ok(carried),
                None => sys
                    .discover_mappings(popped.issuer, schema_key, strategy)
                    .inspect(|_| stats.mapping_fetches += 1),
            };
            let (holder, mappings) = match found {
                Ok(found) => found,
                Err(SystemError::PeerDown(_)) => {
                    stats.failures += 1;
                    live.tainted = true;
                    return Ok(Expansion { admitted });
                }
                Err(e) => return Err(e),
            };
            let next_peer = match strategy {
                Strategy::Iterative => popped.issuer,
                Strategy::Recursive => holder,
            };
            if hop.depth == 0 {
                live.commit = Some((next_peer, holder));
                // Any walk of this closure, from any origin, may have
                // memoized it here: replay its tail instead of chasing
                // deeper mapping lists.
                let epoch = sys.registry.epoch();
                let cached = sys.exec[holder.index()].cache.lookup(epoch, &live.record.0);
                match cached {
                    Some((hops, committed)) => {
                        stats.cache_hits += 1;
                        *stamp = committed;
                        // Depth 0 was already resolved live.
                        let tail = hops.get(1..).unwrap_or_default();
                        *walk = None;
                        frontier.replay(sys, &hop.pattern, tail, next_peer);
                        let admitted = tail.iter().map(|h| h.schema.clone()).collect();
                        return Ok(Expansion { admitted });
                    }
                    None => stats.cache_misses += 1,
                }
            }
            expand_hop(&hop, &mappings, &mut live.visited, |reached, _, _| {
                admitted.push(reached.schema.clone());
                let expands = reached.depth < ttl;
                frontier.push(sys, reached, next_peer, expands);
            });
        }
        if frontier.hops.is_empty() && !live.tainted {
            if let Some((from, peer)) = live.commit {
                // One direct message, unless the holder expanded the
                // origin hop itself.
                sys.overlay.charge_direct(from, peer, 1);
                let key = live.record.0.clone();
                let hops = std::mem::take(&mut live.record.1);
                sys.proto.writes.push(Write::Closure { peer, key, hops });
            }
        }
        Ok(Expansion { admitted })
    }

    /// Drop the pending hop without expanding it (early termination:
    /// its discovery messages are never sent and no cache entry is
    /// committed).
    pub(crate) fn discard_pending(&mut self) {
        if let Some(live) = &mut self.live {
            live.pending = None;
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

    /// Hash a routing constant for [`GridVineSystem::resolve_patterns`].
    pub(crate) fn routed_by(&self, term: &Term) -> RoutedBy {
        RoutedBy {
            term: term.clone(),
            key: self.key_of(term.lexical()),
        }
    }

    /// One data `Retrieve` from `origin`, carrying a list of patterns —
    /// `first`, then `rest` — and a binding column, `seeds` (empty: no
    /// column, each pattern stands for itself — or for the one instance
    /// its [`Listed::seed`] makes; otherwise each pattern stands for its
    /// instances, one per seed). It goes out by the key of `first` as
    /// one exchange ([`GridVineSystem::exchange`]: routed, or sent to a
    /// learned address) and is charged as a `Retrieve` is — the request's
    /// messages and one response — however many patterns it lists and
    /// seeds it carries. The peer it lands on
    /// answers every listed pattern whose key lies under its own path,
    /// which is all a destination knows about its responsibility: one
    /// call of its `DB_p`'s scan kernel per answered pattern, which
    /// compiles the pattern once and answers it for each seed
    /// ([`TripleStore::match_seeds_into`]: one scan matched to the seeds
    /// by code, or one bound scan per seed, whichever walks fewer rows;
    /// [`TripleStore::match_into`] without a seed), appending to `out`
    /// (whose header is the instances' shared variables) in list order,
    /// seed by seed. A value a seed binds is matched exactly. For an answered pattern that
    /// lists a schema key under its path too, it adds the mapping list
    /// stored there — what a discovery routed to that key would read. It
    /// says in `reply` who answered, what, how many rows each instance
    /// shipped and which lists it carries. On `Err` nothing was answered
    /// and nothing is appended.
    pub(crate) fn resolve_patterns<'a>(
        &mut self,
        origin: PeerId,
        first: Listed<'a>,
        rest: impl Iterator<Item = Listed<'a>>,
        seeds: &SeedColumn,
        out: &mut CodedRows,
        reply: &mut Reply,
    ) -> Result<(), SystemError> {
        let dest = self.exchange(origin, &first.routed.key, true)?;
        let db = &self.local_dbs[dest.index()];
        let view = self.overlay.view(dest);
        for (i, l) in std::iter::once(first).chain(rest).enumerate() {
            if !view.is_responsible(&l.routed.key) {
                continue;
            }
            let held = l.schema_key.filter(|k| view.is_responsible(k));
            reply.answered.push(i);
            reply
                .lists
                .push(held.map(|k| self.stored_mappings(dest, k)));
            let column = l.seed.unwrap_or(seeds);
            if column.is_empty() {
                reply.shipped.push(db.match_into(l.pattern, out));
            } else {
                let lexicon = &self.lexicon;
                db.match_seeds_into(l.pattern, column, lexicon, out, &mut reply.shipped);
            }
        }
        reply.peer = Some(dest);
        Ok(())
    }

    /// Send a mapping discovery for the schema whose key is `schema_key`
    /// from `issuer` — one `Retrieve`, one exchange
    /// ([`GridVineSystem::exchange`]). Iterative pulls the list back to
    /// the issuer (the response is charged); recursive forwards the
    /// query to the schema-key peer, which reads its local list for
    /// free. Returns the peer that held the list and the list.
    pub(crate) fn discover_mappings(
        &mut self,
        issuer: PeerId,
        schema_key: &BitString,
        strategy: Strategy,
    ) -> Result<(PeerId, Vec<Mapping>), SystemError> {
        let holder = self.exchange(issuer, schema_key, strategy == Strategy::Iterative)?;
        Ok((holder, self.stored_mappings(holder, schema_key)))
    }
}

#[cfg(test)]
mod tests {
    use super::super::pool::SessionPool;
    use super::super::sched::{unit_latency, LeafTable, PER_MESSAGE};
    use super::super::session::ResultEvent;
    use super::*;
    use gridvine_rdf::{PatternTerm, Triple, TriplePatternQuery};
    use gridvine_semantic::{Correspondence, MappingKind, Provenance, Schema};

    /// Initials far apart, so the order-preserving hash puts the four
    /// schema keys — and the four `Schema#attr` predicates — under four
    /// different leaves of a 16-peer trie.
    const SCHEMAS: [&str; 4] = ["Apple", "Guava", "Mango", "Zebra"];
    /// Longer than a `Schema#a` predicate, so a pattern holding it
    /// routes by it under every such predicate; it hashes under
    /// Mango's leaf.
    const OBJECT: &str = "Mango smoothie, no ice";
    /// A Mango attribute long enough to out-score [`OBJECT`].
    const LONG_ATTR: &str = "a-name-longer-than-the-smoothie";
    const ORIGIN: PeerId = PeerId(1);

    /// Apple mapped to each other schema, one record per schema with
    /// [`OBJECT`] as its object. 16 peers: one per leaf, no replicas.
    fn star(mango_attr: &str) -> GridVineSystem {
        star_on(star_config(), mango_attr)
    }

    fn star_config() -> GridVineConfig {
        GridVineConfig {
            peers: 16,
            seed: 11,
            ..GridVineConfig::default()
        }
    }

    /// [`star`] over `config`.
    fn star_on(config: GridVineConfig, mango_attr: &str) -> GridVineSystem {
        let mut sys = GridVineSystem::new(config);
        let attr = |s: &str| if s == "Mango" { mango_attr } else { "a" };
        for s in SCHEMAS {
            sys.insert_schema(ORIGIN, Schema::new(s, [attr(s)]))
                .unwrap();
            sys.insert_triple(
                ORIGIN,
                Triple::new(
                    format!("seq:{s}").as_str(),
                    format!("{s}#{}", attr(s)).as_str(),
                    Term::literal(OBJECT),
                ),
            )
            .unwrap();
        }
        for s in &SCHEMAS[1..] {
            sys.insert_mapping(
                ORIGIN,
                "Apple",
                *s,
                MappingKind::Equivalence,
                Provenance::Manual,
                vec![Correspondence::new("a", attr(s))],
            )
            .unwrap();
        }
        sys
    }

    /// The four schemas with the star's records, mapped in a chain:
    /// Apple → Guava → Mango → Zebra.
    fn chain() -> GridVineSystem {
        let mut sys = GridVineSystem::new(star_config());
        for s in SCHEMAS {
            sys.insert_schema(ORIGIN, Schema::new(s, ["a"])).unwrap();
            let predicate = format!("{s}#a");
            let object = Term::literal(OBJECT);
            let record = Triple::new(format!("seq:{s}").as_str(), predicate.as_str(), object);
            sys.insert_triple(ORIGIN, record).unwrap();
        }
        for pair in SCHEMAS.windows(2) {
            let a = vec![Correspondence::new("a", "a")];
            let (kind, provenance) = (MappingKind::Equivalence, Provenance::Manual);
            sys.insert_mapping(ORIGIN, pair[0], pair[1], kind, provenance, a)
                .unwrap();
        }
        sys
    }

    fn query_of(predicate: &str, object: PatternTerm) -> TriplePatternQuery {
        let pattern = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri(predicate)),
            object,
        );
        TriplePatternQuery::new("x", pattern).unwrap()
    }

    fn closure_of(predicate: &str, object: PatternTerm) -> QueryPlan {
        QueryPlan::search(query_of(predicate, object))
    }

    /// Every hop of its closure routes by [`OBJECT`].
    fn object_query() -> TriplePatternQuery {
        query_of("Apple#a", PatternTerm::constant(Term::literal(OBJECT)))
    }

    fn by_object() -> QueryPlan {
        QueryPlan::search(object_query())
    }

    fn leaf_of(sys: &GridVineSystem, lexical: &str) -> PeerId {
        sys.topology().responsible(&sys.key_of(lexical))[0]
    }

    /// Drain a session into its per-unit event lists (each ends with
    /// the unit's `Stats`) and its outcome.
    fn units(
        sys: &mut GridVineSystem,
        plan: &QueryPlan,
        options: &QueryOptions,
    ) -> (Vec<Vec<ResultEvent>>, QueryOutcome) {
        let mut session = sys.open(ORIGIN, plan, options).unwrap();
        let mut units = vec![Vec::new()];
        while let Some(event) = session.next_event().unwrap() {
            let closes = matches!(event, ResultEvent::Stats(_));
            units.last_mut().unwrap().push(event);
            if closes {
                units.push(Vec::new());
            }
        }
        assert_eq!(units.pop(), Some(Vec::new()), "a unit ends with its Stats");
        (units, session.into_outcome())
    }

    fn schema_hops(unit: &[ResultEvent]) -> usize {
        unit.iter()
            .filter(|e| matches!(e, ResultEvent::SchemaHop { .. }))
            .count()
    }

    #[test]
    fn hops_under_one_key_ride_one_request() {
        let options = QueryOptions::default();
        let mut sys = star("a");
        let mut twin = star("a");
        let cold = sys.execute(ORIGIN, &by_object(), &options).unwrap();
        twin.execute(ORIGIN, &by_object(), &options).unwrap();
        assert_eq!(leaf_of(&sys, OBJECT), leaf_of(&sys, "Mango"));
        // Live walk: the origin hop alone, then the three it admits on
        // the request of the first one popped. That request lands on
        // the leaf holding Mango's key, so Mango's list rides its
        // reply; Apple, Guava and Zebra are discovered.
        assert_eq!(cold.rows.len(), 4);
        assert_eq!((cold.stats.subqueries, cold.stats.mapping_fetches), (4, 3));
        assert_eq!(cold.stats.requests, 2 + 3);

        let (units, warm) = units(&mut sys, &by_object(), &options);
        assert_eq!(warm.rows, cold.rows);
        // Warm: the origin hop goes out on its own, Apple's list is
        // discovered at the peer holding it, whose cache replays the
        // rest — and the three hops it replays ride one request.
        assert_eq!(warm.stats.requests, 3);
        assert_eq!((warm.stats.mapping_fetches, warm.stats.cache_hits), (1, 1));
        assert_eq!((warm.stats.subqueries, warm.stats.schemas_visited), (4, 4));
        assert_eq!(warm.stats.bindings_shipped, 4);
        // One unit, one `Stats`, per exchange; the replayed hops'
        // events all inside the last.
        assert_eq!(units.len(), warm.stats.requests);
        let hops: Vec<usize> = units.iter().map(|u| schema_hops(u)).collect();
        assert_eq!(hops, [1, 0, 3]);
        // That request is charged as the lookup of one pattern is: both
        // go to the object's leaf, which the cold walks taught.
        let lookup = QueryPlan::pattern(object_query());
        let one = twin.execute(ORIGIN, &lookup, &options).unwrap();
        assert_eq!(one.stats.subqueries, 1);
        assert!(one.stats.messages > 1, "the origin is not the destination");
        assert_eq!(deltas(&units)[2].messages, one.stats.messages);
    }

    #[test]
    fn hops_under_different_paths_are_separate_requests() {
        let sys = &mut star("a");
        let mut leaves: Vec<PeerId> = SCHEMAS
            .iter()
            .map(|s| leaf_of(sys, &format!("{s}#a")))
            .collect();
        leaves.dedup();
        assert_eq!(leaves.len(), 4);
        let by_predicate = closure_of("Apple#a", PatternTerm::var("o"));
        let options = QueryOptions::default();
        let cold = sys.execute(ORIGIN, &by_predicate, &options).unwrap();
        let (units, warm) = units(sys, &by_predicate, &options);
        assert_eq!(warm.rows, cold.rows);
        for stats in [cold.stats, warm.stats] {
            assert_eq!(stats.subqueries, 4);
            assert_eq!(stats.requests, stats.subqueries + stats.mapping_fetches);
        }
        assert_eq!(units.len(), warm.stats.requests);
        assert!(units.iter().all(|u| schema_hops(u) == 1));
    }

    #[test]
    fn requests_never_exceed_patterns_plus_discoveries() {
        for strategy in [Strategy::Iterative, Strategy::Recursive] {
            // At TTL 1 the three hops Apple admits are at the TTL.
            for ttl in [None, Some(1)] {
                let mut options = QueryOptions::new().strategy(strategy);
                options.ttl = ttl;
                for plan in [by_object(), closure_of("Apple#a", PatternTerm::var("o"))] {
                    let sys = &mut star("a");
                    for run in ["cold", "warm"] {
                        let (units, out) = units(sys, &plan, &options);
                        let s = out.stats;
                        let case = format!("{strategy:?} ttl {ttl:?} {plan} {run}");
                        assert!(
                            s.requests <= s.subqueries + s.mapping_fetches,
                            "{case}: {s:?}"
                        );
                        assert_eq!((s.subqueries, s.failures), (4, 0), "{case}");
                        // A unit is one request.
                        assert_eq!(units.len(), s.requests, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_cold_walk_by_predicates_sends_no_discovery() {
        let sys = &mut star("a");
        for s in SCHEMAS {
            assert_eq!(leaf_of(sys, s), leaf_of(sys, &format!("{s}#a")), "{s}");
        }
        // Every hop's data reply carries its list.
        let by_predicate = closure_of("Apple#a", PatternTerm::var("o"));
        let cold = sys.execute(ORIGIN, &by_predicate, &QueryOptions::default());
        let cold = cold.unwrap();
        assert_eq!(cold.rows.len(), 4);
        assert_eq!(
            (cold.stats.cache_misses, cold.stats.mapping_fetches),
            (1, 0)
        );
        assert_eq!(cold.stats.requests, cold.stats.subqueries);
        assert_eq!(sys.cached_closures(), 1);
    }

    #[test]
    fn a_walk_by_an_object_off_every_schema_leaf_discovers_every_expanded_hop() {
        // Longer than a `Schema#a` predicate, so every hop routes by it.
        let object = "Quince jelly, no sugar";
        let plan = closure_of("Apple#a", PatternTerm::constant(Term::literal(object)));
        for strategy in [Strategy::Iterative, Strategy::Recursive] {
            let sys = &mut star("a");
            let leaf = leaf_of(sys, object);
            assert!(SCHEMAS.iter().all(|s| leaf_of(sys, s) != leaf));
            for s in SCHEMAS {
                let (subject, predicate) = (format!("seq:Q{s}"), format!("{s}#a"));
                let record =
                    Triple::new(subject.as_str(), predicate.as_str(), Term::literal(object));
                sys.insert_triple(ORIGIN, record).unwrap();
            }
            let options = QueryOptions::new().strategy(strategy);
            let cold = sys.execute(ORIGIN, &plan, &options).unwrap();
            assert_eq!(cold.rows.len(), 4, "{strategy:?}");
            // No reply lands where a list is: one discovery per hop.
            let s = cold.stats;
            assert_eq!((s.subqueries, s.mapping_fetches), (4, 4), "{strategy:?}");
        }
    }

    #[test]
    fn a_failed_request_answers_only_the_hop_it_was_routed_for() {
        let sys = &mut star("a");
        let down = leaf_of(sys, OBJECT);
        assert_eq!(down, leaf_of(sys, "Mango"));
        assert!(!SCHEMAS
            .iter()
            .any(|s| *s != "Mango" && leaf_of(sys, s) == down));
        assert_ne!(down, ORIGIN);
        sys.crash_peer(down);
        let options = QueryOptions::default();
        let (units, out) = units(sys, &by_object(), &options);
        // Every data request lands on the crashed peer. Zebra's lists
        // Mango and Guava, which are not failures of that request:
        // each is sent again at its turn. Mango's discovery lands there
        // too, which taints the walk.
        assert!(out.rows.is_empty());
        assert_eq!(out.stats.subqueries, 4);
        assert_eq!(out.stats.failures, 4 + 1);
        assert_eq!(out.stats.mapping_fetches, 3);
        assert_eq!(out.stats.requests, 4 + 4);
        assert_eq!(units.len(), out.stats.requests);
        assert!(units.iter().all(|u| schema_hops(u) <= 1));
        assert_eq!(sys.cached_closures(), 0, "a tainted walk commits nothing");

        sys.recover_peer(down);
        let healed = sys.execute(ORIGIN, &by_object(), &options).unwrap();
        assert_eq!((healed.rows.len(), healed.stats.failures), (4, 0));
        assert_eq!(sys.cached_closures(), 1);
    }

    #[test]
    fn a_hop_under_the_objects_leaf_rides_the_warm_replay() {
        let from_mango = closure_of(
            &format!("Mango#{LONG_ATTR}"),
            PatternTerm::constant(Term::literal(OBJECT)),
        );
        let options = QueryOptions::default();
        // Mango's hop routes by its predicate, to the leaf the object's
        // key lies under, so it rides (or carries) the rest.
        let sys = &mut star(LONG_ATTR);
        assert_eq!(
            leaf_of(sys, &format!("Mango#{LONG_ATTR}")),
            leaf_of(sys, OBJECT)
        );
        // A warm walk sends its origin hop, then replays the rest from
        // the cache of the peer holding the origin's list. From Apple,
        // whose hop lands on Mango's leaf, that list is discovered and
        // the three replayed hops share one request; from Mango, its
        // list rides the origin hop's reply, and so do the three.
        for (plan, warm_requests) in [(by_object(), 3), (from_mango, 2)] {
            let rows = sys.execute(ORIGIN, &plan, &options).unwrap().rows;
            assert_eq!(rows.len(), 4);
            let warm = sys.execute(ORIGIN, &plan, &options).unwrap();
            assert_eq!(warm.rows, rows, "{plan}");
            assert_eq!(warm.stats.cache_hits, 1);
            assert_eq!(warm.stats.requests, warm_requests, "{plan}");
        }
    }

    #[test]
    fn riding_is_window_and_pool_invariant() {
        let plan = by_object();
        let serial = &mut star("a");
        let expected: Vec<QueryOutcome> = (0..2)
            .map(|_| {
                serial
                    .execute(ORIGIN, &plan, &QueryOptions::default())
                    .unwrap()
            })
            .collect();
        assert!(expected[1].stats.requests < expected[1].stats.subqueries);
        for window in [1, 2, 4, 8] {
            let options = QueryOptions::new().window(window);
            let solo = &mut star("a");
            let pooled = &mut star("a");
            // Cold, then warm.
            for expect in &expected {
                let out = solo.execute(ORIGIN, &plan, &options).unwrap();
                assert_eq!(out.rows, expect.rows, "window {window}");
                assert_eq!(out.stats.messages, expect.stats.messages);
                assert_eq!(out.stats.requests, expect.stats.requests);
                assert_eq!(out.stats.subqueries, expect.stats.subqueries);

                let mut pool = SessionPool::new();
                let id = pool.open(pooled, ORIGIN, &plan, &options).unwrap();
                while pool.step(pooled).is_some() {}
                let via_pool = pool.take_outcome(pooled, id).unwrap();
                assert_eq!(via_pool.rows, out.rows, "window {window}");
                assert_eq!(via_pool.stats, out.stats, "window {window}");
            }
            for _ in 0..8 {
                assert_eq!(solo.random_peer(), pooled.random_peer());
            }
        }
    }

    /// The window moves the clock, never the computation. Guava is the
    /// hop a serial walk resolves last: a record only it holds reaches
    /// a `window(1)` session after every other hop's round trips, a
    /// `window(4)` session after Apple's request, whose reply carries
    /// Apple's list, and one more data request. The walk is cold, from
    /// the peer holding Apple's list, so committing it sends nothing.
    #[test]
    fn a_wider_window_reaches_the_first_row_at_least_twice_as_soon() {
        let late = closure_of("Apple#a", PatternTerm::constant(Term::literal("%late%")));
        let first_row = |window: usize| {
            let sys = &mut star("a");
            let holder = leaf_of(sys, "Apple");
            assert_eq!(holder, leaf_of(sys, "Apple#a"));
            let record = Triple::new("seq:late", "Guava#a", Term::literal("late"));
            sys.insert_triple(ORIGIN, record).unwrap();
            let options = QueryOptions::new().window(window);
            let mut session = sys.open(holder, &late, &options).unwrap();
            let mut at = None;
            while let Some(event) = session.next_event().unwrap() {
                if matches!(&event, ResultEvent::Rows(rows) if !rows.is_empty()) {
                    at = at.or(Some(session.sim_elapsed()));
                }
            }
            let out = session.into_outcome();
            assert_eq!(out.rows.len(), 1);
            (at.expect("the record is found"), out.stats.messages)
        };
        let (serial_at, serial_messages) = first_row(1);
        let (overlapped_at, overlapped_messages) = first_row(4);
        assert_eq!(overlapped_messages, serial_messages);
        assert!(
            overlapped_at.as_micros() * 2 <= serial_at.as_micros(),
            "first row at {overlapped_at:?} under window(4), {serial_at:?} under window(1)"
        );
    }

    /// [`star`] plus a join corpus: thirty subjects that all are
    /// `"many"`, the first three also `"few"`, each with one lab under
    /// the `a`-attribute of one of the four schemas in turn (so a
    /// closure over `Apple#a` finds them under four leaves) — the first
    /// subject's also, a second time, under Guava's — and a city for
    /// that lab.
    fn join_star() -> GridVineSystem {
        let mut sys = star("a");
        let mut insert = |s: &str, p: String, o: Term| {
            sys.insert_triple(ORIGIN, Triple::new(s, p.as_str(), o))
                .unwrap();
        };
        for i in 0..30 {
            let subject = format!("seq:J{i:02}");
            insert(&subject, "Apple#b".into(), Term::literal("many"));
            if i < 3 {
                insert(&subject, "Apple#b".into(), Term::literal("few"));
            }
            let lab = Term::uri(format!("lab:{i:02}"));
            insert(&subject, format!("{}#a", SCHEMAS[i % 4]), lab);
        }
        insert("seq:J00", "Guava#a".into(), Term::uri("lab:00"));
        insert("lab:00", "Apple#c".into(), Term::literal("Lausanne"));
        sys
    }

    /// `(?x, Apple#b, selector) ∧ (?x, Apple#a, ?lab)`, and with
    /// `chain` `∧ (?lab, Apple#c, ?city)`.
    fn join_of(selector: &str, chain: bool) -> QueryPlan {
        let var = PatternTerm::var;
        let uri = |u: &str| PatternTerm::constant(Term::uri(u));
        let selector = PatternTerm::constant(Term::literal(selector));
        let mut patterns = vec![
            TriplePattern::new(var("x"), uri("Apple#b"), selector),
            TriplePattern::new(var("x"), uri("Apple#a"), var("lab")),
        ];
        let mut distinguished = vec!["x".to_string(), "lab".to_string()];
        if chain {
            patterns.push(TriplePattern::new(var("lab"), uri("Apple#c"), var("city")));
            distinguished.push("city".to_string());
        }
        QueryPlan::conjunctive(
            gridvine_rdf::ConjunctiveQuery::new(distinguished, patterns).unwrap(),
        )
    }

    fn bound() -> QueryOptions {
        QueryOptions::new().join_mode(JoinMode::BoundSubstitution)
    }

    fn independent() -> QueryOptions {
        QueryOptions::new().join_mode(JoinMode::Independent)
    }

    /// The `Stats` delta closing each unit.
    fn deltas(units: &[Vec<ResultEvent>]) -> Vec<ExecStats> {
        let stats = units.iter().map(|unit| match unit.last() {
            Some(ResultEvent::Stats(delta)) => *delta,
            other => panic!("a unit ends with its Stats, not {other:?}"),
        });
        stats.collect()
    }

    /// The sum of consecutive units' deltas.
    fn total(deltas: &[ExecStats]) -> ExecStats {
        let mut sum = ExecStats::default();
        for delta in deltas {
            sum += *delta;
        }
        sum
    }

    #[test]
    fn a_bound_pattern_is_one_sweep_however_many_rows_it_is_bound_to() {
        // Identically seeded twins holding the same corpus: which
        // selector the first pattern asks for decides how many partial
        // solutions the second is bound to, and nothing else.
        let few = units(&mut join_star(), &join_of("few", false), &bound());
        let many = units(&mut join_star(), &join_of("many", false), &bound());
        // One unit per exchange, however many seeds it carries.
        assert_eq!(few.0.len(), few.1.stats.requests);
        assert_eq!(many.0.len(), many.1.stats.requests);
        let (few, many) = (few.1, many.1);
        assert_eq!((few.rows.len(), many.rows.len()), (3, 30));
        assert_eq!(few.stats.requests, many.stats.requests);
        assert_eq!(few.stats.messages, many.stats.messages);
        assert_eq!(few.stats.mapping_fetches, many.stats.mapping_fetches);
        // One instance per hop and seed.
        assert_eq!(few.stats.subqueries, 1 + 4 * 3);
        assert_eq!(many.stats.subqueries, 1 + 4 * 30);
        assert_eq!(many.stats.reformulations, 3 * 30);
        // No request more than the sweeps of the unbound patterns.
        let unbound = join_star().execute(ORIGIN, &join_of("many", false), &independent());
        let unbound = unbound.unwrap();
        assert_eq!(unbound.rows, many.rows);
        assert!(many.stats.requests <= unbound.stats.requests);
        assert_eq!(many.stats.messages, unbound.stats.messages);
        assert_eq!(unbound.stats.subqueries, 1 + 4);
    }

    #[test]
    fn bindings_carried_counts_the_seed_terms_on_data_requests() {
        let sys = &mut join_star();
        for run in ["cold", "warm"] {
            let (units, out) = units(sys, &join_of("few", false), &bound());
            // One unit per exchange: the first pattern's walk is one
            // request, every later unit is the second pattern's.
            let deltas = deltas(&units);
            assert_eq!(deltas.len(), out.stats.requests, "{run}");
            let (first, second) = (deltas[0], total(&deltas[1..]));
            assert_eq!(first.requests, 1, "{run}");
            // The first pattern is bound to nothing. Every data request
            // of the second carries three seeds of one variable.
            assert_eq!(first.bindings_carried, 0, "{run}");
            for unit in &deltas[1..] {
                let data_request = unit.requests - unit.mapping_fetches;
                assert_eq!(unit.bindings_carried, 3 * data_request, "{run}");
            }
            let data_requests = second.requests - second.mapping_fetches;
            assert_eq!(data_requests, 4, "{run}: four leaves");
            assert_eq!(second.bindings_carried, 3 * data_requests, "{run}");
            assert_eq!(out.stats.bindings_carried, second.bindings_carried);
            assert_eq!(second.bindings_shipped, 3 + 1, "{run}");
        }
        let unbound = sys.execute(ORIGIN, &join_of("few", false), &independent());
        assert_eq!(unbound.unwrap().stats.bindings_carried, 0);
        let search = sys.execute(ORIGIN, &by_object(), &QueryOptions::default());
        assert_eq!(search.unwrap().stats.bindings_carried, 0);
    }

    #[test]
    fn a_failed_bound_request_fails_its_hop_once_per_seed() {
        let sys = &mut join_star();
        let down = leaf_of(sys, "Mango#a");
        assert_eq!(down, leaf_of(sys, "Mango"), "its discovery lands there too");
        assert_ne!(down, ORIGIN);
        sys.crash_peer(down);
        let plan = join_of("few", false);
        let out = sys.execute(ORIGIN, &plan, &bound()).unwrap();
        // Mango's hop fails for each of the three seeds, and its
        // discovery once; the hops under the other three leaves answer.
        assert_eq!(out.stats.failures, 3 + 1);
        assert_eq!(out.stats.subqueries, 1 + 4 * 3);
        assert_eq!(out.terms("x"), ["seq:J00", "seq:J01"].map(Term::uri));
        // The first pattern's walk is memoized; the second's is tainted.
        assert_eq!(sys.cached_closures(), 1);

        sys.recover_peer(down);
        let healed = sys.execute(ORIGIN, &plan, &bound()).unwrap();
        assert_eq!(healed.stats.failures, 0);
        assert_eq!(
            healed.terms("x"),
            ["seq:J00", "seq:J01", "seq:J02"].map(Term::uri)
        );
        assert_eq!(sys.cached_closures(), 2);
    }

    #[test]
    fn a_limit_inside_a_bound_pattern_ends_its_sweep() {
        let plan = join_of("many", false);
        let full_sys = &mut join_star();
        let full = full_sys.execute(ORIGIN, &plan, &bound()).unwrap();
        assert_eq!(full_sys.cached_closures(), 2);

        let sys = &mut join_star();
        let (units, limited) = units(sys, &plan, &bound().limit(2));
        assert_eq!(units.len(), limited.stats.requests);
        assert_eq!(limited.rows.len(), 2);
        assert!(limited.rows.iter().all(|row| full.rows.contains(row)));
        // The first pattern's walk is one request: `Apple#b` routes to
        // the leaf holding Apple's key, so Apple's list — the one
        // discovery that walk would send — rides its reply. The reply
        // of the second pattern's first hop holds enough rows: no other
        // hop's request, and no discovery, is sent, and the reply is
        // charged whole — eight subjects have their lab under Apple.
        assert_eq!(leaf_of(sys, "Apple#b"), leaf_of(sys, "Apple"));
        assert!(limited.stats.requests < full.stats.requests);
        assert_eq!(limited.stats.requests, 1 + 1);
        assert_eq!(limited.stats.mapping_fetches, 0);
        assert_eq!(limited.stats.bindings_shipped, 30 + 8);
        assert_eq!(limited.stats.subqueries, 1 + 30);
        // The truncated walk is not memoized; the first pattern's is.
        assert_eq!(sys.cached_closures(), 1);
        assert_eq!(sys.pending_events(), 0);
    }

    /// The second pattern's walk starts at Apple, whose reply carries
    /// Apple's list: the three hops it admits are ready at once, and a
    /// `window(4)` session sends their requests side by side where a
    /// `window(1)` session sends them one after another. Same rows,
    /// same messages.
    #[test]
    fn a_bound_pattern_overlaps_the_hops_that_are_ready_at_once() {
        let plan = join_of("many", false);
        let drained = |window: usize| {
            let sys = &mut join_star();
            let mut session = sys.open(ORIGIN, &plan, &bound().window(window)).unwrap();
            while session.next_event().unwrap().is_some() {}
            let elapsed = session.sim_elapsed();
            (session.into_outcome(), elapsed)
        };
        let (serial, serial_t) = drained(1);
        let (overlapped, overlapped_t) = drained(4);
        assert_eq!(overlapped.rows, serial.rows);
        assert_eq!(overlapped.stats.messages, serial.stats.messages);
        assert_eq!(overlapped.stats.mapping_fetches, 0, "every list rides");
        assert!(
            overlapped_t < serial_t,
            "drained in {overlapped_t:?} under window(4), {serial_t:?} under window(1)"
        );
    }

    #[test]
    fn duplicate_fragments_stay_duplicates_until_the_projection() {
        let plan = join_of("few", true);
        let sys = &mut join_star();
        let (units, out) = units(sys, &plan, &bound());
        // One unit per exchange; the first and the third pattern's walks
        // are one request each — their closures are Apple alone, and
        // Apple's list rides the reply.
        let deltas = deltas(&units);
        assert_eq!(deltas.len(), out.stats.requests);
        let [first, second @ .., third] = &deltas[..] else {
            panic!("a unit per exchange, not {}", units.len());
        };
        assert_eq!((first.requests, third.requests), (1, 1));
        let second = total(second);
        // `seq:J00`'s lab comes back through Apple's hop and through
        // Guava's: four partial rows for three distinct labs, so three
        // seeds for the third pattern (whose closure is Apple alone).
        assert_eq!(second.bindings_shipped, 3 + 1);
        assert_eq!(third.subqueries, 3);
        assert_eq!(third.bindings_carried, 3);
        // Both copies complete; the projection keeps one.
        assert_eq!(third.bindings_shipped, 1);
        assert_eq!(out.rows.len(), 1);
        assert_eq!(out.rows[0].get("city"), Some(&Term::literal("Lausanne")));
        let unbound = join_star().execute(ORIGIN, &plan, &independent()).unwrap();
        assert_eq!(out.rows, unbound.rows);
    }

    /// The star on routes that draw nothing from the routing stream that
    /// decides anything: one reference per level.
    fn one_route_star() -> GridVineSystem {
        let config = GridVineConfig {
            refs_per_level: 1,
            ..star_config()
        };
        star_on(config, "a")
    }

    #[test]
    fn a_warm_replay_sends_every_remote_request_to_a_learned_address() {
        let by_predicate = closure_of("Apple#a", PatternTerm::var("o"));
        for plan in [by_object(), by_predicate] {
            let sys = &mut star("a");
            let options = QueryOptions::default();
            let cold = sys.execute(ORIGIN, &plan, &options).unwrap();
            let (units, warm) = units(sys, &plan, &options);
            assert_eq!(warm.rows, cold.rows, "{plan}");
            assert_eq!(warm.stats.cache_hits, 1);
            // The origin holds none of the keys: every request is
            // remote, one direct message and one response.
            let s = warm.stats;
            assert!(s.requests > 0);
            assert_eq!(s.direct, s.requests, "{plan}: {s:?}");
            assert_eq!(s.messages, 2 * s.requests as u64, "{plan}");
            assert_eq!(units.len(), s.requests);
            for delta in deltas(&units) {
                assert_eq!((delta.direct, delta.messages), (1, 2), "{plan}");
            }
            assert!(cold.stats.messages > s.messages);
        }
    }

    /// Learned leaves are the issuer's own. The closure cache is every
    /// origin's, so it is off here: no walk reads another's commit.
    #[test]
    fn an_origin_that_learned_nothing_sends_what_a_fresh_system_sends() {
        let other = PeerId(9);
        let options = QueryOptions::default();
        let uncached = || {
            let config = GridVineConfig {
                refs_per_level: 1,
                closure_cache_capacity: 0,
                ..star_config()
            };
            star_on(config, "a")
        };
        for plan in [by_object(), closure_of("Apple#a", PatternTerm::var("o"))] {
            let sys = &mut uncached();
            sys.execute(ORIGIN, &plan, &options).unwrap();
            let second = sys.execute(other, &plan, &options).unwrap();
            let fresh = uncached().execute(other, &plan, &options).unwrap();
            assert_eq!(second.rows, fresh.rows, "{plan}");
            assert_eq!(second.stats, fresh.stats, "{plan}");
        }
    }

    #[test]
    fn updates_neither_read_nor_fill_the_learned_leaves() {
        let by_predicate = closure_of("Apple#a", PatternTerm::var("o"));
        let warm = &mut one_route_star();
        warm.execute(ORIGIN, &by_predicate, &QueryOptions::default())
            .unwrap();
        for s in SCHEMAS {
            let key = warm.key_of(&format!("{s}#a"));
            assert!(warm.learned_address(ORIGIN, &key).is_some(), "{s}");
        }
        let learned = warm.exec[ORIGIN.index()].leaves.clone();
        // Every key these writes route by lies under a learned leaf.
        let update = |sys: &mut GridVineSystem| {
            let before = sys.messages_sent();
            let records = SCHEMAS.map(|s| {
                let predicate = format!("{s}#a");
                Triple::new("seq:New", predicate.as_str(), Term::literal(OBJECT))
            });
            sys.insert_triples(ORIGIN, records).unwrap();
            sys.insert_schema(ORIGIN, Schema::new("Guavas", ["a"]))
                .unwrap();
            let a = vec![Correspondence::new("a", "a")];
            let (kind, provenance) = (MappingKind::Equivalence, Provenance::Manual);
            sys.insert_mapping(ORIGIN, "Guavas", "Zebra", kind, provenance, a)
                .unwrap();
            sys.messages_sent() - before
        };
        let cold = &mut one_route_star();
        assert_eq!(update(warm), update(cold));
        assert_eq!(warm.exec[ORIGIN.index()].leaves, learned);
        assert_eq!(cold.exec[ORIGIN.index()].leaves, LeafTable::default());
    }

    /// An independent join's two sweeps may both start at once, and
    /// their first requests go to one leaf: the second is sent to the
    /// address the first one's reply teaches. At `window(4)` it leaves
    /// when that reply lands, not beside the first; at `window(1)` every
    /// unit leaves when the one before it lands anyway.
    #[test]
    fn a_learned_address_is_used_no_earlier_than_it_was_learned() {
        let plan = join_of("few", false);
        for window in [1, 4] {
            let sys = &mut join_star();
            assert_eq!(leaf_of(sys, "Apple#b"), leaf_of(sys, "Apple#a"));
            let (landed, out) = landed(sys, &plan, &independent().window(window));
            assert_eq!(out.rows.len(), 3);
            // When each unit was sent.
            let sent = |&(at, d): &(SimTime, ExecStats)| SimTime(at.0 - unit_latency(d.messages).0);
            let (taught, teacher) = landed[0];
            assert_eq!((teacher.requests, teacher.direct), (1, 0), "{window}");
            let direct: Vec<_> = landed.iter().filter(|(_, d)| d.direct > 0).collect();
            assert!(!direct.is_empty());
            for unit in direct {
                assert!(sent(unit) >= taught, "window {window}: {unit:?}");
            }
            if window == 1 {
                let mut at = SimTime::ZERO;
                for unit in &landed {
                    assert_eq!(sent(unit), at, "{unit:?}");
                    at = unit.0;
                }
            } else {
                // The second sweep's first unit would otherwise have
                // been sent at session start.
                assert!(landed
                    .iter()
                    .any(|u| u.1.direct > 0 && sent(u) > SimTime::ZERO));
            }
        }
    }

    /// Drain a session into the instant each unit's reply landed, with
    /// the unit's `Stats` delta, and its outcome.
    fn landed(
        sys: &mut GridVineSystem,
        plan: &QueryPlan,
        options: &QueryOptions,
    ) -> (Vec<(SimTime, ExecStats)>, QueryOutcome) {
        let mut session = sys.open(ORIGIN, plan, options).unwrap();
        let mut landed = Vec::new();
        while let Some(event) = session.next_event().unwrap() {
            if let ResultEvent::Stats(delta) = event {
                landed.push((session.sim_now(), delta));
            }
        }
        (landed, session.into_outcome())
    }

    /// Land `plan` on a system from `build`, then on another with the
    /// leaves of `down` down from just after the session starts until
    /// just after its first reply lands. Both runs answer alike and fail
    /// nothing, and the first unit leaves before the outage. Returns the
    /// landed units of each.
    fn stormy(
        build: impl Fn() -> GridVineSystem,
        plan: &QueryPlan,
        options: &QueryOptions,
        down: &[&str],
    ) -> [Vec<(SimTime, ExecStats)>; 2] {
        let (calm, calm_out) = landed(&mut build(), plan, options);
        let sys = &mut build();
        let outage = [
            (SimTime(1), ChurnKind::Fail),
            (calm[0].0 + PER_MESSAGE, ChurnKind::Recover),
        ];
        let churn: Vec<ChurnEvent> = down
            .iter()
            .map(|lexical| NodeId::from_index(leaf_of(sys, lexical).index()))
            .flat_map(|node| outage.map(|(at, kind)| ChurnEvent { at, node, kind }))
            .collect();
        sys.install_churn(&churn);
        let (stormy, out) = landed(sys, plan, options);
        assert_eq!(out.rows, calm_out.rows);
        assert_eq!(out.stats.failures, 0, "{:?}", out.stats);
        assert_eq!((stormy[0].1.direct, stormy[0].1.timeouts), (0, 0));
        [calm, stormy]
    }

    /// The join of [`a_learned_address_is_used_no_earlier_than_it_was_learned`]
    /// at `window(4)`, with the shared leaf's peer down until just after
    /// the teaching reply lands: the direct unit, issued at the
    /// session's start, meets the outage at the instant it leaves, times
    /// out once and gets through on its retransmit. Checked at its issue
    /// instant instead, it would find the peer up.
    #[test]
    fn a_direct_request_meets_churn_when_it_leaves() {
        let options = independent().window(4);
        let plan = join_of("few", false);
        let [calm, stormy] = stormy(join_star, &plan, &options, &["Apple#b"]);
        let first_direct = calm.iter().position(|(_, d)| d.direct > 0).unwrap();
        assert_eq!(calm[first_direct].1.timeouts, 0);
        let unit = stormy[first_direct].1;
        assert_eq!((unit.direct, unit.timeouts), (1, 1), "{unit:?}");
    }

    /// The routed twin: a closure by predicates at `window(4)` issues
    /// the three hops Apple's list admits at the session's start, each
    /// routed to a leaf of its own and ready only when Apple's reply,
    /// which carried the list, lands. With those leaves down until just
    /// after it, each unit meets the outage when it leaves.
    #[test]
    fn a_routed_request_meets_churn_when_it_leaves() {
        let options = QueryOptions::new().window(4);
        let plan = closure_of("Apple#a", PatternTerm::var("o"));
        let star = || star("a");
        let down = ["Guava#a", "Mango#a", "Zebra#a"];
        let [calm, stormy] = stormy(star, &plan, &options, &down);
        assert_eq!(calm.len(), 4);
        assert!(calm.iter().all(|(_, d)| d.direct == 0 && d.timeouts == 0));
        for (_, unit) in &stormy[1..] {
            assert_eq!((unit.direct, unit.timeouts), (0, 1), "{unit:?}");
        }
    }

    /// Every coherent closure-cache entry under `key`, over all peers.
    fn committed(sys: &mut GridVineSystem, key: &ClosureKey) -> Vec<Vec<CachedHop>> {
        let epoch = sys.registry.epoch();
        let entries = sys.exec.iter_mut();
        let hops = entries.filter_map(|e| Some(e.cache.lookup(epoch, key)?.0.to_vec()));
        hops.collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// One entry serves both strategies, so it must not depend on
        /// which one committed it: a cold iterative and a cold recursive
        /// walk of the same key commit the same hops, once, and each
        /// strategy's replay of the other's entry answers the cold rows.
        /// A walk at TTL 0 expands nothing and commits nothing.
        #[test]
        fn the_record_is_strategy_independent(
            is_chain in proptest::prelude::any::<bool>(),
            ttl in 0usize..=3,
            origin in 0u32..16,
            by_predicate in proptest::prelude::any::<bool>(),
        ) {
            let plan = if by_predicate {
                closure_of("Apple#a", PatternTerm::var("o"))
            } else {
                by_object()
            };
            let (origin, options) = (PeerId(origin), QueryOptions::new().ttl(ttl));
            let build = || if is_chain { chain() } else { star("a") };
            let key = ClosureKey { schema: SchemaId::new("Apple"), attr: "a".into(), ttl };
            let [(mut iterative, it), (mut recursive, rec)] =
                [Strategy::Iterative, Strategy::Recursive].map(|strategy| {
                    let mut sys = build();
                    let out = sys.execute(origin, &plan, &options.strategy(strategy));
                    (sys, out.unwrap())
                });
            proptest::prop_assert_eq!(&it.rows, &rec.rows);
            let record = committed(&mut iterative, &key);
            proptest::prop_assert_eq!(&record, &committed(&mut recursive, &key));
            proptest::prop_assert_eq!(record.len(), usize::from(ttl > 0));
            for (sys, strategy) in [
                (&mut iterative, Strategy::Recursive),
                (&mut recursive, Strategy::Iterative),
            ] {
                let warm = sys.execute(origin, &plan, &options.strategy(strategy)).unwrap();
                proptest::prop_assert_eq!(&warm.rows, &it.rows, "{:?}", strategy);
                proptest::prop_assert_eq!(warm.stats.cache_hits, usize::from(ttl > 0));
            }
        }
    }

    /// Only a reply teaches: a recursive discovery, which its holder
    /// carries on instead of answering, leaves its issuer's table as it
    /// was, whether routed or sent to a learned address; an iterative
    /// one teaches the holder's leaf.
    #[test]
    fn a_recursive_discovery_teaches_its_issuer_nothing() {
        let sys = &mut star("a");
        let key = sys.key_of("Apple");
        assert_ne!(leaf_of(sys, "Apple"), ORIGIN);
        let discover = |sys: &mut GridVineSystem, strategy| {
            sys.proto.begin_unit(SimTime::ZERO);
            let direct = sys.proto.counters.direct;
            let (holder, list) = sys.discover_mappings(ORIGIN, &key, strategy).unwrap();
            assert_eq!(list.len(), 3);
            let lessons = sys.proto.writes.clone();
            sys.commit_writes(SimTime(1));
            (holder, sys.proto.counters.direct > direct, lessons)
        };
        let (_, direct, lessons) = discover(sys, Strategy::Recursive);
        assert_eq!((direct, lessons), (false, vec![]));
        assert_eq!(sys.exec[ORIGIN.index()].leaves, LeafTable::default());
        let (holder, direct, lessons) = discover(sys, Strategy::Iterative);
        let lesson = Write::Leaf(ORIGIN, holder);
        assert_eq!((direct, lessons), (false, vec![lesson]));
        assert_eq!(sys.learned_address(ORIGIN, &key), Some(holder));
        let (_, direct, lessons) = discover(sys, Strategy::Recursive);
        assert_eq!((direct, lessons), (true, vec![]));
    }
}
