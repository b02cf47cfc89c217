//! The session scheduler seam: per-peer execution state on the
//! simulated clock.
//!
//! A [`QuerySession`](super::session::QuerySession) pull advances
//! routed requests; this module is what gives them time. It puts the
//! synchronous executor on the discrete-event substrate of
//! [`gridvine_netsim`]: every routed request becomes a
//! *unit* — a `Subquery` message issued at a send instant, answered by
//! a `Reply` scheduled on an [`EventQueue`] at `send + latency` — and
//! one session keeps up to [`QueryOptions::window`](super::exec::QueryOptions::window)
//! units in flight. A data request carries a pattern list and its
//! reply answers every listed pattern the destination is responsible
//! for (see [`super::exec`]), so a unit may resolve several closure
//! hops; a hop resolved by another hop's unit never becomes a unit of
//! its own. A join pattern's sweep of the mapping network is units the
//! same way — one per data request or mapping discovery, each request
//! carrying the binding column of a bound join — so independent closure
//! hops, a closure plan's or a join pattern's, prefix probes and the
//! pattern sweeps of an independent join pipeline; dependent work (a
//! hop's children wait for the unit that brought its mapping list, a
//! bound pattern waits for its predecessor's rows) is serialized
//! through per-unit ready times.
//!
//! ## Determinism and equivalence, by construction
//!
//! Units are *issued* in one canonical order — the `window = 1` order,
//! where every pull advances exactly one routed request — and issuing
//! is where all logical state evolves: routing (and its RNG draws), message
//! charging, row admission and dedup, closure expansion and cache
//! recording. The window never reorders issues; it only decides how
//! many replies may be outstanding before the next one must land. The
//! clock therefore models *when* each reply arrives (event delivery
//! order, first-result latency, in-flight accounting) while the row
//! multiset, the message count and the RNG stream are bit-identical
//! for every window size — the equivalence proptests pin this.
//!
//! ## Latency model
//!
//! A unit's latency is proportional to the overlay messages it charged
//! (`unit_latency`): `PROCESSING + messages × PER_MESSAGE`, with one
//! simulated millisecond per overlay message. This ties the clock to
//! the same accounting the synchronous system has always reported —
//! a warm cache replay is faster *because* it sends fewer messages —
//! and keeps the model deterministic. The WAN harness remains the
//! place for heavy-tailed regional latency distributions.
//!
//! ## The request/response protocol
//!
//! A unit is a *real* request/response exchange riding the system's
//! fault process ([`GridVineConfig::fault`](super::GridVineConfig)):
//! each routed request may be lost (it times out and is retransmitted
//! with exponential backoff + jitter, up to
//! [`QueryOptions::max_retries`](super::exec::QueryOptions::max_retries)),
//! each reply carries a request id and may be duplicated (the session
//! deduplicates by id — rows, messages and accounting are never
//! double-charged) or reordered (extra delivery jitter). A unit's
//! lifecycle:
//!
//! ```text
//!           issue (logical work runs, counters charge)
//!             │
//!             ▼
//!  ┌──► in flight ───reply───► completed (delivered once, with the
//!  │          │                rows of every listed pattern the
//!  │       timeout             destination answered; any duplicate
//!  │          ▼                reply with the same request id is
//!  └── retransmit              dropped)
//!      (backoff RETRY_TIMEOUT·2^k + jitter)
//!             │
//!      retries exhausted, or destination crashed
//!             ▼
//!          failed (recorded in ExecStats::{failures, timeouts} for
//!          the pattern the request was routed for; the patterns it
//!          merely listed are sent again on their own requests; the
//!          closure walk terminates that branch and continues)
//! ```
//!
//! The retry loop is resolved *at issue* — the backoff delays it
//! accumulates are folded into the unit's completion instant — so the
//! canonical issue order, the routing RNG stream and the row multiset
//! stay bit-identical to the fault-free run whenever every request
//! eventually gets through; a null fault config consumes no fault
//! randomness at all and reproduces the pre-protocol scheduler
//! exactly. Failure injection ([`GridVineSystem::crash_peer`](super::GridVineSystem::crash_peer))
//! fails a request immediately — retransmitting to a peer held down
//! forever cannot help — while churn-driven downtime
//! ([`GridVineSystem::install_churn`](super::GridVineSystem::install_churn))
//! times out per attempt and succeeds on the first attempt scheduled
//! after recovery.
//!
//! ## The fault matrix
//!
//! Two adversaries attack the PDMS at different layers, and the
//! experiment suite is organised around them. The **network adversary**
//! (`GridVineConfig::fault`, RNG stream `0xFA17`; the `exp_r*` bench
//! series) perturbs message delivery; the **semantic adversary**
//! (`GridVineConfig::semantic_fault`, RNG stream `0x5EED_0BAD`; the
//! `exp_s*` series) perturbs the *content* of the mapping layer itself.
//! Both are null by default, draw from their own derived RNG streams
//! (a null config consumes no randomness and reproduces the fault-free
//! scheduler bit-for-bit), and compose with each other and with churn.
//!
//! | Series | Fault                | Injected by                        | Defended by                                  |
//! |--------|----------------------|------------------------------------|----------------------------------------------|
//! | r      | request loss         | `FaultConfig::loss`                | timeout + retransmit with backoff            |
//! | r      | reply duplication    | `FaultConfig::duplication`         | request-id dedup in the session              |
//! | r      | reply reordering     | `FaultConfig::reorder`             | event-queue delivery, order-insensitive merge|
//! | r      | churn / crash        | `install_churn`, `crash_peer`      | per-attempt retry; fail fast on crash        |
//! | r      | mass-churn storm     | `ChurnProcess::storm`              | self-organization repair after recovery      |
//! | s      | stale gossip         | `SemanticFaultConfig::stale_rate`  | Bayesian cycle analysis quarantine           |
//! | s      | corrupted mappings   | `SemanticFaultConfig::corrupt_rate`| Bayesian cycle analysis quarantine           |
//! | s      | Byzantine fabrication| `SemanticFaultConfig::byzantine_*` | quarantine; provenance tracks ground truth   |
//! | s      | crash mid-commit     | `arm_commit_crash`                 | atomic commit rollback + recovery scan       |
//!
//! Semantic defenses run as scheduler work, not magic: an
//! [`assessment_pass`](super::GridVineSystem::assessment_pass) issues
//! one routed probe per mapping cycle, charged as messages and latency
//! in [`ExecStats`](super::exec::ExecStats) (`assessment_probes`)
//! exactly like a subquery, and every status transition bumps the
//! registry epoch so closure caches self-invalidate rather than replay
//! a hop through a quarantined edge.
//!
//! ## Per-peer state
//!
//! Each peer owns a `PeerExecState`: a monotone clock (consecutive
//! sessions from the same origin resume where the last one left off),
//! the reply queue of the in-flight sessions issued from it, and its
//! **bounded LRU closure cache** (capacity
//! [`GridVineConfig::closure_cache_capacity`](super::GridVineConfig)).
//! Dropping a session cancels every reply it still has queued —
//! [`GridVineSystem::pending_events`](super::GridVineSystem::pending_events)
//! returns to zero — so abandoned queries leave no residue.
//!
//! ## Concurrent sessions: the `SessionPool` multiplexer
//!
//! Many sessions — typically from many origins — interleave on the
//! shared per-peer queues under one simulated clock through a
//! [`SessionPool`](super::pool::SessionPool). Each queued reply is
//! tagged with its owning [`SessionId`]; the
//! pool replenishes every live session's window round-robin (one unit
//! per session per round, in admission order — the canonical issue
//! order of each session is preserved exactly), then delivers the
//! globally earliest reply across the live origins' queues:
//!
//! ```text
//!   open ──► live ──────────────────────────────┐
//!             │  step():                        │
//!             │   1. replenish windows          │ cancel()
//!             │      (round-robin, issue order) │  · queue.retain
//!             │   2. reap idle sessions ──────► │    drops the
//!             │      (errored → Failed,         │    session's
//!             │       drained → Finished)       │    queued replies
//!             │   3. pop earliest reply         │  · clock writes
//!             │      (tie-break: time, then     │    back
//!             │       origin, then FIFO seq)    ▼
//!             └────► Delivered{session, events} ──► completed
//!                                                    │ take_outcome()
//!                                                    ▼
//!                                               QueryOutcome
//! ```
//!
//! A pool holding exactly **one** session performs the identical
//! (replenish, pop) sequence the standalone
//! [`QuerySession`](super::session::QuerySession) loop does, so its
//! rows, messages, per-unit events and RNG stream are bit-identical to
//! the single-session scheduler for every window size — the
//! `tests/load_protocol.rs` proptests pin this. Logical work still
//! evolves only at issue, on the system's single RNG stream, so
//! interleaving changes *when* replies land, never *what* a session
//! computes; with single-candidate routing tables
//! (`refs_per_level = 1`) per-session results and stats are provably
//! independent of the interleaving itself.

use super::pool::SessionId;
use super::session::ResultEvent;
use gridvine_netsim::{EventQueue, SimDuration, SimTime};
use gridvine_semantic::ClosureCache;

/// Fixed per-unit processing overhead (destination-side evaluation).
pub(crate) const PROCESSING: SimDuration = SimDuration::from_micros(250);

/// Simulated network cost of one overlay message.
pub(crate) const PER_MESSAGE: SimDuration = SimDuration::from_millis(1);

/// Base reply timeout of the retry protocol: attempt `k` waits
/// `RETRY_TIMEOUT << k` (plus jitter up to half that) before
/// retransmitting.
pub(crate) const RETRY_TIMEOUT: SimDuration = SimDuration::from_millis(5);

/// Simulated latency of one unit that charged `messages` overlay
/// messages.
pub(crate) fn unit_latency(messages: u64) -> SimDuration {
    SimDuration(PROCESSING.0 + messages.saturating_mul(PER_MESSAGE.0))
}

/// The reply of one in-flight unit, scheduled at its completion
/// instant: the [`ResultEvent`]s the unit produced, delivered when the
/// simulated clock reaches it.
#[derive(Debug)]
pub(crate) struct QueuedReply {
    /// The session that issued the unit. Queues are shared by every
    /// session issuing from the same origin; the pool routes each
    /// delivered reply to its owner, and cancelling a session retains
    /// only the other sessions' replies.
    pub(crate) session: SessionId,
    /// The issuing request's id. A faulty run may schedule the same
    /// reply twice (reply duplication); the session delivers each id
    /// once and drops later copies.
    pub(crate) request_id: u64,
    pub(crate) events: Vec<ResultEvent>,
}

/// One peer's persistent execution state (see the module docs).
#[derive(Debug)]
pub(crate) struct PeerExecState {
    /// This peer's simulated clock: the completion time of the last
    /// unit any session from this origin delivered. Monotone.
    pub(crate) clock: SimTime,
    /// Replies of the issued units of every in-flight session from
    /// this origin (empty between sessions; a dropped or cancelled
    /// session's replies are filtered out, other sessions' survive).
    pub(crate) queue: EventQueue<QueuedReply>,
    /// This peer's bounded reformulation-closure cache. The iterative
    /// strategy consults the *origin* peer's cache; the recursive
    /// strategy consults (and fills) the *delegate* peer's — the
    /// intermediate peer that served the first mapping discovery.
    pub(crate) cache: ClosureCache,
}

impl PeerExecState {
    pub(crate) fn new(cache_capacity: usize) -> PeerExecState {
        PeerExecState {
            clock: SimTime::ZERO,
            queue: EventQueue::new(),
            cache: ClosureCache::bounded(cache_capacity),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_scales_with_messages() {
        assert_eq!(unit_latency(0), PROCESSING);
        assert!(unit_latency(3) > unit_latency(1));
        assert_eq!(unit_latency(2).0, PROCESSING.0 + 2 * PER_MESSAGE.0);
    }
}
