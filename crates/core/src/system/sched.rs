//! The session scheduler seam: the system's one simulated clock, its
//! reply queue and per-peer execution state.
//!
//! A [`QuerySession`](super::session::QuerySession) pull advances
//! requests — routed, or sent to a learned address; this module is what
//! gives them time. It puts the synchronous executor on the
//! discrete-event substrate of [`gridvine_netsim`]: every request
//! becomes a *unit* — a `Subquery` message issued at a send instant,
//! answered by a `Reply` scheduled on the system's reply queue at
//! `send + latency` — and
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
//! through per-unit ready times — and so is a unit that reads what an
//! earlier unit wrote: a request to a learned address, or a warm replay
//! of a memoized closure, leaves no earlier than the unit that wrote it
//! completed (below).
//!
//! ## Determinism and equivalence, by construction
//!
//! Units are *issued* in one canonical order — the `window = 1` order,
//! where every pull advances exactly one request — and issuing is where
//! all logical state evolves: routing (and its RNG draws), the leaves
//! each issuer learns, message charging, row admission and dedup,
//! closure expansion and cache recording. The window never reorders
//! issues; it only decides how many replies may be outstanding before
//! the next one must land. The
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
//! and keeps the model deterministic. A non-flat
//! [`GridVineConfig::latency`](super::GridVineConfig) model (e.g.
//! `RegionalWan`, heavy-tailed and regional) instead draws one
//! origin→destination sample per message
//! ([`GridVineSystem::unit_delay`](super::GridVineSystem)).
//!
//! ## The request/response protocol
//!
//! A unit is a *real* request/response exchange that meets the
//! system's churn timeline
//! ([`GridVineSystem::install_churn`](super::GridVineSystem::install_churn)):
//! a request to a destination that is down when an attempt leaves
//! times out and is retransmitted with exponential backoff + jitter, up
//! to [`QueryOptions::max_retries`](super::exec::QueryOptions::max_retries).
//! Its reply is scheduled once, on the system's reply queue. A unit's
//! lifecycle:
//!
//! ```text
//!           issue (logical work runs, counters charge)
//!             │
//!             ▼
//!  ┌──► in flight ───reply───► completed (delivered once, with the
//!  │          │                rows of every listed pattern the
//!  │       timeout             destination answered)
//!  │          ▼
//!  └── retransmit
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
//! eventually gets through. Only a timeout draws from the protocol's
//! own RNG stream (`0xB0FF`, the backoff jitter), so a run without
//! churn draws nothing from it. Failure injection
//! ([`GridVineSystem::crash_peer`](super::GridVineSystem::crash_peer))
//! fails a request immediately — retransmitting to a peer held down
//! forever cannot help — while churn-driven downtime
//! ([`GridVineSystem::install_churn`](super::GridVineSystem::install_churn))
//! times out per attempt and succeeds on the first attempt scheduled
//! after recovery.
//!
//! ## The fault matrix
//!
//! One adversary attacks the overlay: peers that come and go (§2.1),
//! met by the retry protocol above (RNG stream `0xB0FF`). Message loss
//! belongs to the message-level network
//! (`gridvine_netsim::NetworkConfig::loss`, stream `0xFA17`), which the
//! WAN lookup driver ([`crate::harness`]) runs on. At the mediation
//! layer the faults are wrong mappings, and they come from the
//! automatic matchers (§3.1) themselves. Every fault is off by
//! default, and each one that draws randomness has its own stream.
//!
//! | Layer    | Fault                   | Injected by                      | Defended by                              |
//! |----------|-------------------------|----------------------------------|------------------------------------------|
//! | network  | churn / crash           | `install_churn`, `crash_peer`    | per-attempt retry; fail fast on crash    |
//! | network  | mass-churn storm        | `ChurnProcess::storm`            | self-organization repair after recovery  |
//! | network  | message loss (WAN only) | `NetworkConfig::loss`            | `pgrid::proto` timeouts and retries      |
//! | semantic | wrong automatic mapping | hand-inserted automatic mappings | Bayesian cycle analysis deprecation      |
//! | semantic | holder down at a write  | `crash_peer`                     | write refused whole; registry unchanged  |
//!
//! Semantic defenses run as scheduler work, not magic: an
//! [`assessment_pass`](super::GridVineSystem::assessment_pass) issues
//! one probe per mapping cycle, charged as messages and latency
//! in [`ExecStats`](super::exec::ExecStats) (`assessment_probes`)
//! exactly like a subquery, and every status transition bumps the
//! registry epoch so closure caches self-invalidate rather than replay
//! a hop through a deprecated edge.
//!
//! ## One clock, per-peer state
//!
//! The system keeps one simulated clock,
//! [`GridVineSystem::now`](super::GridVineSystem::now): the instant of
//! the latest reply it delivered, which never goes backwards. It also
//! keeps one reply queue, on which the reply of every in-flight unit
//! waits. A session opens at `now()` (a pooled arrival at its own
//! instant, if that is later), and an assessment pass runs from `now()`
//! and advances the clock to its end; inserts, mapping changes, crashes
//! and churn installation happen between units, at `now()`, and carry
//! no stamp. Every instant below is read on that one clock, so any two
//! compare.
//!
//! Each peer owns a `PeerExecState`: its **bounded LRU closure cache**
//! (capacity
//! [`GridVineConfig::closure_cache_capacity`](super::GridVineConfig)),
//! holding the closures of the schemas whose mapping lists it stores,
//! and its **learned leaves** (`LeafTable`): for each trie path a reply
//! to one of its requests came from, the peer that answered. The peer's
//! later requests for keys under a learned path go straight to that
//! peer — one message, plus the response. Only replies teach, so a
//! recursive discovery teaches its issuer nothing. Which requests go
//! direct depends only on issue order, so rows and messages stay the
//! same for every window size. The table needs no capacity: it never
//! holds more entries than the trie has leaves.
//!
//! A learned leaf and a closure-cache entry are *writes* a unit makes
//! for later units to read (`Write`). Each is applied once its unit's
//! completion instant is known, stamped with that instant, and a unit
//! that reads one is sent no earlier than its stamp: a request to a
//! learned address through the protocol's send floor, the hops of a
//! warm replay through their ready time. A unit's send instant — the
//! latest of its session's last delivery, its ready time and the stamps
//! it read — is known before its first exchange, and its attempts meet
//! churn from there. Debug builds check that causality for
//! every unit: it is sent no earlier than `now()` at its issue and than
//! every stamp it read, and no later than any of its attempts. Within
//! one session at `window(1)` no floor ever binds.
//! Dropping a session cancels every reply it still has queued —
//! [`GridVineSystem::pending_events`](super::GridVineSystem::pending_events)
//! returns to zero — so abandoned queries leave no residue.
//!
//! ## Concurrent sessions: the `SessionPool` multiplexer
//!
//! Many sessions — typically from many origins — interleave on the
//! system's reply queue under its one clock through a
//! [`SessionPool`](super::pool::SessionPool). Each queued reply is
//! tagged with its owning [`SessionId`]; the
//! pool replenishes every live session's window round-robin (one unit
//! per session per round, in admission order — the canonical issue
//! order of each session is preserved exactly), then delivers the
//! earliest reply on the queue, advancing the clock to it. One pool
//! drives a system at a time.
//!
//! ```text
//!   open ──► live ──────────────────────────────┐
//!             │  step():                        │
//!             │   1. replenish windows          │ cancel()
//!             │      (round-robin, issue order) │  · queue.retain
//!             │   2. reap idle sessions ──────► │    drops the
//!             │      (errored → Failed,         │    session's
//!             │       drained → Finished)       │    queued replies
//!             │   3. pop earliest reply         │
//!             │      (ties in schedule order),  │
//!             │      advance the clock          ▼
//!             └────► Delivered{session, events} ──► completed
//!                                                    │ take_outcome()
//!                                                    ▼
//!                                               QueryOutcome
//! ```
//!
//! A standalone [`QuerySession`](super::session::QuerySession) *is* a
//! pool of one, so its rows, messages, per-unit events and RNG stream
//! are those of the same session in a pool for every window size — the
//! `tests/load_protocol.rs` proptests pin this. Logical work still
//! evolves only at issue, on the system's single RNG stream, so
//! interleaving changes *when* replies land, never *what* a session
//! computes; with single-candidate routing tables
//! (`refs_per_level = 1`) per-session results and stats are provably
//! independent of the interleaving itself.

use super::pool::SessionId;
use super::session::ResultEvent;
use gridvine_netsim::{SimDuration, SimTime};
use gridvine_pgrid::{BitString, PeerId};
use gridvine_semantic::{CachedHop, ClosureCache, ClosureKey};

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

/// The reply of one in-flight unit, scheduled on the system's reply
/// queue at its completion instant: the [`ResultEvent`]s the unit
/// produced, delivered when the simulated clock reaches it.
#[derive(Debug)]
pub(crate) struct QueuedReply {
    /// The session that issued the unit. The pool routes each delivered
    /// reply to its owner, and cancelling a session retains only the
    /// other sessions' replies.
    pub(crate) session: SessionId,
    pub(crate) events: Vec<ResultEvent>,
}

/// One peer's persistent execution state (see the module docs).
#[derive(Debug)]
pub(crate) struct PeerExecState {
    /// This peer's bounded reformulation-closure cache, each entry
    /// stamped with the instant it was committed: the closures of the
    /// schemas whose mapping lists this peer holds. Every walk of such
    /// a schema, from any origin and under either strategy, consults it
    /// when it expands its origin hop, and a finished walk fills it.
    pub(crate) cache: ClosureCache<SimTime>,
    /// The leaves this peer learned from the replies to its own
    /// requests: its next request for a key under one of them goes
    /// straight to the peer that answered.
    pub(crate) leaves: LeafTable,
}

impl PeerExecState {
    pub(crate) fn new(cache_capacity: usize) -> PeerExecState {
        PeerExecState {
            cache: ClosureCache::bounded(cache_capacity),
            leaves: LeafTable::default(),
        }
    }
}

/// A write one unit makes for later units to read (see the module
/// docs): applied once the unit's completion instant is known, stamped
/// with it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Write {
    /// An issuer learns the path of a peer that answered its request.
    Leaf(PeerId, PeerId),
    /// A fully expanded closure, memoized at `peer`, the holder of its
    /// origin schema's mapping list.
    Closure {
        peer: PeerId,
        key: ClosureKey,
        hops: Vec<CachedHop>,
    },
}

/// Trie paths a peer has learned, each with the peer that answered for
/// it and the instant the learner could first know it — the completion
/// of the unit whose reply taught it (see the module docs). Paths are
/// prefix-free, so at most one learned path covers a key: the greatest
/// one not above the key. A table never holds more entries than the
/// trie has leaves.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct LeafTable {
    /// In the paths' order.
    leaves: Vec<Leaf>,
}

#[derive(Debug, Clone, PartialEq)]
struct Leaf {
    path: BitString,
    /// The peer that answered for `path`.
    peer: PeerId,
    /// When the learner could first know it.
    at: SimTime,
}

impl LeafTable {
    /// The learned peer whose path covers `key`, and the instant it was
    /// learned: no unit may use it earlier.
    pub(crate) fn lookup(&self, key: &BitString) -> Option<(PeerId, SimTime)> {
        let leaf = &self.leaves[self.covering(key)?];
        Some((leaf.peer, leaf.at))
    }

    /// Remember that `peer`, whose path is `path`, answered a unit that
    /// completes at `at`. A path already learned from the same peer
    /// stays known from the earlier instant; one learned from another
    /// replica is replaced.
    pub(crate) fn learn(&mut self, path: &BitString, peer: PeerId, at: SimTime) {
        let i = self.leaves.partition_point(|l| l.path <= *path);
        match self.leaves[..i].last_mut() {
            Some(known) if known.path == *path => {
                if known.peer == peer {
                    known.at = known.at.min(at);
                } else {
                    (known.peer, known.at) = (peer, at);
                }
            }
            _ => self.leaves.insert(
                i,
                Leaf {
                    path: path.clone(),
                    peer,
                    at,
                },
            ),
        }
    }

    /// Forget the learned path covering `key`, if any.
    pub(crate) fn forget(&mut self, key: &BitString) {
        if let Some(i) = self.covering(key) {
            self.leaves.remove(i);
        }
    }

    /// Where the learned path covering `key` is: the greatest one not
    /// above it, if it is a prefix of it.
    fn covering(&self, key: &BitString) -> Option<usize> {
        let i = self
            .leaves
            .partition_point(|l| l.path <= *key)
            .checked_sub(1)?;
        self.leaves[i].path.is_prefix_of(key).then_some(i)
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

    #[test]
    fn a_learned_path_covers_exactly_the_keys_under_it() {
        let bits = BitString::parse;
        let mut table = LeafTable::default();
        // Prefix-free, learned out of order.
        for (i, path) in ["011", "00", "10", "0101", "111"].into_iter().enumerate() {
            table.learn(&bits(path), PeerId(i as u32), SimTime(i as u64));
        }
        for (key, expect) in [
            ("0110", Some(0)),
            ("011", Some(0)),
            ("00", Some(1)),
            ("001111", Some(1)),
            ("1011", Some(2)),
            ("01011", Some(3)),
            ("0100", None),
            ("01", None),
            ("110", None),
            ("1111", Some(4)),
            ("", None),
        ] {
            let found = table.lookup(&bits(key)).map(|(peer, _)| peer.0);
            assert_eq!(found, expect, "{key}");
        }
        // A replica of a known leaf replaces it; the same peer again
        // keeps the earlier instant.
        table.learn(&bits("10"), PeerId(7), SimTime(9));
        table.learn(&bits("00"), PeerId(1), SimTime(8));
        let lookup = |table: &LeafTable, key| table.lookup(&bits(key));
        assert_eq!(lookup(&table, "100"), Some((PeerId(7), SimTime(9))));
        assert_eq!(lookup(&table, "000"), Some((PeerId(1), SimTime(1))));
        assert_eq!(table.leaves.len(), 5);
        table.forget(&bits("0111"));
        assert_eq!(lookup(&table, "0110"), None);
        table.forget(&bits("0100"));
        assert_eq!(table.leaves.len(), 4);
        // The root path covers every key; paths past one word that
        // differ only in their last bit cover only their own keys.
        let mut root = LeafTable::default();
        root.learn(&BitString::empty(), PeerId(3), SimTime::ZERO);
        assert_eq!(lookup(&root, "1").map(|(p, _)| p), Some(PeerId(3)));
        let mut deep = LeafTable::default();
        let long = |last: &str| bits(&format!("{}{last}", "1".repeat(64)));
        let peer = |table: &LeafTable, key| table.lookup(&key).map(|(p, _)| p);
        deep.learn(&long("1"), PeerId(4), SimTime::ZERO);
        deep.learn(&long("0"), PeerId(5), SimTime::ZERO);
        assert_eq!(peer(&deep, long("11")), Some(PeerId(4)));
        assert_eq!(peer(&deep, long("01")), Some(PeerId(5)));
        assert_eq!(peer(&deep, long("")), None);
    }
}
