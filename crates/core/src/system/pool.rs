//! The concurrent-session multiplexer: many [`QuerySession`](super::session::QuerySession)-shaped
//! executions from many origins, interleaved on the system's reply
//! queue under its one simulated clock.
//!
//! The [`SessionPool`] owns the *state* of every in-flight session (a
//! [`SessionCore`](super::session) each — plan progress, window,
//! per-session stats, in-flight counter) and lends the system to one
//! session at a time, in a deterministic discipline:
//!
//! 1. **Replenish** every live session's window, round-robin in
//!    admission order, one unit per session per round. Each session's
//!    units are still issued in its own canonical order — the
//!    interleaving decides only *whose* unit is issued next, and all
//!    logical state (routing RNG, message charging, row admission)
//!    evolves at issue.
//! 2. **Reap** sessions with nothing left in flight: a parked unit
//!    failure surfaces as [`PoolEvent::Failed`], a drained plan as
//!    [`PoolEvent::Finished`] (its [`QueryOutcome`] becomes available
//!    through [`SessionPool::take_outcome`], which decodes its rows, or
//!    its row count and stats through [`SessionPool::take_counts`],
//!    which does not).
//! 3. **Deliver** the earliest reply on the system's queue to its
//!    owning session — replies carry their [`SessionId`] — and advance
//!    the clock ([`GridVineSystem::now`]) to it. Replies due at the
//!    same instant come out in the order they were scheduled, which is
//!    issue order.
//!
//! One pool drives a system at a time. A standalone
//! [`QuerySession`](super::session::QuerySession) is a pool of one, so
//! a pool holding one session yields its rows, messages, per-unit stats
//! deltas and system RNG stream — `tests/load_protocol.rs` pins this
//! for windows 1 and 4. Cancelling a session ([`SessionPool::cancel`])
//! drops exactly its queued replies (other sessions' survive), so
//! rejected or deadline-cancelled sessions leave `pending_events() ==
//! 0` residue and keep their partial stats retrievable.
//!
//! See the lifecycle diagram in the [`super::sched`] module docs.

use super::exec::{ExecStats, QueryOptions, QueryOutcome};
use super::session::ResultEvent;
use super::session::SessionCore;
use super::{GridVineSystem, PeerId, SystemError};
use crate::plan::QueryPlan;
use gridvine_netsim::SimTime;

/// Identity of one pooled session, allocated by the system
/// monotonically across its lifetime (never reused). Tags every
/// scheduled reply so sessions sharing the reply queue stay disjoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub(crate) u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// One observable step of the pool (see [`SessionPool::step`]).
#[derive(Debug)]
pub enum PoolEvent {
    /// A reply landed: the events one delivered unit produced, at its
    /// simulated completion instant.
    Delivered {
        session: SessionId,
        at: SimTime,
        events: Vec<ResultEvent>,
    },
    /// The session drained completely (plan done, every reply
    /// delivered); its outcome awaits [`SessionPool::take_outcome`].
    Finished { session: SessionId, at: SimTime },
    /// A unit of the session failed; everything it produced before the
    /// failure was already delivered. Its partial outcome awaits
    /// [`SessionPool::take_outcome`].
    Failed {
        session: SessionId,
        at: SimTime,
        error: SystemError,
    },
}

impl PoolEvent {
    /// The session this event belongs to.
    pub fn session(&self) -> SessionId {
        match self {
            PoolEvent::Delivered { session, .. }
            | PoolEvent::Finished { session, .. }
            | PoolEvent::Failed { session, .. } => *session,
        }
    }

    /// The simulated instant this event occurred at.
    pub fn at(&self) -> SimTime {
        match self {
            PoolEvent::Delivered { at, .. }
            | PoolEvent::Finished { at, .. }
            | PoolEvent::Failed { at, .. } => *at,
        }
    }
}

/// The concurrent-session multiplexer (see the [module docs](self)).
#[derive(Default)]
pub struct SessionPool {
    /// In-flight sessions, admission order (the round-robin order).
    live: Vec<SessionCore>,
    /// Finished, failed or cancelled sessions awaiting
    /// [`SessionPool::take_outcome`].
    done: Vec<SessionCore>,
}

impl SessionPool {
    pub fn new() -> SessionPool {
        SessionPool::default()
    }

    /// Admit a session on `plan` from `origin`, starting at
    /// [`GridVineSystem::now`]. Issues no subquery (identical validation
    /// and laziness to [`GridVineSystem::open`]).
    pub fn open(
        &mut self,
        sys: &mut GridVineSystem,
        origin: PeerId,
        plan: &QueryPlan,
        options: &QueryOptions,
    ) -> Result<SessionId, SystemError> {
        let now = sys.now();
        self.open_at(sys, origin, plan, options, now)
    }

    /// Admit a session arriving at `at` (an open-loop arrival instant):
    /// it starts at `max(at, now())`, and its first units are sent no
    /// earlier.
    pub fn open_at(
        &mut self,
        sys: &mut GridVineSystem,
        origin: PeerId,
        plan: &QueryPlan,
        options: &QueryOptions,
        at: SimTime,
    ) -> Result<SessionId, SystemError> {
        let started_at = sys.now().max(at);
        let core = SessionCore::open(sys, origin, plan, options, started_at)?;
        let id = core.id;
        self.live.push(core);
        Ok(id)
    }

    /// Replenish every live session's window, round-robin in admission
    /// order, one unit per session per round (idempotent: a second call
    /// with no intervening delivery issues nothing).
    fn replenish_all(&mut self, sys: &mut GridVineSystem) {
        loop {
            let mut issued = false;
            for core in self.live.iter_mut() {
                if core.wants_issue() {
                    core.issue_one(sys);
                    issued = true;
                }
            }
            if !issued {
                break;
            }
        }
    }

    /// The simulated instant the next [`SessionPool::step`] event will
    /// carry, or `None` once no session is live. Replenishes the
    /// windows (the same work `step` would do first), so an open-loop
    /// driver can merge pool events with an external arrival stream in
    /// time order: admit arrivals earlier than this instant, step
    /// otherwise.
    pub fn next_instant(&mut self, sys: &mut GridVineSystem) -> Option<SimTime> {
        if self.live.is_empty() {
            return None;
        }
        self.replenish_all(sys);
        // A session with nothing in flight is reaped at once, at the
        // instant its last reply was delivered.
        let idle = self.live.iter().filter(|c| c.inflight == 0);
        let reaped = idle.map(SessionCore::sim_now).min();
        reaped.into_iter().chain(sys.replies.peek_time()).min()
    }

    /// Advance the pool by one observable event, or `None` once no
    /// session is live. Drive to completion with
    /// `while pool.step(&mut sys).is_some() {}`.
    pub fn step(&mut self, sys: &mut GridVineSystem) -> Option<PoolEvent> {
        if self.live.is_empty() {
            return None;
        }
        // 1. Replenish windows round-robin, one unit per session per
        //    round, admission order.
        self.replenish_all(sys);
        // 2. Reap sessions with nothing in flight, admission order.
        for i in 0..self.live.len() {
            let core = &mut self.live[i];
            if core.inflight > 0 {
                continue;
            }
            if !core.error_events.is_empty() {
                // Events a failing unit produced before erroring
                // surface before the failure itself.
                let events = std::mem::take(&mut core.error_events);
                return Some(PoolEvent::Delivered {
                    session: core.id,
                    at: core.sim_now(),
                    events,
                });
            }
            if let Some(error) = core.error.take() {
                let core = self.live.remove(i);
                let (session, at) = (core.id, core.sim_now());
                self.done.push(core);
                return Some(PoolEvent::Failed { session, at, error });
            }
            if !core.has_work() {
                let core = self.live.remove(i);
                let (session, at) = (core.id, core.sim_now());
                self.done.push(core);
                return Some(PoolEvent::Finished { session, at });
            }
        }
        // 3. Deliver the earliest reply (ties in schedule order),
        //    advancing the clock.
        let Some((at, reply)) = sys.replies.pop() else {
            // Unreachable: after replenish, every live session is
            // either reaped above or has a scheduled reply.
            debug_assert!(false, "live sessions with no scheduled replies");
            return None;
        };
        sys.now = sys.now.max(at);
        // A session leaves `live` only with nothing in flight, or
        // cancelled, which drops its queued replies.
        let core = self
            .live
            .iter_mut()
            .find(|c| c.id == reply.session)
            .expect("every queued reply belongs to a live session");
        let events = core.deliver(at, reply);
        Some(PoolEvent::Delivered {
            session: core.id,
            at,
            events,
        })
    }

    /// Cancel a live session: its still-queued replies are dropped
    /// (other sessions' survive on the reply queue) and its partial
    /// outcome moves to the done list. Returns `false` if `id` is not
    /// live.
    pub fn cancel(&mut self, sys: &mut GridVineSystem, id: SessionId) -> bool {
        let Some(i) = self.live.iter().position(|c| c.id == id) else {
            return false;
        };
        let mut core = self.live.remove(i);
        core.cancel(sys);
        self.done.push(core);
        true
    }

    /// Cancel every live session (the pool analogue of dropping a
    /// standalone session): `pending_events()` returns to zero.
    pub fn shutdown(&mut self, sys: &mut GridVineSystem) {
        while let Some(id) = self.live.first().map(|c| c.id) {
            self.cancel(sys, id);
        }
    }

    /// Remove a finished / failed / cancelled session and return its
    /// [`QueryOutcome`] — rows in the canonical sorted order plus
    /// cumulative stats, exactly what `execute` returns for a drained
    /// single session. Its rows are decoded here, through `sys`'s
    /// lexicon.
    pub fn take_outcome(&mut self, sys: &GridVineSystem, id: SessionId) -> Option<QueryOutcome> {
        let core = self.take_done(id)?;
        Some(core.outcome(&sys.lexicon))
    }

    /// Remove a finished / failed / cancelled session and return how
    /// many rows it admitted and its cumulative stats, without sorting
    /// or decoding its rows.
    pub fn take_counts(&mut self, id: SessionId) -> Option<(usize, ExecStats)> {
        let core = self.take_done(id)?;
        Some((core.row_count(), core.stats()))
    }

    fn take_done(&mut self, id: SessionId) -> Option<SessionCore> {
        let i = self.done.iter().position(|c| c.id == id)?;
        Some(self.done.remove(i))
    }

    /// Cumulative stats of a session, live or done.
    pub fn session_stats(&self, id: SessionId) -> Option<ExecStats> {
        self.core(id).map(SessionCore::stats)
    }

    /// A session's state, live or done.
    pub(crate) fn core(&self, id: SessionId) -> Option<&SessionCore> {
        self.live.iter().chain(&self.done).find(|c| c.id == id)
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Ids of the live sessions, admission order.
    pub fn live_sessions(&self) -> impl Iterator<Item = SessionId> + '_ {
        self.live.iter().map(|c| c.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::QueryPlan;
    use crate::{GridVineConfig, GridVineSystem, QueryOptions};
    use gridvine_pgrid::PeerId;
    use gridvine_rdf::{Term, Triple, TriplePatternQuery};
    use gridvine_semantic::{Correspondence, MappingKind, Provenance, Schema};

    fn seeded_system() -> GridVineSystem {
        let mut sys = GridVineSystem::new(GridVineConfig::default());
        let p = PeerId(0);
        sys.insert_schema(p, Schema::new("EMBL", ["Organism"]))
            .unwrap();
        sys.insert_schema(p, Schema::new("EMP", ["SystematicName"]))
            .unwrap();
        sys.insert_mapping(
            p,
            "EMBL",
            "EMP",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("Organism", "SystematicName")],
        )
        .unwrap();
        sys.insert_triple(
            p,
            Triple::new(
                "seq:A78712",
                "EMBL#Organism",
                Term::literal("Aspergillus niger"),
            ),
        )
        .unwrap();
        sys
    }

    #[test]
    fn pool_of_one_matches_execute() {
        let plan = QueryPlan::search(TriplePatternQuery::example_aspergillus());
        for window in [1usize, 4] {
            let opts = QueryOptions::new().window(window);
            let mut a = seeded_system();
            let expected = a.execute(PeerId(3), &plan, &opts).unwrap();

            let mut b = seeded_system();
            let mut pool = SessionPool::new();
            let id = pool.open(&mut b, PeerId(3), &plan, &opts).unwrap();
            while pool.step(&mut b).is_some() {}
            let got = pool.take_outcome(&b, id).expect("session finished");

            assert_eq!(expected.rows, got.rows);
            assert_eq!(expected.stats, got.stats);
            assert_eq!(b.pending_events(), 0);
        }
    }

    #[test]
    fn two_origins_interleave_and_both_finish() {
        let plan = QueryPlan::search(TriplePatternQuery::example_aspergillus());
        let opts = QueryOptions::new().window(2);
        let mut sys = seeded_system();
        let mut pool = SessionPool::new();
        let s1 = pool.open(&mut sys, PeerId(3), &plan, &opts).unwrap();
        let s2 = pool.open(&mut sys, PeerId(5), &plan, &opts).unwrap();
        let mut finished = Vec::new();
        while let Some(ev) = pool.step(&mut sys) {
            if let PoolEvent::Finished { session, .. } = ev {
                finished.push(session);
            }
        }
        assert_eq!(finished.len(), 2);
        let o1 = pool.take_outcome(&sys, s1).unwrap();
        let o2 = pool.take_outcome(&sys, s2).unwrap();
        assert_eq!(o1.rows.len(), 1);
        assert_eq!(o1.rows, o2.rows);
        assert_eq!(sys.pending_events(), 0);
    }

    #[test]
    fn cancel_drops_only_that_sessions_replies() {
        let plan = QueryPlan::search(TriplePatternQuery::example_aspergillus());
        let opts = QueryOptions::new().window(4);
        let mut sys = seeded_system();
        let mut pool = SessionPool::new();
        let s1 = pool.open(&mut sys, PeerId(3), &plan, &opts).unwrap();
        let s2 = pool.open(&mut sys, PeerId(3), &plan, &opts).unwrap();
        // One step issues work for both sessions on the shared queue.
        let _ = pool.step(&mut sys);
        assert!(pool.cancel(&mut sys, s1));
        // The cancelled session keeps its partial stats; the survivor
        // still completes with the full result.
        assert!(pool.session_stats(s1).is_some());
        while pool.step(&mut sys).is_some() {}
        let o2 = pool.take_outcome(&sys, s2).unwrap();
        assert_eq!(o2.rows.len(), 1);
        assert_eq!(sys.pending_events(), 0);
    }

    #[test]
    fn session_ids_are_unique_and_display() {
        let plan = QueryPlan::search(TriplePatternQuery::example_aspergillus());
        let opts = QueryOptions::new();
        let mut sys = seeded_system();
        let mut pool = SessionPool::new();
        let a = pool.open(&mut sys, PeerId(3), &plan, &opts).unwrap();
        let b = pool.open(&mut sys, PeerId(4), &plan, &opts).unwrap();
        assert_ne!(a, b);
        assert_eq!(pool.len(), 2);
        assert_eq!(format!("{a}"), "s0");
        pool.shutdown(&mut sys);
        assert!(pool.is_empty());
        assert_eq!(sys.pending_events(), 0);
    }
}
