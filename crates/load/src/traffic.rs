//! The open-loop traffic driver over the concurrent-session
//! multiplexer.
//!
//! [`run_open_loop`] merges an [`ArrivalProcess`] with the
//! [`SessionPool`]'s event stream in simulated-time order: arrivals
//! earlier than the pool's next event are admitted (or queued, or
//! rejected) first; otherwise the pool advances one delivered reply.
//! Admission control is a concurrency cap plus a bounded FIFO wait
//! queue; per-session budgets (overlay messages, simulated-time
//! deadline) cancel through the pool's drop-cancels-replies path, so a
//! cancelled session's still-scheduled replies vanish and its charged
//! work stays charged exactly once. Origins are assigned round-robin
//! over the configured origin set and the pool replenishes windows
//! round-robin across sessions, so no origin can starve another — the
//! [`LoadReport`] records the per-origin slices to prove it.

use crate::arrival::ArrivalProcess;
use crate::report::{LatencySummary, LoadReport, OriginStats};
use gridvine_core::pool::{PoolEvent, SessionId, SessionPool};
use gridvine_core::{GridVineSystem, QueryOptions, QueryPlan, Strategy};
use gridvine_netsim::{SimDuration, SimTime};
use gridvine_pgrid::PeerId;
use gridvine_rdf::fasthash::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Tunables of one open-loop run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadConfig {
    /// Total sessions the arrival process submits.
    pub sessions: usize,
    /// The arrival process (open loop: submission never waits for
    /// completions).
    pub arrivals: ArrivalProcess,
    /// Distinct origin peers, assigned round-robin (`PeerId(i %
    /// origins)`); must not exceed the system's peer count.
    pub origins: usize,
    /// Admission cap: at most this many sessions live in the pool.
    pub max_concurrent: usize,
    /// Bounded FIFO wait queue behind the cap; an arrival finding the
    /// queue full is rejected outright (0 = queue-or-reject degenerates
    /// to plain reject).
    pub queue_capacity: usize,
    /// Cancel a session once its charged overlay messages exceed this.
    pub message_budget: Option<u64>,
    /// Cancel a session once simulated time passes `submit + deadline`.
    pub deadline: Option<SimDuration>,
    /// Per-session scheduler window (in-flight subqueries).
    pub window: usize,
    /// Reformulation strategy for every session.
    pub strategy: Strategy,
    /// Seed of the arrival process.
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            sessions: 100,
            arrivals: ArrivalProcess::Poisson { rate: 50.0 },
            origins: 8,
            max_concurrent: 16,
            queue_capacity: 32,
            message_budget: None,
            deadline: None,
            window: 4,
            strategy: Strategy::Iterative,
            seed: 1,
        }
    }
}

/// Bookkeeping of one submitted-and-opened session.
struct Track {
    submit: SimTime,
    origin: usize,
}

/// Drive `plans` through `sys` open-loop under `cfg` (plans are
/// assigned round-robin when fewer than `cfg.sessions`). Arrival
/// instants are offsets from the system clock at entry
/// ([`GridVineSystem::now`]), and the makespan is measured from there,
/// so the report does not depend on how far earlier work advanced the
/// clock. Deterministic: the same system, plans and config produce the
/// identical [`LoadReport`] transcript.
pub fn run_open_loop(
    sys: &mut GridVineSystem,
    plans: &[QueryPlan],
    cfg: &LoadConfig,
) -> LoadReport {
    assert!(cfg.origins >= 1, "need at least one origin");
    assert!(cfg.max_concurrent >= 1, "need at least one admission slot");
    assert!(!plans.is_empty(), "need at least one plan");
    let opts = QueryOptions::new()
        .strategy(cfg.strategy)
        .window(cfg.window);
    let start = sys.now();
    let offset = start.saturating_since(SimTime::ZERO);
    let instants = cfg.arrivals.instants(cfg.sessions, cfg.seed);
    let instants = instants.into_iter().map(|at| at + offset);

    let mut pool = SessionPool::new();
    let mut track: FxHashMap<SessionId, Track> = FxHashMap::default();
    // (submit instant, origin index, plan index) of arrivals waiting
    // behind the admission cap.
    let mut waiting: VecDeque<(SimTime, usize, usize)> = VecDeque::new();

    let mut report = LoadReport::default();
    let mut latencies: Vec<SimDuration> = Vec::new();
    let mut waits: Vec<SimDuration> = Vec::new();
    let mut origin_submitted = vec![0usize; cfg.origins];
    let mut origin_completed = vec![0usize; cfg.origins];
    let mut origin_latency = vec![SimDuration::ZERO; cfg.origins];
    let mut makespan = start;

    // Open one session; on refusal (invalid plan) no session exists.
    let admit = |sys: &mut GridVineSystem,
                 pool: &mut SessionPool,
                 track: &mut FxHashMap<SessionId, Track>,
                 report: &mut LoadReport,
                 submit: SimTime,
                 origin: usize,
                 plan: usize,
                 at: SimTime| {
        let plan = &plans[plan % plans.len()];
        match pool.open_at(sys, PeerId(origin as u32), plan, &opts, at) {
            Ok(id) => {
                track.insert(id, Track { submit, origin });
            }
            Err(_) => report.refused += 1,
        }
    };

    // Settle one pool event plus the budget/deadline scans and waiting
    // promotions it unlocks. Returns the event instant.
    #[allow(clippy::too_many_arguments)]
    fn settle(
        ev: PoolEvent,
        sys: &mut GridVineSystem,
        pool: &mut SessionPool,
        cfg: &LoadConfig,
        track: &FxHashMap<SessionId, Track>,
        report: &mut LoadReport,
        latencies: &mut Vec<SimDuration>,
        origin_completed: &mut [usize],
        origin_latency: &mut [SimDuration],
    ) -> SimTime {
        let t = ev.at();
        match ev {
            PoolEvent::Delivered { session, .. } => {
                if let Some(budget) = cfg.message_budget {
                    let over = pool
                        .session_stats(session)
                        .is_some_and(|s| s.messages > budget);
                    if over && pool.cancel(sys, session) {
                        report.cancelled_budget += 1;
                        if let Some(o) = pool.take_outcome(session) {
                            report.messages += o.stats.messages;
                        }
                    }
                }
            }
            PoolEvent::Finished { session, at } => {
                let tr = &track[&session];
                let latency = at.saturating_since(tr.submit);
                report.completed += 1;
                latencies.push(latency);
                origin_completed[tr.origin] += 1;
                origin_latency[tr.origin] += latency;
                if let Some(o) = pool.take_outcome(session) {
                    report.rows += o.rows.len();
                    report.messages += o.stats.messages;
                }
            }
            PoolEvent::Failed { session, .. } => {
                report.failed += 1;
                if let Some(o) = pool.take_outcome(session) {
                    report.messages += o.stats.messages;
                }
            }
        }
        // Deadline scan at the new simulated frontier.
        if let Some(deadline) = cfg.deadline {
            let expired: Vec<SessionId> = pool
                .live_sessions()
                .filter(|id| track[id].submit + deadline <= t)
                .collect();
            for id in expired {
                if pool.cancel(sys, id) {
                    report.cancelled_deadline += 1;
                    if let Some(o) = pool.take_outcome(id) {
                        report.messages += o.stats.messages;
                    }
                }
            }
        }
        t
    }

    // Main merge loop: arrivals and pool events in simulated-time order.
    for (i, at) in instants.enumerate() {
        // Settle everything the pool has scheduled before this arrival.
        while let Some(t) = pool.next_instant(sys) {
            if t > at {
                break;
            }
            let ev = pool.step(sys).expect("next_instant promised an event");
            let t = settle(
                ev,
                sys,
                &mut pool,
                cfg,
                &track,
                &mut report,
                &mut latencies,
                &mut origin_completed,
                &mut origin_latency,
            );
            makespan = makespan.max(t);
            // Freed capacity promotes waiting arrivals, FIFO.
            while pool.len() < cfg.max_concurrent {
                let Some((submit, origin, plan)) = waiting.pop_front() else {
                    break;
                };
                report.queued += 1;
                waits.push(t.saturating_since(submit));
                admit(
                    sys,
                    &mut pool,
                    &mut track,
                    &mut report,
                    submit,
                    origin,
                    plan,
                    t.max(submit),
                );
            }
        }
        // Admission control for the arrival itself.
        let origin = i % cfg.origins;
        report.submitted += 1;
        origin_submitted[origin] += 1;
        if pool.len() < cfg.max_concurrent {
            report.admitted += 1;
            admit(sys, &mut pool, &mut track, &mut report, at, origin, i, at);
        } else if waiting.len() < cfg.queue_capacity {
            waiting.push_back((at, origin, i));
        } else {
            report.rejected += 1;
        }
        makespan = makespan.max(at);
    }
    // Arrivals exhausted: drain the pool (and the wait queue) dry.
    while let Some(ev) = pool.step(sys) {
        let t = settle(
            ev,
            sys,
            &mut pool,
            cfg,
            &track,
            &mut report,
            &mut latencies,
            &mut origin_completed,
            &mut origin_latency,
        );
        makespan = makespan.max(t);
        while pool.len() < cfg.max_concurrent {
            let Some((submit, origin, plan)) = waiting.pop_front() else {
                break;
            };
            report.queued += 1;
            waits.push(t.saturating_since(submit));
            admit(
                sys,
                &mut pool,
                &mut track,
                &mut report,
                submit,
                origin,
                plan,
                t.max(submit),
            );
        }
    }

    report.latency = LatencySummary::from_samples(&mut latencies);
    report.queue_wait = LatencySummary::from_samples(&mut waits);
    report.makespan = makespan.saturating_since(start);
    report.per_origin = (0..cfg.origins)
        .map(|o| OriginStats {
            origin: o,
            submitted: origin_submitted[o],
            completed: origin_completed[o],
            mean_latency: if origin_completed[o] == 0 {
                SimDuration::ZERO
            } else {
                SimDuration(origin_latency[o].0 / origin_completed[o] as u64)
            },
        })
        .collect();
    debug_assert_eq!(sys.pending_events(), 0, "drained pool leaves no residue");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvine_core::GridVineConfig;
    use gridvine_rdf::{Term, Triple, TriplePatternQuery};
    use gridvine_semantic::{Correspondence, MappingKind, Provenance, Schema};

    fn seeded_system() -> GridVineSystem {
        seeded_system_with(GridVineConfig::default())
    }

    fn seeded_system_with(config: GridVineConfig) -> GridVineSystem {
        let mut sys = GridVineSystem::new(config);
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

    fn plans() -> Vec<QueryPlan> {
        vec![QueryPlan::search(TriplePatternQuery::example_aspergillus())]
    }

    #[test]
    fn open_loop_is_deterministic() {
        let cfg = LoadConfig {
            sessions: 40,
            ..LoadConfig::default()
        };
        let a = run_open_loop(&mut seeded_system(), &plans(), &cfg);
        let b = run_open_loop(&mut seeded_system(), &plans(), &cfg);
        assert_eq!(format!("{a}"), format!("{b}"));
        assert_eq!(a.submitted, 40);
        assert_eq!(a.resolved(), 40);
    }

    /// Arrivals are offsets from the clock: after a closed-loop session
    /// from a peer that is none of the run's origins has advanced it,
    /// the run reports what it reports on a fresh system. One reference
    /// per level, so the earlier session's routing draws steer no route;
    /// a lookup, so it memoizes no closure for the run to replay (the
    /// closure cache is every origin's).
    #[test]
    fn a_run_does_not_depend_on_how_far_the_clock_had_advanced() {
        let config = GridVineConfig {
            refs_per_level: 1,
            ..GridVineConfig::default()
        };
        let cfg = LoadConfig {
            sessions: 24,
            ..LoadConfig::default()
        };
        let fresh = run_open_loop(&mut seeded_system_with(config.clone()), &plans(), &cfg);
        let mut sys = seeded_system_with(config);
        let bystander = PeerId(cfg.origins as u32 + 3);
        let lookup = QueryPlan::pattern(TriplePatternQuery::example_aspergillus());
        sys.execute(bystander, &lookup, &QueryOptions::new())
            .unwrap();
        assert!(sys.now() > SimTime::ZERO);
        let later = run_open_loop(&mut sys, &plans(), &cfg);
        assert_eq!(format!("{later}"), format!("{fresh}"));
    }

    #[test]
    fn admission_cap_rejects_under_overload() {
        let cfg = LoadConfig {
            sessions: 60,
            arrivals: ArrivalProcess::Deterministic {
                gap: SimDuration::from_micros(1),
            },
            max_concurrent: 2,
            queue_capacity: 2,
            ..LoadConfig::default()
        };
        let r = run_open_loop(&mut seeded_system(), &plans(), &cfg);
        assert!(r.rejected > 0, "overload must reject: {r}");
        assert_eq!(r.resolved(), 60);
    }

    /// Past the admission cap the tail is queue wait: the same cold
    /// sessions (one origin each, so service time is uniform) complete
    /// in full at either rate, but offered at four times what eight
    /// slots drain they at least double the p99 of a stream that never
    /// fills the slots.
    #[test]
    fn overload_moves_the_backlog_into_the_p99() {
        const SESSIONS: usize = 48;
        // One standalone session's simulated makespan: the service time.
        let service = {
            let mut sys = seeded_system();
            let options = QueryOptions::new().strategy(Strategy::Iterative).window(4);
            let mut session = sys.open(PeerId(0), &plans()[0], &options).unwrap();
            while session.next_event().unwrap().is_some() {}
            session.sim_elapsed()
        };
        assert!(service > SimDuration::ZERO);
        let p99 = |gap: SimDuration| {
            let cfg = LoadConfig {
                sessions: SESSIONS,
                arrivals: ArrivalProcess::Deterministic { gap },
                origins: SESSIONS,
                max_concurrent: 8,
                queue_capacity: SESSIONS,
                ..LoadConfig::default()
            };
            let r = run_open_loop(&mut seeded_system(), &plans(), &cfg);
            assert_eq!(
                r.completed, SESSIONS,
                "every admitted session completes: {r}"
            );
            r.latency.p99
        };
        let light = p99(service);
        let loaded = p99(SimDuration::from_micros(service.as_micros() / 32));
        assert!(
            loaded.as_micros() >= 2 * light.as_micros(),
            "p99 {loaded:?} at 4x the drain rate, {light:?} below it"
        );
    }

    #[test]
    fn deadline_cancels_and_leaves_no_residue() {
        let cfg = LoadConfig {
            sessions: 30,
            arrivals: ArrivalProcess::Deterministic {
                gap: SimDuration::from_micros(10),
            },
            deadline: Some(SimDuration::from_micros(1)),
            ..LoadConfig::default()
        };
        let mut sys = seeded_system();
        let r = run_open_loop(&mut sys, &plans(), &cfg);
        assert!(r.cancelled_deadline > 0, "tight deadline must cancel: {r}");
        assert_eq!(sys.pending_events(), 0);
    }

    #[test]
    fn budget_cancels_expensive_sessions() {
        let cfg = LoadConfig {
            sessions: 20,
            message_budget: Some(1),
            ..LoadConfig::default()
        };
        let mut sys = seeded_system();
        let r = run_open_loop(&mut sys, &plans(), &cfg);
        assert!(r.cancelled_budget > 0, "1-message budget must cancel: {r}");
        assert_eq!(sys.pending_events(), 0);
    }

    #[test]
    fn fairness_across_origins_is_high_when_unloaded() {
        let cfg = LoadConfig {
            sessions: 32,
            origins: 4,
            arrivals: ArrivalProcess::Deterministic {
                gap: SimDuration::from_secs(1),
            },
            ..LoadConfig::default()
        };
        let r = run_open_loop(&mut seeded_system(), &plans(), &cfg);
        assert_eq!(r.completed, 32);
        assert!(
            (r.fairness() - 1.0).abs() < 1e-12,
            "fairness {}",
            r.fairness()
        );
    }
}
