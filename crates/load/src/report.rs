//! Load-test reporting: admission accounting, origin fairness and the
//! latency CDF under load.

use gridvine_netsim::SimDuration;
use std::fmt;

/// Nearest-rank percentiles over a latency sample set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LatencySummary {
    pub count: usize,
    pub p50: SimDuration,
    pub p95: SimDuration,
    pub p99: SimDuration,
    pub max: SimDuration,
}

impl LatencySummary {
    /// Summarize (sorts the samples in place). An empty sample set
    /// yields the all-zero summary.
    pub fn from_samples(samples: &mut [SimDuration]) -> LatencySummary {
        if samples.is_empty() {
            return LatencySummary::default();
        }
        samples.sort_unstable();
        let pick = |q: f64| {
            let rank = ((samples.len() as f64) * q).ceil() as usize;
            samples[rank.clamp(1, samples.len()) - 1]
        };
        LatencySummary {
            count: samples.len(),
            p50: pick(0.50),
            p95: pick(0.95),
            p99: pick(0.99),
            max: *samples.last().expect("non-empty"),
        }
    }
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} p50={:.3}ms p95={:.3}ms p99={:.3}ms max={:.3}ms",
            self.count,
            self.p50.as_micros() as f64 / 1000.0,
            self.p95.as_micros() as f64 / 1000.0,
            self.p99.as_micros() as f64 / 1000.0,
            self.max.as_micros() as f64 / 1000.0,
        )
    }
}

/// Per-origin slice of the run (fairness accounting).
#[derive(Debug, Clone, Default)]
pub struct OriginStats {
    /// Origin peer index.
    pub origin: usize,
    pub submitted: usize,
    pub completed: usize,
    /// Mean completion latency of this origin's completed sessions.
    pub mean_latency: SimDuration,
}

/// Outcome of one open-loop run (see
/// [`run_open_loop`](crate::traffic::run_open_loop)): every submitted
/// session is accounted to exactly one of admitted-path ×
/// terminal-state, and the headline is the completion-latency CDF under
/// load, measured submit → final reply on the simulated clock.
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Sessions the arrival process submitted.
    pub submitted: usize,
    /// Admitted straight into the pool on arrival.
    pub admitted: usize,
    /// Admitted after waiting in the bounded queue.
    pub queued: usize,
    /// Turned away (queue full at arrival).
    pub rejected: usize,
    /// Invalid plans refused at open (no session was created).
    pub refused: usize,
    /// Drained to completion.
    pub completed: usize,
    /// Ended with a unit failure.
    pub failed: usize,
    /// Cancelled at their simulated-time deadline.
    pub cancelled_deadline: usize,
    /// Cancelled on exceeding their message budget.
    pub cancelled_budget: usize,
    /// Solution rows delivered by completed sessions.
    pub rows: usize,
    /// Overlay messages charged across all sessions, including
    /// cancelled ones (work done before the cancel stays charged).
    pub messages: u64,
    /// Last simulated event instant of the run.
    pub makespan: SimDuration,
    /// Completion latency (submit → final reply) of completed sessions.
    pub latency: LatencySummary,
    /// Queue wait (submit → admission) of queued-then-admitted sessions.
    pub queue_wait: LatencySummary,
    /// Per-origin fairness slices, origin order.
    pub per_origin: Vec<OriginStats>,
}

impl LoadReport {
    /// Sessions in a terminal bucket. Every submitted session lands in
    /// exactly one, so a drained run has `resolved() == submitted`.
    pub fn resolved(&self) -> usize {
        let cancelled = self.cancelled_deadline + self.cancelled_budget;
        self.completed + self.failed + cancelled + self.rejected + self.refused
    }

    /// Fraction of submitted sessions that completed.
    pub fn delivered_fraction(&self) -> f64 {
        if self.submitted == 0 {
            return 1.0;
        }
        self.completed as f64 / self.submitted as f64
    }

    /// Jain-style min/max fairness over per-origin completions:
    /// 1.0 = every origin completed equally many sessions, 0.0 = some
    /// origin was starved entirely (1.0 when nothing completed).
    pub fn fairness(&self) -> f64 {
        let max = self.per_origin.iter().map(|o| o.completed).max();
        let min = self.per_origin.iter().map(|o| o.completed).min();
        match (min, max) {
            (Some(min), Some(max)) if max > 0 => min as f64 / max as f64,
            _ => 1.0,
        }
    }
}

impl fmt::Display for LoadReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "submitted {} | admitted {} + queued {} + rejected {} + refused {}",
            self.submitted, self.admitted, self.queued, self.rejected, self.refused
        )?;
        writeln!(
            f,
            "completed {} | failed {} | cancelled: deadline {} budget {}",
            self.completed, self.failed, self.cancelled_deadline, self.cancelled_budget
        )?;
        writeln!(
            f,
            "rows {} | messages {} | makespan {:.3}s | delivered {:.3} | fairness {:.3}",
            self.rows,
            self.messages,
            self.makespan.as_secs_f64(),
            self.delivered_fraction(),
            self.fairness()
        )?;
        writeln!(f, "latency    {}", self.latency)?;
        writeln!(f, "queue wait {}", self.queue_wait)?;
        for o in &self.per_origin {
            writeln!(
                f,
                "  origin {:>3}: submitted {:>5} completed {:>5} mean {:.3}ms",
                o.origin,
                o.submitted,
                o.completed,
                o.mean_latency.as_micros() as f64 / 1000.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_nearest_rank() {
        let mut xs: Vec<SimDuration> = (1..=100).map(SimDuration::from_millis).collect();
        let s = LatencySummary::from_samples(&mut xs);
        assert_eq!(s.count, 100);
        assert_eq!(s.p50, SimDuration::from_millis(50));
        assert_eq!(s.p95, SimDuration::from_millis(95));
        assert_eq!(s.p99, SimDuration::from_millis(99));
        assert_eq!(s.max, SimDuration::from_millis(100));
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = LatencySummary::from_samples(&mut []);
        assert_eq!(s, LatencySummary::default());
    }

    #[test]
    fn fairness_bounds() {
        let mut r = LoadReport::default();
        assert_eq!(r.fairness(), 1.0);
        r.per_origin = vec![
            OriginStats {
                completed: 4,
                ..OriginStats::default()
            },
            OriginStats {
                completed: 2,
                ..OriginStats::default()
            },
        ];
        assert!((r.fairness() - 0.5).abs() < 1e-12);
    }
}
