//! Small measuring tools shared by every workload: order statistics,
//! the order-independent row digest, resident-memory readings and the
//! simulated-latency accumulator.

use gridvine_netsim::SimDuration;
use gridvine_rdf::Binding;
use std::sync::atomic::{AtomicBool, Ordering};

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of nothing");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank `q`-quantile of an already sorted slice (0 when empty).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// `num / den`, or 0 when nothing was counted (a metric that does not
/// apply to a workload reads 0, never NaN).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// FNV-1a over bytes: a fixed, version-independent hash so digests can
/// be compared between commits and toolchains.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Order-independent digest of a row set: the wrapping sum of each
/// row's hash, so two commits returning the same rows in any order
/// print the same value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Digest {
    pub fn add_text(&mut self, text: &str) {
        self.0 = self.0.wrapping_add(fnv1a(text.as_bytes()));
    }

    /// Digest of one row set on its own.
    pub fn of_rows(rows: &[Binding]) -> Digest {
        let mut d = Digest::default();
        for row in rows {
            d.add_text(&row.to_string());
        }
        d
    }
}

/// One field of `/proc/self/status` in KiB (`VmRSS`, `VmHWM`).
fn proc_status_kib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Resident set size of this process right now, in bytes.
pub fn rss_bytes() -> f64 {
    proc_status_kib("VmRSS") * 1024.0
}

/// The resident set size, but only for the first caller in this
/// process: memory growth can be read off the RSS only before the
/// allocator holds freed pages of an earlier repetition.
pub fn first_rss_bytes() -> Option<f64> {
    static TAKEN: AtomicBool = AtomicBool::new(false);
    (!TAKEN.swap(true, Ordering::Relaxed)).then(rss_bytes)
}

/// High-water mark of the resident set size, in MiB.
pub fn peak_rss_mb() -> f64 {
    proc_status_kib("VmHWM") / 1024.0
}

/// Simulated submit→final-reply latencies of one repetition's ops.
/// Failed or refused ops are recorded with [`SimLatencies::miss`] and
/// count as missing every latency limit.
#[derive(Debug, Default)]
pub struct SimLatencies {
    micros: Vec<u64>,
    submitted: u64,
}

impl SimLatencies {
    pub fn record(&mut self, d: SimDuration) {
        self.micros.push(d.as_micros());
        self.submitted += 1;
    }

    /// `n` ops that never produced a final reply.
    pub fn miss(&mut self, n: u64) {
        self.submitted += n;
    }

    /// (p50 ms, p99 ms, share ≤ 1 s, share ≤ 5 s); shares are over
    /// *submitted* ops.
    pub fn summary(&mut self) -> (f64, f64, f64, f64) {
        self.micros.sort_unstable();
        let within = |limit_us: u64| {
            ratio(
                self.micros.partition_point(|&x| x <= limit_us) as f64,
                self.submitted as f64,
            )
        };
        (
            quantile_sorted(&self.micros, 0.50) as f64 / 1000.0,
            quantile_sorted(&self.micros, 0.99) as f64 / 1000.0,
            within(1_000_000),
            within(5_000_000),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn digest_ignores_order() {
        let mut a = Digest::default();
        a.add_text("x");
        a.add_text("y");
        let mut b = Digest::default();
        b.add_text("y");
        b.add_text("x");
        assert_eq!(a, b);
        assert_ne!(a, Digest::default());
    }

    #[test]
    fn misses_count_against_limits() {
        let mut l = SimLatencies::default();
        l.record(SimDuration::from_millis(500));
        l.miss(1);
        let (_, _, w1, w5) = l.summary();
        assert_eq!((w1, w5), (0.5, 0.5));
    }
}
