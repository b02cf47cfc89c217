//! Measurement utilities: an exact latency CDF.

use crate::clock::SimDuration;
use serde::{Deserialize, Serialize};

/// An exact empirical CDF: stores all samples (experiments here are small
/// enough that exactness beats the complexity of a sketch).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    pub fn new() -> Cdf {
        Cdf {
            samples: Vec::new(),
            sorted: true,
        }
    }

    pub fn record(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    pub fn record_duration(&mut self, d: SimDuration) {
        self.record(d.as_secs_f64());
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
            self.sorted = true;
        }
    }

    /// Fraction of samples ≤ `x`. This is the statistic behind the
    /// paper's "40 % of queries answered within one second" claim.
    pub fn fraction_leq(&mut self, x: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let idx = self.samples.partition_point(|&s| s <= x);
        idx as f64 / self.samples.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using nearest-rank.
    pub fn quantile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0,1]");
        if self.samples.is_empty() {
            return 0.0;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.samples[rank - 1]
    }

    pub fn median(&mut self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Merge another CDF's samples into this one.
    pub fn merge(&mut self, other: &Cdf) {
        self.samples.extend_from_slice(&other.samples);
        self.sorted = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cdf_fraction_leq_matches_paper_statistic() {
        let mut cdf = Cdf::new();
        // 10 samples: 4 are below 1.0s, 3 more below 5.0s.
        for s in [0.2, 0.4, 0.6, 0.9, 1.5, 2.0, 4.0, 6.0, 7.0, 9.0] {
            cdf.record(s);
        }
        assert!((cdf.fraction_leq(1.0) - 0.4).abs() < 1e-12);
        assert!((cdf.fraction_leq(5.0) - 0.7).abs() < 1e-12);
        assert_eq!(cdf.fraction_leq(100.0), 1.0);
    }

    #[test]
    fn cdf_quantiles() {
        let mut cdf = Cdf::new();
        for i in 1..=100 {
            cdf.record(i as f64);
        }
        assert_eq!(cdf.median(), 50.0);
        assert_eq!(cdf.quantile(0.9), 90.0);
        assert_eq!(cdf.quantile(1.0), 100.0);
        assert_eq!(cdf.quantile(0.0), 1.0); // nearest-rank clamps to first
    }

    #[test]
    fn cdf_merge() {
        let mut a = Cdf::new();
        a.record(1.0);
        let mut b = Cdf::new();
        b.record(3.0);
        a.merge(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.median(), 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// fraction_leq is monotone in its argument.
        #[test]
        fn cdf_monotone(xs in proptest::collection::vec(0.0f64..100.0, 1..100),
                        a in 0.0f64..100.0, b in 0.0f64..100.0) {
            let mut cdf = Cdf::new();
            for x in &xs { cdf.record(*x); }
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(cdf.fraction_leq(lo) <= cdf.fraction_leq(hi));
        }

        /// Quantile output is always one of the recorded samples.
        #[test]
        fn quantile_is_a_sample(xs in proptest::collection::vec(-50.0f64..50.0, 1..80),
                                q in 0.0f64..=1.0) {
            let mut cdf = Cdf::new();
            for x in &xs { cdf.record(*x); }
            let v = cdf.quantile(q);
            prop_assert!(xs.iter().any(|x| (x - v).abs() < 1e-12));
        }
    }
}
