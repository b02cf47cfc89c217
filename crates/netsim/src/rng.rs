//! Deterministic random sampling helpers.
//!
//! The offline `rand` crate (0.8) ships uniform distributions only; the
//! heavier samplers the experiments need — log-normal wide-area latencies,
//! Zipf-skewed key popularity, exponential inter-arrival times for churn —
//! are implemented here from first principles so no extra dependency is
//! required.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Create the canonical seeded RNG used throughout the workspace.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derive an independent child RNG from a parent seed and a stream label.
///
/// Experiments fan out over parameter sweeps; giving each run
/// `derive(seed, run_index)` keeps runs independent yet reproducible.
pub fn derive(seed: u64, stream: u64) -> StdRng {
    seeded(derive_seed(seed, stream))
}

/// The child *seed* behind [`derive()`], for consumers that seed their own
/// generator (e.g. a latency model constructed from a `u64`).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    // SplitMix64 finalizer mixes the pair into a well-distributed child seed.
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    z
}

/// Sample a standard normal via the Box–Muller transform.
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0) by sampling u1 from the half-open interval (0, 1].
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Sample a log-normal variate with the given *median* and multiplicative
/// spread `sigma` (the standard deviation of the underlying normal).
///
/// Wide-area RTTs are classically modelled as log-normal: a tight body
/// around the propagation delay with a heavy right tail from queueing.
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, median: f64, sigma: f64) -> f64 {
    median * (sigma * standard_normal(rng)).exp()
}

/// Sample an exponential variate with the given rate (events per unit).
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "exponential rate must be positive");
    let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
    -u.ln() / rate
}

/// A Zipf(θ) sampler over ranks `0..n` using the classical CDF-inversion
/// table. θ = 0 degenerates to uniform; θ ≈ 0.8–1.2 matches the skew of
/// real predicate popularity in triple stores.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Build a sampler over `n` ranks with exponent `theta ≥ 0`.
    ///
    /// # Panics
    /// Panics if `n == 0` or `theta < 0`.
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(theta >= 0.0, "Zipf exponent must be non-negative");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(theta);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        // Guard against floating-point drift so binary search always lands.
        *cdf.last_mut().expect("n > 0") = 1.0;
        Zipf { cdf }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// Draw a rank in `0..n`; rank 0 is the most popular.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cdf
            .binary_search_by(|p| p.partial_cmp(&u).expect("CDF is finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic() {
        let mut a = seeded(7);
        let mut b = seeded(7);
        let xs: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn derived_streams_differ() {
        let mut a = derive(7, 0);
        let mut b = derive(7, 1);
        let xs: Vec<u64> = (0..8).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.gen()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn log_normal_median_roughly_holds() {
        let mut rng = seeded(1);
        let mut samples: Vec<f64> = (0..20_001)
            .map(|_| log_normal(&mut rng, 50.0, 0.5))
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 50.0).abs() < 3.0, "median was {median}");
        assert!(samples.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean_roughly_holds() {
        let mut rng = seeded(2);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut rng, 0.25)).sum::<f64>() / n as f64;
        assert!((mean - 4.0).abs() < 0.15, "mean was {mean}");
    }

    #[test]
    fn zipf_uniform_when_theta_zero() {
        let z = Zipf::new(4, 0.0);
        let mut rng = seeded(3);
        let mut counts = [0usize; 4];
        for _ in 0..40_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        for c in counts {
            assert!((c as f64 - 10_000.0).abs() < 600.0, "counts {counts:?}");
        }
    }

    #[test]
    fn zipf_skews_toward_low_ranks() {
        let z = Zipf::new(100, 1.0);
        let mut rng = seeded(4);
        let mut counts = vec![0usize; 100];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[99]);
        // Rank 0 under Zipf(1.0, n=100) carries ~19% of the mass.
        assert!(counts[0] as f64 > 0.15 * 50_000.0);
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_rejects_empty() {
        let _ = Zipf::new(0, 1.0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Every Zipf sample is a valid rank.
        #[test]
        fn zipf_samples_in_range(n in 1usize..500, theta in 0.0f64..2.5, seed in 0u64..1000) {
            let z = Zipf::new(n, theta);
            let mut rng = seeded(seed);
            for _ in 0..64 {
                let r = z.sample(&mut rng);
                prop_assert!(r < n);
            }
        }

        /// Log-normal samples are strictly positive and finite.
        #[test]
        fn log_normal_positive(median in 0.1f64..1000.0, sigma in 0.0f64..2.0, seed in 0u64..1000) {
            let mut rng = seeded(seed);
            for _ in 0..32 {
                let x = log_normal(&mut rng, median, sigma);
                prop_assert!(x > 0.0 && x.is_finite());
            }
        }
    }
}
