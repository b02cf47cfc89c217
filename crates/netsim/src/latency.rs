//! Message latency models.
//!
//! The simulator charges each message a one-way delay drawn from a
//! [`LatencyModel`], chosen by a [`LatencyConfig`]. Two models are
//! provided:
//!
//! * [`LatencyConfig::Constant`] — fixed delay, the LAN of unit tests;
//! * [`RegionalWan`] — the model behind experiment E1. Nodes are assigned
//!   to geographic regions; one-way delay is log-normal with a median
//!   that depends on whether the two endpoints share a region, plus a
//!   per-message processing overhead. Defaults are calibrated to
//!   PlanetLab-era measurements (intra-region ≈ 15 ms, inter-region
//!   ≈ 80–160 ms medians), matching the paper's 2007 wide-area deployment.

use crate::clock::SimDuration;
use crate::node::NodeId;
use crate::rng;
use rand::rngs::StdRng;
use serde::{Deserialize, Serialize};

/// Strategy for sampling the one-way delay of a message.
pub trait LatencyModel: Send {
    /// Sample the one-way delay for a message from `from` to `to`.
    fn sample(&mut self, from: NodeId, to: NodeId) -> SimDuration;

    /// Called when a node joins so region-aware models can place it.
    fn on_node_added(&mut self, _node: NodeId) {}
}

/// Every message takes exactly the same time.
#[derive(Debug, Clone)]
struct ConstantLatency(SimDuration);

impl LatencyModel for ConstantLatency {
    fn sample(&mut self, _from: NodeId, _to: NodeId) -> SimDuration {
        self.0
    }
}

/// Serializable choice of latency model: what a
/// [`NetworkConfig`](crate::network::NetworkConfig) and
/// `gridvine-core`'s `GridVineConfig` embed.
///
/// [`LatencyConfig::Flat`] is the null model: it builds **no** sampler
/// ([`LatencyConfig::build`] returns `None`) so consumers keep their
/// built-in deterministic cost formula and draw **zero** randomness — a
/// run with the default config is bit-identical to one that predates
/// this enum. A [`Network`](crate::network::Network) has no such formula
/// and rejects it.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub enum LatencyConfig {
    /// No sampled latency: the consumer's flat per-message cost model.
    #[default]
    Flat,
    /// Every message takes exactly `delay`.
    Constant {
        /// Fixed one-way delay.
        delay: SimDuration,
    },
    /// Region-aware log-normal wide-area model ([`RegionalWan`]).
    RegionalWan(RegionalWanConfig),
}

impl LatencyConfig {
    /// The PlanetLab-calibrated WAN model
    /// ([`RegionalWanConfig::planetlab_2007`]).
    pub fn planetlab_2007() -> LatencyConfig {
        LatencyConfig::RegionalWan(RegionalWanConfig::planetlab_2007())
    }

    /// Build the sampler, seeding its private RNG stream from `seed`.
    /// Returns `None` for [`LatencyConfig::Flat`] so the caller can keep
    /// its closed-form cost model without any RNG draws.
    pub fn build(&self, seed: u64) -> Option<Box<dyn LatencyModel>> {
        match self {
            LatencyConfig::Flat => None,
            LatencyConfig::Constant { delay } => Some(Box::new(ConstantLatency(*delay))),
            LatencyConfig::RegionalWan(cfg) => Some(Box::new(RegionalWan::new(cfg.clone(), seed))),
        }
    }
}

/// Configuration for the regional wide-area model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionalWanConfig {
    /// Number of geographic regions nodes are spread over.
    pub regions: usize,
    /// Median one-way delay between two nodes in the same region.
    pub intra_median: SimDuration,
    /// Median one-way delay between adjacent regions; the effective
    /// median grows with ring distance between the two regions.
    pub inter_median_base: SimDuration,
    /// Additional median per extra region of ring distance.
    pub inter_median_per_hop: SimDuration,
    /// Multiplicative spread (σ of the underlying normal).
    pub sigma: f64,
    /// Fixed per-message processing overhead (serialization, local DB
    /// lookup, scheduling) charged on top of the sampled network delay.
    pub processing: SimDuration,
    /// σ of the log-normal per-node slowdown multiplier applied to the
    /// processing overhead. 0 = homogeneous machines. PlanetLab-era
    /// testbeds were wildly heterogeneous (oversubscribed nodes ran
    /// orders of magnitude slower), which is what produces the heavy
    /// latency tail of the paper's deployment.
    pub node_heterogeneity: f64,
}

impl Default for RegionalWanConfig {
    fn default() -> Self {
        RegionalWanConfig {
            regions: 5,
            intra_median: SimDuration::from_millis(15),
            inter_median_base: SimDuration::from_millis(80),
            inter_median_per_hop: SimDuration::from_millis(40),
            sigma: 0.45,
            processing: SimDuration::from_millis(25),
            node_heterogeneity: 0.0,
        }
    }
}

impl RegionalWanConfig {
    /// Calibrated to the paper's 2007 deployment substrate: PlanetLab
    /// machines around the world running a Java DHT — slow per-message
    /// processing with heavy per-node heterogeneity.
    pub fn planetlab_2007() -> RegionalWanConfig {
        RegionalWanConfig {
            regions: 5,
            intra_median: SimDuration::from_millis(15),
            inter_median_base: SimDuration::from_millis(55),
            inter_median_per_hop: SimDuration::from_millis(30),
            sigma: 0.5,
            // σ = 3.0 looks extreme but matches 2007 PlanetLab: a
            // minority of oversubscribed nodes stalled requests for
            // seconds, producing exactly the heavy tail the paper's
            // 40 %-within-1 s / 75 %-within-5 s CDF records.
            processing: SimDuration::from_millis(22),
            node_heterogeneity: 3.0,
        }
    }
}

/// Log-normal wide-area latency with geographic regions.
#[derive(Debug)]
pub struct RegionalWan {
    cfg: RegionalWanConfig,
    region_of: Vec<usize>,
    /// Per-node processing slowdown multipliers (≥ 0).
    slowdown_of: Vec<f64>,
    rng: StdRng,
}

impl RegionalWan {
    pub fn new(cfg: RegionalWanConfig, seed: u64) -> Self {
        assert!(cfg.regions > 0, "need at least one region");
        assert!(cfg.sigma >= 0.0, "sigma must be non-negative");
        RegionalWan {
            cfg,
            region_of: Vec::new(),
            slowdown_of: Vec::new(),
            rng: rng::seeded(seed),
        }
    }

    /// The default PlanetLab-like model used by experiment E1.
    pub fn planetlab(seed: u64) -> Self {
        RegionalWan::new(RegionalWanConfig::default(), seed)
    }

    /// Region assigned to `node` (nodes are placed round-robin so region
    /// sizes stay balanced, as in the paper's world-wide deployment).
    pub fn region(&self, node: NodeId) -> Option<usize> {
        self.region_of.get(node.index()).copied()
    }

    fn ensure_placed(&mut self, node: NodeId) {
        while self.region_of.len() <= node.index() {
            let r = self.region_of.len() % self.cfg.regions;
            self.region_of.push(r);
            let factor = if self.cfg.node_heterogeneity > 0.0 {
                rng::log_normal(&mut self.rng, 1.0, self.cfg.node_heterogeneity)
            } else {
                1.0
            };
            self.slowdown_of.push(factor);
        }
    }

    /// Ring distance between two regions.
    fn region_distance(&self, a: usize, b: usize) -> usize {
        let n = self.cfg.regions;
        let d = a.abs_diff(b);
        d.min(n - d)
    }
}

impl LatencyModel for RegionalWan {
    fn sample(&mut self, from: NodeId, to: NodeId) -> SimDuration {
        self.ensure_placed(from);
        self.ensure_placed(to);
        let ra = self.region_of[from.index()];
        let rb = self.region_of[to.index()];
        let dist = self.region_distance(ra, rb);
        let median = if dist == 0 {
            self.cfg.intra_median.as_secs_f64()
        } else {
            self.cfg.inter_median_base.as_secs_f64()
                + self.cfg.inter_median_per_hop.as_secs_f64() * (dist - 1) as f64
        };
        let delay = rng::log_normal(&mut self.rng, median, self.cfg.sigma);
        // The receiver pays the processing cost, scaled by its own
        // slowdown factor (heterogeneous machines).
        let processing = self.cfg.processing.mul_f64(self.slowdown_of[to.index()]);
        SimDuration::from_secs_f64(delay) + processing
    }

    fn on_node_added(&mut self, node: NodeId) {
        self.ensure_placed(node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn constant_is_constant() {
        let mut m = ConstantLatency(SimDuration::from_millis(3));
        assert_eq!(m.sample(n(0), n(1)), SimDuration::from_millis(3));
        assert_eq!(m.sample(n(5), n(9)), SimDuration::from_millis(3));
    }

    #[test]
    fn regional_assigns_round_robin() {
        let mut m = RegionalWan::planetlab(5);
        for i in 0..10 {
            m.on_node_added(n(i));
        }
        assert_eq!(m.region(n(0)), Some(0));
        assert_eq!(m.region(n(4)), Some(4));
        assert_eq!(m.region(n(5)), Some(0));
        assert_eq!(m.region(n(7)), Some(2));
    }

    #[test]
    fn intra_region_faster_than_cross_region_on_average() {
        let mut m = RegionalWan::planetlab(5);
        for i in 0..10 {
            m.on_node_added(n(i));
        }
        let samples = 4000;
        // Nodes 0 and 5 share region 0; nodes 0 and 2 are two regions apart.
        let intra: f64 = (0..samples)
            .map(|_| m.sample(n(0), n(5)).as_secs_f64())
            .sum::<f64>()
            / samples as f64;
        let inter: f64 = (0..samples)
            .map(|_| m.sample(n(0), n(2)).as_secs_f64())
            .sum::<f64>()
            / samples as f64;
        assert!(
            inter > intra * 1.5,
            "intra {intra:.4}s should be well below inter {inter:.4}s"
        );
    }

    #[test]
    fn latency_config_flat_builds_nothing() {
        assert_eq!(LatencyConfig::default(), LatencyConfig::Flat);
        assert!(LatencyConfig::Flat.build(7).is_none());
        let built = LatencyConfig::Constant {
            delay: SimDuration::from_millis(2),
        }
        .build(7);
        let mut m = built.expect("constant builds a model");
        assert_eq!(m.sample(n(0), n(1)), SimDuration::from_millis(2));
    }

    #[test]
    fn latency_config_builds_are_seed_deterministic() {
        let cfg = LatencyConfig::planetlab_2007();
        let mut a = cfg.build(42).expect("wan builds");
        let mut b = cfg.build(42).expect("wan builds");
        for i in 0..64 {
            let (f, t) = (n(i % 8), n((i * 3) % 8));
            assert_eq!(a.sample(f, t), b.sample(f, t));
        }
    }

    #[test]
    fn region_distance_is_ring_metric() {
        let m = RegionalWan::new(
            RegionalWanConfig {
                regions: 6,
                ..RegionalWanConfig::default()
            },
            0,
        );
        assert_eq!(m.region_distance(0, 0), 0);
        assert_eq!(m.region_distance(0, 1), 1);
        assert_eq!(m.region_distance(0, 5), 1); // wraps around
        assert_eq!(m.region_distance(1, 4), 3);
    }
}
