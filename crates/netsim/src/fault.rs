//! Deterministic message-fault injection: loss, duplication, reorder.
//!
//! The latency models answer *when* a message arrives; the fault model
//! answers *whether* and *how many times*. Composed inside
//! [`crate::network::Network`], it turns the simulator from a reliable
//! delayed channel into the unreliable wide-area substrate the paper
//! assumes ("highly unreliable, dynamic environments", §2.1): messages
//! may be silently dropped, delivered twice, or overtaken by later
//! traffic.
//!
//! A message copy's fate is decided at send time by [`FaultModel::apply`]:
//!
//! ```text
//!              ┌── loss draw ──► dropped (no copies)
//!   send ──────┤
//!              └── delivered ──► 1 copy (+ reorder jitter on the delay)
//!                       │
//!                       └── duplication draw ──► +1 extra copy
//! ```
//!
//! Every draw comes from the model's own RNG stream (derived from the
//! network seed), so enabling faults never perturbs latency sampling or
//! protocol randomness — a run with a *null* fault config is bit-identical
//! to a run on a fault-free network, and a faulty run is reproducible from
//! its seed. Draws are gated on the corresponding probability being
//! non-zero: a config with `duplication == 0` consumes no duplication
//! randomness, so fault dimensions are independently toggleable without
//! shifting each other's streams.
//!
//! Per-link overrides ([`LinkFault`]) are *directional*, which models
//! asymmetric links: `a → b` can be lossy while `b → a` is clean.

use crate::clock::SimDuration;
use crate::node::NodeId;
use crate::rng;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Fault parameters for one direction of one link (overrides the base
/// [`FaultConfig`] rates for messages from `from` to `to`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkFault {
    /// Sender node index.
    pub from: usize,
    /// Receiver node index.
    pub to: usize,
    /// Loss probability on this direction.
    pub loss: f64,
    /// Duplication probability on this direction.
    pub duplication: f64,
    /// Reorder probability on this direction.
    pub reorder: f64,
}

impl LinkFault {
    /// A one-directional lossy link with duplication and reorder
    /// disabled on that direction.
    pub fn lossy(from: usize, to: usize, loss: f64) -> LinkFault {
        LinkFault {
            from,
            to,
            loss,
            duplication: 0.0,
            reorder: 0.0,
        }
    }
}

/// Network-wide fault rates plus directional per-link overrides.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Independent probability that a message is dropped. Must be in
    /// `[0, 1)`.
    pub loss: f64,
    /// Probability that a delivered message arrives twice. In `[0, 1]`.
    pub duplication: f64,
    /// Probability that a delivered copy is held back by extra jitter,
    /// letting messages sent after it overtake it. In `[0, 1]`.
    pub reorder: f64,
    /// Maximum extra delay added to a reordered (or duplicated) copy.
    pub reorder_jitter: SimDuration,
    /// Directional overrides for specific links (asymmetric links). A
    /// message whose `(from, to)` matches an entry uses that entry's
    /// rates instead of the base rates.
    pub links: Vec<LinkFault>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

impl FaultConfig {
    /// The null model: every message delivered exactly once, in order.
    pub fn none() -> FaultConfig {
        FaultConfig {
            loss: 0.0,
            duplication: 0.0,
            reorder: 0.0,
            reorder_jitter: SimDuration::from_millis(50),
            links: Vec::new(),
        }
    }

    /// Uniform loss at probability `p`.
    pub fn lossy(p: f64) -> FaultConfig {
        FaultConfig {
            loss: p,
            ..FaultConfig::none()
        }
    }

    /// Uniform duplication at probability `p`.
    pub fn duplicating(p: f64) -> FaultConfig {
        FaultConfig {
            duplication: p,
            ..FaultConfig::none()
        }
    }

    /// Uniform reordering: each copy is delayed by up to `jitter` with
    /// probability `p`.
    pub fn reordering(p: f64, jitter: SimDuration) -> FaultConfig {
        FaultConfig {
            reorder: p,
            reorder_jitter: jitter,
            ..FaultConfig::none()
        }
    }

    /// Whether this config can never alter a delivery (fast path: the
    /// network skips fault processing entirely).
    pub fn is_null(&self) -> bool {
        self.loss == 0.0 && self.duplication == 0.0 && self.reorder == 0.0 && self.links.is_empty()
    }

    /// Panic unless every rate is in range (loss in `[0, 1)`, the
    /// rest in `[0, 1]`), as [`FaultModel::new`] does.
    fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.loss),
            "fault loss probability must be in [0, 1)"
        );
        assert!(
            (0.0..=1.0).contains(&self.duplication),
            "duplication probability must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.reorder),
            "reorder probability must be in [0, 1]"
        );
        for l in &self.links {
            assert!(
                (0.0..1.0).contains(&l.loss),
                "link loss probability must be in [0, 1)"
            );
            assert!(
                (0.0..=1.0).contains(&l.duplication),
                "link duplication probability must be in [0, 1]"
            );
            assert!(
                (0.0..=1.0).contains(&l.reorder),
                "link reorder probability must be in [0, 1]"
            );
        }
    }
}

/// The fate of one sent message: extra delay for each copy that will be
/// delivered. Empty means the message was lost.
#[derive(Debug, Clone, Default)]
pub struct Delivery {
    /// One entry per delivered copy: extra delay charged on top of the
    /// latency model's sample.
    pub copies: Vec<SimDuration>,
}

/// Stateful fault process: the config plus its own deterministic RNG
/// stream.
#[derive(Debug)]
pub struct FaultModel {
    cfg: FaultConfig,
    rng: StdRng,
}

impl FaultModel {
    /// Build a model from a validated config; the RNG stream is derived
    /// from the network seed so fault draws never collide with latency
    /// or protocol randomness.
    pub fn new(cfg: FaultConfig, seed: u64) -> FaultModel {
        cfg.validate();
        FaultModel {
            cfg,
            rng: rng::derive(seed, 0xFA17),
        }
    }

    /// Whether this model can never alter a delivery.
    pub fn is_null(&self) -> bool {
        self.cfg.is_null()
    }

    fn rates(&self, from: NodeId, to: NodeId) -> (f64, f64, f64) {
        for l in &self.cfg.links {
            if l.from == from.index() && l.to == to.index() {
                return (l.loss, l.duplication, l.reorder);
            }
        }
        (self.cfg.loss, self.cfg.duplication, self.cfg.reorder)
    }

    fn jitter(&mut self) -> SimDuration {
        let max = self.cfg.reorder_jitter.0;
        if max == 0 {
            return SimDuration::ZERO;
        }
        SimDuration(self.rng.gen_range(0..=max))
    }

    /// Decide the fate of one message from `from` to `to`. Draws are
    /// gated on non-zero rates so disabled fault dimensions consume no
    /// randomness.
    pub fn apply(&mut self, from: NodeId, to: NodeId) -> Delivery {
        let (loss, duplication, reorder) = self.rates(from, to);
        if loss > 0.0 && self.rng.gen::<f64>() < loss {
            return Delivery::default();
        }
        let mut first = SimDuration::ZERO;
        if reorder > 0.0 && self.rng.gen::<f64>() < reorder {
            first = self.jitter();
        }
        let mut copies = vec![first];
        if duplication > 0.0 && self.rng.gen::<f64>() < duplication {
            // The duplicate trails the original by its own jitter draw.
            copies.push(first + self.jitter());
        }
        Delivery { copies }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn null_model_delivers_exactly_once() {
        let mut m = FaultModel::new(FaultConfig::none(), 7);
        for _ in 0..100 {
            let d = m.apply(n(0), n(1));
            assert_eq!(d.copies, vec![SimDuration::ZERO]);
        }
    }

    #[test]
    fn loss_rate_roughly_matches() {
        let mut m = FaultModel::new(FaultConfig::lossy(0.25), 3);
        let trials = 10_000;
        let mut lost = 0usize;
        for _ in 0..trials {
            if m.apply(n(0), n(1)).copies.is_empty() {
                lost += 1;
            }
        }
        let rate = lost as f64 / trials as f64;
        assert!((rate - 0.25).abs() < 0.02, "loss rate {rate}");
    }

    #[test]
    fn duplication_produces_two_copies() {
        let mut m = FaultModel::new(FaultConfig::duplicating(1.0), 5);
        let d = m.apply(n(0), n(1));
        assert_eq!(d.copies.len(), 2);
    }

    #[test]
    fn reorder_adds_bounded_jitter() {
        let jitter = SimDuration::from_millis(10);
        let mut m = FaultModel::new(FaultConfig::reordering(1.0, jitter), 9);
        for _ in 0..500 {
            let d = m.apply(n(0), n(1));
            assert_eq!(d.copies.len(), 1);
            assert!(d.copies[0] <= jitter);
        }
    }

    #[test]
    fn link_overrides_are_directional() {
        let cfg = FaultConfig {
            links: vec![LinkFault::lossy(0, 1, 0.999)],
            ..FaultConfig::none()
        };
        let mut m = FaultModel::new(cfg, 2);
        let mut forward_lost = 0usize;
        for _ in 0..200 {
            if m.apply(n(0), n(1)).copies.is_empty() {
                forward_lost += 1;
            }
            // The reverse direction uses the (lossless) base rates.
            assert_eq!(m.apply(n(1), n(0)).copies.len(), 1);
        }
        assert!(forward_lost > 150, "forward lost only {forward_lost}/200");
    }

    #[test]
    fn identical_seeds_identical_fates() {
        let run = |seed: u64| {
            let mut m = FaultModel::new(
                FaultConfig {
                    loss: 0.2,
                    duplication: 0.2,
                    reorder: 0.5,
                    ..FaultConfig::none()
                },
                seed,
            );
            (0..300)
                .map(|i| m.apply(n(i % 7), n(i % 5)).copies)
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn disabled_dimensions_consume_no_randomness() {
        // A loss-only config must make exactly the same loss decisions
        // whether or not duplication/reorder are *configured off* — i.e.
        // the loss stream does not shift when other draws are gated out.
        let fates = |cfg: FaultConfig| {
            let mut m = FaultModel::new(cfg, 4);
            (0..500)
                .map(|_| m.apply(n(0), n(1)).copies.is_empty())
                .collect::<Vec<bool>>()
        };
        let plain = fates(FaultConfig::lossy(0.3));
        let with_zero_dup = fates(FaultConfig {
            loss: 0.3,
            duplication: 0.0,
            reorder: 0.0,
            ..FaultConfig::none()
        });
        assert_eq!(plain, with_zero_dup);
    }

    #[test]
    #[should_panic(expected = "loss probability")]
    fn rejects_invalid_loss() {
        let _ = FaultModel::new(FaultConfig::lossy(1.0), 0);
    }
}
