//! Deterministic semantic-fault injection: stale, corrupted and
//! Byzantine mappings gossiped into the [`MappingRegistry`].
//!
//! The [`gridvine_netsim`-level fault model] makes the *wire*
//! adversarial; this module extends the adversary to the mediation
//! layer itself. Where a network fault corrupts *delivery*, a semantic
//! fault corrupts *meaning*: the mapping network accumulates edges that
//! are well-formed (they type-check against the registered schemas) but
//! wrong, and only the Bayesian cycle analysis ([`crate::bayes`]) can
//! tell. Three dimensions, each drawn at its configured rate per
//! gossip round:
//!
//! * **stale** — an epoch-lagged copy of a *deprecated* edge is
//!   re-gossiped as if it were still current: a peer that missed the
//!   deprecation keeps spreading the retired mapping;
//! * **corrupted** — an active mapping is re-gossiped with its
//!   [`Correspondence`] attribute pairs permuted: every attribute still
//!   belongs to the right schema, so nothing but cycle evidence exposes
//!   the swap;
//! * **Byzantine** — a designated adversarial peer fabricates an edge
//!   between two random schemas with arbitrary (type-checking)
//!   correspondences, labelled [`Provenance::Byzantine`] purely as
//!   ground truth for experiments — detection never reads the label.
//!
//! Like [`FaultModel`](../../gridvine_netsim/fault/struct.FaultModel.html),
//! the adversary owns a dedicated RNG stream derived from the system
//! seed, and every draw is gated on its rate being non-zero: a *null*
//! config consumes no randomness at all, so enabling the module leaves
//! fault-free runs bit-identical.

use crate::graph::MappingRegistry;
use crate::mapping::{Correspondence, MappingId, MappingKind, MappingStatus, Provenance};
use crate::schema::SchemaId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Mediation-layer fault rates plus the designated adversarial peers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SemanticFaultConfig {
    /// Per-round probability that a deprecated mapping is re-gossiped
    /// as an active copy. In `[0, 1]`.
    pub stale: f64,
    /// Per-round probability that an active mapping is re-gossiped
    /// with permuted correspondences. In `[0, 1]`.
    pub corrupt: f64,
    /// Per-round, per-adversarial-peer probability of fabricating an
    /// edge between two random schemas. In `[0, 1]`.
    pub byzantine: f64,
    /// Peer indices acting Byzantine. Must be non-empty when
    /// `byzantine > 0`.
    pub adversaries: Vec<usize>,
}

impl Default for SemanticFaultConfig {
    fn default() -> Self {
        SemanticFaultConfig::none()
    }
}

impl SemanticFaultConfig {
    /// The null adversary: no injection, zero randomness consumed.
    pub fn none() -> SemanticFaultConfig {
        SemanticFaultConfig {
            stale: 0.0,
            corrupt: 0.0,
            byzantine: 0.0,
            adversaries: Vec::new(),
        }
    }

    /// Stale re-gossip at probability `p`, other dimensions off.
    pub fn stale(p: f64) -> SemanticFaultConfig {
        SemanticFaultConfig {
            stale: p,
            ..SemanticFaultConfig::none()
        }
    }

    /// Correspondence permutation at probability `p`, other dimensions
    /// off.
    pub fn corrupting(p: f64) -> SemanticFaultConfig {
        SemanticFaultConfig {
            corrupt: p,
            ..SemanticFaultConfig::none()
        }
    }

    /// Byzantine fabrication at probability `p` from the given peers.
    pub fn byzantine(p: f64, adversaries: Vec<usize>) -> SemanticFaultConfig {
        SemanticFaultConfig {
            byzantine: p,
            adversaries,
            ..SemanticFaultConfig::none()
        }
    }

    /// Whether this config can never inject anything (fast path: the
    /// system skips adversary processing entirely).
    pub fn is_null(&self) -> bool {
        self.stale == 0.0 && self.corrupt == 0.0 && self.byzantine == 0.0
    }

    /// Panic unless every rate is in `[0, 1]` and a non-zero Byzantine
    /// rate names at least one adversarial peer.
    /// [`SemanticAdversary::new`] calls this; consumers embedding the
    /// config in their own state should too.
    pub fn validate(&self) {
        assert!(
            (0.0..=1.0).contains(&self.stale),
            "stale gossip probability must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.corrupt),
            "corrupt gossip probability must be in [0, 1]"
        );
        assert!(
            (0.0..=1.0).contains(&self.byzantine),
            "byzantine probability must be in [0, 1]"
        );
        assert!(
            self.byzantine == 0.0 || !self.adversaries.is_empty(),
            "a non-zero byzantine rate needs designated adversarial peers"
        );
    }
}

/// Running injection counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SemanticFaultCounters {
    pub stale: u64,
    pub corrupted: u64,
    pub fabricated: u64,
}

/// What kind of fault one injected mapping is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedKind {
    /// Re-gossiped copy of a deprecated edge.
    Stale,
    /// Permuted-correspondence copy of an active edge.
    Corrupted,
    /// Fabricated edge from the adversarial peer with this index.
    Byzantine(usize),
}

/// One mapping the adversary injected this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    pub id: MappingId,
    pub kind: InjectedKind,
}

/// Stateful semantic adversary: the config plus its own deterministic
/// RNG stream and running counters.
#[derive(Debug)]
pub struct SemanticAdversary {
    cfg: SemanticFaultConfig,
    rng: StdRng,
    counters: SemanticFaultCounters,
}

/// The adversary's RNG stream label (netsim uses `0xFA17` for wire
/// faults, the core retry protocol `0xB0FF`, churn `0xC0_11AB1E`).
const STREAM: u64 = 0x5EED_0BAD;

/// Derive an independent child RNG from a parent seed and a stream
/// label — the same SplitMix64 mix as `gridvine_netsim::rng::derive`,
/// duplicated here so the pure mediation-logic crate does not depend on
/// the network simulator. Stream labels share one namespace across the
/// workspace.
fn derive(seed: u64, stream: u64) -> StdRng {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    StdRng::seed_from_u64(z)
}

impl SemanticAdversary {
    /// Build an adversary from a validated config; the RNG stream is
    /// derived from the system seed so injection draws never collide
    /// with routing, protocol or wire-fault randomness.
    pub fn new(cfg: SemanticFaultConfig, seed: u64) -> SemanticAdversary {
        cfg.validate();
        SemanticAdversary {
            rng: derive(seed, STREAM),
            cfg,
            counters: SemanticFaultCounters::default(),
        }
    }

    /// Whether this adversary can never inject anything.
    pub fn is_null(&self) -> bool {
        self.cfg.is_null()
    }

    /// Injection counts so far.
    pub fn counters(&self) -> SemanticFaultCounters {
        self.counters
    }

    pub fn config(&self) -> &SemanticFaultConfig {
        &self.cfg
    }

    /// Run one gossip round against the registry: each dimension fires
    /// independently at its rate and registers its injected mapping(s).
    /// Draws are gated on non-zero rates so disabled dimensions consume
    /// no randomness. Returns what was injected (the caller is
    /// responsible for publishing DHT copies of the new mappings, so
    /// injected edges are observable by query reformulation too).
    pub fn gossip_round(&mut self, registry: &mut MappingRegistry) -> Vec<Injection> {
        let mut out = Vec::new();
        if self.cfg.stale > 0.0 && self.rng.gen::<f64>() < self.cfg.stale {
            if let Some(id) = self.inject_stale(registry) {
                self.counters.stale += 1;
                out.push(Injection {
                    id,
                    kind: InjectedKind::Stale,
                });
            }
        }
        if self.cfg.corrupt > 0.0 && self.rng.gen::<f64>() < self.cfg.corrupt {
            if let Some(id) = self.inject_corrupted(registry) {
                self.counters.corrupted += 1;
                out.push(Injection {
                    id,
                    kind: InjectedKind::Corrupted,
                });
            }
        }
        if self.cfg.byzantine > 0.0 {
            let adversaries = self.cfg.adversaries.clone();
            for peer in adversaries {
                if self.rng.gen::<f64>() < self.cfg.byzantine {
                    if let Some(id) = self.inject_byzantine(registry) {
                        self.counters.fabricated += 1;
                        out.push(Injection {
                            id,
                            kind: InjectedKind::Byzantine(peer),
                        });
                    }
                }
            }
        }
        out
    }

    /// Re-gossip a deprecated edge as an active copy. The copy carries
    /// [`Provenance::Automatic`]: an unsigned gossiped copy cannot
    /// claim manual trust, so the quality layer is allowed to condemn
    /// it.
    fn inject_stale(&mut self, registry: &mut MappingRegistry) -> Option<MappingId> {
        let candidates: Vec<MappingId> = registry
            .mappings()
            .filter(|m| m.status == MappingStatus::Deprecated)
            .map(|m| m.id)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let pick = candidates[self.rng.gen_range(0..candidates.len())];
        let old = registry.mapping(pick).expect("candidate exists").clone();
        Some(registry.add_mapping(
            old.source,
            old.target,
            old.kind,
            Provenance::Automatic,
            old.correspondences,
        ))
    }

    /// Re-gossip an active mapping with its correspondence targets
    /// rotated by one: every pair still names real attributes of the
    /// right schemas (it type-checks), but the meaning is scrambled.
    fn inject_corrupted(&mut self, registry: &mut MappingRegistry) -> Option<MappingId> {
        let candidates: Vec<MappingId> = registry
            .active_mappings()
            .filter(|m| m.correspondences.len() >= 2)
            .map(|m| m.id)
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let pick = candidates[self.rng.gen_range(0..candidates.len())];
        let old = registry.mapping(pick).expect("candidate exists").clone();
        let mut targets: Vec<String> = old
            .correspondences
            .iter()
            .map(|c| c.target_attr.clone())
            .collect();
        targets.rotate_left(1);
        let corrupted: Vec<Correspondence> = old
            .correspondences
            .iter()
            .zip(targets)
            .map(|(c, t)| Correspondence::new(c.source_attr.clone(), t))
            .collect();
        Some(registry.add_mapping(
            old.source,
            old.target,
            old.kind,
            Provenance::Automatic,
            corrupted,
        ))
    }

    /// Fabricate an equivalence edge between two random distinct
    /// schemas, pairing each source attribute with a random attribute
    /// of the target schema.
    fn inject_byzantine(&mut self, registry: &mut MappingRegistry) -> Option<MappingId> {
        let schemas: Vec<SchemaId> = registry.schemas().map(|s| s.id().clone()).collect();
        if schemas.len() < 2 {
            return None;
        }
        let a = self.rng.gen_range(0..schemas.len());
        let mut b = self.rng.gen_range(0..schemas.len() - 1);
        if b >= a {
            b += 1;
        }
        let (source, target) = (schemas[a].clone(), schemas[b].clone());
        let source_attrs = registry.schema(&source)?.attributes().to_vec();
        let target_attrs = registry.schema(&target)?.attributes().to_vec();
        if source_attrs.is_empty() || target_attrs.is_empty() {
            return None;
        }
        let correspondences: Vec<Correspondence> = source_attrs
            .into_iter()
            .map(|s| {
                let t = target_attrs[self.rng.gen_range(0..target_attrs.len())].clone();
                Correspondence::new(s, t)
            })
            .collect();
        Some(registry.add_mapping(
            source,
            target,
            MappingKind::Equivalence,
            Provenance::Byzantine,
            correspondences,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn registry(schemas: usize, chain: usize) -> MappingRegistry {
        let mut reg = MappingRegistry::new();
        for i in 0..schemas {
            reg.add_schema(Schema::new(format!("S{i}").as_str(), ["a", "b"]));
        }
        for i in 0..chain.min(schemas.saturating_sub(1)) {
            reg.add_mapping(
                format!("S{i}").as_str(),
                format!("S{}", i + 1).as_str(),
                MappingKind::Equivalence,
                Provenance::Manual,
                vec![Correspondence::new("a", "a"), Correspondence::new("b", "b")],
            );
        }
        reg
    }

    #[test]
    fn null_adversary_injects_nothing() {
        let mut adv = SemanticAdversary::new(SemanticFaultConfig::none(), 7);
        assert!(adv.is_null());
        let mut reg = registry(4, 3);
        let before = (reg.epoch(), reg.mapping_count());
        for _ in 0..50 {
            assert!(adv.gossip_round(&mut reg).is_empty());
        }
        assert_eq!((reg.epoch(), reg.mapping_count()), before);
        assert_eq!(adv.counters(), SemanticFaultCounters::default());
    }

    #[test]
    fn stale_reinjects_a_deprecated_edge() {
        let mut reg = registry(3, 2);
        let dead = reg.mappings().next().map(|m| m.id).unwrap();
        let (src, tgt) = {
            let m = reg.mapping(dead).unwrap();
            (m.source.clone(), m.target.clone())
        };
        reg.deprecate(dead);
        let mut adv = SemanticAdversary::new(SemanticFaultConfig::stale(1.0), 3);
        let injected = adv.gossip_round(&mut reg);
        assert_eq!(injected.len(), 1);
        assert_eq!(injected[0].kind, InjectedKind::Stale);
        let copy = reg.mapping(injected[0].id).unwrap();
        assert!(copy.is_active());
        assert_eq!((&copy.source, &copy.target), (&src, &tgt));
        assert_eq!(copy.provenance, Provenance::Automatic);
        assert_eq!(adv.counters().stale, 1);
    }

    #[test]
    fn stale_with_no_deprecated_candidates_is_a_noop() {
        let mut reg = registry(3, 2);
        let mut adv = SemanticAdversary::new(SemanticFaultConfig::stale(1.0), 3);
        assert!(adv.gossip_round(&mut reg).is_empty());
        assert_eq!(adv.counters().stale, 0);
    }

    #[test]
    fn corrupted_copy_permutes_but_still_type_checks() {
        let mut reg = registry(3, 2);
        let mut adv = SemanticAdversary::new(SemanticFaultConfig::corrupting(1.0), 5);
        let injected = adv.gossip_round(&mut reg);
        assert_eq!(injected.len(), 1);
        let copy = reg.mapping(injected[0].id).unwrap().clone();
        let original = reg
            .mappings()
            .find(|m| {
                m.id != copy.id && m.source == copy.source && m.provenance == Provenance::Manual
            })
            .unwrap();
        // Same edge, same source attributes, permuted targets.
        assert_eq!(copy.target, original.target);
        assert_ne!(copy.correspondences, original.correspondences);
        let target_attrs = reg.schema(&copy.target).unwrap().attributes().to_vec();
        for c in &copy.correspondences {
            assert!(target_attrs.contains(&c.target_attr), "{c:?} type-checks");
        }
    }

    #[test]
    fn byzantine_fabricates_from_designated_peers() {
        let mut reg = registry(5, 0);
        let mut adv = SemanticAdversary::new(SemanticFaultConfig::byzantine(1.0, vec![3, 9]), 11);
        let injected = adv.gossip_round(&mut reg);
        assert_eq!(injected.len(), 2, "both adversaries fire at rate 1.0");
        let peers: Vec<usize> = injected
            .iter()
            .map(|i| match i.kind {
                InjectedKind::Byzantine(p) => p,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(peers, vec![3, 9]);
        for i in &injected {
            let m = reg.mapping(i.id).unwrap();
            assert_eq!(m.provenance, Provenance::Byzantine);
            assert_ne!(m.source, m.target);
            let target_attrs = reg.schema(&m.target).unwrap().attributes().to_vec();
            for c in &m.correspondences {
                assert!(target_attrs.contains(&c.target_attr));
            }
        }
    }

    #[test]
    fn identical_seeds_identical_injections() {
        let run = |seed: u64| {
            let mut reg = registry(6, 4);
            let dead = reg.mappings().next().map(|m| m.id).unwrap();
            reg.deprecate(dead);
            let mut adv = SemanticAdversary::new(
                SemanticFaultConfig {
                    stale: 0.4,
                    corrupt: 0.4,
                    byzantine: 0.4,
                    adversaries: vec![1, 2],
                },
                seed,
            );
            let mut all = Vec::new();
            for _ in 0..30 {
                all.extend(adv.gossip_round(&mut reg));
            }
            all
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12));
    }

    #[test]
    fn disabled_dimensions_consume_no_randomness() {
        // A stale-only run must make exactly the same injections as a
        // run whose corrupt/byzantine draws are gated out — the stale
        // stream does not shift when other dimensions are disabled.
        let run = |cfg: SemanticFaultConfig| {
            let mut reg = registry(5, 3);
            let dead = reg.mappings().next().map(|m| m.id).unwrap();
            reg.deprecate(dead);
            let mut adv = SemanticAdversary::new(cfg, 4);
            let mut all = Vec::new();
            for _ in 0..40 {
                all.extend(adv.gossip_round(&mut reg).iter().map(|i| i.kind));
            }
            all
        };
        assert_eq!(
            run(SemanticFaultConfig::stale(0.3)),
            run(SemanticFaultConfig {
                stale: 0.3,
                corrupt: 0.0,
                byzantine: 0.0,
                adversaries: vec![],
            })
        );
    }

    #[test]
    #[should_panic(expected = "stale gossip probability")]
    fn rejects_invalid_stale_rate() {
        let _ = SemanticAdversary::new(
            SemanticFaultConfig {
                stale: 1.5,
                ..SemanticFaultConfig::none()
            },
            0,
        );
    }

    #[test]
    #[should_panic(expected = "designated adversarial peers")]
    fn rejects_byzantine_without_adversaries() {
        let _ = SemanticAdversary::new(SemanticFaultConfig::byzantine(0.5, vec![]), 0);
    }
}
