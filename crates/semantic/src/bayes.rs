//! Bayesian mapping-quality assessment by cycle analysis (§3.2).
//!
//! "GridVine uses a Bayesian analysis comparing transitive closures of
//! mappings to assess the quality of the mappings \[3\]. The mappings
//! manually created by the users are always considered as correct in
//! this analysis, while probabilistic correctness values are inferred
//! for mappings that were created automatically. A mapping detected as
//! incorrect is marked as deprecated."
//!
//! Following the authors' ICDE'06 probabilistic-message-passing paper,
//! the implementation:
//!
//! 1. enumerates simple mapping **cycles** up to a length bound (a cycle
//!    is a path of mapping applications returning to its start schema
//!    without re-using a mapping);
//! 2. classifies each cycle by **composing its correspondences**: if
//!    every attribute that survives the full composition returns to
//!    itself the cycle is *consistent* (evidence the mappings on it are
//!    correct); if any attribute returns as a different attribute the
//!    cycle is *inconsistent* (at least one mapping on it is wrong); a
//!    cycle through two copies of one mapping observes nothing, since
//!    a copy composed there and back returns every attribute;
//! 3. runs iterative **belief updates**: for each mapping, each cycle
//!    contributes a likelihood ratio computed from the current beliefs
//!    about the *other* mappings on the cycle; manual mappings are
//!    clamped at probability 1;
//! 4. automatic mappings whose posterior falls below the deprecation
//!    threshold are deprecated via [`apply_assessment`], the one
//!    condemnation path; the periodic assessment pass of the
//!    self-organization round applies it.
//!
//! ## Correspondence to the paper's model
//!
//! | paper (§3.2 / ICDE'06) | here |
//! |---|---|
//! | "transitive closures of mappings" compared around loops | `find_cycles` enumerates simple mapping cycles up to [`BayesConfig::max_cycle_len`]; `compose_cycle` runs the closed-loop attribute composition |
//! | a closure that returns an attribute to itself | [`CycleOutcome::Consistent`] |
//! | a closure that returns a *different* attribute | [`CycleOutcome::Inconsistent`] |
//! | probability an error cancels out by accident | [`BayesConfig::delta`] — P(consistent given some mapping wrong) |
//! | noise from partial correspondences | [`BayesConfig::epsilon`] — P(inconsistent given all correct) |
//! | "manually created … always considered as correct" | manual beliefs clamped at 1.0 each sweep |
//! | "probabilistic correctness values are inferred" | [`assess`] iterates posterior log-odds: prior odds × Π per-cycle likelihood ratios, where each ratio conditions on the product `q` of the current beliefs in the *other* mappings on the cycle |
//! | "a mapping detected as incorrect is marked as deprecated" | [`apply_assessment`] below [`BayesConfig::deprecate_below`] |

use crate::graph::MappingRegistry;
use crate::mapping::{Direction, Mapping, MappingId, Provenance};
use crate::schema::SchemaId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Assessment tunables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BayesConfig {
    /// Prior correctness probability of an automatic mapping.
    pub prior: f64,
    /// P(cycle observed consistent | some mapping on it is wrong):
    /// the chance an error cancels out by accident.
    pub delta: f64,
    /// P(cycle observed inconsistent | all mappings correct): noise
    /// from partial correspondences.
    pub epsilon: f64,
    /// Maximum cycle length considered.
    pub max_cycle_len: usize,
    /// Belief-propagation sweeps.
    pub iterations: usize,
    /// Posterior below which a mapping is deprecated.
    pub deprecate_below: f64,
}

impl Default for BayesConfig {
    fn default() -> Self {
        BayesConfig {
            prior: 0.7,
            delta: 0.1,
            epsilon: 0.05,
            max_cycle_len: 6,
            iterations: 8,
            deprecate_below: 0.4,
        }
    }
}

/// Outcome of composing one cycle's correspondences.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CycleOutcome {
    /// All surviving attributes return to themselves.
    Consistent,
    /// Some attribute returns as a different attribute.
    Inconsistent,
    /// No attribute survives the whole composition: no evidence.
    Unobservable,
}

/// A mapping cycle with its composed outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cycle {
    /// Start (= end) schema.
    pub base: SchemaId,
    /// The mapping applications, in order.
    pub steps: Vec<(MappingId, Direction)>,
    pub outcome: CycleOutcome,
}

/// The result of an assessment pass.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Assessment {
    /// Posterior correctness per assessed mapping.
    pub posteriors: BTreeMap<MappingId, f64>,
    /// Cycles found (with outcomes), for inspection.
    pub cycles: Vec<Cycle>,
}

impl Assessment {
    /// Mappings whose posterior is below the threshold.
    pub fn condemned(&self, threshold: f64) -> Vec<MappingId> {
        self.posteriors
            .iter()
            .filter(|(_, p)| **p < threshold)
            .map(|(id, _)| *id)
            .collect()
    }
}

/// Enumerate simple cycles (no mapping reused, schemas visited at most
/// once except the base) up to `max_len` steps, starting from every
/// schema. Each undirected cycle is reported once, keyed by its mapping
/// set, with the outcome composing it gives.
pub fn find_cycles(registry: &MappingRegistry, max_len: usize) -> Vec<Cycle> {
    let mut seen: BTreeSet<Vec<MappingId>> = BTreeSet::new();
    let mut cycles = Vec::new();
    let schemas: Vec<SchemaId> = registry.schemas().map(|s| s.id().clone()).collect();

    // DFS frame: (current schema, steps so far, visited schemas).
    type Frame = (SchemaId, Vec<(MappingId, Direction)>, BTreeSet<SchemaId>);
    for base in &schemas {
        let mut stack: Vec<Frame> =
            vec![(base.clone(), Vec::new(), BTreeSet::from([base.clone()]))];
        while let Some((at, steps, visited)) = stack.pop() {
            if steps.len() >= max_len {
                continue;
            }
            for (m, dir) in registry.applicable_from(&at) {
                if steps.iter().any(|(id, _)| *id == m.id) {
                    continue; // a mapping may appear once per cycle
                }
                let dest = m.destination(dir).clone();
                if dest == *base {
                    if steps.is_empty() {
                        continue; // self-loop mapping: not a cycle
                    }
                    let mut step_ids: Vec<MappingId> = steps.iter().map(|(id, _)| *id).collect();
                    step_ids.push(m.id);
                    step_ids.sort();
                    if seen.insert(step_ids) {
                        let mut full = steps.clone();
                        full.push((m.id, dir));
                        let outcome = compose_cycle(registry, base, &full);
                        cycles.push(Cycle {
                            base: base.clone(),
                            steps: full,
                            outcome,
                        });
                    }
                    continue;
                }
                if visited.contains(&dest) {
                    continue;
                }
                let mut v = visited.clone();
                v.insert(dest.clone());
                let mut s = steps.clone();
                s.push((m.id, dir));
                stack.push((dest, s, v));
            }
        }
    }
    cycles
}

/// Compose a cycle's correspondences over every attribute of the base
/// schema and classify the outcome. A cycle through two copies of one
/// mapping (equal source, target, kind and correspondences) is
/// unobservable: a copy composed there and back is consistent by
/// construction, so the copies would vouch for each other.
fn compose_cycle(
    registry: &MappingRegistry,
    base: &SchemaId,
    steps: &[(MappingId, Direction)],
) -> CycleOutcome {
    let Some(schema) = registry.schema(base) else {
        return CycleOutcome::Unobservable;
    };
    let Some(mappings) = steps
        .iter()
        .map(|(id, _)| registry.mapping(*id))
        .collect::<Option<Vec<&Mapping>>>()
    else {
        return CycleOutcome::Unobservable;
    };
    let same = |a: &Mapping, b: &Mapping| {
        (&a.source, &a.target, a.kind, &a.correspondences)
            == (&b.source, &b.target, b.kind, &b.correspondences)
    };
    if mappings
        .iter()
        .enumerate()
        .any(|(i, a)| mappings[i + 1..].iter().any(|b| same(a, b)))
    {
        return CycleOutcome::Unobservable;
    }
    let mut observed = false;
    for attr in schema.attributes() {
        let mut cur = attr.clone();
        let mut alive = true;
        for ((_, dir), m) in steps.iter().zip(&mappings) {
            match m.translate(&cur, *dir) {
                Some(next) => cur = next.to_string(),
                None => {
                    alive = false;
                    break;
                }
            }
        }
        if alive {
            observed = true;
            if &cur != attr {
                return CycleOutcome::Inconsistent;
            }
        }
    }
    if observed {
        CycleOutcome::Consistent
    } else {
        CycleOutcome::Unobservable
    }
}

/// Run the iterative Bayesian analysis over all active mappings.
pub fn assess(registry: &MappingRegistry, cfg: &BayesConfig) -> Assessment {
    assess_cycles(registry, find_cycles(registry, cfg.max_cycle_len), cfg)
}

/// The iterative Bayesian analysis over `cycles` (as [`find_cycles`]
/// gives them; an `Unobservable` cycle is no evidence, whatever made it
/// so).
pub fn assess_cycles(
    registry: &MappingRegistry,
    cycles: Vec<Cycle>,
    cfg: &BayesConfig,
) -> Assessment {
    // Initial beliefs.
    let mut belief: BTreeMap<MappingId, f64> = registry
        .active_mappings()
        .map(|m| {
            let p = match m.provenance {
                Provenance::Manual => 1.0,
                Provenance::Automatic => cfg.prior,
            };
            (m.id, p)
        })
        .collect();

    for _ in 0..cfg.iterations {
        let snapshot = belief.clone();
        for (&id, b) in belief.iter_mut() {
            let m = registry.mapping(id).expect("active mapping exists");
            if m.provenance == Provenance::Manual {
                *b = 1.0;
                continue;
            }
            // Posterior odds: prior odds × Π cycle likelihood ratios.
            let prior = cfg.prior.clamp(1e-6, 1.0 - 1e-6);
            let mut log_odds = (prior / (1.0 - prior)).ln();
            for cycle in &cycles {
                if cycle.outcome == CycleOutcome::Unobservable {
                    continue;
                }
                if !cycle.steps.iter().any(|(mid, _)| *mid == id) {
                    continue;
                }
                // Probability that all *other* mappings on the cycle are
                // correct, under current beliefs.
                let q: f64 = cycle
                    .steps
                    .iter()
                    .filter(|(mid, _)| *mid != id)
                    .map(|(mid, _)| snapshot.get(mid).copied().unwrap_or(cfg.prior))
                    .product();
                let p_cons_given_ok = q * (1.0 - cfg.epsilon) + (1.0 - q) * cfg.delta;
                let p_cons_given_bad = cfg.delta;
                let (l_ok, l_bad) = match cycle.outcome {
                    CycleOutcome::Consistent => (p_cons_given_ok, p_cons_given_bad),
                    CycleOutcome::Inconsistent => (1.0 - p_cons_given_ok, 1.0 - p_cons_given_bad),
                    CycleOutcome::Unobservable => unreachable!("filtered above"),
                };
                log_odds += (l_ok.max(1e-9) / l_bad.max(1e-9)).ln();
            }
            let odds = log_odds.exp();
            *b = (odds / (1.0 + odds)).clamp(0.0, 1.0);
        }
    }

    Assessment {
        posteriors: belief,
        cycles,
    }
}

/// Write posteriors back into the registry and deprecate condemned
/// mappings. Returns the deprecated ids.
pub fn apply_assessment(
    registry: &mut MappingRegistry,
    assessment: &Assessment,
    cfg: &BayesConfig,
) -> Vec<MappingId> {
    let mut deprecated = Vec::new();
    for (&id, &p) in &assessment.posteriors {
        if let Some(m) = registry.mapping_mut(id) {
            m.quality = p;
        }
    }
    for id in assessment.condemned(cfg.deprecate_below) {
        if registry
            .mapping(id)
            .map(|m| m.provenance == Provenance::Automatic)
            .unwrap_or(false)
            && registry.deprecate(id)
        {
            deprecated.push(id);
        }
    }
    deprecated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{Correspondence, MappingKind, MappingStatus};
    use crate::schema::Schema;

    /// A directed triangle A→B→C→A over one attribute, with configurable
    /// correctness of the C→A closure. Subsumption mappings keep the
    /// graph analysis directional: removing the closure leaves a path.
    fn triangle(last_correct: bool, provenance: Provenance) -> (MappingRegistry, MappingId) {
        let mut reg = MappingRegistry::new();
        reg.add_schema(Schema::new("A", ["x", "w"]));
        reg.add_schema(Schema::new("B", ["y", "w2"]));
        reg.add_schema(Schema::new("C", ["z", "w3"]));
        reg.add_mapping(
            "A",
            "B",
            MappingKind::Subsumption,
            Provenance::Manual,
            vec![
                Correspondence::new("x", "y"),
                Correspondence::new("w", "w2"),
            ],
        );
        reg.add_mapping(
            "B",
            "C",
            MappingKind::Subsumption,
            Provenance::Manual,
            vec![
                Correspondence::new("y", "z"),
                Correspondence::new("w2", "w3"),
            ],
        );
        let target = if last_correct { "x" } else { "w" };
        let id = reg.add_mapping(
            "C",
            "A",
            MappingKind::Subsumption,
            provenance,
            vec![Correspondence::new("z", target)],
        );
        (reg, id)
    }

    #[test]
    fn finds_the_triangle_cycle() {
        let (reg, _) = triangle(true, Provenance::Automatic);
        let cycles = find_cycles(&reg, 6);
        assert!(!cycles.is_empty());
        // Every reported cycle uses 2 or 3 distinct mappings (the
        // equivalence pair A→B→A is a legitimate 2-cycle through two
        // different mappings only if two distinct mappings connect them
        // — here each pair has one mapping, so all cycles are length 3).
        for c in &cycles {
            assert_eq!(c.steps.len(), 3, "{c:?}");
        }
    }

    #[test]
    fn consistent_triangle_is_consistent() {
        let (reg, _) = triangle(true, Provenance::Automatic);
        let cycles = find_cycles(&reg, 6);
        assert!(cycles.iter().all(|c| c.outcome == CycleOutcome::Consistent));
    }

    #[test]
    fn wrong_closure_is_inconsistent() {
        let (reg, _) = triangle(false, Provenance::Automatic);
        let cycles = find_cycles(&reg, 6);
        assert!(
            cycles
                .iter()
                .any(|c| c.outcome == CycleOutcome::Inconsistent),
            "{cycles:?}"
        );
    }

    #[test]
    fn good_mapping_gains_belief() {
        let (reg, id) = triangle(true, Provenance::Automatic);
        let cfg = BayesConfig::default();
        let a = assess(&reg, &cfg);
        let p = a.posteriors[&id];
        assert!(
            p > cfg.prior,
            "posterior {p} should exceed prior {}",
            cfg.prior
        );
        assert!(a.condemned(cfg.deprecate_below).is_empty());
    }

    #[test]
    fn bad_mapping_loses_belief_and_is_deprecated() {
        let (mut reg, id) = triangle(false, Provenance::Automatic);
        let cfg = BayesConfig::default();
        let a = assess(&reg, &cfg);
        let p = a.posteriors[&id];
        assert!(p < 0.4, "posterior {p} should collapse");
        let deprecated = apply_assessment(&mut reg, &a, &cfg);
        assert_eq!(deprecated, vec![id]);
        assert!(!reg.mapping(id).unwrap().is_active());
        assert_eq!(reg.mapping(id).unwrap().quality, p);
    }

    #[test]
    fn manual_mappings_are_never_deprecated() {
        let (mut reg, id) = triangle(false, Provenance::Manual);
        let cfg = BayesConfig::default();
        let a = assess(&reg, &cfg);
        // Clamped to 1.0 regardless of the inconsistent cycle.
        assert_eq!(a.posteriors[&id], 1.0);
        assert!(apply_assessment(&mut reg, &a, &cfg).is_empty());
        assert!(reg.mapping(id).unwrap().is_active());
    }

    #[test]
    fn no_cycles_means_prior_is_kept() {
        let mut reg = MappingRegistry::new();
        reg.add_schema(Schema::new("A", ["x"]));
        reg.add_schema(Schema::new("B", ["y"]));
        let id = reg.add_mapping(
            "A",
            "B",
            MappingKind::Subsumption,
            Provenance::Automatic,
            vec![Correspondence::new("x", "y")],
        );
        let cfg = BayesConfig::default();
        let a = assess(&reg, &cfg);
        assert!(a.cycles.is_empty());
        assert!((a.posteriors[&id] - cfg.prior).abs() < 1e-9);
    }

    #[test]
    fn unobservable_cycle_carries_no_evidence() {
        // The C→A mapping covers an attribute that never flows around
        // the cycle, so composition observes nothing.
        let mut reg = MappingRegistry::new();
        reg.add_schema(Schema::new("A", ["x"]));
        reg.add_schema(Schema::new("B", ["y"]));
        reg.add_schema(Schema::new("C", ["z", "dead"]));
        reg.add_mapping(
            "A",
            "B",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("x", "y")],
        );
        reg.add_mapping(
            "B",
            "C",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![],
        ); // empty: breaks every composition
        let id = reg.add_mapping(
            "C",
            "A",
            MappingKind::Equivalence,
            Provenance::Automatic,
            vec![Correspondence::new("dead", "x")],
        );
        let cfg = BayesConfig::default();
        let a = assess(&reg, &cfg);
        for c in &a.cycles {
            assert_eq!(c.outcome, CycleOutcome::Unobservable, "{c:?}");
        }
        assert!((a.posteriors[&id] - cfg.prior).abs() < 1e-9);
    }

    #[test]
    fn deprecation_enables_topology_replacement() {
        // The §4 storyline: a bad mapping is deprecated; the graph then
        // reports disconnection, prompting creation of a replacement.
        let (mut reg, id) = triangle(false, Provenance::Automatic);
        let cfg = BayesConfig::default();
        let a = assess(&reg, &cfg);
        apply_assessment(&mut reg, &a, &cfg);
        assert!(!reg.is_strongly_connected());
        // A replacement (correct) mapping restores connectivity.
        reg.add_mapping(
            "C",
            "A",
            MappingKind::Subsumption,
            Provenance::Automatic,
            vec![Correspondence::new("z", "x")],
        );
        assert!(reg.is_strongly_connected());
        let again = assess(&reg, &cfg);
        let replacement_id = reg
            .active_mappings()
            .find(|m| m.source == SchemaId::new("C"))
            .map(|m| m.id)
            .unwrap();
        assert_ne!(replacement_id, id);
        assert!(again.posteriors[&replacement_id] > cfg.prior);
    }

    #[test]
    fn empty_cycle_set_condemns_nothing() {
        // A pure chain has no cycles: every posterior stays at the
        // prior, and applying the assessment touches no status.
        let mut reg = MappingRegistry::new();
        for s in ["A", "B", "C"] {
            reg.add_schema(Schema::new(s, ["x"]));
        }
        for (a, b) in [("A", "B"), ("B", "C")] {
            reg.add_mapping(
                a,
                b,
                MappingKind::Subsumption,
                Provenance::Automatic,
                vec![Correspondence::new("x", "x")],
            );
        }
        let cfg = BayesConfig::default();
        let a = assess(&reg, &cfg);
        assert!(a.cycles.is_empty());
        assert!(apply_assessment(&mut reg, &a, &cfg).is_empty());
        assert_eq!(reg.active_count(), 2);
    }

    #[test]
    fn all_mappings_condemned_when_threshold_exceeds_every_posterior() {
        // With the threshold above every posterior, every automatic
        // mapping is condemned; apply_assessment deprecates them all and
        // only the manual ones survive as active.
        let (mut reg, _) = triangle(false, Provenance::Automatic);
        let cfg = BayesConfig {
            deprecate_below: 0.999,
            ..BayesConfig::default()
        };
        let a = assess(&reg, &cfg);
        let autos: Vec<MappingId> = reg
            .mappings()
            .filter(|m| m.provenance == Provenance::Automatic)
            .map(|m| m.id)
            .collect();
        let condemned = a.condemned(cfg.deprecate_below);
        for id in &autos {
            assert!(condemned.contains(id), "{id} must be condemned");
        }
        let deprecated = apply_assessment(&mut reg, &a, &cfg);
        assert_eq!(deprecated, autos);
        for m in reg.mappings() {
            match m.provenance {
                Provenance::Manual => assert!(m.is_active()),
                _ => assert_eq!(m.status, MappingStatus::Deprecated),
            }
        }
    }

    #[test]
    fn threshold_exactly_at_a_posterior_spares_the_mapping() {
        // condemned() is a strict `<`: a posterior equal to the
        // threshold is NOT condemned.
        let mut a = Assessment::default();
        a.posteriors.insert(MappingId(0), 0.4);
        a.posteriors.insert(MappingId(1), 0.39999);
        assert_eq!(a.condemned(0.4), vec![MappingId(1)]);
        assert!(a.condemned(0.39999).is_empty());
    }

    #[test]
    fn assessment_is_idempotent_on_a_deprecated_registry() {
        // First pass deprecates the bad closure; a second
        // assess+apply_assessment over the already-deprecated registry
        // must change nothing (the deprecated mapping is inactive, so
        // it is outside the new assessment entirely).
        let (mut reg, id) = triangle(false, Provenance::Automatic);
        let cfg = BayesConfig::default();
        let a0 = assess(&reg, &cfg);
        let first = apply_assessment(&mut reg, &a0, &cfg);
        assert_eq!(first, vec![id]);
        assert_eq!(reg.mapping(id).unwrap().status, MappingStatus::Deprecated);

        let statuses: Vec<MappingStatus> = reg.mappings().map(|m| m.status).collect();
        let again = assess(&reg, &cfg);
        assert!(!again.posteriors.contains_key(&id), "inactive: unassessed");
        let second = apply_assessment(&mut reg, &again, &cfg);
        assert!(second.is_empty(), "second pass must be a no-op: {second:?}");
        let statuses_after: Vec<MappingStatus> = reg.mappings().map(|m| m.status).collect();
        assert_eq!(statuses, statuses_after);
    }

    /// A ring of `n` schemas S0 … S`n-1` with two attributes each,
    /// joined by correct automatic equivalences `a_i ↔ a_j`,
    /// `b_i ↔ b_j`; returns the ring's mapping ids.
    fn ring(reg: &mut MappingRegistry, n: usize) -> Vec<MappingId> {
        for i in 0..n {
            reg.add_schema(Schema::new(
                format!("S{i}").as_str(),
                [format!("a{i}"), format!("b{i}")],
            ));
        }
        (0..n)
            .map(|i| {
                let j = (i + 1) % n;
                reg.add_mapping(
                    format!("S{i}").as_str(),
                    format!("S{j}").as_str(),
                    MappingKind::Equivalence,
                    Provenance::Automatic,
                    vec![
                        Correspondence::new(format!("a{i}"), format!("a{j}")),
                        Correspondence::new(format!("b{i}"), format!("b{j}")),
                    ],
                )
            })
            .collect()
    }

    #[test]
    fn larger_network_isolates_the_single_bad_mapping() {
        // Ring of 5 schemas with one extra chord; one automatic mapping
        // is wrong. Only that mapping should be condemned.
        let mut reg = MappingRegistry::new();
        let ids = ring(&mut reg, 5);
        // Chord S0→S2, wrong: maps a0 to b2.
        let bad = reg.add_mapping(
            "S0",
            "S2",
            MappingKind::Equivalence,
            Provenance::Automatic,
            vec![Correspondence::new("a0", "b2")],
        );
        let cfg = BayesConfig {
            max_cycle_len: 5,
            ..BayesConfig::default()
        };
        let a = assess(&reg, &cfg);
        let condemned = a.condemned(cfg.deprecate_below);
        assert!(
            condemned.contains(&bad),
            "bad mapping must be condemned: {a:?}"
        );
        for id in ids {
            assert!(
                !condemned.contains(&id),
                "ring mapping {id} wrongly condemned (p = {})",
                a.posteriors[&id]
            );
        }
    }

    #[test]
    fn two_copies_of_one_wrong_chord_do_not_vouch_for_each_other() {
        // The same ring with two identical copies of a wrong chord
        // S0 → S2. Composing them there and back closes a 2-cycle
        // that is consistent by construction; it is no evidence, so
        // both copies are condemned as a lone copy would be.
        let mut reg = MappingRegistry::new();
        let ids = ring(&mut reg, 5);
        let chord = || {
            vec![
                Correspondence::new("a0", "b2"),
                Correspondence::new("b0", "a2"),
            ]
        };
        let copies: Vec<MappingId> = (0..2)
            .map(|_| {
                reg.add_mapping(
                    "S0",
                    "S2",
                    MappingKind::Equivalence,
                    Provenance::Automatic,
                    chord(),
                )
            })
            .collect();
        let cfg = BayesConfig {
            max_cycle_len: 5,
            ..BayesConfig::default()
        };
        let a = assess(&reg, &cfg);
        let condemned = a.condemned(cfg.deprecate_below);
        assert_eq!(condemned, copies, "{:?}", a.posteriors);
        for id in ids {
            assert!(!condemned.contains(&id));
        }
        let there_and_back = a
            .cycles
            .iter()
            .find(|c| c.steps.len() == 2)
            .expect("the copies close a 2-cycle");
        assert_eq!(there_and_back.outcome, CycleOutcome::Unobservable);
    }
}
