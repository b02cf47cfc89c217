//! Mapping composition along paths (§3.2, §4).
//!
//! "The deprecation of mappings fosters the creation of a new topology
//! of mappings" and deprecated mappings "are gradually replaced by other
//! mapping paths" (§4). Composition is the mechanism that turns a
//! *path* of mappings into a single direct mapping: if `A#x ↦ B#y` and
//! `B#y ↦ C#z`, then `A#x ↦ C#z`. The same transitive-closure machinery
//! underlies the Bayesian cycle analysis of [`crate::bayes`].
//!
//! [`compose_path`] is pure — it reads the registry and returns the
//! *description* of the composed mapping; actually registering it (and
//! publishing it into the DHT) is the caller's job, because in GridVine
//! a mapping insertion is a mediation-layer `Update` with message costs.

use crate::graph::MappingRegistry;
use crate::mapping::{Correspondence, Direction, Mapping, MappingKind};
use crate::reformulate::Step;
use crate::schema::SchemaId;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, VecDeque};

/// The description of a mapping obtained by composing a path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Composed {
    pub source: SchemaId,
    pub target: SchemaId,
    /// `Equivalence` iff every step was applied as an equivalence (so
    /// the composite translates both ways); otherwise `Subsumption`.
    pub kind: MappingKind,
    pub correspondences: Vec<Correspondence>,
    /// Product of the step qualities — composing degrades confidence.
    pub quality: f64,
    /// The steps the composite summarizes (for provenance/debugging).
    pub path: Vec<Step>,
}

/// A mapping viewed in its direction of application: an effective
/// (source, target, correspondence) triple.
fn effective(m: &Mapping, dir: Direction) -> Option<(SchemaId, SchemaId, Vec<Correspondence>)> {
    match dir {
        Direction::Forward => Some((
            m.source.clone(),
            m.target.clone(),
            m.correspondences.clone(),
        )),
        Direction::Backward => {
            if m.kind != MappingKind::Equivalence {
                return None; // subsumption does not reverse
            }
            Some((
                m.target.clone(),
                m.source.clone(),
                m.correspondences
                    .iter()
                    .map(|c| Correspondence::new(c.target_attr.clone(), c.source_attr.clone()))
                    .collect(),
            ))
        }
    }
}

/// Compose two effective correspondence lists: `x ↦ z` exists iff some
/// middle attribute `y` has both `x ↦ y` and `y ↦ z`.
fn compose_correspondences(
    first: &[Correspondence],
    second: &[Correspondence],
) -> Vec<Correspondence> {
    let mut out = Vec::new();
    for a in first {
        for b in second {
            if a.target_attr == b.source_attr {
                out.push(Correspondence::new(
                    a.source_attr.clone(),
                    b.target_attr.clone(),
                ));
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Compose a path of (mapping, direction) steps into one direct mapping
/// description.
///
/// ```
/// use gridvine_semantic::{compose_path, Correspondence, Direction,
///     MappingKind, MappingRegistry, Provenance, Schema, Step};
///
/// let mut reg = MappingRegistry::new();
/// for (s, a) in [("EMBL", "Organism"), ("EMP", "SystematicName"), ("PDB", "Species")] {
///     reg.add_schema(Schema::new(s, [a]));
/// }
/// let m1 = reg.add_mapping("EMBL", "EMP", MappingKind::Equivalence, Provenance::Manual,
///     vec![Correspondence::new("Organism", "SystematicName")]);
/// let m2 = reg.add_mapping("EMP", "PDB", MappingKind::Equivalence, Provenance::Manual,
///     vec![Correspondence::new("SystematicName", "Species")]);
///
/// let path = [Step { mapping: m1, direction: Direction::Forward },
///             Step { mapping: m2, direction: Direction::Forward }];
/// let direct = compose_path(&reg, &path).expect("chains");
/// assert_eq!(direct.correspondences,
///     vec![Correspondence::new("Organism", "Species")]);
/// ```
///
/// Returns `None` when the path is shorter than two steps, any step is
/// missing/deprecated/irreversible, consecutive steps do not chain
/// (`target(i) ≠ source(i+1)`), the path is not simple (revisits a
/// schema — composites around cycles assess mappings, they don't define
/// new ones), or the composed correspondence set is empty.
pub fn compose_path(registry: &MappingRegistry, path: &[Step]) -> Option<Composed> {
    if path.len() < 2 {
        return None;
    }
    let mut acc: Option<(SchemaId, SchemaId, Vec<Correspondence>)> = None;
    let mut kind = MappingKind::Equivalence;
    let mut quality = 1.0f64;
    let mut seen: BTreeSet<SchemaId> = BTreeSet::new();
    for step in path {
        let m = registry.mapping(step.mapping)?;
        if !m.is_active() {
            return None;
        }
        if m.kind != MappingKind::Equivalence {
            kind = MappingKind::Subsumption;
        }
        quality *= m.quality;
        let (src, dst, corrs) = effective(m, step.direction)?;
        acc = Some(match acc {
            None => {
                seen.insert(src.clone());
                seen.insert(dst.clone());
                (src, dst, corrs)
            }
            Some((first_src, prev_dst, prev_corrs)) => {
                if prev_dst != src || !seen.insert(dst.clone()) {
                    return None;
                }
                (first_src, dst, compose_correspondences(&prev_corrs, &corrs))
            }
        });
    }
    let (source, target, correspondences) = acc?;
    if correspondences.is_empty() {
        return None;
    }
    Some(Composed {
        source,
        target,
        kind,
        correspondences,
        quality,
        path: path.to_vec(),
    })
}

/// Shortest active mapping path `from → to` (BFS over the directed
/// application graph), or `None` when unreachable. Paths of length one
/// are returned too — callers wanting a *replacement* for a direct
/// mapping should exclude the deprecated mapping before searching (a
/// deprecated mapping is inactive, so BFS never uses it).
pub fn find_path(registry: &MappingRegistry, from: &SchemaId, to: &SchemaId) -> Option<Vec<Step>> {
    if from == to {
        return Some(Vec::new());
    }
    let mut visited: BTreeSet<SchemaId> = BTreeSet::new();
    visited.insert(from.clone());
    let mut frontier: VecDeque<(SchemaId, Vec<Step>)> = VecDeque::new();
    frontier.push_back((from.clone(), Vec::new()));
    while let Some((at, path)) = frontier.pop_front() {
        for (m, dir) in registry.applicable_from(&at) {
            let dest = m.destination(dir).clone();
            if !visited.insert(dest.clone()) {
                continue;
            }
            let mut next = path.clone();
            next.push(Step {
                mapping: m.id,
                direction: dir,
            });
            if dest == *to {
                return Some(next);
            }
            frontier.push_back((dest, next));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::Provenance;
    use crate::schema::Schema;
    use proptest::prelude::*;

    /// S0 —m0— S1 —m1— S2 (equivalences, aligned attributes a0/a1/a2).
    fn chain(n: usize) -> (MappingRegistry, Vec<crate::mapping::MappingId>) {
        let mut reg = MappingRegistry::new();
        for i in 0..=n {
            reg.add_schema(Schema::new(format!("S{i}").as_str(), [format!("a{i}")]));
        }
        let ids = (0..n)
            .map(|i| {
                reg.add_mapping(
                    format!("S{i}").as_str(),
                    format!("S{}", i + 1).as_str(),
                    MappingKind::Equivalence,
                    Provenance::Manual,
                    vec![Correspondence::new(format!("a{i}"), format!("a{}", i + 1))],
                )
            })
            .collect();
        (reg, ids)
    }

    fn fwd(id: crate::mapping::MappingId) -> Step {
        Step {
            mapping: id,
            direction: Direction::Forward,
        }
    }

    #[test]
    fn two_step_composition_translates_end_to_end() {
        let (reg, ids) = chain(2);
        let c = compose_path(&reg, &[fwd(ids[0]), fwd(ids[1])]).expect("composes");
        assert_eq!(c.source, SchemaId::new("S0"));
        assert_eq!(c.target, SchemaId::new("S2"));
        assert_eq!(c.kind, MappingKind::Equivalence);
        assert_eq!(c.correspondences, vec![Correspondence::new("a0", "a2")]);
    }

    #[test]
    fn backward_steps_reverse_equivalences() {
        let (reg, ids) = chain(2);
        // S2 → S1 → S0, both backward.
        let path = [
            Step {
                mapping: ids[1],
                direction: Direction::Backward,
            },
            Step {
                mapping: ids[0],
                direction: Direction::Backward,
            },
        ];
        let c = compose_path(&reg, &path).expect("composes backward");
        assert_eq!(c.source, SchemaId::new("S2"));
        assert_eq!(c.target, SchemaId::new("S0"));
        assert_eq!(c.correspondences, vec![Correspondence::new("a2", "a0")]);
    }

    #[test]
    fn subsumption_steps_poison_the_kind_and_refuse_reversal() {
        let mut reg = MappingRegistry::new();
        for (s, a) in [("A", "x"), ("B", "y"), ("C", "z")] {
            reg.add_schema(Schema::new(s, [a]));
        }
        let m1 = reg.add_mapping(
            "A",
            "B",
            MappingKind::Subsumption,
            Provenance::Manual,
            vec![Correspondence::new("x", "y")],
        );
        let m2 = reg.add_mapping(
            "B",
            "C",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("y", "z")],
        );
        let c = compose_path(&reg, &[fwd(m1), fwd(m2)]).expect("composes");
        assert_eq!(c.kind, MappingKind::Subsumption);
        // Reversing through the subsumption step is refused.
        let bad = [
            Step {
                mapping: m2,
                direction: Direction::Backward,
            },
            Step {
                mapping: m1,
                direction: Direction::Backward,
            },
        ];
        assert_eq!(compose_path(&reg, &bad), None);
    }

    #[test]
    fn quality_is_the_product_of_steps() {
        let (mut reg, ids) = chain(2);
        reg.mapping_mut(ids[0]).unwrap().quality = 0.8;
        reg.mapping_mut(ids[1]).unwrap().quality = 0.5;
        let c = compose_path(&reg, &[fwd(ids[0]), fwd(ids[1])]).unwrap();
        assert!((c.quality - 0.4).abs() < 1e-12);
    }

    #[test]
    fn broken_chains_and_cycles_refuse() {
        let (reg, ids) = chain(3);
        // Non-adjacent steps (S0→S1 then S2→S3) do not chain.
        assert_eq!(compose_path(&reg, &[fwd(ids[0]), fwd(ids[2])]), None);
        // Single step is not a composition.
        assert_eq!(compose_path(&reg, &[fwd(ids[0])]), None);
        // Forward then backward over the same mapping revisits S0.
        let back = Step {
            mapping: ids[0],
            direction: Direction::Backward,
        };
        assert_eq!(compose_path(&reg, &[fwd(ids[0]), back]), None);
    }

    #[test]
    fn deprecated_steps_refuse() {
        let (mut reg, ids) = chain(2);
        reg.deprecate(ids[1]);
        assert_eq!(compose_path(&reg, &[fwd(ids[0]), fwd(ids[1])]), None);
    }

    #[test]
    fn empty_correspondence_intersection_refuses() {
        let mut reg = MappingRegistry::new();
        for (s, attrs) in [("A", vec!["x"]), ("B", vec!["y", "u"]), ("C", vec!["z"])] {
            reg.add_schema(Schema::new(s, attrs));
        }
        let m1 = reg.add_mapping(
            "A",
            "B",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("x", "y")],
        );
        // The second mapping goes through B#u, not B#y: no middle attr.
        let m2 = reg.add_mapping(
            "B",
            "C",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("u", "z")],
        );
        assert_eq!(compose_path(&reg, &[fwd(m1), fwd(m2)]), None);
    }

    #[test]
    fn find_path_returns_shortest_and_respects_deprecation() {
        let (mut reg, ids) = chain(3);
        // Direct chord S0→S3 gives a one-step path.
        let chord = reg.add_mapping(
            "S0",
            "S3",
            MappingKind::Equivalence,
            Provenance::Automatic,
            vec![Correspondence::new("a0", "a3")],
        );
        let p = find_path(&reg, &SchemaId::new("S0"), &SchemaId::new("S3")).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p[0].mapping, chord);
        // Deprecate the chord: BFS must fall back to the 3-step chain.
        reg.deprecate(chord);
        let p = find_path(&reg, &SchemaId::new("S0"), &SchemaId::new("S3")).unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.iter().map(|s| s.mapping).collect::<Vec<_>>(), ids);
        // Unreachable target.
        reg.add_schema(Schema::new("ISLAND", ["q"]));
        assert_eq!(
            find_path(&reg, &SchemaId::new("S0"), &SchemaId::new("ISLAND")),
            None
        );
    }

    #[test]
    fn composed_path_replaces_deprecated_chord() {
        // The §4 storyline in miniature: deprecate a chord, find the
        // alternative path, compose it — the composite translates the
        // same attribute the chord did.
        let (mut reg, _ids) = chain(3);
        let chord = reg.add_mapping(
            "S0",
            "S3",
            MappingKind::Equivalence,
            Provenance::Automatic,
            vec![Correspondence::new("a0", "a3")],
        );
        reg.deprecate(chord);
        let path = find_path(&reg, &SchemaId::new("S0"), &SchemaId::new("S3")).unwrap();
        let c = compose_path(&reg, &path).expect("replacement composes");
        assert_eq!(c.correspondences, vec![Correspondence::new("a0", "a3")]);
        assert_eq!(c.kind, MappingKind::Equivalence);
    }

    fn arb_chain_len() -> impl proptest::strategy::Strategy<Value = usize> {
        2usize..7
    }

    proptest! {
        /// Composing a full forward chain always yields the end-to-end
        /// correspondence a0 ↦ a_n with quality = product.
        #[test]
        fn chain_composition_is_end_to_end(n in arb_chain_len(), q in 0.5f64..1.0) {
            let (mut reg, ids) = chain(n);
            for &id in &ids {
                reg.mapping_mut(id).unwrap().quality = q;
            }
            let path: Vec<Step> = ids.iter().map(|&id| fwd(id)).collect();
            let c = compose_path(&reg, &path).expect("chain composes");
            prop_assert_eq!(
                c.correspondences,
                vec![Correspondence::new("a0", format!("a{n}"))]
            );
            prop_assert!((c.quality - q.powi(n as i32)).abs() < 1e-9);
        }

        /// Composition agrees with step-by-step translation for every
        /// attribute the composite covers.
        #[test]
        fn composite_translation_matches_chained_translation(n in arb_chain_len()) {
            let (reg, ids) = chain(n);
            let path: Vec<Step> = ids.iter().map(|&id| fwd(id)).collect();
            let c = compose_path(&reg, &path).expect("composes");
            for corr in &c.correspondences {
                // Chase the attribute through the chain by hand.
                let mut attr = corr.source_attr.clone();
                for step in &path {
                    let m = reg.mapping(step.mapping).unwrap();
                    attr = m.translate(&attr, step.direction).unwrap().to_string();
                }
                prop_assert_eq!(&attr, &corr.target_attr);
            }
        }
    }
}
