//! The federations more than one experiment runs on, and their
//! queries.
//!
//! Each builder performs its inserts in one fixed order: every insert
//! routes through the overlay and draws from the system's routing RNG,
//! so the order is part of what a seed means. A binary varies a
//! federation through the [`GridVineConfig`] it passes (peers, seed,
//! latency model, fault processes), never through the insert sequence.

use gridvine_core::{GridVineConfig, GridVineSystem, QueryOptions, Strategy};
use gridvine_pgrid::PeerId;
use gridvine_rdf::{PatternTerm, Term, Triple, TriplePattern, TriplePatternQuery};
use gridvine_semantic::{
    Correspondence, MappingId, MappingKind, MappingStatus, Provenance, Schema,
};
use gridvine_workload::Workload;

/// A chain of `len` equivalence mappings `S0 → S1 → … → S{len}`: schema
/// `S{i}` has the one attribute `a{i}` and the one record
/// `(seq:R{i}, S{i}#a{i}, "target-value")`, so [`chain_query`] finds
/// one row per schema its closure reaches.
pub fn chain(config: GridVineConfig, len: usize) -> GridVineSystem {
    let mut sys = GridVineSystem::new(config);
    let p0 = PeerId(0);
    for i in 0..=len {
        sys.insert_schema(p0, Schema::new(format!("S{i}").as_str(), [format!("a{i}")]))
            .unwrap();
        record(
            &mut sys,
            format!("seq:R{i}"),
            format!("S{i}#a{i}"),
            "target-value",
        );
    }
    for i in 0..len {
        sys.insert_mapping(
            p0,
            format!("S{i}").as_str(),
            format!("S{}", i + 1).as_str(),
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new(format!("a{i}"), format!("a{}", i + 1))],
        )
        .unwrap();
    }
    sys
}

fn record(sys: &mut GridVineSystem, subject: String, predicate: String, value: &str) {
    let triple = Triple::new(subject.as_str(), predicate.as_str(), Term::literal(value));
    sys.insert_triple(PeerId(0), triple).unwrap();
}

/// Schemas in a [`ring`].
pub const RING: usize = 5;

/// A ring of [`RING`] equivalence mappings `S0 → S1 → … → S4 → S0` for
/// the semantic-adversary experiments. Each schema has two attributes
/// (so a corrupted copy has a permutation to make), one record under
/// `a{i}` and two decoys under `b{i}`: a mapping that mistranslates the
/// query predicate onto the b-attribute shadows one correct row but
/// pulls in two decoys, so the damage shows in the row *count* of
/// [`ring_query`] — the fraction drifts above 1.000.
pub fn ring(config: GridVineConfig) -> GridVineSystem {
    let mut sys = GridVineSystem::new(config);
    let p0 = PeerId(0);
    for i in 0..RING {
        sys.insert_schema(
            p0,
            Schema::new(format!("S{i}").as_str(), [format!("a{i}"), format!("b{i}")]),
        )
        .unwrap();
        record(
            &mut sys,
            format!("seq:R{i}"),
            format!("S{i}#a{i}"),
            "target-value",
        );
        for d in ["D", "E"] {
            record(
                &mut sys,
                format!("seq:{d}{i}"),
                format!("S{i}#b{i}"),
                "target-decoy",
            );
        }
    }
    for i in 0..RING {
        let j = (i + 1) % RING;
        sys.insert_mapping(
            p0,
            format!("S{i}").as_str(),
            format!("S{j}").as_str(),
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![
                Correspondence::new(format!("a{i}"), format!("a{j}")),
                Correspondence::new(format!("b{i}"), format!("b{j}")),
            ],
        )
        .unwrap();
    }
    sys
}

/// A [`ring`] plus a *deprecated* wrong shortcut `S0 → S2` that swaps
/// the attributes: stale gossip has a candidate to resurrect, and the
/// resurrected edge reaches `S2` before the correct two-hop path does.
pub fn ring_with_retired_shortcut(config: GridVineConfig) -> GridVineSystem {
    let mut sys = ring(config);
    let p0 = PeerId(0);
    let decoy = sys
        .insert_mapping(
            p0,
            "S0",
            "S2",
            MappingKind::Equivalence,
            Provenance::Automatic,
            vec![
                Correspondence::new("a0", "b2"),
                Correspondence::new("b0", "a2"),
            ],
        )
        .unwrap();
    sys.deprecate_mapping(p0, decoy).unwrap();
    sys
}

/// A system holding a generated workload — every schema, then every
/// schema's triples — and no mapping yet; with the triples stored.
pub fn publish(config: GridVineConfig, workload: &Workload) -> (GridVineSystem, usize) {
    let mut sys = GridVineSystem::new(config);
    let p0 = PeerId(0);
    for s in &workload.schemas {
        sys.insert_schema(p0, s.clone()).unwrap();
    }
    let mut stored = 0;
    for s in &workload.schemas {
        stored += sys.insert_triples(p0, workload.triples_of(s.id())).unwrap();
    }
    (sys, stored)
}

/// The equivalence mapping from the workload's `from`-th schema to its
/// `to`-th, with exactly the correspondences its ground truth calls
/// correct.
pub fn correct_mapping(
    sys: &mut GridVineSystem,
    workload: &Workload,
    from: usize,
    to: usize,
    provenance: Provenance,
) -> MappingId {
    let a = workload.schemas[from].id().clone();
    let b = workload.schemas[to].id().clone();
    let correct = workload.ground_truth.correct_pairs(&a, &b);
    let kind = MappingKind::Equivalence;
    sys.insert_mapping(PeerId(0), a, b, kind, provenance, correct)
        .unwrap()
}

/// `SearchFor(?x : (?x, <predicate>, "object"))`.
pub fn search_for(predicate: &str, object: &str) -> TriplePatternQuery {
    TriplePatternQuery::new(
        "x",
        TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri(predicate)),
            PatternTerm::constant(Term::literal(object)),
        ),
    )
    .unwrap()
}

/// The [`chain`]'s records, asked in `S0`'s vocabulary.
pub fn chain_query() -> TriplePatternQuery {
    search_for("S0#a0", "target-value")
}

/// The [`ring`]'s records, asked in `S0`'s vocabulary — as a prefix,
/// so a mistranslated hop matches the decoys too.
pub fn ring_query() -> TriplePatternQuery {
    search_for("S0#a0", "target%")
}

/// What the robustness experiments query with: the origin walks the
/// mapping network itself, four subqueries in flight. A binary adds its
/// retry budget.
pub fn options() -> QueryOptions {
    QueryOptions::new().strategy(Strategy::Iterative).window(4)
}

/// Mappings the assessment passes have quarantined so far.
pub fn quarantined(sys: &GridVineSystem) -> usize {
    let mappings = sys.registry().mappings();
    mappings
        .filter(|m| m.status == MappingStatus::Quarantined)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvine_core::QueryPlan;

    fn rows(sys: &mut GridVineSystem, query: TriplePatternQuery) -> usize {
        let out = sys.execute(PeerId(3), &QueryPlan::search(query), &options());
        out.unwrap().rows.len()
    }

    #[test]
    fn a_query_finds_one_record_per_schema() {
        let chain = &mut chain(GridVineConfig::default(), 3);
        assert_eq!(rows(chain, chain_query()), 4);
        let check = |sys: &mut GridVineSystem, stored: usize| {
            assert_eq!(rows(sys, ring_query()), RING);
            assert_eq!(rows(sys, search_for("S0#b0", "target%")), 2 * RING);
            assert_eq!(sys.registry().active_count(), RING);
            assert_eq!(sys.registry().mappings().count(), stored);
            assert_eq!(quarantined(sys), 0);
        };
        check(&mut ring(GridVineConfig::default()), RING);
        let retired = &mut ring_with_retired_shortcut(GridVineConfig::default());
        check(retired, RING + 1);
    }
}
