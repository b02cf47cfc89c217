//! The federations the claims run on, and their queries.
//!
//! Each builder performs its inserts in one fixed order: every insert
//! routes through the overlay and draws from the system's routing RNG,
//! so the order is part of what a seed means. A claim varies a
//! federation through the [`GridVineConfig`] it passes (peers, seed),
//! never through the insert sequence.

use gridvine_core::{GridVineConfig, GridVineSystem};
use gridvine_pgrid::PeerId;
use gridvine_rdf::{PatternTerm, Term, Triple, TriplePattern, TriplePatternQuery};
use gridvine_semantic::{Correspondence, MappingId, MappingKind, Provenance, Schema};
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

/// The [`chain`]'s records, asked in `S0`'s vocabulary:
/// `SearchFor(?x : (?x, <S0#a0>, "target-value"))`.
pub fn chain_query() -> TriplePatternQuery {
    TriplePatternQuery::new(
        "x",
        TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("S0#a0")),
            PatternTerm::constant(Term::literal("target-value")),
        ),
    )
    .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvine_core::{QueryOptions, QueryPlan, Strategy};

    #[test]
    fn a_chain_query_finds_one_record_per_schema() {
        let mut sys = chain(GridVineConfig::default(), 3);
        let plan = QueryPlan::search(chain_query());
        for strategy in [Strategy::Iterative, Strategy::Recursive] {
            let options = QueryOptions::new().strategy(strategy);
            let out = sys.execute(PeerId(3), &plan, &options).unwrap();
            assert_eq!(out.rows.len(), 4);
        }
    }
}
