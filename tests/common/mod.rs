//! Fixtures shared by the integration tests.

use gridvine_core::{GridVineConfig, GridVineSystem};
use gridvine_netsim::{ChurnConfig, ChurnProcess, SimDuration, SimTime};
use gridvine_pgrid::PeerId;
use gridvine_rdf::{PatternTerm, Term, Triple, TriplePattern, TriplePatternQuery};
use gridvine_semantic::{Correspondence, MappingKind, Provenance, Schema};

/// A 4-schema equivalence chain `S0 ≡ S1 ≡ S2 ≡ S3` over `config`,
/// with one Aspergillus triple per schema, every item inserted at peer
/// 0: schemas, then mappings, then triples, each in index order (the
/// order fixes the RNG stream the tests' assertions were taken on).
/// [`chain_query`]'s closure walk fans out over several routed units.
pub fn chain_system(config: GridVineConfig) -> GridVineSystem {
    let mut sys = GridVineSystem::new(config);
    let p0 = PeerId(0);
    for i in 0..4 {
        sys.insert_schema(p0, Schema::new(format!("S{i}").as_str(), [format!("a{i}")]))
            .unwrap();
    }
    for i in 0..3 {
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
    for i in 0..4 {
        sys.insert_triple(
            p0,
            Triple::new(
                format!("seq:R{i}").as_str(),
                format!("S{i}#a{i}").as_str(),
                Term::literal("Aspergillus niger"),
            ),
        )
        .unwrap();
    }
    sys
}

/// `?x S0#a0 "%Aspergillus%"`: answered by one row per schema of
/// [`chain_system`] once the walk has crossed the whole chain.
pub fn chain_query() -> TriplePatternQuery {
    TriplePatternQuery::new(
        "x",
        TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("S0#a0")),
            PatternTerm::constant(Term::literal("%Aspergillus%")),
        ),
    )
    .unwrap()
}

/// Install a random churn timeline on the first `peers` peers of
/// `sys`, drawn from `seed`: half of them churn, up 60 ms and down 4 ms
/// on average, over the first 10 simulated seconds — often enough that
/// some attempts of a chain walk time out and are retransmitted.
pub fn install_random_churn(sys: &mut GridVineSystem, peers: usize, seed: u64) {
    let churn = ChurnConfig {
        mean_uptime: SimDuration::from_millis(60),
        mean_downtime: SimDuration::from_millis(4),
        churny_fraction: 0.5,
    };
    let horizon = SimTime::ZERO + SimDuration::from_secs(10);
    sys.install_churn(ChurnProcess::generate(&churn, peers, horizon, seed).events());
}
