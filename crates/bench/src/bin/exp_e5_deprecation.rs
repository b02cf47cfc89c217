//! Experiment E5 — deprecation dynamics (§4).
//!
//! "Removing some of the existing mappings fosters the creation of
//! additional mappings, some of which get deprecated by the Bayesian
//! analysis and are gradually replaced by other mapping paths."
//!
//! Builds a correct manual mapping ring over the schemas, injects a
//! configurable number of *erroneous* automatic mappings (deranged
//! correspondences — compositions survive but return wrong attributes),
//! then runs assessment rounds, tracking the posterior of good vs bad
//! mappings, cumulative deprecations, and probe precision/recall.
//!
//! Usage: `exp_e5_deprecation [bad_mappings] [rounds] [schemas] [seed]`

use gridvine_bench::{f, fixtures, Args, Table};
use gridvine_core::{GridVineConfig, GridVineSystem, SelfOrgConfig};
use gridvine_pgrid::PeerId;
use gridvine_semantic::{MappingId, MappingKind, Provenance};
use gridvine_workload::{Workload, WorkloadConfig};
use std::collections::BTreeSet;

fn main() {
    let mut args = Args::from_env("exp_e5_deprecation [bad_mappings] [rounds] [schemas] [seed]");
    let bad_count: usize = args.or(4);
    let rounds: usize = args.or(8);
    let schemas: usize = args.or(12);
    let seed: u64 = args.or(1);
    args.done();

    println!(
        "E5: Bayesian deprecation — {schemas} schemas, {bad_count} erroneous mappings injected"
    );
    let workload = Workload::generate(WorkloadConfig {
        schemas,
        entities: 150,
        export_fraction: 0.4,
        seed,
        ..WorkloadConfig::default()
    });
    let config = GridVineConfig {
        peers: 64,
        seed,
        ..GridVineConfig::default()
    };
    let (mut sys, _) = fixtures::publish(config, &workload);
    let p0 = PeerId(0);
    // A trusted manual ring (users enter these at schema-insertion
    // time, §3.1) provides high-confidence cycles for the analysis.
    for i in 0..schemas {
        let next = (i + 1) % schemas;
        fixtures::correct_mapping(&mut sys, &workload, i, next, Provenance::Manual);
    }
    // Correct automatic chords — these must *survive* the analysis.
    let mut good: BTreeSet<MappingId> = BTreeSet::new();
    for k in 0..bad_count.min(schemas / 3) {
        let (a, b) = ((3 * k + 1) % schemas, (3 * k + 3) % schemas);
        let id = fixtures::correct_mapping(&mut sys, &workload, a, b, Provenance::Automatic);
        good.insert(id);
    }
    // Erroneous chords across the ring: each swaps the organism and
    // accession attributes (concepts 0 and 1, present in every schema
    // and covered by every ring mapping — so cycle compositions always
    // survive and expose the error).
    let attr_of = |schema: &gridvine_semantic::SchemaId, concept: usize| -> String {
        let s = workload.schemas.iter().find(|s| s.id() == schema).unwrap();
        s.attributes()
            .iter()
            .find(|a| {
                workload
                    .ground_truth
                    .concept(schema, a)
                    .map(|c| c.0 == concept)
                    .unwrap_or(false)
            })
            .cloned()
            .expect("organism/accession are always present")
    };
    // Bad chords are spaced three schemas apart so no two of them share
    // a short cycle (correlated swap errors would otherwise cancel
    // around double-swap cycles and certify each other).
    let mut bad: BTreeSet<MappingId> = BTreeSet::new();
    for k in 0..bad_count.min(schemas / 3) {
        let a = workload.schemas[(3 * k) % schemas].id().clone();
        let b = workload.schemas[(3 * k + 2) % schemas].id().clone();
        let corrs = vec![
            gridvine_semantic::Correspondence::new(attr_of(&a, 0), attr_of(&b, 1)),
            gridvine_semantic::Correspondence::new(attr_of(&a, 1), attr_of(&b, 0)),
        ];
        let id = sys
            .insert_mapping(
                p0,
                a,
                b,
                MappingKind::Equivalence,
                Provenance::Automatic,
                corrs,
            )
            .unwrap();
        bad.insert(id);
    }
    println!(
        "installed {} good automatic, {} bad automatic, {} manual mappings",
        good.len(),
        bad.len(),
        sys.registry()
            .mappings()
            .filter(|m| m.provenance == Provenance::Manual)
            .count()
    );

    let cfg = SelfOrgConfig {
        max_new_mappings: 0, // isolate the assessment dynamics
        ..SelfOrgConfig::default()
    };
    let mean_quality = |sys: &GridVineSystem, ids: &BTreeSet<MappingId>| -> f64 {
        if ids.is_empty() {
            return 0.0;
        }
        ids.iter()
            .filter_map(|id| sys.registry().mapping(*id))
            .map(|m| m.quality)
            .sum::<f64>()
            / ids.len() as f64
    };

    let mut table = Table::new(&[
        "round",
        "mean q(good)",
        "mean q(bad)",
        "bad deprecated",
        "good deprecated",
        "active mappings",
    ]);
    let mut bad_deprecated = 0usize;
    let mut good_deprecated = 0usize;
    for round in 1..=rounds {
        let rep = sys.self_organization_round(&cfg).unwrap();
        bad_deprecated += rep.deprecated.iter().filter(|id| bad.contains(id)).count();
        good_deprecated += rep.deprecated.iter().filter(|id| good.contains(id)).count();
        table.row(&[
            round.to_string(),
            f(mean_quality(&sys, &good), 3),
            f(mean_quality(&sys, &bad), 3),
            format!("{bad_deprecated}/{}", bad.len()),
            format!("{good_deprecated}/{}", good.len()),
            rep.active_mappings.to_string(),
        ]);
    }
    println!("\n{}", table.render());
    println!("paper claim: erroneous mappings are detected by the Bayesian cycle analysis\nand deprecated, while correct mappings survive.");

    // Repair phase (§4: deprecated mappings "are gradually replaced by
    // other mapping paths"): with composition repair enabled, each
    // deprecated chord whose endpoints remain connected through the
    // manual ring is replaced by the composed path — and the
    // replacement's correspondences are correct by construction.
    let repair_cfg = SelfOrgConfig {
        max_new_mappings: 0,
        repair_with_composition: true,
        ..SelfOrgConfig::default()
    };
    let mut replaced = Vec::new();
    for _ in 0..2 {
        let rep = sys.self_organization_round(&repair_cfg).unwrap();
        replaced.extend(rep.composed);
    }
    let mut correct_replacements = 0usize;
    for id in &replaced {
        let m = sys.registry().mapping(*id).unwrap();
        if m.correspondences
            .iter()
            .all(|c| workload.ground_truth.is_correct(&m.source, &m.target, c))
        {
            correct_replacements += 1;
        }
    }
    println!(
        "\nrepair phase: {} replacement mapping(s) composed from surviving paths, \
         {}/{} fully correct (mean quality {:.3})",
        replaced.len(),
        correct_replacements,
        replaced.len(),
        if replaced.is_empty() {
            0.0
        } else {
            replaced
                .iter()
                .filter_map(|id| sys.registry().mapping(*id))
                .map(|m| m.quality)
                .sum::<f64>()
                / replaced.len() as f64
        }
    );
}
