//! Experiment E3 — the connectivity indicator (§3.1).
//!
//! "ci ≥ 0 indicates the emergence of a giant connected component in
//! the graph of schemas and mappings. Thus, the mediation layer is not
//! strongly connected as long as ci < 0."
//!
//! Adds random equivalence mappings one at a time over 50 schemas and
//! prints, after each insertion, the locally computed indicator (from
//! degree records only) next to the ground-truth largest-SCC fraction,
//! so the ci = 0 crossover can be compared with the giant component's
//! emergence. Averages over several trials.
//!
//! Usage: `exp_e3_connectivity [schemas] [trials] [seed]`

use gridvine_bench::{f, Args, Table};
use gridvine_netsim::rng;
use gridvine_semantic::{
    connectivity_indicator, Correspondence, MappingKind, MappingRegistry, Provenance, Schema,
};
use rand::Rng;

fn main() {
    let mut args = Args::from_env("exp_e3_connectivity [schemas] [trials] [seed]");
    let schemas: usize = args.or(50);
    let trials: usize = args.or(20);
    let seed: u64 = args.or(1);
    args.done();

    println!("E3: connectivity indicator vs giant SCC — {schemas} schemas, {trials} trials");
    let max_mappings = schemas * 2;
    let mut sum_ci = vec![0.0f64; max_mappings + 1];
    let mut sum_scc = vec![0.0f64; max_mappings + 1];
    let mut sum_connected = vec![0.0f64; max_mappings + 1];
    let mut crossover_ci = Vec::new();
    let mut crossover_giant = Vec::new();

    for t in 0..trials {
        let mut r = rng::derive(seed, t as u64);
        let mut reg = MappingRegistry::new();
        for i in 0..schemas {
            reg.add_schema(Schema::new(format!("S{i}").as_str(), ["a"]));
        }
        let mut ci_cross: Option<usize> = None;
        let mut giant_cross: Option<usize> = None;
        for m in 1..=max_mappings {
            // Random unordered pair, random orientation, subsumption
            // mappings so directionality matters (as in real mapping
            // networks, where many mappings are one-way views).
            loop {
                let a = r.gen_range(0..schemas);
                let b = r.gen_range(0..schemas);
                if a == b {
                    continue;
                }
                reg.add_mapping(
                    format!("S{a}").as_str(),
                    format!("S{b}").as_str(),
                    MappingKind::Subsumption,
                    Provenance::Manual,
                    vec![Correspondence::new("a", "a")],
                );
                break;
            }
            let ci = connectivity_indicator(&reg.degree_records());
            let scc = reg.largest_scc_fraction();
            sum_ci[m] += ci;
            sum_scc[m] += scc;
            sum_connected[m] += if reg.is_strongly_connected() {
                1.0
            } else {
                0.0
            };
            if ci_cross.is_none() && ci >= 0.0 {
                ci_cross = Some(m);
            }
            if giant_cross.is_none() && scc >= 0.5 {
                giant_cross = Some(m);
            }
        }
        crossover_ci.push(ci_cross.unwrap_or(max_mappings) as f64);
        crossover_giant.push(giant_cross.unwrap_or(max_mappings) as f64);
    }

    let mut table = Table::new(&[
        "mappings",
        "mappings/schema",
        "ci (mean)",
        "largest SCC frac",
        "P(strongly conn.)",
    ]);
    for m in (5..=max_mappings).step_by(5) {
        table.row(&[
            m.to_string(),
            f(m as f64 / schemas as f64, 2),
            f(sum_ci[m] / trials as f64, 3),
            f(sum_scc[m] / trials as f64, 3),
            f(sum_connected[m] / trials as f64, 2),
        ]);
    }
    println!("\n{}", table.render());

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    println!(
        "mean ci=0 crossover: {:.1} mappings; mean giant-SCC (≥50%) emergence: {:.1} mappings",
        mean(&crossover_ci),
        mean(&crossover_giant)
    );
    println!("paper claim: the ci ≥ 0 transition tracks the emergence of the giant component.");
}
