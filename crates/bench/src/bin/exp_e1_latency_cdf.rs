//! Experiment E1 — the §2.3 deployment claim.
//!
//! "A recent deployment of GridVine on 340 machines scattered around the
//! world sharing 17000 triples showed that 40% of the 23000 triple
//! pattern queries we submitted were answered within one second only,
//! and 75% within five seconds."
//!
//! This binary builds the same deployment over the WAN simulator,
//! preloads a ≈17k-triple bioinformatics corpus, submits 23 000
//! single-pattern queries and prints the latency CDF with the paper's
//! two reference points.
//!
//! Usage: `exp_e1_latency_cdf [num_queries] [num_peers] [seed] [processing_ms] [heterogeneity]`

use gridvine_bench::{f, Args, Table};
use gridvine_core::{Deployment, DeploymentConfig};
use gridvine_netsim::rng;
use gridvine_rdf::TriplePatternQuery;
use gridvine_workload::{QueryConfig, QueryGenerator, Workload, WorkloadConfig};

fn main() {
    let mut args = Args::from_env(
        "exp_e1_latency_cdf [num_queries] [num_peers] [seed] [processing_ms] [heterogeneity]",
    );
    let queries: usize = args.or(23_000);
    let peers: usize = args.or(340);
    let seed: u64 = args.or(1);
    // Calibration overrides (see the experiment index in README.md):
    // per-message processing and node-heterogeneity σ of the 2007
    // testbed model.
    let processing_ms: Option<u64> = args.optional();
    let heterogeneity: Option<f64> = args.optional();
    args.done();

    println!(
        "E1: latency CDF — {peers} machines, {queries} queries \
         (paper: 340 machines, 17k triples, 23k queries)"
    );
    let workload = Workload::generate(WorkloadConfig::paper_scale(seed));
    println!(
        "corpus: {} schemas, {} entities, {} triples",
        workload.schemas.len(),
        workload.entities.len(),
        workload.triple_count()
    );

    let mut config = DeploymentConfig {
        peers,
        ..DeploymentConfig::paper(seed)
    };
    if processing_ms.is_some() || heterogeneity.is_some() {
        use gridvine_netsim::network::LatencyConfig;
        if let LatencyConfig::RegionalWan {
            processing_ms: p,
            node_heterogeneity: h,
            ..
        } = &mut config.network.latency
        {
            if let Some(v) = processing_ms {
                *p = v;
            }
            if let Some(v) = heterogeneity {
                *h = v;
            }
        }
    }
    let mut deployment = Deployment::new(config);
    let placements = deployment.preload(workload.all_triples().into_iter().map(|(_, t)| t));
    println!(
        "preloaded {} (key, triple) placements over {} peers (depth {})",
        placements,
        peers,
        deployment.topology().depth()
    );

    let generator = QueryGenerator::new(&workload, QueryConfig::default());
    let mut r = rng::derive(seed, 0xE1);
    let batch: Vec<TriplePatternQuery> = generator
        .batch(queries, &mut r)
        .into_iter()
        .map(|g| g.query)
        .collect();

    let mut report = deployment.run_queries(&batch);
    println!(
        "submitted {}  answered {}  empty {}  timed-out {}  mean-hops {:.2}  messages {}",
        report.submitted,
        report.answered,
        report.not_found,
        report.timed_out,
        report.mean_hops,
        report.messages
    );

    let mut table = Table::new(&["threshold", "fraction answered ≤", "paper"]);
    for (thr, paper) in [(1.0, "0.40"), (5.0, "0.75")] {
        table.row(&[
            format!("{thr}s"),
            f(report.latencies.fraction_leq(thr), 3),
            paper.to_string(),
        ]);
    }
    println!("\n{}", table.render());

    let mut curve = Table::new(&["quantile", "latency (s)"]);
    for q in [0.1, 0.25, 0.4, 0.5, 0.75, 0.9, 0.95, 0.99] {
        curve.row(&[f(q, 2), f(report.latencies.quantile(q), 3)]);
    }
    println!("{}", curve.render());
}
