//! The WAN lookup driver, end to end: GridVine on the discrete-event
//! simulator, with streamed replies and completion-time latencies.
//!
//! Builds a 48-machine deployment over the homogeneous PlanetLab model,
//! preloads a generated bioinformatics workload, then drives a batch of
//! single-pattern lookups through [`Deployment::run_queries_with`]:
//! every reply that matched rows streams to the console *at its
//! simulated completion instant* while later lookups are still in
//! flight, and the final latency CDF is computed from actual completion
//! times. Reformulation and joins run on `GridVineSystem` (see the
//! `figure2_reformulation` and `conjunctive_join` examples).
//!
//! Everything is driven by one fixed seed, so the output is
//! byte-for-byte deterministic — CI runs this example twice and diffs
//! the stdout to pin the event-driven path's reproducibility.
//!
//! Run with: `cargo run --example wan_deployment`

use gridvine_core::{Deployment, DeploymentConfig};
use gridvine_netsim::{rng, NetworkConfig};
use gridvine_rdf::{Triple, TriplePatternQuery};
use gridvine_workload::{QueryConfig, QueryGenerator, Workload, WorkloadConfig};

const SEED: u64 = 2007;

fn main() {
    // 1. A 48-machine deployment on the homogeneous PlanetLab model.
    let workload = Workload::generate(WorkloadConfig::small(SEED));
    let config = DeploymentConfig {
        peers: 48,
        network: NetworkConfig::planetlab(),
        ..DeploymentConfig::paper(SEED)
    };
    let mut deployment = Deployment::new(config);
    let triples: Vec<Triple> = workload.all_triples().into_iter().map(|(_, t)| t).collect();
    let placements = deployment.preload(triples);
    println!("preload:   {placements} (key, triple) placements across 48 machines");

    // 2. A lookup batch on the configured Poisson arrival process. The
    //    sink fires at each matched reply's simulated completion
    //    instant — lookups overlap in flight, so replies to different
    //    queries interleave.
    let generator = QueryGenerator::new(&workload, QueryConfig::default());
    let mut query_rng = rng::seeded(SEED ^ 0x51);
    let queries: Vec<TriplePatternQuery> = generator
        .batch(96, &mut query_rng)
        .into_iter()
        .map(|g| g.query)
        .collect();
    println!("\nstreamed replies:");
    let mut replies = 0usize;
    let report = deployment.run_queries_with(&queries, &mut |query, at, rows| {
        replies += 1;
        if replies <= 12 {
            println!(
                "  t={:<9} query {:>2}: {} row(s)",
                at.to_string(),
                query,
                rows.len()
            );
        }
    });
    println!("  … {replies} replies with rows");

    // 3. The batch's completion-time CDF, hops and messages.
    let mut latencies = report.latencies.clone();
    println!("\nbatch:");
    println!(
        "  answered:  {}/{} ({} found nothing, {} timed out)",
        report.answered, report.submitted, report.not_found, report.timed_out
    );
    for seconds in [0.1, 0.25, 0.5, 1.0] {
        println!(
            "  ≤ {seconds:<4} s:  {:.3} of answered",
            latencies.fraction_leq(seconds)
        );
    }
    println!(
        "  latency:   median {:.3}s, p90 {:.3}s (from actual completion times)",
        latencies.median(),
        latencies.quantile(0.9)
    );
    println!(
        "  hops:      {:.2} mean per answered lookup",
        report.mean_hops
    );
    println!("  messages:  {}", report.messages);
    assert_eq!(replies, report.answered, "one streamed reply per answer");
}
