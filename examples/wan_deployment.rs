//! The WAN harness, end to end: GridVine on the discrete-event
//! simulator, with streaming partial results and completion-time
//! latencies.
//!
//! Builds a 48-machine deployment over the regional WAN model, preloads
//! a generated bioinformatics workload plus a mapping chain across its
//! schemas, then drives a batch of reformulated queries through
//! [`Deployment::run_plans_with`]: every matched partial result streams
//! to the console *at its simulated completion instant* while deeper
//! reformulation chains are still in flight, and the final latency CDF
//! is computed from actual completion times. A second, identical batch
//! shows the per-origin closure caches at work: repeated origins replay
//! their recorded closures and skip mapping fetches.
//!
//! Everything is driven by one fixed seed, so the output is
//! byte-for-byte deterministic — CI runs this example twice and diffs
//! the stdout to pin the event-driven path's reproducibility.
//!
//! Run with: `cargo run --example wan_deployment`

use gridvine_core::{Deployment, DeploymentConfig, QueryPlan, WanBatchOptions};
use gridvine_netsim::{rng, NetworkConfig, SimDuration};
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

    // 2. A mapping chain across the workload schemas, preloaded into
    //    the DHT as completed Update(Schema Mapping) operations.
    deployment.preload_mediation(workload.schemas.clone(), workload.chain_mappings().iter());

    // 3. A reformulated-query batch on a Poisson arrival process. The
    //    sink fires at each matched reply's simulated completion
    //    instant — chains overlap in flight, so partials from
    //    different queries interleave.
    let generator = QueryGenerator::new(&workload, QueryConfig::default());
    let mut query_rng = rng::seeded(SEED ^ 0x51);
    let queries: Vec<TriplePatternQuery> = generator
        .batch(24, &mut query_rng)
        .into_iter()
        .map(|g| g.query)
        .collect();
    let plans: Vec<QueryPlan> = queries.into_iter().map(QueryPlan::search).collect();
    let options = WanBatchOptions {
        ttl: 6,
        mean_interarrival: Some(SimDuration::from_millis(200)),
        limit: None,
    };
    println!("\nstreamed partial results (first batch, cold caches):");
    let mut partials = 0usize;
    let report = deployment.run_plans_with(&plans, &options, &mut |p| {
        partials += 1;
        if partials <= 12 {
            println!(
                "  t={:<9} query {:>2}: +{} row(s)",
                p.at.to_string(),
                p.query,
                p.bindings.len()
            );
        }
    });
    println!("  … {partials} partials total");

    let mut latencies = report.latencies.clone();
    println!("\nfirst batch (cold):");
    println!(
        "  answered:  {}/{} (mean {:.1} schemas reached)",
        report.answered, report.submitted, report.mean_schemas
    );
    println!(
        "  lookups:   {} data, {} mapping fetches, {} cache hits",
        report.data_lookups, report.mapping_fetches, report.cache_hits
    );
    println!(
        "  latency:   median {:.3}s, p90 {:.3}s (from actual completion times)",
        latencies.median(),
        latencies.quantile(0.9)
    );
    println!("  messages:  {}", report.messages);

    // 4. The same batch again: origins that repeat replay their
    //    memoized closures — fewer mapping fetches, same answers.
    let warm = deployment.run_plans(&plans, &options);
    println!("\nsecond batch (warm per-origin closure caches):");
    println!("  answered:  {}/{}", warm.answered, warm.submitted);
    println!(
        "  lookups:   {} data, {} mapping fetches, {} cache hits",
        warm.data_lookups, warm.mapping_fetches, warm.cache_hits
    );
    println!(
        "  cached:    {} closures memoized across origins",
        deployment.cached_closures()
    );
    assert_eq!(warm.answered, report.answered, "replays answer identically");
    assert!(warm.mapping_fetches <= report.mapping_fetches);
}
