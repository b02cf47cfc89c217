//! Experiment E8 — wide-area latency of *reformulated* queries (§4 over
//! the §2.3 deployment).
//!
//! The paper's latency numbers (E1) are for single triple-pattern
//! lookups; its demo separately shows queries being reformulated through
//! the mapping network. This experiment combines the two on the
//! simulated 340-machine testbed: the same query batch is disseminated
//! with increasing reformulation TTLs, and the end-to-end latency (the
//! moment the last reformulated result arrives) is compared to the plain
//! single-lookup baseline.
//!
//! Expected shape: answered ≤1 s fraction falls and the median rises as
//! the TTL (and thus the reachable schema set) grows — each extra
//! mapping hop costs one schema-key fetch plus one data lookup in
//! sequence — while recall-proxy (schemas reached, hits) grows. The
//! iterative strategy is charged here, matching E6's message analysis.
//!
//! Usage: `exp_e8_wan_reformulation [queries] [peers] [schemas] [seed]`

use gridvine_bench::{f, Args, Table};
use gridvine_core::{Deployment, DeploymentConfig, QueryPlan, WanBatchOptions};
use gridvine_pgrid::HashKind;
use gridvine_rdf::TriplePatternQuery;
use gridvine_workload::{QueryConfig, QueryGenerator, Workload, WorkloadConfig};

fn main() {
    let mut args = Args::from_env("exp_e8_wan_reformulation [queries] [peers] [schemas] [seed]");
    let queries: usize = args.or(400);
    let peers: usize = args.or(340);
    let schemas: usize = args.or(16);
    let seed: u64 = args.or(1);
    args.done();

    println!(
        "E8: reformulated-query latency over the WAN — {peers} peers, {schemas} schemas, \
         {queries} queries, manual mapping chain"
    );

    let w = Workload::generate(WorkloadConfig {
        schemas,
        entities: 400,
        export_fraction: 0.35,
        seed,
        ..WorkloadConfig::default()
    });
    let mappings = w.chain_mappings();

    let build = |seed: u64| -> Deployment {
        let mut d = Deployment::new(DeploymentConfig {
            peers,
            hash: HashKind::OrderPreserving,
            ..DeploymentConfig::paper(seed)
        });
        let triples: Vec<_> = w.all_triples().into_iter().map(|(_, t)| t).collect();
        d.preload(triples);
        d.preload_mediation(w.schemas.clone(), mappings.iter());
        d
    };

    let gen = QueryGenerator::new(&w, QueryConfig::default());
    let mut r = gridvine_netsim::rng::seeded(seed ^ 0xE8);
    let batch: Vec<TriplePatternQuery> = gen
        .batch(queries, &mut r)
        .into_iter()
        .map(|g| g.query)
        .collect();

    let mut table = Table::new(&[
        "mode",
        "answered",
        "mean schemas",
        "≤1 s",
        "≤5 s",
        "median s",
        "p95 s",
        "data lookups",
        "mapping fetches",
    ]);

    // Baseline: plain single-pattern lookups (the E1 operation).
    let mut d = build(seed);
    let plain = d.run_queries(&batch);
    {
        let mut lat = plain.latencies.clone();
        table.row(&[
            "plain lookup".into(),
            plain.answered.to_string(),
            f(1.0, 2),
            f(lat.fraction_leq(1.0), 3),
            f(lat.fraction_leq(5.0), 3),
            f(lat.median(), 2),
            f(lat.quantile(0.95), 2),
            plain.answered.to_string(),
            "0".into(),
        ]);
    }

    // Every batch below is submitted at time zero.
    let at_once = |ttl| WanBatchOptions {
        ttl,
        mean_interarrival: None,
        limit: None,
    };
    let searches: Vec<QueryPlan> = batch.iter().cloned().map(QueryPlan::search).collect();
    for ttl in [1usize, 2, 4, 8] {
        let mut d = build(seed); // fresh network: no leftover load
        let rep = d.run_plans(&searches, &at_once(ttl));
        let mut lat = rep.latencies.clone();
        table.row(&[
            format!("reformulated ttl={ttl}"),
            rep.answered.to_string(),
            f(rep.mean_schemas, 2),
            f(lat.fraction_leq(1.0), 3),
            f(lat.fraction_leq(5.0), 3),
            f(lat.median(), 2),
            f(lat.quantile(0.95), 2),
            rep.data_lookups.to_string(),
            rep.mapping_fetches.to_string(),
        ]);
    }
    // Conjunctive queries (§2.3): two patterns disseminated in
    // parallel, joined at the origin — latency is the slower pattern's
    // chain, so it tracks the reformulated single-pattern numbers.
    let mut r2 = gridvine_netsim::rng::seeded(seed ^ 0xC0);
    let conj: Vec<QueryPlan> = gen
        .conjunctive_batch(queries / 4, &mut r2)
        .into_iter()
        .map(|g| QueryPlan::conjunctive(g.query))
        .collect();
    let mut d = build(seed);
    let rep = d.run_plans(&conj, &at_once(4));
    let mut lat = rep.latencies.clone();
    table.row(&[
        "conjunctive ttl=4".into(),
        rep.answered.to_string(),
        f(rep.mean_rows, 2),
        f(lat.fraction_leq(1.0), 3),
        f(lat.fraction_leq(5.0), 3),
        f(lat.median(), 2),
        f(lat.quantile(0.95), 2),
        rep.data_lookups.to_string(),
        rep.mapping_fetches.to_string(),
    ]);

    println!("{}", table.render());
    println!(
        "shape check: reachable schemas and lookups grow with the TTL while the \
         sub-second fraction falls — interoperability is paid for in sequential \
         mapping-fetch round trips. (The conjunctive row reports mean solution \
         rows instead of mean schemas.)"
    );
}
