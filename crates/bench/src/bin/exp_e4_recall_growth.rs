//! Experiment E4 — recall growth through self-organization (§4).
//!
//! "In a sparse network of mappings, few results get returned initially
//! (low recall), while more and more results are retrieved as mappings
//! get created automatically to ensure the global interoperability of
//! the system."
//!
//! Loads the bioinformatics corpus into a GridVine system seeded with a
//! short manual mapping chain, then alternates self-organization rounds
//! with a probe query batch, reporting mean recall, active mappings and
//! the connectivity indicator per round.
//!
//! Usage: `exp_e4_recall_growth [rounds] [probe_queries] [schemas] [seed]`

use gridvine_bench::{f, fixtures, Args, Table};
use gridvine_core::{
    GridVineConfig, GridVineSystem, QueryOptions, QueryPlan, SelfOrgConfig, Strategy,
};
use gridvine_netsim::rng;
use gridvine_semantic::Provenance;
use gridvine_workload::{recall, QueryConfig, QueryGenerator, Workload, WorkloadConfig};

fn main() {
    let mut args = Args::from_env("exp_e4_recall_growth [rounds] [probe_queries] [schemas] [seed]");
    let rounds: usize = args.or(10);
    let probes: usize = args.or(40);
    let schemas: usize = args.or(16);
    let seed: u64 = args.or(1);
    args.done();

    println!("E4: recall growth — {schemas} schemas, {rounds} self-organization rounds");
    let workload = Workload::generate(WorkloadConfig {
        schemas,
        entities: 200,
        export_fraction: 0.35,
        ..WorkloadConfig::default()
    });
    let config = GridVineConfig {
        peers: 64,
        seed,
        ..GridVineConfig::default()
    };
    let (mut sys, loaded) = fixtures::publish(config, &workload);
    // Manual seed: a 3-link chain, as entered at schema-insertion time.
    for i in 0..3.min(workload.schemas.len() - 1) {
        fixtures::correct_mapping(&mut sys, &workload, i, i + 1, Provenance::Manual);
    }
    println!(
        "loaded {loaded} triples; {} manual seed mappings",
        sys.registry().active_count()
    );

    let generator = QueryGenerator::new(&workload, QueryConfig::default());
    let mut qrng = rng::derive(seed, 0xE4);
    let probe_set = generator.batch(probes, &mut qrng);

    let probe = |sys: &mut GridVineSystem| -> (f64, f64) {
        let mut total_recall = 0.0;
        let mut total_msgs = 0.0;
        let mut counted = 0usize;
        for g in &probe_set {
            if g.true_answers.is_empty() {
                continue;
            }
            let origin = sys.random_peer();
            let plan = QueryPlan::search(g.query.clone());
            let opts = QueryOptions::new().strategy(Strategy::Iterative);
            if let Ok(out) = sys.execute(origin, &plan, &opts) {
                total_recall += recall(&out.accessions(), &g.true_answers);
                total_msgs += out.stats.messages as f64;
                counted += 1;
            }
        }
        (
            total_recall / counted.max(1) as f64,
            total_msgs / counted.max(1) as f64,
        )
    };

    let cfg = SelfOrgConfig {
        max_new_mappings: 6,
        ..SelfOrgConfig::default()
    };
    let mut table = Table::new(&[
        "round",
        "ci",
        "active mappings",
        "created",
        "deprecated",
        "largest SCC",
        "mean recall",
        "msgs/query",
    ]);
    let (r0, m0) = probe(&mut sys);
    table.row(&[
        "0".into(),
        "-".into(),
        sys.registry().active_count().to_string(),
        "-".into(),
        "-".into(),
        f(sys.registry().largest_scc_fraction(), 2),
        f(r0, 3),
        f(m0, 1),
    ]);
    for round in 1..=rounds {
        let rep = sys.self_organization_round(&cfg).unwrap();
        let (rec, msgs) = probe(&mut sys);
        table.row(&[
            round.to_string(),
            f(rep.ci, 3),
            rep.active_mappings.to_string(),
            rep.created.len().to_string(),
            rep.deprecated.len().to_string(),
            f(rep.largest_scc_fraction, 2),
            f(rec, 3),
            f(msgs, 1),
        ]);
    }
    println!("\n{}", table.render());
    println!("paper claim: recall starts low under the sparse seed network and rises as\nautomatic mappings connect the schemas.");
}
