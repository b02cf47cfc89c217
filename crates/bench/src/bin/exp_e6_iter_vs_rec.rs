//! Experiment E6 — iterative vs recursive reformulation (§4).
//!
//! "In reformulating queries, we support two approaches: iterative,
//! where a peer iteratively looks for paths of mappings and reformulates
//! the query by itself, and recursive, where the successive
//! reformulations are delegated to intermediate peers."
//!
//! Builds mapping chains of length 1…8 and measures, per strategy, the
//! overlay messages per fully disseminated query and the results
//! returned. The iterative origin pays a mapping-fetch round trip per
//! schema; the recursive expansion forwards the query instead, so its
//! advantage grows with chain length.
//!
//! Usage: `exp_e6_iter_vs_rec [repeats] [seed]`

use gridvine_bench::{f, fixtures, Args, Table};
use gridvine_core::{GridVineConfig, QueryOptions, QueryPlan, Strategy};

fn config(seed: u64) -> GridVineConfig {
    GridVineConfig {
        peers: 128,
        seed,
        ..GridVineConfig::default()
    }
}

fn main() {
    let mut args = Args::from_env("exp_e6_iter_vs_rec [repeats] [seed]");
    let repeats: usize = args.or(30);
    let seed: u64 = args.or(1);
    args.done();

    println!("E6: iterative vs recursive reformulation ({repeats} repeats per point)");
    let plan = QueryPlan::search(fixtures::chain_query());

    let mut table = Table::new(&[
        "chain len",
        "results",
        "iter msgs/query",
        "rec msgs/query",
        "rec/iter",
    ]);
    for len in 1..=8 {
        let mut iter_msgs = 0.0;
        let mut rec_msgs = 0.0;
        let mut results = 0usize;
        for rep in 0..repeats {
            let mut sys = fixtures::chain(config(seed + rep as u64), len);
            let origin = sys.random_peer();
            let it = sys
                .execute(
                    origin,
                    &plan,
                    &QueryOptions::new().strategy(Strategy::Iterative),
                )
                .unwrap();
            iter_msgs += it.stats.messages as f64;
            results = it.rows.len();

            let mut sys = fixtures::chain(config(seed + rep as u64), len);
            let origin = sys.random_peer();
            let rec = sys
                .execute(
                    origin,
                    &plan,
                    &QueryOptions::new().strategy(Strategy::Recursive),
                )
                .unwrap();
            rec_msgs += rec.stats.messages as f64;
            assert_eq!(rec.rows.len(), it.rows.len(), "strategies must agree");
        }
        iter_msgs /= repeats as f64;
        rec_msgs /= repeats as f64;
        table.row(&[
            len.to_string(),
            results.to_string(),
            f(iter_msgs, 1),
            f(rec_msgs, 1),
            f(rec_msgs / iter_msgs, 3),
        ]);
    }
    println!("\n{}", table.render());
    println!("both strategies return identical results; recursive saves the per-schema\nmapping-fetch round trips, so its relative cost falls with chain length.");
}
