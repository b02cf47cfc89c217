//! Robustness R1 — message loss vs retry budget (§2.1).
//!
//! "The Retrieve and the Update operations provide probabilistic
//! guarantees for data consistency and are efficient even in highly
//! unreliable, dynamic environments."
//!
//! Sweeps the per-request loss rate of the scheduler's fault process
//! against the query protocol's retry budget on a mapping-chain
//! corpus, and reports the delivered-row fraction relative to the
//! fault-free run plus the protocol's own accounting (timeouts,
//! retransmits, exhausted requests).
//!
//! Usage: `exp_r1_loss_sweep [repeats] [seed]`

use gridvine_bench::{f, fixtures, Args, Table};
use gridvine_core::{GridVineConfig, QueryPlan};
use gridvine_netsim::FaultConfig;

const CHAIN: usize = 6;

fn main() {
    let mut args = Args::from_env("exp_r1_loss_sweep [repeats] [seed]");
    let repeats: usize = args.or(20);
    let seed: u64 = args.or(1);
    args.done();

    println!("R1: delivered rows under request loss vs retry budget ({repeats} repeats per point)");
    let plan = QueryPlan::search(fixtures::chain_query());
    let full_rows = (CHAIN + 1) * repeats;

    let mut table = Table::new(&[
        "loss",
        "retries",
        "rows",
        "timeouts/q",
        "retransmits/q",
        "exhausted/q",
    ]);
    for loss in [0.0f64, 0.05, 0.1, 0.2, 0.3] {
        for retries in [0usize, 1, 3, 10] {
            let mut rows = 0usize;
            let mut timeouts = 0usize;
            let mut retransmits = 0usize;
            let mut failures = 0usize;
            for rep in 0..repeats {
                let config = GridVineConfig {
                    peers: 64,
                    fault: FaultConfig::lossy(loss),
                    seed: seed + rep as u64,
                    ..GridVineConfig::default()
                };
                let mut sys = fixtures::chain(config, CHAIN);
                let origin = sys.random_peer();
                let options = fixtures::options().max_retries(retries);
                let out = sys.execute(origin, &plan, &options).unwrap();
                assert_eq!(
                    out.stats.sends,
                    out.stats.requests + out.stats.retransmits,
                    "send accounting"
                );
                rows += out.rows.len();
                timeouts += out.stats.timeouts;
                retransmits += out.stats.retransmits;
                failures += out.stats.failures;
            }
            table.row(&[
                f(loss, 2),
                retries.to_string(),
                f(rows as f64 / full_rows as f64, 3),
                f(timeouts as f64 / repeats as f64, 2),
                f(retransmits as f64 / repeats as f64, 2),
                f(failures as f64 / repeats as f64, 2),
            ]);
        }
    }
    println!("\n{}", table.render());
    println!("expected shape: with no retries the delivered fraction decays with loss;\na budget of 3+ retries restores the full row set for loss <= 0.2 while the\ntimeout/retransmit columns absorb the cost.");
}
