//! Robustness R2 — reply duplication and reordering are free (§2.1).
//!
//! The request/response protocol tags every routed subquery with a
//! request id and delivers each id once: a network that duplicates or
//! reorders replies must change *nothing* about the answer — same
//! rows, same overlay messages — while the dropped copies are counted.
//! This binary sweeps the duplication rate (with reordering jitter on
//! top) and checks the invariance explicitly per run.
//!
//! Usage: `exp_r2_duplication_storm [repeats] [seed]`

use gridvine_bench::{f, fixtures, Args, Table};
use gridvine_core::{GridVineConfig, QueryPlan};
use gridvine_netsim::{FaultConfig, SimDuration};

const CHAIN: usize = 6;

fn config(fault: FaultConfig, seed: u64) -> GridVineConfig {
    GridVineConfig {
        peers: 64,
        fault,
        seed,
        ..GridVineConfig::default()
    }
}

fn main() {
    let mut args = Args::from_env("exp_r2_duplication_storm [repeats] [seed]");
    let repeats: usize = args.or(20);
    let seed: u64 = args.or(1);
    args.done();

    println!("R2: reply duplication/reordering storm ({repeats} repeats per point)");
    let plan = QueryPlan::search(fixtures::chain_query());
    let options = fixtures::options();

    let mut table = Table::new(&[
        "duplication",
        "rows ok",
        "msgs ok",
        "dups dropped/q",
        "msgs/q",
    ]);
    for duplication in [0.0f64, 0.25, 0.5, 1.0] {
        let mut rows_ok = 0usize;
        let mut msgs_ok = 0usize;
        let mut dropped = 0usize;
        let mut messages = 0u64;
        for rep in 0..repeats {
            let mut clean = fixtures::chain(config(FaultConfig::none(), seed + rep as u64), CHAIN);
            let origin = clean.random_peer();
            let base = clean.execute(origin, &plan, &options).unwrap();

            let mut cfg = FaultConfig::duplicating(duplication);
            cfg.reorder = 0.5;
            cfg.reorder_jitter = SimDuration::from_millis(20);
            let mut stormy = fixtures::chain(config(cfg, seed + rep as u64), CHAIN);
            let origin = stormy.random_peer();
            let out = stormy.execute(origin, &plan, &options).unwrap();

            rows_ok += usize::from(out.rows == base.rows);
            msgs_ok += usize::from(out.stats.messages == base.stats.messages);
            dropped += out.stats.duplicates_dropped;
            messages += out.stats.messages;
        }
        assert_eq!(rows_ok, repeats, "duplication must never change rows");
        assert_eq!(msgs_ok, repeats, "duplication must never charge messages");
        table.row(&[
            f(duplication, 2),
            format!("{rows_ok}/{repeats}"),
            format!("{msgs_ok}/{repeats}"),
            f(dropped as f64 / repeats as f64, 2),
            f(messages as f64 / repeats as f64, 1),
        ]);
    }
    println!("\n{}", table.render());
    println!("expected shape: rows and overlay messages match the clean run at every\nduplication rate; only the dropped-duplicate count grows with the rate.");
}
