//! Load L1 — arrival rate × admission cap (§2.3).
//!
//! The paper's deployment serves many concurrent querying peers; this
//! experiment measures what the concurrent-session multiplexer delivers
//! as open-loop submission pressure rises against a fixed admission
//! policy. For each (arrival rate, admission cap) point it drives a
//! Poisson stream of reformulated chain queries from 8 origins over the
//! regional WAN latency model and reports the delivered fraction, the
//! shed load (queued / rejected) and the completion-latency tail
//! (p50/p99 from real per-session completion instants).
//!
//! Usage: `exp_l1_arrival_sweep [sessions] [seed]`

use gridvine_bench::{f, fixtures, Args, Table};
use gridvine_core::{GridVineConfig, QueryPlan};
use gridvine_load::{run_open_loop, ArrivalProcess, LoadConfig};
use gridvine_netsim::LatencyConfig;

const CHAIN: usize = 4;

fn main() {
    let mut args = Args::from_env("exp_l1_arrival_sweep [sessions] [seed]");
    let sessions: usize = args.or(200);
    let seed: u64 = args.or(1);
    args.done();

    println!("L1: open-loop arrival rate x admission cap ({sessions} sessions per point)");
    let plans = vec![QueryPlan::search(fixtures::chain_query())];
    let mut table = Table::new(&[
        "rate/s",
        "cap",
        "delivered",
        "queued",
        "rejected",
        "p50 ms",
        "p99 ms",
    ]);
    for rate in [2.0f64, 5.0, 10.0, 20.0] {
        for cap in [2usize, 8, 32] {
            let cfg = LoadConfig {
                sessions,
                arrivals: ArrivalProcess::Poisson { rate },
                origins: 8,
                max_concurrent: cap,
                queue_capacity: cap,
                seed,
                ..LoadConfig::default()
            };
            let config = GridVineConfig {
                peers: 64,
                latency: LatencyConfig::planetlab_2007(),
                seed,
                ..GridVineConfig::default()
            };
            let mut sys = fixtures::chain(config, CHAIN);
            let r = run_open_loop(&mut sys, &plans, &cfg);
            assert_eq!(
                r.resolved(),
                r.submitted,
                "every session lands in one bucket"
            );
            table.row(&[
                f(rate, 0),
                cap.to_string(),
                f(r.delivered_fraction(), 3),
                r.queued.to_string(),
                r.rejected.to_string(),
                f(r.latency.p50.as_micros() as f64 / 1000.0, 1),
                f(r.latency.p99.as_micros() as f64 / 1000.0, 1),
            ]);
        }
    }
    println!("\n{}", table.render());
    println!("expected shape: below the origins' service capacity every point delivers\n~1.0 with a flat tail; past it small caps shed load (rejected grows) while\nlarge caps admit everything and push the shortfall into the p99 latency.");
}
