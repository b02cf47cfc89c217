//! Robustness R3 — riding out churn with backoff (§2.1).
//!
//! "…efficient even in highly unreliable, dynamic environments."
//!
//! Every peer except the query origin goes down at t=0 and recovers
//! after a sweep-controlled outage, while replies also suffer
//! reordering jitter. The retry protocol's exponential backoff
//! (base 5ms, doubling per attempt) determines how long an outage a
//! given retry budget can bridge: short outages are absorbed by one or
//! two retransmits, long ones exhaust small budgets and surface as
//! recorded failures — never as hangs.
//!
//! Usage: `exp_r3_reorder_churn [repeats] [seed]`

use gridvine_bench::{f, fixtures, Args, Table};
use gridvine_core::{GridVineConfig, QueryPlan};
use gridvine_netsim::churn::{ChurnEvent, ChurnKind};
use gridvine_netsim::{FaultConfig, NodeId, SimDuration, SimTime};
use gridvine_pgrid::PeerId;

const CHAIN: usize = 6;
const PEERS: usize = 64;

fn outage(origin: PeerId, millis: u64) -> Vec<ChurnEvent> {
    (0..PEERS)
        .filter(|&i| i != origin.index())
        .flat_map(|i| {
            [
                ChurnEvent {
                    at: SimTime::ZERO,
                    node: NodeId::from_index(i),
                    kind: ChurnKind::Fail,
                },
                ChurnEvent {
                    at: SimTime::ZERO + SimDuration::from_millis(millis),
                    node: NodeId::from_index(i),
                    kind: ChurnKind::Recover,
                },
            ]
        })
        .collect()
}

fn main() {
    let mut args = Args::from_env("exp_r3_reorder_churn [repeats] [seed]");
    let repeats: usize = args.or(20);
    let seed: u64 = args.or(1);
    args.done();

    println!("R3: bridging an outage with exponential backoff ({repeats} repeats per point)");
    let plan = QueryPlan::search(fixtures::chain_query());
    let full_rows = (CHAIN + 1) * repeats;
    let mut fault = FaultConfig::none();
    fault.reorder = 0.5;
    fault.reorder_jitter = SimDuration::from_millis(10);

    let mut table = Table::new(&[
        "outage ms",
        "retries",
        "rows",
        "timeouts/q",
        "retransmits/q",
        "exhausted/q",
    ]);
    for millis in [2u64, 10, 50] {
        for retries in [1usize, 3, 8] {
            let mut rows = 0usize;
            let mut timeouts = 0usize;
            let mut retransmits = 0usize;
            let mut failures = 0usize;
            for rep in 0..repeats {
                let config = GridVineConfig {
                    peers: PEERS,
                    fault: fault.clone(),
                    seed: seed + rep as u64,
                    ..GridVineConfig::default()
                };
                let mut sys = fixtures::chain(config, CHAIN);
                let origin = sys.random_peer();
                sys.install_churn(&outage(origin, millis));
                let options = fixtures::options().max_retries(retries);
                let out = sys.execute(origin, &plan, &options).unwrap();
                rows += out.rows.len();
                timeouts += out.stats.timeouts;
                retransmits += out.stats.retransmits;
                failures += out.stats.failures;
            }
            table.row(&[
                millis.to_string(),
                retries.to_string(),
                f(rows as f64 / full_rows as f64, 3),
                f(timeouts as f64 / repeats as f64, 2),
                f(retransmits as f64 / repeats as f64, 2),
                f(failures as f64 / repeats as f64, 2),
            ]);
        }
    }
    println!("\n{}", table.render());
    println!("expected shape: a 2ms outage is bridged by a single retransmit; 50ms needs\nthe larger budgets (backoff reaches ~35-50ms after 3 retries), and the\nexhausted column shows small budgets giving up instead of hanging.");
}
