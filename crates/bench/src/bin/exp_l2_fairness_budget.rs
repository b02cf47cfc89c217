//! Load L2 — origin fairness and per-session budgets under load.
//!
//! The multiplexer replenishes scheduler windows round-robin across
//! sessions and the driver assigns origins round-robin across arrivals,
//! so no origin should starve another even when the pool saturates.
//! This experiment drives a saturating Poisson stream from a varying
//! origin count and sweeps the per-session budgets — a simulated-time
//! deadline and an overlay-message cap, both enforced through the
//! pool's drop-cancels-replies path — reporting the min/max fairness
//! index over per-origin completions and the exact cancel accounting.
//!
//! Usage: `exp_l2_fairness_budget [sessions] [seed]`

use gridvine_bench::{f, fixtures, Args, Table};
use gridvine_core::{GridVineConfig, GridVineSystem, QueryPlan};
use gridvine_load::{run_open_loop, ArrivalProcess, LoadConfig};
use gridvine_netsim::{LatencyConfig, SimDuration};
use gridvine_pgrid::PeerId;
use gridvine_rdf::{Term, Triple};
use gridvine_semantic::Schema;

const CHAIN: usize = 4;

fn chain_with_island(seed: u64) -> GridVineSystem {
    let config = GridVineConfig {
        peers: 64,
        latency: LatencyConfig::planetlab_2007(),
        seed,
        ..GridVineConfig::default()
    };
    let mut sys = fixtures::chain(config, CHAIN);
    let p0 = PeerId(0);
    // An isolated schema off the mapping chain: queries against it stop
    // after one pattern search (~9 messages vs ~40 for the chain walk).
    sys.insert_schema(p0, Schema::new("T0", ["b0"])).unwrap();
    sys.insert_triple(
        p0,
        Triple::new("seq:T0", "T0#b0", Term::literal("target-value")),
    )
    .unwrap();
    sys
}

/// A deep query (full reformulation walk over the equivalence chain)
/// and a cheap one (the isolated schema, a single pattern search),
/// alternated across arrivals: the message budget sits between their
/// costs, so it trims exactly the deep half.
fn plans() -> Vec<QueryPlan> {
    let on = |predicate| QueryPlan::search(fixtures::search_for(predicate, "target-value"));
    vec![on("S0#a0"), on("T0#b0")]
}

fn main() {
    let mut args = Args::from_env("exp_l2_fairness_budget [sessions] [seed]");
    let sessions: usize = args.or(240);
    let seed: u64 = args.or(1);
    args.done();

    println!(
        "L2: origin fairness and budget cancels under open-loop WAN load ({sessions} sessions per point)"
    );
    let plans = plans();
    let mut table = Table::new(&[
        "origins",
        "deadline",
        "msg budget",
        "completed",
        "dl-cancel",
        "bg-cancel",
        "rejected",
        "fairness",
        "messages",
    ]);
    // Odd origin counts keep the round-robin origin assignment (i %
    // origins) decoupled from the round-robin plan assignment (i % 2),
    // so every origin sees both plan costs.
    for origins in [5usize, 15] {
        for (deadline, budget) in [
            (None, None),
            (Some(SimDuration::from_secs(3)), None),
            (None, Some(16u64)),
            (Some(SimDuration::from_secs(3)), Some(16u64)),
        ] {
            let cfg = LoadConfig {
                sessions,
                arrivals: ArrivalProcess::Poisson { rate: 4.0 },
                origins,
                max_concurrent: 8,
                queue_capacity: 16,
                deadline,
                message_budget: budget,
                seed,
                ..LoadConfig::default()
            };
            let mut sys = chain_with_island(seed);
            let r = run_open_loop(&mut sys, &plans, &cfg);
            assert_eq!(
                r.resolved(),
                r.submitted,
                "every session lands in one bucket"
            );
            table.row(&[
                origins.to_string(),
                deadline.map_or("-".into(), |d| format!("{}ms", d.as_micros() / 1000)),
                budget.map_or("-".into(), |b| b.to_string()),
                r.completed.to_string(),
                r.cancelled_deadline.to_string(),
                r.cancelled_budget.to_string(),
                r.rejected.to_string(),
                f(r.fairness(), 3),
                r.messages.to_string(),
            ]);
        }
    }
    println!("\n{}", table.render());
    println!("expected shape: round-robin replenishment keeps fairness near 1.0 at every\norigin count; deadlines convert slow completions into dl-cancels and the\nmessage budget trims the deepest reformulation chains, with cancelled work\nstill charged in the message column.");

    // Per-origin admission quotas beside the global cap: the quota
    // forces hot origins to queue instead of monopolizing slots, so
    // completion fairness must stay high even under saturation.
    let mut quotas = Table::new(&[
        "quota",
        "completed",
        "queued",
        "rejected",
        "fairness",
        "messages",
    ]);
    for quota in [None, Some(2usize), Some(1)] {
        let cfg = LoadConfig {
            sessions,
            arrivals: ArrivalProcess::Poisson { rate: 4.0 },
            origins: 5,
            max_concurrent: 8,
            origin_quota: quota,
            queue_capacity: 64,
            seed,
            ..LoadConfig::default()
        };
        let mut sys = chain_with_island(seed);
        let r = run_open_loop(&mut sys, &plans, &cfg);
        assert_eq!(
            r.resolved(),
            r.submitted,
            "every session lands in one bucket"
        );
        if quota.is_some() {
            assert!(
                r.fairness() >= 0.95,
                "per-origin quotas must keep completions fair (got {})",
                r.fairness()
            );
        }
        quotas.row(&[
            quota.map_or("-".into(), |q| q.to_string()),
            r.completed.to_string(),
            r.queued.to_string(),
            r.rejected.to_string(),
            f(r.fairness(), 3),
            r.messages.to_string(),
        ]);
    }
    println!("\n{}", quotas.render());
    println!("expected shape: tightening the per-origin quota moves admissions into the\nwait queue (queued grows as quota shrinks) while the fairness index stays\npinned near 1.0 — no origin can buy extra slots by arriving in a burst.");
}
