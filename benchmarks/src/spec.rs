//! The benchmark's fixed vocabulary: workload names with their
//! rationale, and every metric with unit, direction, clock and bound.
//! `BENCHMARK.json` is printed from these tables (`--manifest`), so the
//! contract file and the program cannot drift apart.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// Which clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host wall-clock or host memory: noisy, reported as the median
    /// of the repetitions.
    Host,
    /// Simulated time, or a count made by the deterministic simulator:
    /// must repeat exactly across repetitions of one seed.
    Sim,
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub clock: Clock,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: f64,
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock: Clock::Host,
        bound: 0.0,
    }
}

const fn sim(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        clock: Clock::Sim,
        bound: 0.0,
    }
}

const fn bounded(m: Metric, bound: f64) -> Metric {
    Metric { bound, ..m }
}

use Better::{Higher, Lower};

/// What a user of the system sees. Every workload reports every one of
/// these, and none is ever 0.
pub const END_TO_END: &[Metric] = &[
    bounded(host("setup_s", "s", Lower), 0.25),
    bounded(host("ops_per_s", "1/s", Higher), 0.25),
    bounded(host("peak_rss_mb", "MiB", Lower), 0.10),
    bounded(sim("sim_latency_p50_ms", "ms", Lower), 0.15),
    bounded(sim("sim_latency_p99_ms", "ms", Lower), 0.10),
    bounded(sim("sim_messages_per_op", "count", Lower), 0.05),
    bounded(sim("recall", "fraction", Higher), 0.05),
];

/// One open-loop arrival rate, in sessions per simulated second, and
/// the names of its three `load.*` metrics.
pub struct Rate {
    pub per_s: f64,
    pub p50: &'static str,
    pub p99: &'static str,
    pub delivered: &'static str,
}

macro_rules! rate {
    ($per_s:expr, $suffix:literal) => {
        Rate {
            per_s: $per_s,
            p50: concat!("load.sim_p50_ms.", $suffix),
            p99: concat!("load.sim_p99_ms.", $suffix),
            delivered: concat!("load.delivered_frac.", $suffix),
        }
    };
}

pub const RATES: [Rate; 6] = [
    rate!(0.5, "r0_5"),
    rate!(1.0, "r1"),
    rate!(1.5, "r1_5"),
    rate!(2.0, "r2"),
    rate!(3.0, "r3"),
    rate!(4.0, "r4"),
];

/// Single-layer metrics and the workload-specific user metrics that
/// cannot be reported (or are 0) on some workload. 0 means "does not
/// apply to this workload".
pub const PER_LAYER: &[Metric] = &[
    // User-visible, but specific to some workloads.
    host("op_wall_p50_us", "us", Lower),
    host("op_wall_p99_us", "us", Lower),
    host("ingest_triples_per_s", "1/s", Higher),
    host("search_ops_per_s", "1/s", Higher),
    sim("sim_within_1s_frac", "fraction", Higher),
    sim("sim_within_5s_frac", "fraction", Higher),
    sim("sim_max_rate_ok_per_s", "1/s", Higher),
    sim("failed_frac", "fraction", Lower),
    // netsim
    host("netsim.event_ns", "ns", Lower),
    host("netsim.events_per_s", "1/s", Higher),
    sim("netsim.sim_events_per_op", "count", Lower),
    host("netsim.latency_sample_ns", "ns", Lower),
    sim("netsim.sim_timeouts_per_op", "count", Lower),
    // pgrid
    host("pgrid.route_ns", "ns", Lower),
    sim("pgrid.sim_hops_per_route", "count", Lower),
    sim("pgrid.sim_routes_per_op", "count", Lower),
    host("pgrid.update_ns", "ns", Lower),
    host("pgrid.build_s", "s", Lower),
    // rdf
    host("rdf.insert_batch_triples_per_s", "1/s", Higher),
    host("rdf.match_ns_per_row", "ns", Lower),
    host("rdf.join_ns_per_row", "ns", Lower),
    sim("rdf.sim_rows_per_op", "count", Lower),
    sim("rdf.triples_per_peer", "count", Lower),
    host("rdf.rss_bytes_per_triple", "B", Lower),
    // semantic
    host("semantic.closure_ns", "ns", Lower),
    sim("semantic.sim_schemas_per_op", "count", Higher),
    sim("semantic.sim_reformulations_per_op", "count", Higher),
    sim("semantic.cache_hit_ratio", "fraction", Higher),
    host("semantic.mapping_insert_us", "us", Lower),
    // core
    host("core.self_us_per_op", "us", Lower),
    host("core.open_us", "us", Lower),
    sim("core.sim_subqueries_per_op", "count", Lower),
    sim("core.sim_bindings_shipped_per_op", "count", Lower),
    sim("core.sim_retransmits_per_op", "count", Lower),
    host("core.join_independent_us_per_op", "us", Lower),
    host("core.join_bound_us_per_op", "us", Lower),
    host("core.insert_us_per_triple", "us", Lower),
    // load
    host("load.host_us_per_session", "us", Lower),
    sim("load.admitted_frac", "fraction", Higher),
    sim("load.queued_frac", "fraction", Lower),
    sim("load.rejected_frac", "fraction", Lower),
    sim("load.fairness", "fraction", Higher),
    sim("load.sim_queue_wait_p99_ms", "ms", Lower),
    sim("load.sim_p50_ms.r0_5", "ms", Lower),
    sim("load.sim_p50_ms.r1", "ms", Lower),
    sim("load.sim_p50_ms.r1_5", "ms", Lower),
    sim("load.sim_p50_ms.r2", "ms", Lower),
    sim("load.sim_p50_ms.r3", "ms", Lower),
    sim("load.sim_p50_ms.r4", "ms", Lower),
    sim("load.sim_p99_ms.r0_5", "ms", Lower),
    sim("load.sim_p99_ms.r1", "ms", Lower),
    sim("load.sim_p99_ms.r1_5", "ms", Lower),
    sim("load.sim_p99_ms.r2", "ms", Lower),
    sim("load.sim_p99_ms.r3", "ms", Lower),
    sim("load.sim_p99_ms.r4", "ms", Lower),
    sim("load.delivered_frac.r0_5", "fraction", Higher),
    sim("load.delivered_frac.r1", "fraction", Higher),
    sim("load.delivered_frac.r1_5", "fraction", Higher),
    sim("load.delivered_frac.r2", "fraction", Higher),
    sim("load.delivered_frac.r3", "fraction", Higher),
    sim("load.delivered_frac.r4", "fraction", Higher),
    // workload generator
    host("workload.generate_s", "s", Lower),
    // the tracer itself
    host("trace.overhead_frac", "fraction", Lower),
    host("trace.spans", "count", Lower),
];

#[derive(Debug, Clone, Copy)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "wan_lookup",
        why: "Paper 2.3 deployment: 340 peers, 17.8k triples, 23k-lookup batches hop by hop over netsim and pgrid::proto; stores are tiny and the mapping layer is bypassed.",
    },
    WorkloadSpec {
        name: "closure_search",
        why: "One closed-loop client, 100 mappings over 50 schemas on 340 peers: session scheduler, closure expansion, closure caches and overlay routing dominate; the store does almost nothing.",
    },
    WorkloadSpec {
        name: "join_heavy",
        why: "200k triples on 32 peers, conjunctive joins in both modes plus wildcard closures: store scans, joins and row shipping dominate and the data exceeds every cache in the program.",
    },
    WorkloadSpec {
        name: "ingest_interleaved",
        why: "Writes beside reads: 600k triples in 12 rounds, a mapping inserted and one deprecated per round, searches on invalidated caches; exposes read gains paid for at ingest.",
    },
    WorkloadSpec {
        name: "open_loop",
        why: "Poisson arrivals at six fixed rates across the knee into the session pool: the only workload with many live sessions on one clock, so admission, queueing and reply dispatch are exercised.",
    },
];

pub fn workload(name: &str) -> Option<&'static WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2007;
/// Run length `BENCHMARK.json` fixes; op counts are sized for it.
pub const RUN_SECONDS: u64 = 15;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let list = |items: Vec<String>| items.join(",\n");
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!(r#"    {{"name": "{}", "why": "{}"}}"#, w.name, w.why))
        .collect();
    let entry = |m: &Metric| {
        format!(
            r#"    {{"name": "{}", "unit": "{}", "better": "{}""#,
            m.name,
            m.unit,
            m.better.as_str()
        )
    };
    let end_to_end = END_TO_END
        .iter()
        .map(|m| format!(r#"{}, "bound": {}}}"#, entry(m), m.bound))
        .collect();
    let per_layer = PER_LAYER.iter().map(|m| entry(m) + "}").collect();
    format!(
        r#"{{
  "command": ["cargo", "run", "--release", "--offline", "--quiet", "--manifest-path", "benchmarks/Cargo.toml", "--"],
  "paths": ["benchmarks"],
  "run_seconds": {RUN_SECONDS},
  "workloads": [
{}
  ],
  "end_to_end": [
{}
  ],
  "per_layer": [
{}
  ]
}}
"#,
        list(workloads),
        list(end_to_end),
        list(per_layer)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|m| m.name)
            .chain(WORKLOADS.iter().map(|w| w.name))
            .collect();
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric or workload name");
        for w in WORKLOADS {
            assert!(w.why.len() <= 200, "{}: {}", w.name, w.why.len());
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        for r in &RATES {
            for name in [r.p50, r.p99, r.delivered] {
                assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
            }
        }
    }
}
