//! `open_loop`: the `closure_search` system under Poisson arrivals at
//! six fixed rates (0.5 … 4 sessions per simulated second) through
//! `gridvine-load`'s `run_open_loop` and the `SessionPool` — 64
//! origins, at most 64 live sessions, a wait queue of 64, a fresh
//! system per rate.
//!
//! Latency runs from the instant a session was due (its arrival) to
//! its final reply, so queue wait is inside it; arrivals are simulated
//! instants, so the generator is never late by construction. It is
//! the only workload with many live sessions on one clock — admission,
//! queueing, earliest-reply dispatch — which `closure_search`, with
//! one live session, bypasses entirely.
//!
//! Session i runs pool plan i from origin i mod 64, so every run
//! offers the same work and `--seed` moves only the arrival instants.
//! The six rates bracket the knee: at HEAD 1.5/s is delivered in full
//! with an empty queue, at 2/s 60 % of the sessions queue and 0.9 % are
//! turned away, and 4/s sheds half. The workload-level simulated
//! latencies, messages and recall are taken at 1.5/s, the admission
//! shares, fairness and queue wait at 2/s. Sessions shed by admission
//! control are the sweep's expected output, not failed operations.
//! `run_open_loop` is a batch call, so an `op` span covers one rate.

use super::closure_search::{fixture, Fixture, PEERS, WINDOW};
use super::{corpus_triples, report_spans, run_op, triples_per_peer, Cx, OpAcc, Rep};
use crate::measure::{first_rss_bytes, median, ratio, rss_bytes, Digest};
use crate::replay::Replayer;
use crate::spec::RATES;
use crate::trace::Tracer;
use gridvine_core::{ExecStats, QueryOptions, Strategy};
use gridvine_load::{run_open_loop, ArrivalProcess, LoadConfig};
use gridvine_pgrid::PeerId;
use std::time::Instant;

const ORIGINS: usize = 64;
const MAX_CONCURRENT: usize = 64;
const QUEUE_CAPACITY: usize = 64;
/// Sessions per rate at the default run length.
const BASE_SESSIONS: usize = 3_000;
/// Index into `RATES` of 1.5 sessions/s, the highest rate HEAD sustains
/// with an empty queue: the workload-level latencies, messages and
/// recall are taken there. (At the knee the p50 moves 16 % with the
/// arrival instants alone.)
const SUSTAINED: usize = 2;
/// Index of 2 sessions/s, the knee at HEAD: the admission shares,
/// fairness and queue wait are taken there.
const KNEE: usize = 3;
/// A rate is sustained when every session is delivered and the p99
/// stays under this many simulated milliseconds.
const P99_LIMIT_MS: f64 = 600_000.0;
const MIN_RECALL: f64 = 0.50;

pub fn run(cx: &mut Cx) -> Rep {
    let mut rep = Rep::default();
    let sessions = cx.ops(BASE_SESSIONS);
    let mut setups = Vec::new();
    let (mut submitted, mut errors, mut rows, mut messages) = (0usize, 0usize, 0usize, 0u64);
    let mut host_s = 0.0f64;
    let mut digest = Digest::default();
    let mut max_rate_ok = 0.0f64;
    let mut replayer: Option<Replayer> = None;
    let rss0 = first_rss_bytes();

    for (index, rate) in RATES.iter().enumerate() {
        let t0 = Instant::now();
        let Fixture {
            mut sys,
            corpus,
            queries,
            plans,
        } = fixture(cx);
        setups.push(t0.elapsed().as_secs_f64());
        if index == 0 {
            if let Some(rss0) = rss0 {
                rep.set(
                    "rdf.rss_bytes_per_triple",
                    ratio(rss_bytes() - rss0, corpus.triple_count() as f64),
                );
            }
            rep.set("rdf.triples_per_peer", triples_per_peer(&sys));
            if cx.tr.enabled() {
                let ttl = sys.config().ttl;
                let depth = MAX_CONCURRENT * WINDOW;
                let mut r = Replayer::new(&mut cx.tr, sys.topology(), depth, ttl);
                r.setup(&mut cx.tr, PEERS, &corpus_triples(&corpus), |l| {
                    sys.key_of(l)
                });
                replayer = Some(r);
            }
        }

        // Session i runs pool plan i from origin i mod 64 (the driver
        // assigns both round-robin); `--seed` moves the arrivals.
        let config = LoadConfig {
            sessions,
            arrivals: ArrivalProcess::Poisson { rate: rate.per_s },
            origins: ORIGINS,
            max_concurrent: MAX_CONCURRENT,
            queue_capacity: QUEUE_CAPACITY,
            window: WINDOW,
            strategy: Strategy::Iterative,
            seed: cx.seed,
            ..LoadConfig::default()
        };
        cx.tr.set_op(index as u64 + 1);
        cx.tr.begin("op");
        let t = Instant::now();
        let report = cx.tr.span("load.run_open_loop", || {
            run_open_loop(&mut sys, &plans, &config)
        });
        host_s += t.elapsed().as_secs_f64();
        if let Some(r) = replayer.as_mut() {
            // Each session's plan, replayed from its origin on the
            // system as the run left it. The report has no per-session
            // counters: closures are replayed as cold, and the events
            // once for the whole rate.
            let cold = ExecStats {
                mapping_fetches: 1,
                ..ExecStats::default()
            };
            for i in 0..sessions {
                let origin = PeerId::from_index(i % ORIGINS);
                r.search(
                    &mut cx.tr,
                    &sys,
                    origin,
                    &queries[i % plans.len()].query,
                    &cold,
                );
            }
            r.events(&mut cx.tr, report.messages);
        }
        cx.tr.end();

        // Every submitted session lands in exactly one bucket, twice.
        let per_s = rate.per_s;
        let entered = report.admitted + report.queued + report.rejected;
        let ended = report.completed
            + report.failed
            + report.cancelled_deadline
            + report.cancelled_budget
            + report.rejected
            + report.refused;
        rep.check(
            entered == report.submitted
                && ended == report.submitted
                && report.submitted == sessions,
            || format!("rate {per_s}: {entered} entered, {ended} ended, {sessions} due\n{report}"),
        );

        let p50 = report.latency.p50.as_micros() as f64 / 1e3;
        let p99 = report.latency.p99.as_micros() as f64 / 1e3;
        let delivered = report.delivered_fraction();
        rep.set(rate.p50, p50);
        rep.set(rate.p99, p99);
        rep.set(rate.delivered, delivered);
        if delivered == 1.0 && p99 <= P99_LIMIT_MS {
            max_rate_ok = max_rate_ok.max(per_s);
        }
        digest.add_text(&format!("{per_s} {report}"));
        submitted += report.submitted;
        errors += report.failed + report.refused;
        messages += report.messages;
        rows += report.rows;

        if index == KNEE {
            let n = report.submitted as f64;
            rep.set("failed_frac", 1.0 - delivered);
            rep.set("load.admitted_frac", ratio(report.admitted as f64, n));
            rep.set("load.queued_frac", ratio(report.queued as f64, n));
            rep.set("load.rejected_frac", ratio(report.rejected as f64, n));
            rep.set("load.fairness", report.fairness());
            rep.set(
                "load.sim_queue_wait_p99_ms",
                report.queue_wait.p99.as_micros() as f64 / 1e3,
            );
        }
        if index == SUSTAINED {
            rep.set("sim_latency_p50_ms", p50);
            rep.set("sim_latency_p99_ms", p99);
            rep.set(
                "sim_messages_per_op",
                ratio(report.messages as f64, report.submitted as f64),
            );

            // The report carries no rows, so recall against the
            // generator's truth is measured by running each session's
            // plan once more closed-loop (untimed), and the open loop
            // must have delivered exactly those rows.
            let mut verify = OpAcc::default();
            let mut expected_rows = 0usize;
            let mut quiet = Tracer::new(false);
            let options = QueryOptions::new().window(WINDOW);
            for i in 0..sessions {
                let q = i % plans.len();
                let origin = PeerId::from_index(i % ORIGINS);
                let result = run_op(&mut quiet, &mut sys, origin, &plans[q], &options, "verify");
                if let Some((_, n)) = verify.add(result, &queries[q].true_answers) {
                    expected_rows += n;
                }
            }
            rep.set("recall", verify.recall());
            rep.check(verify.recall() >= MIN_RECALL || cx.quick, || {
                format!("recall {:.3} below {MIN_RECALL}", verify.recall())
            });
            rep.check(delivered < 1.0 || expected_rows == report.rows, || {
                format!(
                    "open loop delivered {} rows, closed loop {expected_rows}",
                    report.rows
                )
            });
        }
    }

    rep.set("rdf.sim_rows_per_op", ratio(rows as f64, submitted as f64));
    rep.set("sim_max_rate_ok_per_s", max_rate_ok);
    rep.set("setup_s", median(&setups));
    rep.set("ops_per_s", ratio(submitted as f64, host_s));
    rep.set(
        "load.host_us_per_session",
        ratio(host_s * 1e6, submitted as f64),
    );
    rep.set("netsim.events_per_s", ratio(messages as f64, host_s));
    // A session shed by admission control at an overloaded rate is the
    // sweep's expected output (`load.delivered_frac.*`), not an error.
    rep.attempted = submitted as u64;
    rep.failed = errors as u64;
    rep.digest = digest;
    if let Some(r) = &replayer {
        report_spans(&mut rep, &cx.tr, r, submitted as u64, 0);
    }
    rep
}
