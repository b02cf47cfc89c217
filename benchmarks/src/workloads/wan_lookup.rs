//! `wan_lookup`: the paper's §2.3 deployment — 340 machines sharing
//! ≈ 17.8 k triples, batches of 23 000 single-pattern lookups.
//!
//! It runs on `harness::Deployment`: every message is dispatched hop
//! by hop by `netsim::Network` and routed by the message-level
//! `pgrid::proto` (≈ 6 messages per lookup), peers keep ~50-triple
//! bucket stores and no query is reformulated. It is the only workload
//! that reproduces the paper's headline ("40 % within 1 s, 75 % within
//! 5 s") and the stack the roadmap's one-engine item will rewire.
//! `Deployment::run_queries` is a batch call, so an `op` span covers
//! one batch and there are no per-op host times.

use super::{
    corpus_seed, corpus_triples, generate, report_spans, single_queries, Cx, Rep, TESTBED_SEED,
};
use crate::adapters::Wan;
use crate::measure::{first_rss_bytes, ratio, rss_bytes, Digest};
use crate::replay::Replayer;
use gridvine_netsim::Cdf;
use gridvine_pgrid::{BitString, PeerId};
use gridvine_rdf::{Triple, TriplePatternQuery};
use gridvine_workload::WorkloadConfig;
use std::collections::HashMap;
use std::time::Instant;

const PEERS: usize = 340;
/// The paper's batch size.
const BATCH: usize = 23_000;
/// Generated lookups the seeded schedule draws from.
const POOL: usize = 8_192;
/// Batches per repetition at the default run length (≥ 5 s at HEAD).
const BASE_BATCHES: usize = 3;
/// Replies a busy deployment keeps pending on its one event queue.
const EVENT_DEPTH: usize = 256;
/// The paper's §2.3 claim, checked on every run.
const PAPER_WITHIN_1S: f64 = 0.40;
const PAPER_WITHIN_5S: f64 = 0.75;
const PAPER_TOLERANCE: f64 = 0.03;

/// Queries the generator's own triples say have an answer at the
/// schema they are posed against — what a lookup without
/// reformulation must find.
fn expected_answered(triples: &[Triple], queries: &[TriplePatternQuery]) -> usize {
    let mut by_predicate: HashMap<&str, Vec<&Triple>> = HashMap::new();
    for t in triples {
        by_predicate
            .entry(t.predicate.as_str())
            .or_default()
            .push(t);
    }
    queries
        .iter()
        .filter(|q| {
            let predicate = q.pattern.predicate.as_const().map(|t| t.lexical());
            predicate
                .and_then(|p| by_predicate.get(p))
                .is_some_and(|ts| ts.iter().any(|t| q.pattern.match_triple(t).is_some()))
        })
        .count()
}

pub fn run(cx: &mut Cx) -> Rep {
    let mut rep = Rep::default();
    let rss0 = first_rss_bytes();
    let t0 = Instant::now();
    let corpus = generate(cx, WorkloadConfig::paper_scale(corpus_seed()));
    let triples = corpus_triples(&corpus);
    let mut wan = cx.tr.span("setup.system_new", || Wan::paper(TESTBED_SEED));
    let placements = cx
        .tr
        .span("setup.insert_triples", || wan.preload(triples.clone()));
    rep.set("setup_s", t0.elapsed().as_secs_f64());
    // Each batch is a seeded draw from the query pool; the deployment
    // itself picks origins and arrival gaps.
    let batch = if cx.quick { 2_000 } else { BATCH };
    let batches = if cx.quick { 1 } else { cx.ops(BASE_BATCHES) };
    let pool = single_queries(&corpus, POOL, 0.5);
    let queries: Vec<TriplePatternQuery> = cx
        .schedule(batch * batches, POOL, PEERS)
        .into_iter()
        .map(|(q, _)| pool[q].query.clone())
        .collect();
    if let Some(rss0) = rss0 {
        rep.set(
            "rdf.rss_bytes_per_triple",
            ratio(rss_bytes() - rss0, triples.len() as f64),
        );
    }
    rep.set(
        "rdf.triples_per_peer",
        ratio(placements as f64, PEERS as f64),
    );

    let mut replayer = cx.tr.enabled().then(|| {
        let mut r = Replayer::new(&mut cx.tr, wan.topology(), EVENT_DEPTH, 0);
        r.setup(&mut cx.tr, PEERS, &triples, |l| wan.key_of(l));
        r
    });

    let net0 = wan.network_stats();
    let mut latencies = Cdf::new();
    let (mut submitted, mut answered, mut not_found, mut timed_out) = (0usize, 0, 0, 0);
    let mut messages = 0u64;
    let mut digest = Digest::default();
    let mut timed_s = 0.0;
    for (b, chunk) in queries.chunks(batch).enumerate() {
        cx.tr.set_op(b as u64 + 1);
        cx.tr.begin("op");
        let t = Instant::now();
        let report = cx.tr.span("harness.run_queries", || wan.run_queries(chunk));
        timed_s += t.elapsed().as_secs_f64();
        if let Some(r) = replayer.as_mut() {
            // The batch's routes from rotating origins, then one event
            // per message the network carried.
            cx.tr.begin("replay");
            let requests: Vec<(PeerId, BitString)> = chunk
                .iter()
                .filter_map(|q| q.pattern.routing_constant())
                .enumerate()
                .map(|(i, (_, term))| (PeerId::from_index(i % PEERS), wan.key_of(term.lexical())))
                .collect();
            r.routes(&mut cx.tr, &requests);
            r.events(&mut cx.tr, report.messages);
            cx.tr.end();
        }
        cx.tr.end();
        submitted += report.submitted;
        answered += report.answered;
        not_found += report.not_found;
        timed_out += report.timed_out;
        messages += report.messages;
        digest.add_text(&format!(
            "{} {} {} {} {} {}",
            report.answered,
            report.not_found,
            report.timed_out,
            report.messages,
            report.wall.as_micros(),
            report.mean_hops.to_bits()
        ));
        latencies.merge(&report.latencies);
    }

    rep.check(answered + not_found + timed_out == submitted, || {
        format!("{answered} answered + {not_found} empty + {timed_out} timed out != {submitted}")
    });
    rep.check(latencies.len() == answered, || {
        format!(
            "{} latencies for {answered} answered lookups",
            latencies.len()
        )
    });
    let expected = expected_answered(&triples, &queries);
    rep.check(answered == expected, || {
        format!("{answered} lookups answered, the corpus says {expected}")
    });
    // Shares of the lookups that have an answer to return: a timed-out
    // lookup misses every latency limit. (The harness records no
    // latency for a lookup whose correct answer is empty.)
    let share = |x: f64| x * ratio(answered as f64, (answered + timed_out) as f64);
    let within_1s = share(latencies.fraction_leq(1.0));
    let within_5s = share(latencies.fraction_leq(5.0));
    if !cx.quick {
        for (got, paper) in [(within_1s, PAPER_WITHIN_1S), (within_5s, PAPER_WITHIN_5S)] {
            rep.check((got - paper).abs() <= PAPER_TOLERANCE, || {
                format!("share {got:.3} is not within {PAPER_TOLERANCE} of the paper's {paper}")
            });
        }
    }

    let ops = submitted as f64;
    let net = wan.network_stats();
    let events = (net.delivered - net0.delivered + net.timers_fired - net0.timers_fired) as f64;
    rep.set("ops_per_s", ratio(ops, timed_s));
    rep.set("sim_latency_p50_ms", latencies.quantile(0.50) * 1e3);
    rep.set("sim_latency_p99_ms", latencies.quantile(0.99) * 1e3);
    rep.set("sim_within_1s_frac", within_1s);
    rep.set("sim_within_5s_frac", within_5s);
    rep.set("sim_messages_per_op", ratio(messages as f64, ops));
    rep.set("recall", ratio(answered as f64, expected as f64));
    rep.set("failed_frac", ratio(timed_out as f64, ops));
    rep.set("netsim.sim_events_per_op", ratio(events, ops));
    rep.set("netsim.events_per_s", ratio(events, timed_s));
    rep.set("netsim.sim_timeouts_per_op", ratio(timed_out as f64, ops));
    rep.set("pgrid.sim_routes_per_op", 1.0);
    rep.attempted = submitted as u64;
    rep.failed = timed_out as u64;
    rep.digest = digest;
    if let Some(r) = &replayer {
        report_spans(&mut rep, &cx.tr, r, submitted as u64, triples.len() as u64);
    }
    rep
}
