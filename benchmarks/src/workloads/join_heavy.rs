//! `join_heavy`: ≈ 200 k triples on 32 peers (≈ 19 k rows per peer
//! database — larger than any cache in the program), one closed-loop
//! client cycling three op kinds: a two-pattern conjunctive query with
//! `JoinMode::Independent`, the same query with
//! `JoinMode::BoundSubstitution`, and a wildcard closure search.
//!
//! Hundreds of rows per op: store scans, joins, dictionary gathers and
//! shipping rows to the origin dominate; routes are at most 5 hops.
//! The bound-join third issues tens of thousands of routed messages
//! per op, which uses overlay routing as a bulk operation. Pushdown,
//! surface-diet and multicore work must show here; a routing or
//! closure optimisation must show nothing on the other two thirds.

use super::{
    build_system, chord_pairs, corpus_triples, query_rng, report_spans, ring_pairs, run_op,
    single_queries, sized_corpus, triples_per_peer, Before, Cx, OpAcc, Rep,
};
use crate::measure::{first_rss_bytes, ratio, rss_bytes};
use crate::replay::Replayer;
use gridvine_core::{JoinMode, QueryOptions, QueryPlan};
use gridvine_netsim::LatencyConfig;
use gridvine_pgrid::PeerId;
use gridvine_workload::{QueryConfig, QueryGenerator};
use std::time::Instant;

const PEERS: usize = 32;
const ENTITIES: usize = 10_000;
const WINDOW: usize = 4;
/// Cycles of three ops per repetition at the default run length.
const BASE_CYCLES: usize = 140;
/// Generated conjunctive queries, and as many wildcard searches, that
/// the seeded schedule draws from: one pass at the default run length,
/// because per-query cost is heavy-tailed (a bound join can charge
/// 100 k messages) and a different draw would be a different workload.
const POOL: usize = BASE_CYCLES;
/// Mean recall at HEAD is 0.60 (seed 2007).
const MIN_RECALL: f64 = 0.45;

pub fn run(cx: &mut Cx) -> Rep {
    let mut rep = Rep::default();
    let rss0 = first_rss_bytes();
    let t0 = Instant::now();
    let corpus = sized_corpus(cx, if cx.quick { ENTITIES / 10 } else { ENTITIES });
    let n = corpus.schemas.len();
    let pairs: Vec<(usize, usize)> = ring_pairs(n).into_iter().chain(chord_pairs(n)).collect();
    let mut sys = build_system(cx, &corpus, PEERS, LatencyConfig::Flat, true, &pairs);
    let cycles = cx.ops(BASE_CYCLES);
    let pool = if cx.quick { 16 } else { POOL };
    let joins = QueryGenerator::new(&corpus, QueryConfig::default())
        .conjunctive_batch(pool, &mut query_rng());
    let searches = single_queries(&corpus, pool, 1.0);
    rep.set("setup_s", t0.elapsed().as_secs_f64());
    let source_triples = corpus.triple_count() as u64;
    if let Some(rss0) = rss0 {
        rep.set(
            "rdf.rss_bytes_per_triple",
            ratio(rss_bytes() - rss0, source_triples as f64),
        );
    }
    rep.set("rdf.triples_per_peer", triples_per_peer(&sys));

    let mut replayer = cx.tr.enabled().then(|| {
        let ttl = sys.config().ttl;
        let mut r = Replayer::new(&mut cx.tr, sys.topology(), WINDOW, ttl);
        r.setup(&mut cx.tr, PEERS, &corpus_triples(&corpus), |l| {
            sys.key_of(l)
        });
        r
    });

    let options = QueryOptions::new().window(WINDOW);
    let mut acc = OpAcc::default();
    let mut disagree = 0usize;
    let before = Before::read(&sys);
    let schedule = cx.schedule(cycles, pool, PEERS);
    for (cycle, &(k, _)) in schedule.iter().enumerate() {
        // A pool entry always leaves from the same three consecutive
        // peers, so two seeds run the same ops in a different order.
        let origin_of = |slot: usize| PeerId::from_index((3 * k + slot) % PEERS);
        let join_plan = QueryPlan::conjunctive(joins[k].query.clone());
        let mut independent = None;
        for (slot, mode, span) in [
            (0, JoinMode::Independent, "core.join_independent"),
            (1, JoinMode::BoundSubstitution, "core.join_bound"),
        ] {
            let i = 3 * cycle + slot;
            let origin = origin_of(slot);
            cx.tr.set_op(i as u64 + 1);
            cx.tr.begin("op");
            let result = run_op(
                &mut cx.tr,
                &mut sys,
                origin,
                &join_plan,
                &options.join_mode(mode),
                span,
            );
            let stats = result.as_ref().ok().map(|r| r.outcome.stats);
            let rows = acc.add(result, &joins[k].true_answers);
            if let (Some(r), Some(s)) = (replayer.as_mut(), stats) {
                r.conjunctive(&mut cx.tr, &sys, origin, &joins[k].query, mode, &s);
            }
            cx.tr.end();
            match mode {
                JoinMode::Independent => independent = rows,
                JoinMode::BoundSubstitution => disagree += usize::from(rows != independent),
            }
        }
        let i = 3 * cycle + 2;
        let origin = origin_of(2);
        let search_plan = QueryPlan::search(searches[k].query.clone());
        cx.tr.set_op(i as u64 + 1);
        cx.tr.begin("op");
        let result = run_op(
            &mut cx.tr,
            &mut sys,
            origin,
            &search_plan,
            &options,
            "core.search",
        );
        let stats = result.as_ref().ok().map(|r| r.outcome.stats);
        acc.add(result, &searches[k].true_answers);
        if let (Some(r), Some(s)) = (replayer.as_mut(), stats) {
            r.search(&mut cx.tr, &sys, origin, &searches[k].query, &s);
        }
        cx.tr.end();
    }
    let timed_s = acc.host_seconds();
    let ops = 3 * cycles as u64;

    rep.check(disagree == 0, || {
        format!("{disagree} queries: Independent and BoundSubstitution rows differ")
    });
    rep.check(acc.recall() >= MIN_RECALL || cx.quick, || {
        format!("recall {:.3} below {MIN_RECALL}", acc.recall())
    });
    before.report(&mut rep, &sys, ops);
    acc.report(&mut rep, timed_s);
    if let Some(r) = &replayer {
        report_spans(&mut rep, &cx.tr, r, ops, source_triples);
    }
    rep
}
