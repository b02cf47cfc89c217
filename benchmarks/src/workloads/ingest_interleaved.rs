//! `ingest_interleaved`: writes beside reads. An empty 64-peer system
//! takes 12 rounds of { `insert_triples` of 50 k triples, one mapping
//! inserted and one deprecated (the epoch bump invalidates every
//! closure cache), a burst of closure searches }, ≈ 600 k triples in
//! all.
//!
//! It exercises the append log → seal → compaction path of the peer
//! stores, `Overlay::update`, the mapping commit path and cache
//! invalidation. A read optimisation paid for with eager index or
//! projection rebuilds, or a cache that is expensive to invalidate,
//! shows here as a lower `ingest_triples_per_s` or `search_ops_per_s`
//! while `join_heavy` improves.
//!
//! An op is one search. `ops_per_s` is searches per host second over
//! the whole timed phase, ingest rounds included — the rate at which a
//! reader gets answers while the writer is busy — so a slower ingest
//! and a slower search both lower it; `sim_messages_per_op` likewise
//! carries each search's share of the insert traffic. The two phases'
//! own rates are `ingest_triples_per_s` and `search_ops_per_s`.

use super::{
    build_system, chord_pairs, corpus_triples, insert_pair, report_spans, ring_pairs, run_op,
    single_queries, sized_corpus, triples_per_peer, Before, Cx, OpAcc, Rep,
};
use crate::measure::{first_rss_bytes, ratio, rss_bytes};
use crate::replay::Replayer;
use gridvine_core::{QueryOptions, QueryPlan};
use gridvine_netsim::LatencyConfig;
use gridvine_pgrid::PeerId;
use gridvine_rdf::Triple;
use std::time::Instant;

const PEERS: usize = 64;
const WINDOW: usize = 4;
/// Rounds per repetition at the default run length.
const BASE_ROUNDS: usize = 12;
const TRIPLES_PER_ROUND: usize = 50_000;
/// Entities that give ≈ 50 k triples per round at export fraction
/// 0.0533 (50 schemas × 7.5 attributes on average).
const ENTITIES_PER_ROUND: usize = 2_500;
const SEARCHES_PER_ROUND: usize = 200;
/// Generated queries the seeded schedule draws from.
const POOL: usize = 512;
/// Mean recall of the searches at HEAD is 0.52 (seed 2007); it grows
/// through the run as triples arrive.
const MIN_RECALL: f64 = 0.30;

pub fn run(cx: &mut Cx) -> Rep {
    let mut rep = Rep::default();
    let rss0 = first_rss_bytes();
    let t0 = Instant::now();
    let rounds = if cx.quick { 2 } else { cx.ops(BASE_ROUNDS) };
    let per_round = if cx.quick { 5_000 } else { TRIPLES_PER_ROUND };
    let entities = rounds * ENTITIES_PER_ROUND * per_round / TRIPLES_PER_ROUND;
    let corpus = sized_corpus(cx, entities);
    let n = corpus.schemas.len();
    let chords = chord_pairs(n);
    // The ring is preloaded; chords come and go one per round.
    let mut sys = build_system(
        cx,
        &corpus,
        PEERS,
        LatencyConfig::Flat,
        false,
        &ring_pairs(n),
    );
    let mut previous = insert_pair(
        &mut cx.tr,
        "setup.insert_mapping",
        &mut sys,
        &corpus,
        chords[n - 1],
    );
    let triples = corpus_triples(&corpus);
    let searches_per_round = if cx.quick { 50 } else { SEARCHES_PER_ROUND };
    let searches = single_queries(&corpus, POOL, 0.5);
    let schedule = cx.schedule(rounds * searches_per_round, POOL, PEERS);
    rep.set("setup_s", t0.elapsed().as_secs_f64());

    let mut replayer = cx.tr.enabled().then(|| {
        let ttl = sys.config().ttl;
        let mut r = Replayer::new(&mut cx.tr, sys.topology(), WINDOW, ttl);
        r.setup(&mut cx.tr, PEERS, &triples, |l| sys.key_of(l));
        r
    });

    let options = QueryOptions::new().window(WINDOW);
    let mut acc = OpAcc::default();
    // Host seconds inside `insert_triples`, and inside the mapping
    // insert and deprecation of each round.
    let (mut ingest_s, mut mapping_s) = (0.0f64, 0.0f64);
    let mut ingested = 0usize;
    let mut op = 0u64;
    let before = Before::read(&sys);
    let generated = triples.len();
    let chunk_len = generated.div_ceil(rounds);
    let chunks: Vec<Vec<Triple>> = triples.chunks(chunk_len).map(<[Triple]>::to_vec).collect();
    drop(triples);
    for (round, chunk) in chunks.into_iter().enumerate() {
        let t = Instant::now();
        cx.tr.set_op(0);
        cx.tr.begin("core.insert_triples");
        let inserted = sys.insert_triples(PeerId::from_index(round % PEERS), chunk);
        cx.tr.end();
        ingest_s += t.elapsed().as_secs_f64();
        match inserted {
            Ok(k) => ingested += k,
            Err(e) => rep
                .errors
                .push(format!("round {round}: insert failed: {e}")),
        }

        let t = Instant::now();
        let added = insert_pair(
            &mut cx.tr,
            "core.insert_mapping",
            &mut sys,
            &corpus,
            chords[round % (n - 1)],
        );
        if let Some(id) = previous {
            let deprecated = sys.deprecate_mapping(PeerId(0), id);
            rep.check(deprecated == Ok(true), || {
                format!("round {round}: deprecating {id:?} gave {deprecated:?}")
            });
        }
        previous = added;
        mapping_s += t.elapsed().as_secs_f64();

        for _ in 0..searches_per_round {
            let (q, origin) = schedule[op as usize];
            let g = &searches[q];
            op += 1;
            cx.tr.set_op(op);
            cx.tr.begin("op");
            let plan = QueryPlan::search(g.query.clone());
            let result = run_op(&mut cx.tr, &mut sys, origin, &plan, &options, "core.search");
            let stats = result.as_ref().ok().map(|r| r.outcome.stats);
            // Ground truth covers the whole corpus; early rounds can
            // only find what has arrived, so recall is a lower bound.
            acc.add(result, &g.true_answers);
            if let (Some(r), Some(s)) = (replayer.as_mut(), stats) {
                r.search(&mut cx.tr, &sys, origin, &g.query, &s);
            }
            cx.tr.end();
        }
    }
    let search_s = acc.host_seconds();
    let timed_s = ingest_s + mapping_s + search_s;

    rep.check(ingested == generated, || {
        format!("{ingested} triples ingested, {generated} generated")
    });
    rep.check(acc.recall() >= MIN_RECALL || cx.quick, || {
        format!("recall {:.3} below {MIN_RECALL}", acc.recall())
    });
    let ops = acc.ops;
    before.report(&mut rep, &sys, ops);
    rep.set("ingest_triples_per_s", ratio(ingested as f64, ingest_s));
    rep.set("search_ops_per_s", ratio(ops as f64, search_s));
    if let Some(rss0) = rss0 {
        rep.set(
            "rdf.rss_bytes_per_triple",
            ratio(rss_bytes() - rss0, generated as f64),
        );
    }
    rep.set("rdf.triples_per_peer", triples_per_peer(&sys));
    acc.report(&mut rep, timed_s);
    if let Some(r) = &replayer {
        report_spans(&mut rep, &cx.tr, r, ops, generated as u64);
    }
    rep
}
