//! `closure_search`: one closed-loop client issuing reformulated
//! single-pattern searches over a 340-peer system whose 50 schemas are
//! joined by 100 manual mappings.
//!
//! Each op expands a mapping closure (~25 schemas), routes one
//! subquery per schema and reads a 53-triple store at each — so the
//! session scheduler, closure expansion, the per-peer closure caches
//! (64 entries, cold at the start and warming through the run) and
//! overlay routing carry the cost, and the store carries almost none.

use super::{
    build_system, chord_pairs, corpus_seed, corpus_triples, generate, report_spans, ring_pairs,
    run_op, single_queries, triples_per_peer, Before, Cx, OpAcc, Rep,
};
use crate::measure::{first_rss_bytes, ratio, rss_bytes, Digest};
use crate::replay::Replayer;
use crate::trace::Tracer;
use gridvine_core::{GridVineSystem, QueryOptions, QueryPlan, Strategy};
use gridvine_netsim::LatencyConfig;
use gridvine_pgrid::PeerId;
use gridvine_workload::{GeneratedQuery, Workload, WorkloadConfig};
use std::time::Instant;

pub const PEERS: usize = 340;
/// Size of the generated query pool the seeded schedule draws from.
pub const POOL: usize = 4096;
/// Subqueries one session keeps in flight.
pub const WINDOW: usize = 4;
/// Ops per repetition at the default run length (≥ 5 s at HEAD).
const BASE_OPS: usize = 32_000;
/// Mean recall at HEAD is 0.49 (seed 2007); a closure that lost
/// schemas would fall well below this.
const MIN_RECALL: f64 = 0.40;

/// The system shared with `open_loop`: paper-scale corpus on 340 peers,
/// ring and chord mappings, and the distinct query set.
pub struct Fixture {
    pub sys: GridVineSystem,
    pub corpus: Workload,
    pub queries: Vec<GeneratedQuery>,
    pub plans: Vec<QueryPlan>,
}

pub fn fixture(cx: &mut Cx) -> Fixture {
    let corpus = generate(cx, WorkloadConfig::paper_scale(corpus_seed()));
    let n = corpus.schemas.len();
    let pairs: Vec<(usize, usize)> = ring_pairs(n).into_iter().chain(chord_pairs(n)).collect();
    let mut sys = build_system(
        cx,
        &corpus,
        PEERS,
        LatencyConfig::planetlab_2007(),
        true,
        &pairs,
    );
    let pool = if cx.quick { 256 } else { POOL };
    let queries = single_queries(&corpus, pool, 0.5);
    let plans: Vec<QueryPlan> = queries
        .iter()
        .map(|g| QueryPlan::search(g.query.clone()))
        .collect();
    // Pin the testbed. The latency model places machines — and draws
    // each one's slow-down — lazily, up to the highest peer index seen
    // so far, from the same stream as its delay samples; which
    // machines are slow would otherwise depend on the first ops'
    // origins. One search from the last peer places all of them now.
    let last = PeerId::from_index(PEERS - 1);
    run_op(
        &mut Tracer::new(false),
        &mut sys,
        last,
        &plans[0],
        &QueryOptions::new(),
        "setup.pin_testbed",
    )
    .expect("no peer is down during set-up");
    Fixture {
        sys,
        corpus,
        queries,
        plans,
    }
}

pub fn run(cx: &mut Cx) -> Rep {
    let mut rep = Rep::default();
    let rss0 = first_rss_bytes();
    let t0 = Instant::now();
    let Fixture {
        mut sys,
        corpus,
        queries,
        plans,
    } = fixture(cx);
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

    let ops = cx.ops(BASE_OPS);
    let schedule = cx.schedule(ops, plans.len(), PEERS);
    // Rows digest of each query under (Iterative, Recursive).
    let mut seen: Vec<[Option<Digest>; 2]> = vec![[None; 2]; plans.len()];
    let mut acc = OpAcc::default();
    let before = Before::read(&sys);
    for (i, &(q, origin)) in schedule.iter().enumerate() {
        // Strategies alternate; a query drawn ~8 times sees both.
        let recursive = i % 2 == 1;
        let strategy = if recursive {
            Strategy::Recursive
        } else {
            Strategy::Iterative
        };
        let options = QueryOptions::new().strategy(strategy).window(WINDOW);
        cx.tr.set_op(i as u64 + 1);
        cx.tr.begin("op");
        let result = run_op(
            &mut cx.tr,
            &mut sys,
            origin,
            &plans[q],
            &options,
            "core.search",
        );
        let stats = result.as_ref().ok().map(|r| r.outcome.stats);
        if let Some((digest, _)) = acc.add(result, &queries[q].true_answers) {
            let slot = &mut seen[q][usize::from(recursive)];
            if *slot.get_or_insert(digest) != digest {
                rep.errors
                    .push(format!("query {q}: rows changed between repeats"));
            }
        }
        if let (Some(r), Some(s)) = (replayer.as_mut(), stats) {
            r.search(&mut cx.tr, &sys, origin, &queries[q].query, &s);
        }
        cx.tr.end();
    }
    let timed_s = acc.host_seconds();

    let disagree = seen
        .iter()
        .filter(|[a, b]| a.is_some() && b.is_some() && a != b)
        .count();
    rep.check(disagree == 0, || {
        format!("{disagree} queries: Iterative and Recursive row sets differ")
    });
    rep.check(acc.recall() >= MIN_RECALL || cx.quick, || {
        format!("recall {:.3} below {MIN_RECALL}", acc.recall())
    });
    before.report(&mut rep, &sys, ops as u64);
    acc.report(&mut rep, timed_s);
    if let Some(r) = &replayer {
        report_spans(&mut rep, &cx.tr, r, ops as u64, source_triples);
    }
    rep
}
