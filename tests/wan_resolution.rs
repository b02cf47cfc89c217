//! Destination-side resolution on the WAN deployment: a data
//! `Retrieve(key, q)` is answered from the indexed `DB_p` of the peer
//! that replied, and that must be indistinguishable from the design it
//! replaced — ship the whole key bucket, filter it at the origin with
//! `TriplePattern::match_triple` — and agree with the synchronous
//! engine, which resolves through the same scan kernel.

use gridvine_core::{
    Deployment, DeploymentConfig, GridVineConfig, GridVineSystem, JoinMode, KeySpace, QueryOptions,
    QueryPlan, Strategy, WanBatchOptions, WanBatchReport,
};
use gridvine_netsim::{rng, NetworkConfig, NodeId, SimDuration};
use gridvine_pgrid::proto::PGridNode;
use gridvine_pgrid::{BitString, HashKind, PeerId, Topology};
use gridvine_rdf::{
    Binding, ConjunctiveQuery, PatternTerm, Term, Triple, TriplePattern, TriplePatternQuery,
};
use gridvine_semantic::{
    reformulations, Correspondence, Mapping, MappingKind, MappingRegistry, Provenance, Schema,
};
use gridvine_workload::{QueryConfig, QueryGenerator, Workload, WorkloadConfig};
use proptest::prelude::*;

const TTL: usize = 3;
/// One peer per leaf of a depth-4 trie: no σ replicas.
const PEERS: usize = 16;

/// Three schemas, two attributes each; `ATTRS[s][a]` corresponds to
/// `ATTRS[s + 1][a]` wherever the chain link is present.
const ATTRS: [[&str; 2]; 3] = [["organism", "length"], ["species", "size"], ["taxon", "bp"]];

/// `seq:A1` and `Aspergillus niger` also occur as objects, so some
/// triples hash alike under their subject and object keys.
const SUBJECTS: [&str; 4] = ["seq:A1", "seq:A2", "seq:B7", "Aspergillus niger"];

fn objects() -> Vec<Term> {
    vec![
        Term::literal("Aspergillus niger"),
        Term::literal("Aspergillus oryzae"),
        Term::literal("Penicillium notatum"),
        Term::literal("seq:A1"),
        Term::uri("seq:A1"),
        Term::uri("seq:B7"),
    ]
}

fn predicate(i: u8) -> String {
    let i = i as usize % 6;
    format!("S{}#{}", i / 2, ATTRS[i / 2][i % 2])
}

fn triple((s, p, o): (u8, u8, u8)) -> Triple {
    let objects = objects();
    Triple::new(
        SUBJECTS[s as usize % SUBJECTS.len()],
        predicate(p).as_str(),
        objects[o as usize % objects.len()].clone(),
    )
}

/// A pattern from three slot choices: variables (repeats included),
/// exact constants, and `%…%` / `…%` / bare `%` literals.
fn pattern((s, p, o): (u8, u8, u8)) -> TriplePattern {
    let subject = match s % 4 {
        0 => PatternTerm::var("x"),
        1 => PatternTerm::var("y"),
        _ => PatternTerm::constant(Term::uri(SUBJECTS[s as usize % SUBJECTS.len()])),
    };
    let pred = match p % 8 {
        0 => PatternTerm::var("p"),
        1 => PatternTerm::var("x"),
        _ => PatternTerm::constant(Term::uri(predicate(p).as_str())),
    };
    let objects = objects();
    let object = match o % 12 {
        0 | 1 => PatternTerm::var("x"),
        2 => PatternTerm::var("y"),
        3 => PatternTerm::constant(Term::literal("%sperg%")),
        4 => PatternTerm::constant(Term::literal("Asp%")),
        5 => PatternTerm::constant(Term::literal("%")),
        _ => PatternTerm::constant(objects[o as usize % objects.len()].clone()),
    };
    TriplePattern::new(subject, pred, object)
}

/// A join pattern: subject `?x`, a schema'd predicate, any object slot.
fn join_pattern((p, o): (u8, u8)) -> TriplePattern {
    let mut pat = pattern((0, 2 + p % 6, o));
    if matches!(&pat.object, PatternTerm::Var(v) if v == "x") {
        pat.object = PatternTerm::var("z");
    }
    pat
}

fn single(pat: &TriplePattern) -> Option<TriplePatternQuery> {
    let var = pat.variables().first()?.to_string();
    Some(TriplePatternQuery::new(var, pat.clone()).expect("the variable occurs in the pattern"))
}

fn registry(links: [bool; 2]) -> MappingRegistry {
    let mut reg = MappingRegistry::new();
    for (s, attrs) in ATTRS.iter().enumerate() {
        reg.add_schema(Schema::new(
            format!("S{s}").as_str(),
            attrs.map(String::from),
        ));
    }
    for (s, present) in links.into_iter().enumerate() {
        if present {
            reg.add_mapping(
                format!("S{s}").as_str(),
                format!("S{}", s + 1).as_str(),
                MappingKind::Equivalence,
                Provenance::Manual,
                (0..2)
                    .map(|a| Correspondence::new(ATTRS[s][a], ATTRS[s + 1][a]))
                    .collect(),
            );
        }
    }
    reg
}

fn deployment(seed: u64, timeout: SimDuration) -> Deployment {
    Deployment::new(DeploymentConfig {
        peers: PEERS,
        network: NetworkConfig::lan(),
        timeout,
        ..DeploymentConfig::paper(seed)
    })
}

/// Both engines over the same corpus and mapping chain: the WAN
/// deployment, and the synchronous engine twice — on the deployment's
/// trie, and on 24 peers, where eight leaves hold a σ replica pair and
/// a request may land on either.
fn engines(
    seed: u64,
    corpus: &[Triple],
    reg: &MappingRegistry,
) -> (Deployment, [GridVineSystem; 2]) {
    let mut wan = deployment(seed, SimDuration::from_secs(60));
    wan.preload(corpus.to_vec());
    let mappings: Vec<Mapping> = reg.mappings().cloned().collect();
    wan.preload_mediation(reg.schemas().cloned(), mappings.iter());

    let systems = [PEERS, 24].map(|peers| {
        let mut sys = GridVineSystem::new(GridVineConfig {
            peers,
            seed,
            ..GridVineConfig::default()
        });
        let p0 = PeerId(0);
        for s in reg.schemas() {
            sys.insert_schema(p0, s.clone()).unwrap();
        }
        for m in &mappings {
            sys.insert_mapping(
                p0,
                m.source.clone(),
                m.target.clone(),
                m.kind,
                Provenance::Manual,
                m.correspondences.clone(),
            )
            .unwrap();
        }
        sys.insert_triples(p0, corpus.to_vec()).unwrap();
        sys
    });
    (wan, systems)
}

/// Run one batch; the rows of every reply, `[query][reply][row]`.
fn stream(wan: &mut Deployment, plans: &[QueryPlan]) -> (WanBatchReport, Vec<Vec<Vec<Binding>>>) {
    let mut replies = vec![Vec::new(); plans.len()];
    let options = WanBatchOptions {
        ttl: TTL,
        mean_interarrival: None,
        limit: None,
    };
    let report = wan.run_plans_with(plans, &options, &mut |p| {
        replies[p.query].push(p.bindings.to_vec());
    });
    (report, replies)
}

/// The replaced design's answer to one routed pattern: the key bucket —
/// every distinct triple indexed under the routed key, in insertion
/// order — filtered at the origin.
fn bucket_rows(ks: &KeySpace<'_>, corpus: &[Triple], pat: &TriplePattern) -> Vec<String> {
    let Some((_, term)) = pat.routing_constant() else {
        return Vec::new();
    };
    let key = ks.key_of(term.lexical());
    let mut bucket: Vec<&Triple> = Vec::new();
    for t in corpus {
        if ks.triple_keys(t).contains(&key) && !bucket.contains(&t) {
            bucket.push(t);
        }
    }
    bucket
        .into_iter()
        .filter_map(|t| pat.match_triple(t))
        .map(|b| b.to_string())
        .collect()
}

/// Bucket answers of every pattern `pat` reaches through the mapping
/// chain (itself included), one entry per non-empty reply, sorted: the
/// order replies land in depends on link latency, the order of rows
/// inside a reply does not.
fn closure_bucket_rows(
    ks: &KeySpace<'_>,
    corpus: &[Triple],
    reg: &MappingRegistry,
    pat: &TriplePattern,
) -> Vec<Vec<String>> {
    let reached: Vec<TriplePattern> = match single(pat).map(|q| reformulations(reg, &q, TTL)) {
        Some(Ok(rs)) => rs.into_iter().map(|r| r.query.pattern).collect(),
        _ => vec![pat.clone()],
    };
    let mut replies: Vec<Vec<String>> = reached
        .iter()
        .map(|p| bucket_rows(ks, corpus, p))
        .filter(|rows| !rows.is_empty())
        .collect();
    replies.sort();
    replies
}

fn displayed(replies: &[Vec<Binding>]) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = replies
        .iter()
        .map(|rows| rows.iter().map(Binding::to_string).collect())
        .collect();
    out.sort();
    out
}

/// All rows of a query projected onto `vars`, distinct and sorted —
/// the shape `GridVineSystem::execute` returns.
fn projected(replies: &[Vec<Binding>], vars: &[&str]) -> Vec<String> {
    let mut rows: Vec<String> = replies
        .iter()
        .flatten()
        .map(|b| b.project(vars).to_string())
        .collect();
    rows.sort();
    rows.dedup();
    rows
}

/// The synchronous engine's rows for `plan`, which must not depend on
/// how it is run: either system, either strategy, either join mode, one
/// request in flight or four, issued from the peer `origin` draws —
/// cold on a system's first run, replaying its closure caches after.
fn executed(systems: &mut [GridVineSystem; 2], origin: usize, plan: &QueryPlan) -> Vec<String> {
    let mut agreed: Option<Vec<String>> = None;
    for sys in systems {
        let at = PeerId::from_index(origin % sys.config().peers);
        for strategy in [Strategy::Iterative, Strategy::Recursive] {
            for mode in [JoinMode::Independent, JoinMode::BoundSubstitution] {
                for window in [1, 4] {
                    let options = QueryOptions::new()
                        .strategy(strategy)
                        .join_mode(mode)
                        .window(window)
                        .ttl(TTL);
                    let mut rows: Vec<String> = sys
                        .execute(at, plan, &options)
                        .expect("a routable plan executes")
                        .rows
                        .iter()
                        .map(Binding::to_string)
                        .collect();
                    rows.sort();
                    let expected = agreed.get_or_insert_with(|| rows.clone());
                    assert_eq!(
                        &rows,
                        expected,
                        "{plan} on {} peers from {at}: {strategy:?} {mode:?} window {window}",
                        sys.config().peers
                    );
                }
            }
        }
    }
    agreed.expect("two systems ran")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pattern, closure and join plans over small corpora: every reply
    /// streams exactly the rows, in the order, that filtering the
    /// routed key's bucket at the origin produced, and the plan's rows
    /// are those of the synchronous engine however it is run.
    #[test]
    fn streamed_rows_equal_the_bucket_reference_and_the_synchronous_engine(
        seed in 0u64..1000,
        facts in proptest::collection::vec((0u8..4, 0u8..6, 0u8..6), 1..40),
        links in (any::<bool>(), any::<bool>()),
        lookup in (0u8..4, 0u8..8, 0u8..12),
        left in (0u8..6, 0u8..12),
        right in (0u8..6, 0u8..12),
        origin in 0usize..48,
    ) {
        let corpus: Vec<Triple> = facts.into_iter().map(triple).collect();
        let reg = registry([links.0, links.1]);
        let (mut wan, mut sys) = engines(seed, &corpus, &reg);
        let hasher = HashKind::OrderPreserving.build();
        let ks = KeySpace::new(hasher.as_ref(), 24);

        // One pattern as a plain lookup and as a closure.
        let pat = pattern(lookup);
        prop_assume!(!pat.is_ground());
        let q = single(&pat).expect("not ground");
        let var = q.distinguished.clone();
        let plans = [QueryPlan::pattern(q.clone()), QueryPlan::search(q.clone())];
        let (report, replies) = stream(&mut wan, &plans);

        let lookup_rows = bucket_rows(&ks, &corpus, &pat);
        let expected: Vec<Vec<String>> =
            Some(lookup_rows).into_iter().filter(|r| !r.is_empty()).collect();
        prop_assert_eq!(displayed(&replies[0]), expected, "pattern plan {}", &pat);
        let schema = gridvine_semantic::query_schema(&q).is_ok();
        if schema {
            prop_assert_eq!(
                displayed(&replies[1]),
                closure_bucket_rows(&ks, &corpus, &reg, &pat),
                "closure plan {}", &pat
            );
        } else {
            prop_assert!(replies[1].is_empty(), "schema-less closures are skipped");
        }
        let routable = pat.routing_constant().is_some();
        prop_assert_eq!(report.skipped, !routable as usize + !schema as usize);
        if routable {
            prop_assert_eq!(
                projected(&replies[0], &[var.as_str()]),
                executed(&mut sys, origin, &plans[0]),
                "pattern plan {}", &pat
            );
        }
        if schema {
            prop_assert_eq!(
                projected(&replies[1], &[var.as_str()]),
                executed(&mut sys, origin, &plans[1]),
                "closure plan {}", &pat
            );
        }

        // A two-pattern join on ?x.
        let patterns = vec![join_pattern(left), join_pattern(right)];
        let mut vars: Vec<String> = patterns
            .iter()
            .flat_map(|p| p.variables())
            .map(String::from)
            .collect();
        vars.sort();
        vars.dedup();
        let join = QueryPlan::conjunctive(
            ConjunctiveQuery::new(vars, patterns.clone()).expect("every variable occurs"),
        );
        let (report, replies) = stream(&mut wan, std::slice::from_ref(&join));
        let mut expected: Vec<Vec<String>> = patterns
            .iter()
            .flat_map(|p| closure_bucket_rows(&ks, &corpus, &reg, p))
            .collect();
        expected.sort();
        prop_assert_eq!(displayed(&replies[0]), expected, "join {:?}", &patterns);
        let joined = executed(&mut sys, origin, &join).len();
        prop_assert_eq!(report.answered, (joined > 0) as usize, "join {:?}", &patterns);
        prop_assert_eq!(report.mean_rows, joined as f64, "join {:?}", &patterns);
    }
}

/// `n` facts with one predicate and subjects spread over the key space
/// (the order-preserving hash places a string by its first characters),
/// and the pattern that selects them all (routed by the predicate).
fn spread_corpus(n: usize) -> (Vec<Triple>, TriplePattern) {
    let corpus = (0..n)
        .map(|i| {
            Triple::new(
                format!("{}:{i:02}", (b'!' + (i * 3 % 94) as u8) as char).as_str(),
                "S0#organism",
                Term::literal(format!("strain {i}")),
            )
        })
        .collect();
    let pat = TriplePattern::new(
        PatternTerm::var("x"),
        PatternTerm::constant(Term::uri("S0#organism")),
        PatternTerm::var("o"),
    );
    (corpus, pat)
}

/// The key [`spread_corpus`]'s pattern routes by.
fn predicate_key() -> BitString {
    let hasher = HashKind::OrderPreserving.build();
    KeySpace::new(hasher.as_ref(), 24).key_of("S0#organism")
}

#[test]
fn a_routing_hole_reply_resolves_to_no_rows() {
    // 16 peers, one per leaf, and every routing table emptied: a peer
    // that is not responsible for the key cannot forward
    // (`pick_next_hop` → `None`) and reports NotFound to itself.
    let (corpus, pat) = spread_corpus(32);
    let mut wan = deployment(5, SimDuration::from_secs(60));
    wan.preload(corpus.clone());
    let key = predicate_key();
    let owner = wan.topology().responsible(&key).to_vec();
    assert_eq!(owner.len(), 1);
    let paths = (0..PEERS)
        .map(|i| wan.topology().path(PeerId::from_index(i)).clone())
        .collect();
    let holed = Topology::from_paths_and_routing(paths, vec![Vec::new(); PEERS]);
    for i in 0..PEERS {
        *wan.network_mut().node_mut(NodeId::from_index(i)) =
            PGridNode::from_topology(&holed, i, SimDuration::from_secs(60));
    }
    // The check bites: peers that give up hold matching rows themselves
    // (under their subject keys).
    let strangers = (0..PEERS)
        .map(PeerId::from_index)
        .filter(|p| *p != owner[0] && !wan.peer_db(*p).match_pattern(&pat).is_empty())
        .count();
    assert!(strangers > 8, "{strangers}");

    let plans: Vec<QueryPlan> = (0..96)
        .map(|_| QueryPlan::pattern(single(&pat).unwrap()))
        .collect();
    let (report, replies) = stream(&mut wan, &plans);
    assert_eq!(report.messages, 0, "nobody could forward");
    assert_eq!(report.timed_out, 0);
    assert!(report.answered > 0, "some origin was the owner itself");
    assert!(report.not_found > 0, "and most were not");
    assert_eq!(report.answered + report.not_found, plans.len());
    let all = wan.peer_db(owner[0]).match_pattern(&pat);
    assert_eq!(all.len(), corpus.len());
    for rows in replies.iter().flatten() {
        assert_eq!(rows, &all, "a reply is the owner's full answer or nothing");
    }
    assert_eq!(replies.iter().flatten().count(), report.answered);
}

#[test]
fn a_timed_out_retrieve_resolves_nothing() {
    let (corpus, pat) = spread_corpus(32);
    let mut wan = deployment(5, SimDuration::from_secs(1));
    wan.preload(corpus);
    let key = predicate_key();
    let owner = wan.topology().responsible(&key)[0];
    wan.network_mut().crash(NodeId::from_index(owner.index()));
    for i in 0..PEERS {
        wan.network_mut()
            .node_mut(NodeId::from_index(i))
            .set_retries(0);
    }
    let plans: Vec<QueryPlan> = (0..16)
        .map(|_| QueryPlan::pattern(single(&pat).unwrap()))
        .collect();
    let (report, replies) = stream(&mut wan, &plans);
    assert!(report.timed_out > 0, "{report:?}");
    // Only a lookup submitted at the owner itself completes (locally).
    assert_eq!(report.answered + report.timed_out, plans.len());
    assert_eq!(replies.iter().flatten().count(), report.answered);
}

/// A result cap counts distinct *answers* — terms of the distinguished
/// variable — on both engines. `seq:A1` has two organisms in `S0`: two
/// rows, one answer, so under `limit 2` neither walk may stop before
/// it has looked into `S1` (counting rows, the WAN walk did whenever
/// the `S0` lookup landed ahead of the `S0` mapping list).
#[test]
fn a_limit_counts_distinct_answers_on_both_engines() {
    let corpus = [
        ("seq:A1", "S0#organism", "Aspergillus niger"),
        ("seq:A1", "S0#organism", "Aspergillus oryzae"),
        ("seq:A2", "S1#species", "Penicillium notatum"),
    ]
    .map(|(s, p, o)| Triple::new(s, p, Term::literal(o)));
    let (mut wan, [mut sys, _]) = engines(2, &corpus, &registry([true, false]));
    let query = TriplePatternQuery::new(
        "x",
        TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("S0#organism")),
            PatternTerm::var("y"),
        ),
    )
    .unwrap();
    let plan = QueryPlan::search(query);

    let session = sys
        .execute(
            PeerId(0),
            &plan,
            &QueryOptions::new()
                .strategy(Strategy::Iterative)
                .ttl(TTL)
                .limit(2),
        )
        .unwrap();
    assert_eq!(
        session.terms("x"),
        [Term::uri("seq:A1"), Term::uri("seq:A2")]
    );

    let mut answers = std::collections::BTreeSet::new();
    let options = WanBatchOptions {
        ttl: TTL,
        mean_interarrival: None,
        limit: Some(2),
    };
    wan.run_plans_with(std::slice::from_ref(&plan), &options, &mut |p| {
        answers.extend(p.bindings.iter().filter_map(|b| b.get("x").cloned()));
    });
    assert_eq!(answers.into_iter().collect::<Vec<_>>(), session.terms("x"));
}

/// Everything the WAN driver lets a caller observe — both batch reports
/// and every streamed `(query, at, rows)` — for one mixed batch run
/// cold and then twice on warming caches, folded into one FNV-1a digest. CI's run-twice
/// diffs prove the driver deterministic; this proves it *stable*: a
/// refactor that re-orders a submission, a latency draw or a row moves
/// the digest.
#[test]
fn wan_driver_transcript_is_pinned() {
    let w = Workload::generate(WorkloadConfig::small(2007));
    let mut wan = Deployment::new(DeploymentConfig {
        peers: 48,
        network: NetworkConfig::planetlab(),
        ..DeploymentConfig::paper(2007)
    });
    wan.preload(w.all_triples().into_iter().map(|(_, t)| t));
    wan.preload_mediation(w.schemas.clone(), w.chain_mappings().iter());

    // Every plan shape, interleaved: plain lookups, closures, joins,
    // and the three shapes the driver declines — a prefix sweep, a
    // closure without a schema, a join pattern without a constant.
    let gen = QueryGenerator::new(&w, QueryConfig::default());
    let mut r = rng::seeded(16);
    let singles = gen.batch(36, &mut r);
    let mut joins = gen.conjunctive_batch(12, &mut r).into_iter();
    let mut plans = Vec::new();
    for (i, g) in singles.into_iter().enumerate() {
        match i % 3 {
            0 => plans.push(QueryPlan::pattern(g.query)),
            1 => plans.push(QueryPlan::search(g.query)),
            _ => {
                plans.push(QueryPlan::search(g.query));
                plans.extend(joins.next().map(|j| QueryPlan::conjunctive(j.query)));
            }
        }
    }
    let anything = TriplePattern::new(
        PatternTerm::var("x"),
        PatternTerm::var("p"),
        PatternTerm::var("o"),
    );
    let prefix = TriplePattern::new(
        PatternTerm::var("x"),
        PatternTerm::var("p"),
        PatternTerm::constant(Term::literal("Aspergillus%")),
    );
    plans.insert(7, QueryPlan::object_prefix(single(&prefix).unwrap()));
    plans.insert(19, QueryPlan::search(single(&anything).unwrap()));
    let QueryPlan::Join { query, .. } = plans[3].clone() else {
        panic!("plan 3 is the first join");
    };
    let mut patterns = query.patterns;
    patterns.push(anything);
    plans.insert(
        31,
        QueryPlan::conjunctive(ConjunctiveQuery::new(query.distinguished, patterns).unwrap()),
    );

    let options = WanBatchOptions {
        ttl: 5,
        mean_interarrival: Some(SimDuration::from_millis(400)),
        limit: None,
    };
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |text: String| {
        for b in text.bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut reports = Vec::new();
    for _ in ["cold", "warm", "warmer"] {
        let report = wan.run_plans_with(&plans, &options, &mut |p| {
            let rows: Vec<String> = p.bindings.iter().map(Binding::to_string).collect();
            fold(format!("{} {:?} {rows:?}\n", p.query, p.at));
        });
        reports.push(report);
    }
    for report in &reports {
        fold(format!("{report:?}\n"));
    }
    let (cold, warm) = (&reports[0], &reports[2]);
    // The batch reaches every branch of the driver.
    assert_eq!(cold.skipped, 2, "{cold:?}");
    assert_eq!(cold.unroutable_patterns, 1, "{cold:?}");
    assert!(cold.mapping_fetches > warm.mapping_fetches && warm.cache_hits > 0);
    assert!(cold.answered > 20 && cold.mean_rows > 0.0, "{cold:?}");
    assert_eq!(
        digest, 11_825_070_358_152_575_774,
        "cold {cold:?}\nwarm {warm:?}"
    );
}
