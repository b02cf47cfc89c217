//! Destination-side resolution on the WAN deployment: a data
//! `Retrieve(key, q)` is answered from the indexed `DB_p` of the peer
//! that replied, and that must be indistinguishable from the design it
//! replaced — ship the whole key bucket, filter it at the origin with
//! `TriplePattern::match_triple` — and agree with the synchronous
//! engine, which resolves through the same scan kernel.

use gridvine_core::{
    BatchReport, Deployment, DeploymentConfig, GridVineConfig, GridVineSystem, KeySpace,
    QueryOptions, QueryPlan,
};
use gridvine_netsim::{rng, NetworkConfig, NodeId, SimDuration};
use gridvine_pgrid::proto::PGridNode;
use gridvine_pgrid::{BitString, HashKind, PeerId, Topology};
use gridvine_rdf::{Binding, PatternTerm, Term, Triple, TriplePattern, TriplePatternQuery};
use gridvine_workload::{QueryConfig, QueryGenerator, Workload, WorkloadConfig};
use proptest::prelude::*;

/// One peer per leaf of a depth-4 trie: no σ replicas.
const PEERS: usize = 16;

/// Three schemas' predicates, two attributes each.
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

fn single(pat: &TriplePattern) -> Option<TriplePatternQuery> {
    let var = pat.variables().first()?.to_string();
    Some(TriplePatternQuery::new(var, pat.clone()).expect("the variable occurs in the pattern"))
}

fn deployment(seed: u64, timeout: SimDuration) -> Deployment {
    Deployment::new(DeploymentConfig {
        peers: PEERS,
        network: NetworkConfig::lan(),
        timeout,
        ..DeploymentConfig::paper(seed)
    })
}

/// Both engines over the same corpus: the WAN deployment, and the
/// synchronous engine twice — on the deployment's trie, and on 24
/// peers, where eight leaves hold a σ replica pair and a request may
/// land on either.
fn engines(seed: u64, corpus: &[Triple]) -> (Deployment, [GridVineSystem; 2]) {
    let mut wan = deployment(seed, SimDuration::from_secs(60));
    wan.preload(corpus.to_vec());
    let systems = [PEERS, 24].map(|peers| {
        let mut sys = GridVineSystem::new(GridVineConfig {
            peers,
            seed,
            ..GridVineConfig::default()
        });
        sys.insert_triples(PeerId(0), corpus.to_vec()).unwrap();
        sys
    });
    (wan, systems)
}

/// Run one lookup batch; the rows of every reply, `[query][reply][row]`.
fn stream(
    wan: &mut Deployment,
    queries: &[TriplePatternQuery],
) -> (BatchReport, Vec<Vec<Vec<Binding>>>) {
    let mut replies = vec![Vec::new(); queries.len()];
    let report = wan.run_queries_with(queries, &mut |query, _, rows| {
        replies[query].push(rows.to_vec());
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
/// how it is run: either system, one request in flight or four, issued
/// from the peer `origin` draws.
fn executed(systems: &mut [GridVineSystem; 2], origin: usize, plan: &QueryPlan) -> Vec<String> {
    let mut agreed: Option<Vec<String>> = None;
    for sys in systems {
        let at = PeerId::from_index(origin % sys.config().peers);
        for window in [1, 4] {
            let options = QueryOptions::new().window(window);
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
                "{plan} on {} peers from {at}: window {window}",
                sys.config().peers
            );
        }
    }
    agreed.expect("two systems ran")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Plain lookups over small corpora: every reply streams exactly the
    /// rows, in the order, that filtering the routed key's bucket at the
    /// origin produced, and the query's rows are those of the
    /// synchronous engine however it is run.
    #[test]
    fn streamed_rows_equal_the_bucket_reference_and_the_synchronous_engine(
        seed in 0u64..1000,
        facts in proptest::collection::vec((0u8..4, 0u8..6, 0u8..6), 1..40),
        lookup in (0u8..4, 0u8..8, 0u8..12),
        origin in 0usize..48,
    ) {
        let corpus: Vec<Triple> = facts.into_iter().map(triple).collect();
        let (mut wan, mut sys) = engines(seed, &corpus);
        let hasher = HashKind::OrderPreserving.build();
        let ks = KeySpace::new(hasher.as_ref(), 24);

        let pat = pattern(lookup);
        prop_assume!(!pat.variables().is_empty());
        let q = single(&pat).expect("not ground");
        let var = q.distinguished.clone();
        let (report, replies) = stream(&mut wan, std::slice::from_ref(&q));

        let lookup_rows = bucket_rows(&ks, &corpus, &pat);
        let expected: Vec<Vec<String>> =
            Some(lookup_rows).into_iter().filter(|r| !r.is_empty()).collect();
        prop_assert_eq!(displayed(&replies[0]), expected, "pattern {}", &pat);
        let routable = pat.routing_constant().is_some();
        prop_assert_eq!(report.submitted, routable as usize);
        if routable {
            prop_assert_eq!(
                projected(&replies[0], &[var.as_str()]),
                executed(&mut sys, origin, &QueryPlan::pattern(q)),
                "pattern {}", &pat
            );
        }
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

    let queries = vec![single(&pat).unwrap(); 96];
    let (report, replies) = stream(&mut wan, &queries);
    assert_eq!(report.messages, 0, "nobody could forward");
    assert_eq!(report.timed_out, 0);
    assert!(report.answered > 0, "some origin was the owner itself");
    assert!(report.not_found > 0, "and most were not");
    assert_eq!(report.answered + report.not_found, queries.len());
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
    let queries = vec![single(&pat).unwrap(); 16];
    let (report, replies) = stream(&mut wan, &queries);
    assert!(report.timed_out > 0, "{report:?}");
    // Only a lookup submitted at the owner itself completes (locally).
    assert_eq!(report.answered + report.timed_out, queries.len());
    assert_eq!(replies.iter().flatten().count(), report.answered);
}

/// Everything the WAN lookup driver lets a caller observe — both batch
/// reports and every streamed `(query, at, rows)` — for one lookups-only
/// batch run twice on one deployment, folded into one FNV-1a digest.
/// CI's run-twice diffs prove the driver deterministic; this proves it
/// *stable*: a refactor that re-orders an origin or arrival draw, an
/// event or a row moves the digest.
#[test]
fn wan_lookup_transcript_is_pinned() {
    let w = Workload::generate(WorkloadConfig::small(2007));
    let mut wan = Deployment::new(DeploymentConfig {
        peers: 48,
        network: NetworkConfig::planetlab(),
        ..DeploymentConfig::paper(2007)
    });
    wan.preload(w.all_triples().into_iter().map(|(_, t)| t));

    // Generated lookups, and two that cannot be routed: those draw an
    // origin but no arrival gap.
    let gen = QueryGenerator::new(&w, QueryConfig::default());
    let mut r = rng::seeded(16);
    let mut queries: Vec<TriplePatternQuery> =
        gen.batch(60, &mut r).into_iter().map(|g| g.query).collect();
    let anything = TriplePattern::new(
        PatternTerm::var("x"),
        PatternTerm::var("p"),
        PatternTerm::var("o"),
    );
    queries.insert(7, single(&anything).unwrap());
    queries.insert(31, single(&anything).unwrap());

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut fold = |text: String| {
        for b in text.bytes() {
            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    let mut reports = Vec::new();
    for _ in 0..2 {
        reports.push(wan.run_queries_with(&queries, &mut |query, at, rows| {
            let rows: Vec<String> = rows.iter().map(Binding::to_string).collect();
            fold(format!("{query} {at:?} {rows:?}\n"));
        }));
    }
    for report in &reports {
        fold(format!("{report:?}\n"));
    }
    let first = &reports[0];
    assert_eq!(first.submitted, 60, "{first:?}");
    assert!(first.answered > 20 && first.not_found > 0, "{first:?}");
    assert_eq!(digest, 14_777_444_338_956_920_325, "{first:?}");
}
