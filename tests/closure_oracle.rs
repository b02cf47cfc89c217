//! An absolute check of the closure walk and of the joins built on it:
//! a session's rows and the hops it reports equal those of a reference
//! walk that knows nothing of peers, requests, riding or caches —
//! depth-first over the registry's mappings with `expand_hop`, each
//! pattern evaluated by `TriplePattern::match_triple` over every triple
//! any peer stores — and a conjunctive plan's rows equal a nested loop
//! over `Binding::join` of each pattern's reference walk. Each outcome's
//! rows are in the canonical order, and the rows its `Rows` events
//! carried, decoded, are the outcome's rows.
//!
//! Every fixture puts each `Schema#a` predicate under a leaf of its
//! own, so no data request answers another hop and, at `window(1)`,
//! the `SchemaHop` events come in the order the walk pops the hops.

use gridvine_core::{
    GridVineConfig, GridVineSystem, JoinMode, QueryOptions, QueryPlan, ResultEvent, Strategy,
};
use gridvine_pgrid::{HashKind, PeerId};
use gridvine_rdf::{
    Binding, ConjunctiveQuery, PatternTerm, Term, Triple, TriplePattern, TriplePatternQuery,
};
use gridvine_semantic::{
    expand_hop, pattern_schema, Correspondence, Hop, MappingKind, Provenance, Schema,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

const PEERS: usize = 16;
const SEED: u64 = 11;
const SCHEMAS: [&str; 5] = ["Apple", "Fig", "Kiwi", "Peach", "Zebra"];
/// Shorter than every predicate: a pattern holding one routes by its
/// predicate. A constant `"50%"` is a LIKE that `"500"` satisfies; a
/// value `"50%"` a join binds is matched exactly. A fact's value index
/// past the end is the URI `<red>`, the literal `"red"`'s twin: one
/// lexical, so one lexicon id, and two codes.
const VALUES: [&str; 3] = ["red", "500", "50%"];

/// The object of a fact whose value index is `v`.
fn fact_value(v: usize) -> Term {
    match VALUES.get(v) {
        Some(v) => Term::literal(*v),
        None => Term::uri(VALUES[0]),
    }
}

/// `(schema, depth, quality)` of one hop.
type Seen = (String, usize, f64);

/// Rows as a multiset: their display strings, sorted.
fn multiset(rows: &[Binding]) -> Vec<String> {
    let mut shown: Vec<String> = rows.iter().map(Binding::to_string).collect();
    shown.sort();
    shown
}

/// The closure walk as §3–§4 state it, with nothing distributed: pop
/// hops depth-first, evaluate each over the union of every peer's
/// `DB_p`, and expand those below the TTL through the registry's
/// mappings, entering each schema once. Returns the hops in pop order
/// and every match of every hop.
fn reference(
    sys: &GridVineSystem,
    pattern: &TriplePattern,
    ttl: usize,
) -> (Vec<Seen>, Vec<Binding>) {
    let triples: Vec<Triple> = (0..PEERS)
        .flat_map(|p| sys.peer_db(PeerId::from_index(p)).iter())
        .collect();
    let (schema, _) = pattern_schema(pattern).expect("a schema'd predicate");
    let mut visited = BTreeSet::from([schema.clone()]);
    let mut stack = vec![Hop::origin(schema, pattern.clone())];
    let (mut hops, mut matches) = (Vec::new(), Vec::new());
    while let Some(hop) = stack.pop() {
        matches.extend(triples.iter().filter_map(|t| hop.pattern.match_triple(t)));
        if hop.depth < ttl {
            let mappings = sys.registry().mappings();
            expand_hop(&hop, mappings, &mut visited, |reached, _, _| {
                stack.push(reached)
            });
        }
        hops.push((hop.schema.to_string(), hop.depth, hop.quality));
    }
    (hops, matches)
}

/// A conjunctive query as §2.3 states it: each pattern's reference
/// walk, the match sets combined by a nested loop over
/// `Binding::join`, then projected onto the distinguished variables.
fn reference_join(sys: &GridVineSystem, query: &ConjunctiveQuery, ttl: usize) -> BTreeSet<String> {
    let mut rows = vec![Binding::new()];
    for pattern in &query.patterns {
        let (_, matches) = reference(sys, pattern, ttl);
        rows = rows
            .iter()
            .flat_map(|l| matches.iter().filter_map(|r| l.join(r)))
            .collect();
    }
    let distinguished: Vec<&str> = query.distinguished.iter().map(String::as_str).collect();
    rows.iter()
        .map(|b| b.project(&distinguished).to_string())
        .collect()
}

fn leaf_of(sys: &GridVineSystem, lexical: &str) -> PeerId {
    sys.topology().responsible(&sys.key_of(lexical))[0]
}

/// One `a` attribute per schema; `edges` are `(from, to, equivalence,
/// manual)`, `facts` `(entity, schema, value)`.
fn federation(
    hash: HashKind,
    edges: &[(usize, usize, bool, bool)],
    facts: &[(u8, usize, usize)],
) -> GridVineSystem {
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: PEERS,
        seed: SEED,
        hash,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    for s in SCHEMAS {
        sys.insert_schema(p0, Schema::new(s, ["a"])).unwrap();
    }
    for &(from, to, equivalence, manual) in edges {
        let kind = match equivalence {
            true => MappingKind::Equivalence,
            false => MappingKind::Subsumption,
        };
        let provenance = match manual {
            true => Provenance::Manual,
            false => Provenance::Automatic,
        };
        let a = vec![Correspondence::new("a", "a")];
        if from != to {
            let (from, to) = (SCHEMAS[from], SCHEMAS[to]);
            sys.insert_mapping(p0, from, to, kind, provenance, a)
                .unwrap();
        }
    }
    for &(e, s, v) in facts {
        let predicate = format!("{}#a", SCHEMAS[s]);
        let t = Triple::new(
            format!("seq:E{e}").as_str(),
            predicate.as_str(),
            fact_value(v),
        );
        sys.insert_triple(p0, t).unwrap();
    }
    let leaves: BTreeSet<PeerId> = SCHEMAS
        .iter()
        .map(|s| leaf_of(&sys, &format!("{s}#a")))
        .collect();
    assert_eq!(leaves.len(), SCHEMAS.len(), "one leaf per predicate");
    sys
}

fn sorted(mut hops: Vec<Seen>) -> Vec<Seen> {
    hops.sort_by(|a, b| (&a.0, a.1).cmp(&(&b.0, b.1)).then(a.2.total_cmp(&b.2)));
    hops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `execute` ≡ the reference on rows, and on the hops reported —
    /// in order at `window(1)`, as a set at `window(4)` — for both
    /// strategies, at TTL 1, 2 and the default, under both hashes: on
    /// one system, cold, then warm from the same origin — its closure cache and the
    /// leaves it learned in use — then from a second origin.
    #[test]
    fn the_walk_is_the_reference_walk(
        edges in proptest::collection::vec((0usize..5, 0usize..5, any::<bool>(), any::<bool>()), 0..10),
        facts in proptest::collection::vec((0u8..8, 0usize..5, 0usize..3), 1..30),
        from in 0usize..5,
        // `VALUES.len()` leaves the object a variable.
        value in 0usize..4,
        origin in 0usize..PEERS,
        // How far past `origin` the second origin is.
        second in 1usize..PEERS,
        (recursive, uniform) in (any::<bool>(), any::<bool>()),
        // 0: the configured TTL.
        ttl in 0usize..3,
    ) {
        let hash = if uniform { HashKind::Uniform } else { HashKind::OrderPreserving };
        let strategy = if recursive { Strategy::Recursive } else { Strategy::Iterative };
        let object = match VALUES.get(value) {
            Some(v) => PatternTerm::constant(Term::literal(*v)),
            None => PatternTerm::var("o"),
        };
        let ttl = (ttl > 0).then_some(ttl);
        let predicate = PatternTerm::constant(Term::uri(format!("{}#a", SCHEMAS[from])));
        let pattern = TriplePattern::new(PatternTerm::var("x"), predicate, object);
        let query = TriplePatternQuery::new("x", pattern).unwrap();
        let plan = QueryPlan::search(query.clone());
        let runs = [
            (PeerId::from_index(origin), "cold"),
            (PeerId::from_index(origin), "warm"),
            (PeerId::from_index((origin + second) % PEERS), "second origin"),
        ];
        for window in [1, 4] {
            let sys = &mut federation(hash, &edges, &facts);
            let mut options = QueryOptions::new().strategy(strategy).window(window);
            if let Some(ttl) = ttl {
                options = options.ttl(ttl);
            }
            let (expected_hops, matches) =
                reference(sys, &query.pattern, ttl.unwrap_or(GridVineConfig::default().ttl));
            let expected_terms: BTreeSet<Term> =
                matches.iter().filter_map(|b| b.get("x").cloned()).collect();
            for (origin, run) in runs {
                let mut session = sys.open(origin, &plan, &options).unwrap();
                let mut hops = Vec::new();
                let mut streamed = Vec::new();
                while let Some(event) = session.next_event().unwrap() {
                    match event {
                        ResultEvent::SchemaHop { schema, depth, quality } => {
                            hops.push((schema.to_string(), depth, quality));
                        }
                        ResultEvent::Rows(batch) => streamed.extend(session.decode(&batch)),
                        ResultEvent::Stats(_) => {}
                    }
                }
                let outcome = session.into_outcome();
                prop_assert_eq!(multiset(&streamed), multiset(&outcome.rows), "{} events", run);
                // The canonical order: by the distinguished term, each once.
                let x = |b: &Binding| b.get("x").cloned();
                prop_assert!(outcome.rows.windows(2).all(|w| x(&w[0]) < x(&w[1])), "{} order", run);
                let terms: BTreeSet<Term> = outcome.terms("x").into_iter().collect();
                prop_assert_eq!(&terms, &expected_terms, "window {} {} rows", window, run);
                if window == 1 {
                    prop_assert_eq!(&hops, &expected_hops, "{} hops", run);
                } else {
                    prop_assert_eq!(sorted(hops), sorted(expected_hops.clone()), "{} hops", run);
                }
            }
        }
    }

    /// `execute` of a conjunctive plan ≡ the nested-loop join of its
    /// patterns' reference walks, on row sets, for both join modes and
    /// both strategies, at TTL 1, 2 and the default, under both hashes,
    /// on one system: cold, warm from the same origin, then from a second origin. A
    /// join on the object binds `"50%"` whenever a fact holds it: the
    /// bound mode must match it exactly, never as a LIKE that `"500"`
    /// satisfies. Facts hold `<red>` beside `"red"`: a join on the
    /// object that confused the two kinds would join them.
    #[test]
    fn a_join_is_the_join_of_the_reference_walks(
        edges in proptest::collection::vec((0usize..5, 0usize..5, any::<bool>(), any::<bool>()), 0..10),
        facts in proptest::collection::vec((0u8..8, 0usize..5, 0usize..=VALUES.len()), 1..30),
        (left, right) in (0usize..5, 0usize..5),
        (shape, value) in (0usize..3, 0usize..3),
        (origin, second) in (0usize..PEERS, 1usize..PEERS),
        (uniform, window) in (any::<bool>(), 1usize..5),
        // 0: the configured TTL.
        ttl in 0usize..3,
    ) {
        let hash = if uniform { HashKind::Uniform } else { HashKind::OrderPreserving };
        let attribute = |s: usize| PatternTerm::constant(Term::uri(format!("{}#a", SCHEMAS[s])));
        let var = PatternTerm::var;
        let fact = |s, o| TriplePattern::new(var(s), attribute(left), o);
        let (distinguished, patterns) = match shape {
            // Entities whose values agree, …
            0 => (
                vec!["x", "y", "v"],
                vec![fact("x", var("v")), TriplePattern::new(var("y"), attribute(right), var("v"))],
            ),
            // … one entity's value under a second schema, …
            1 => (
                vec!["x", "v"],
                vec![
                    fact("x", PatternTerm::constant(Term::literal(VALUES[value]))),
                    TriplePattern::new(var("x"), attribute(right), var("v")),
                ],
            ),
            // … and a chain through both.
            _ => (
                vec!["x", "y", "w"],
                vec![
                    fact("x", var("v")),
                    TriplePattern::new(var("y"), attribute(right), var("v")),
                    fact("y", var("w")),
                ],
            ),
        };
        let distinguished = distinguished.iter().map(|v| v.to_string()).collect();
        let query = ConjunctiveQuery::new(distinguished, patterns).unwrap();
        let plan = QueryPlan::conjunctive(query.clone());
        let runs = [
            (PeerId::from_index(origin), "cold"),
            (PeerId::from_index(origin), "warm"),
            (PeerId::from_index((origin + second) % PEERS), "second origin"),
        ];
        let sys = &mut federation(hash, &edges, &facts);
        let expected = reference_join(sys, &query, if ttl > 0 { ttl } else { GridVineConfig::default().ttl });
        for strategy in [Strategy::Iterative, Strategy::Recursive] {
            for mode in [JoinMode::Independent, JoinMode::BoundSubstitution] {
                let mut options = QueryOptions::new().strategy(strategy).join_mode(mode).window(window);
                if ttl > 0 {
                    options = options.ttl(ttl);
                }
                for (origin, run) in runs {
                    // `execute`, drained by hand to read the events.
                    let mut session = sys.open(origin, &plan, &options).unwrap();
                    let mut streamed = Vec::new();
                    while let Some(event) = session.next_event().unwrap() {
                        if let ResultEvent::Rows(batch) = event {
                            streamed.extend(session.decode(&batch));
                        }
                    }
                    let out = session.into_outcome();
                    prop_assert_eq!(multiset(&streamed), multiset(&out.rows), "{} events", run);
                    // The canonical order: by display form, each row once.
                    let shown: Vec<String> = out.rows.iter().map(Binding::to_string).collect();
                    prop_assert!(shown.windows(2).all(|w| w[0] < w[1]), "{} order: {:?}", run, shown);
                    let rows: BTreeSet<String> = shown.into_iter().collect();
                    prop_assert_eq!(&rows, &expected, "{:?} {:?} {} {}", strategy, mode, run, query);
                }
            }
        }
    }
}
