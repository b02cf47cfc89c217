//! An absolute check of the closure walk: a session's rows and the
//! hops it reports equal those of a reference walk that knows nothing
//! of peers, requests, riding or caches — depth-first over the
//! registry's mappings with `expand_hop`, each pattern evaluated by
//! `TriplePattern::match_triple` over every triple any peer stores.
//!
//! Every fixture puts each `Schema#a` predicate under a leaf of its
//! own, so no data request answers another hop and, at `window(1)`,
//! the `SchemaHop` events come in the order the walk pops the hops.

use gridvine_core::{
    GridVineConfig, GridVineSystem, PlacementPolicy, QueryOptions, QueryPlan, ResultEvent, Strategy,
};
use gridvine_pgrid::{HashKind, PeerId};
use gridvine_rdf::{PatternTerm, Term, Triple, TriplePattern, TriplePatternQuery};
use gridvine_semantic::{
    expand_hop, query_schema, Correspondence, Hop, MappingKind, Provenance, Schema,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

const PEERS: usize = 16;
const SEED: u64 = 11;
const SCHEMAS: [&str; 5] = ["Apple", "Fig", "Kiwi", "Peach", "Zebra"];
/// Shorter than every predicate: a pattern holding one routes by its
/// predicate.
const VALUES: [&str; 3] = ["red", "green", "blue"];

/// `(schema, depth, quality)` of one hop.
type Seen = (String, usize, f64);

/// The closure walk as §3–§4 state it, with nothing distributed: pop
/// hops depth-first, evaluate each over the union of every peer's
/// `DB_p`, and expand those below the TTL through the registry's
/// mappings, entering each schema once. Returns the hops in pop order
/// and the distinct terms of the distinguished variable.
fn reference(
    sys: &GridVineSystem,
    query: &TriplePatternQuery,
    ttl: usize,
) -> (Vec<Seen>, BTreeSet<Term>) {
    let triples: Vec<Triple> = (0..PEERS)
        .flat_map(|p| sys.peer_db(PeerId::from_index(p)).iter())
        .collect();
    let (schema, _) = query_schema(query).expect("a schema'd predicate");
    let mut visited = BTreeSet::from([schema.clone()]);
    let mut stack = vec![Hop::origin(schema, query.pattern.clone())];
    let (mut hops, mut terms) = (Vec::new(), BTreeSet::new());
    while let Some(hop) = stack.pop() {
        for t in &triples {
            if let Some(row) = hop.pattern.match_triple(t) {
                terms.extend(row.get(&query.distinguished).cloned());
            }
        }
        if hop.depth < ttl {
            let mappings = sys.registry().mappings();
            expand_hop(&hop, mappings, &mut visited, |reached, _, _| {
                stack.push(reached)
            });
        }
        hops.push((hop.schema.to_string(), hop.depth, hop.quality));
    }
    (hops, terms)
}

fn leaf_of(sys: &GridVineSystem, lexical: &str) -> PeerId {
    sys.topology().responsible(&sys.key_of(lexical))[0]
}

/// One `a` attribute per schema; `edges` are `(from, to, equivalence,
/// manual)`, `facts` `(entity, schema, value)`. A placed federation
/// replicates Kiwi's predicate, whose hops then go to replica holders.
fn federation(
    hash: HashKind,
    placed: bool,
    edges: &[(usize, usize, bool, bool)],
    facts: &[(u8, usize, usize)],
) -> GridVineSystem {
    let placement = match placed {
        true => PlacementPolicy::new().replicate("Kiwi#", 3),
        false => PlacementPolicy::default(),
    };
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: PEERS,
        seed: SEED,
        hash,
        placement,
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
            Term::literal(VALUES[v]),
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
    /// strategies, cold and warm, at TTL 1, 2 and the default, with and
    /// without a replicating placement rule, under both hashes.
    #[test]
    fn the_walk_is_the_reference_walk(
        edges in proptest::collection::vec((0usize..5, 0usize..5, any::<bool>(), any::<bool>()), 0..10),
        facts in proptest::collection::vec((0u8..8, 0usize..5, 0usize..3), 1..30),
        from in 0usize..5,
        // `VALUES.len()` leaves the object a variable.
        value in 0usize..4,
        origin in 0usize..PEERS,
        (recursive, uniform, placed) in (any::<bool>(), any::<bool>(), any::<bool>()),
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
        let origin = PeerId::from_index(origin);
        for window in [1, 4] {
            let sys = &mut federation(hash, placed, &edges, &facts);
            let mut options = QueryOptions::new().strategy(strategy).window(window);
            if let Some(ttl) = ttl {
                options = options.ttl(ttl);
            }
            let (expected_hops, expected_terms) =
                reference(sys, &query, ttl.unwrap_or(GridVineConfig::default().ttl));
            for run in ["cold", "warm"] {
                let mut session = sys.open(origin, &plan, &options).unwrap();
                let mut hops = Vec::new();
                while let Some(event) = session.next_event().unwrap() {
                    if let ResultEvent::SchemaHop { schema, depth, quality } = event {
                        hops.push((schema.to_string(), depth, quality));
                    }
                }
                let terms: BTreeSet<Term> = session.into_outcome().terms("x").into_iter().collect();
                prop_assert_eq!(&terms, &expected_terms, "window {} {} rows", window, run);
                if window == 1 {
                    prop_assert_eq!(&hops, &expected_hops, "{} hops", run);
                } else {
                    prop_assert_eq!(sorted(hops), sorted(expected_hops.clone()), "{} hops", run);
                }
            }
        }
    }
}
