//! Message-accounting invariants across mediation-layer operations:
//! every operation's overlay cost must stay logarithmic in the network
//! size (§2.1/§2.3), and the documented operation decompositions
//! (triple = 3 updates, mapping = per-key-space updates) must hold in
//! the counters.
//!
//! All queries run through the plan surface (`QueryPlan` + `execute`).

use gridvine_core::{
    GridVineConfig, GridVineSystem, QueryOptions, QueryPlan, ResultEvent, Strategy,
};
use gridvine_pgrid::{HashKind, PeerId};
use gridvine_rdf::{PatternTerm, Term, Triple, TriplePattern, TriplePatternQuery};
use gridvine_semantic::{Correspondence, MappingKind, Provenance, Schema};
use proptest::prelude::*;
use proptest::strategy::Strategy as _;

fn sys_with(peers: usize) -> GridVineSystem {
    GridVineSystem::new(GridVineConfig {
        peers,
        seed: 5,
        ..GridVineConfig::default()
    })
}

/// Mean messages per run of `op`, measured over `n` repetitions.
fn mean_messages(
    sys: &mut GridVineSystem,
    n: usize,
    mut op: impl FnMut(&mut GridVineSystem, usize),
) -> f64 {
    let before = sys.messages_sent();
    for i in 0..n {
        op(sys, i);
    }
    (sys.messages_sent() - before) as f64 / n as f64
}

#[test]
fn triple_insert_is_three_bounded_updates() {
    for peers in [16usize, 64, 256] {
        let mut sys = sys_with(peers);
        let depth = sys.topology().depth() as f64;
        let mean = mean_messages(&mut sys, 40, |s, i| {
            s.insert_triple(
                PeerId(0),
                Triple::new(
                    format!("seq:S{i}").as_str(),
                    format!("DB#attr{}", i % 5).as_str(),
                    Term::literal(format!("value {i}")),
                ),
            )
            .unwrap();
        });
        // Three overlay updates, each routing + replica fan-out: stay
        // within a small constant of 3·depth.
        assert!(
            mean <= 3.0 * (depth + 4.0) * 3.0,
            "{peers} peers: {mean} messages per insert (depth {depth})"
        );
        assert!(mean >= 3.0, "{peers} peers: an insert is ≥ 3 updates");
    }
}

#[test]
fn search_cost_grows_logarithmically() {
    // Mean search messages at 256 peers must stay within ~3× of the
    // 16-peer cost (log₂ 256 / log₂ 16 = 2, plus constant slack) — not
    // the 16× a linear-cost structure would show.
    let mut means = Vec::new();
    for peers in [16usize, 256] {
        let mut sys = sys_with(peers);
        let p0 = PeerId(0);
        sys.insert_schema(p0, Schema::new("EMBL", ["Organism"]))
            .unwrap();
        for i in 0..30 {
            sys.insert_triple(
                p0,
                Triple::new(
                    format!("seq:Q{i}").as_str(),
                    "EMBL#Organism",
                    Term::literal(format!("Aspergillus strain {i}")),
                ),
            )
            .unwrap();
        }
        let q = TriplePatternQuery::example_aspergillus();
        let mean = mean_messages(&mut sys, 50, |s, i| {
            let origin = PeerId::from_index(i % s.config().peers);
            s.execute(
                origin,
                &QueryPlan::pattern(q.clone()),
                &QueryOptions::default(),
            )
            .unwrap();
        });
        means.push(mean);
    }
    assert!(
        means[1] <= 3.5 * means[0].max(1.0),
        "search cost must grow logarithmically: 16 peers → {:.1}, 256 peers → {:.1}",
        means[0],
        means[1]
    );
}

#[test]
fn bidirectional_mapping_is_stored_at_both_key_spaces() {
    let mut sys = sys_with(32);
    let p0 = PeerId(0);
    sys.insert_schema(p0, Schema::new("EMBL", ["Organism"]))
        .unwrap();
    sys.insert_schema(p0, Schema::new("EMP", ["SystematicName"]))
        .unwrap();
    sys.insert_mapping(
        p0,
        "EMBL",
        "EMP",
        MappingKind::Equivalence,
        Provenance::Manual,
        vec![Correspondence::new("Organism", "SystematicName")],
    )
    .unwrap();
    // Both schema key spaces must serve the mapping (§3: "at the key
    // spaces corresponding to both schemas if the mapping is
    // bidirectional").
    for schema in ["EMBL", "EMP"] {
        let maps = sys
            .mappings_at_schema(PeerId(7), &gridvine_semantic::SchemaId::new(schema))
            .unwrap();
        assert_eq!(maps.len(), 1, "{schema} key space must hold the mapping");
    }
}

#[test]
fn subsumption_mapping_is_stored_at_source_only() {
    let mut sys = sys_with(32);
    let p0 = PeerId(0);
    sys.insert_schema(p0, Schema::new("EMBL", ["Organism"]))
        .unwrap();
    sys.insert_schema(p0, Schema::new("TAXA", ["ScientificName"]))
        .unwrap();
    sys.insert_mapping(
        p0,
        "EMBL",
        "TAXA",
        MappingKind::Subsumption,
        Provenance::Manual,
        vec![Correspondence::new("Organism", "ScientificName")],
    )
    .unwrap();
    let at_source = sys
        .mappings_at_schema(PeerId(3), &gridvine_semantic::SchemaId::new("EMBL"))
        .unwrap();
    assert_eq!(at_source.len(), 1);
    let at_target = sys
        .mappings_at_schema(PeerId(3), &gridvine_semantic::SchemaId::new("TAXA"))
        .unwrap();
    assert!(
        at_target.is_empty(),
        "one-way mapping must live only at the source key space"
    );
}

#[test]
fn recursive_strategy_never_costs_more_than_iterative_on_chains() {
    // E6's claim as an invariant: on mapping chains, the recursive
    // strategy's mean message cost is at most the iterative one's
    // (it skips the per-schema fetch round trip to the origin).
    let mut sys = sys_with(64);
    let p0 = PeerId(0);
    for i in 0..6 {
        sys.insert_schema(p0, Schema::new(format!("S{i}").as_str(), [format!("a{i}")]))
            .unwrap();
    }
    for i in 0..5 {
        sys.insert_mapping(
            p0,
            format!("S{i}").as_str(),
            format!("S{}", i + 1).as_str(),
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new(format!("a{i}"), format!("a{}", i + 1))],
        )
        .unwrap();
    }
    for i in 0..6 {
        sys.insert_triple(
            p0,
            Triple::new(
                format!("seq:C{i}").as_str(),
                format!("S{i}#a{i}").as_str(),
                Term::literal("shared value"),
            ),
        )
        .unwrap();
    }
    let q = TriplePatternQuery::new(
        "x",
        gridvine_rdf::TriplePattern::new(
            gridvine_rdf::PatternTerm::var("x"),
            gridvine_rdf::PatternTerm::constant(Term::uri("S0#a0")),
            gridvine_rdf::PatternTerm::constant(Term::literal("shared value")),
        ),
    )
    .unwrap();
    let mut search = |origin: PeerId, strategy: Strategy| {
        let out = sys
            .execute(
                origin,
                &QueryPlan::search(q.clone()),
                &QueryOptions::new().strategy(strategy),
            )
            .unwrap();
        assert_eq!(out.rows.len(), 6, "{strategy:?} finds the whole chain");
        out.stats.messages
    };
    // Cold costs (the first query pays the closure BFS under either
    // strategy): recursive skips the per-schema fetch round trip.
    let iterative_cold = search(PeerId(0), Strategy::Iterative);
    let recursive = search(PeerId(0), Strategy::Recursive);
    assert!(
        recursive <= iterative_cold,
        "recursive {recursive} must not exceed cold iterative {iterative_cold}"
    );
    // Warm iterative replays the epoch-keyed closure cache: repeated
    // queries skip every mapping-list retrieve, so the mean warm cost
    // sits strictly below the cold cost on this 6-schema chain.
    let mut warm_sum = 0u64;
    for i in 0..20 {
        warm_sum += search(PeerId::from_index((i * 3) % 64), Strategy::Iterative);
    }
    let iterative_warm = warm_sum as f64 / 20.0;
    assert!(
        iterative_warm < iterative_cold as f64,
        "cached iterative {iterative_warm} must undercut cold {iterative_cold}"
    );
}

#[test]
fn a_response_carrying_several_patterns_rows_is_one_message() {
    // Three schemas, two records each, every record with the same
    // object — longer than the predicates, so every hop of a closure
    // over it routes by it and one peer answers them all.
    const OBJECT: &str = "Aspergillus niger var. awamori";
    let build = || {
        let mut sys = sys_with(32);
        let p0 = PeerId(0);
        for s in ["EMBL", "EMP", "SP"] {
            sys.insert_schema(p0, Schema::new(s, ["Organism"])).unwrap();
            for i in 0..2 {
                sys.insert_triple(
                    p0,
                    Triple::new(
                        format!("seq:{s}{i}").as_str(),
                        format!("{s}#Organism").as_str(),
                        Term::literal(OBJECT),
                    ),
                )
                .unwrap();
            }
        }
        for s in ["EMP", "SP"] {
            sys.insert_mapping(
                p0,
                "EMBL",
                s,
                MappingKind::Equivalence,
                Provenance::Manual,
                vec![Correspondence::new("Organism", "Organism")],
            )
            .unwrap();
        }
        sys
    };
    let q = TriplePatternQuery::new(
        "x",
        TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("EMBL#Organism")),
            PatternTerm::constant(Term::literal(OBJECT)),
        ),
    )
    .unwrap();
    let origin = PeerId(9);
    let options = QueryOptions::default();
    let (mut sys, mut twin) = (build(), build());
    // Warm the closure cache on both (same routing draws).
    let cold = sys
        .execute(origin, &QueryPlan::search(q.clone()), &options)
        .unwrap();
    twin.execute(origin, &QueryPlan::search(q.clone()), &options)
        .unwrap();
    assert_eq!(cold.rows.len(), 6);

    // The warm closure sends its origin hop, discovers EMBL's list
    // (the object's leaf holds no schema key) at the peer whose cache
    // replays the other two hops — and those two are one request. The
    // lookup of one pattern, from the same learned leaves, costs what
    // that request costs.
    let mut session = sys
        .open(origin, &QueryPlan::search(q.clone()), &options)
        .unwrap();
    let mut units = Vec::new();
    while let Some(event) = session.next_event().unwrap() {
        if let ResultEvent::Stats(delta) = event {
            units.push(delta);
        }
    }
    let closure = session.into_outcome();
    let lookup = twin
        .execute(origin, &QueryPlan::pattern(q), &options)
        .unwrap();
    assert_eq!((closure.stats.subqueries, lookup.stats.subqueries), (3, 1));
    assert_eq!(
        (
            closure.stats.bindings_shipped,
            lookup.stats.bindings_shipped
        ),
        (6, 2)
    );
    assert_eq!((closure.stats.requests, closure.stats.cache_hits), (3, 1));
    let [.., replayed] = units[..] else {
        panic!("a unit per request, not {units:?}");
    };
    assert_eq!((replayed.subqueries, replayed.bindings_shipped), (2, 4));
    assert_eq!((replayed.requests, lookup.stats.requests), (1, 1));
    assert!(lookup.stats.messages >= 2, "a request and the response");
    assert_eq!(replayed.messages, lookup.stats.messages);
}

/// Apple mapped to three more schemas on 16 peers, one per leaf, a
/// record under each; the initials are far apart, so each schema's key
/// and its `#a` predicate share a leaf of their own.
fn star_of_four() -> GridVineSystem {
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 16,
        seed: 11,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    let schemas = ["Apple", "Guava", "Mango", "Zebra"];
    for s in schemas {
        sys.insert_schema(p0, Schema::new(s, ["a"])).unwrap();
        let (subject, predicate) = (format!("seq:{s}"), format!("{s}#a"));
        let record = Triple::new(subject.as_str(), predicate.as_str(), Term::literal("x"));
        sys.insert_triple(p0, record).unwrap();
    }
    for s in &schemas[1..] {
        let a = vec![Correspondence::new("a", "a")];
        let (kind, provenance) = (MappingKind::Equivalence, Provenance::Manual);
        sys.insert_mapping(p0, "Apple", *s, kind, provenance, a)
            .unwrap();
    }
    sys
}

/// What a finished walk's commit to the holder — the peer holding the
/// origin schema's mapping list, whose cache every walk of the schema
/// reads — costs: one direct message from an iterative origin that is
/// not the holder, nothing from one that is, and nothing on a recursive
/// walk, whose expansions run at the holder. It is charged in the unit
/// that finishes the walk, as a message and not as a request. Every
/// exchange here goes to an address its issuer learned from the same
/// walk under another TTL, a different cache key: a request and its
/// response, two messages, or none when local.
#[test]
fn a_finished_walk_commits_to_the_holder_for_one_message_at_most() {
    let q = TriplePatternQuery::new(
        "x",
        TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("Apple#a")),
            PatternTerm::var("o"),
        ),
    )
    .unwrap();
    let plan = QueryPlan::search(q);
    let leaf = |sys: &GridVineSystem, lexical: &str| {
        let peers = sys.topology().responsible(&sys.key_of(lexical));
        assert_eq!(peers.len(), 1, "one peer per leaf");
        peers[0]
    };
    let sys = star_of_four();
    for s in ["Apple", "Guava", "Mango", "Zebra"] {
        assert_eq!(leaf(&sys, s), leaf(&sys, &format!("{s}#a")), "{s}");
    }
    let holder = leaf(&sys, "Apple");
    let elsewhere = PeerId((holder.0 + 1) % 16);
    for strategy in [Strategy::Iterative, Strategy::Recursive] {
        for origin in [holder, elsewhere] {
            let case = format!("{strategy:?} from {origin:?}");
            let mut sys = star_of_four();
            let options = QueryOptions::new().strategy(strategy);
            sys.execute(origin, &plan, &options.ttl(9)).unwrap();
            let mut session = sys.open(origin, &plan, &options.ttl(10)).unwrap();
            let mut units = Vec::new();
            while let Some(event) = session.next_event().unwrap() {
                if let ResultEvent::Stats(delta) = event {
                    units.push(delta);
                }
            }
            let cold = session.into_outcome();
            assert_eq!(cold.rows.len(), 4, "{case}");
            assert_eq!((cold.stats.cache_hits, cold.stats.cache_misses), (0, 1));
            assert_eq!(cold.stats.mapping_fetches, 0, "{case}: every list rides");
            assert_eq!(units.len(), cold.stats.requests, "{case}");
            let commit = u64::from(strategy == Strategy::Iterative && origin != holder);
            let last = units.len() - 1;
            for (i, unit) in units.iter().enumerate() {
                let exchange = 2 * unit.direct as u64;
                let expected = if i == last {
                    exchange + commit
                } else {
                    exchange
                };
                assert_eq!(unit.messages, expected, "{case}: unit {i} {unit:?}");
                assert_eq!(unit.requests, 1, "{case}: unit {i}");
            }
            assert_eq!(sys.cached_closures(), 2, "{case}: both keys, at the holder");
        }
    }
}

/// Two mapped schemas on 24 peers (a balanced 24 has σ groups of one
/// and of two peers), before any triple.
fn mapped_pair(hash: HashKind) -> GridVineSystem {
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 24,
        hash,
        seed: 5,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    for (name, attributes) in [("S0", ["a0", "a1"]), ("S1", ["b0", "b1"])] {
        sys.insert_schema(p0, Schema::new(name, attributes))
            .unwrap();
    }
    sys.insert_mapping(
        p0,
        "S0",
        "S1",
        MappingKind::Equivalence,
        Provenance::Manual,
        vec![Correspondence::new("a0", "b0")],
    )
    .unwrap();
    sys
}

/// Triples over small pools, so a corpus repeats triples and lexicals.
fn arb_corpus_triple() -> impl proptest::strategy::Strategy<Value = Triple> {
    (0usize..6, 0usize..4, 0usize..5).prop_map(|(s, p, o)| {
        Triple::new(
            format!("seq:E{s}").as_str(),
            ["S0#a0", "S0#a1", "S1#b0", "S1#b1"][p],
            Term::literal(format!("value {o}")),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// How a corpus is cut into `Update` calls moves only its messages:
    /// one `insert_triples` call, random chunks and one `insert_triple`
    /// per triple leave every `DB_p` the same rows in the same order,
    /// the routing-RNG stream where it was, and the same outcome (rows
    /// and stats) for a closure search afterwards, and every copy at
    /// its keys' σ groups after every call. Each call is one update
    /// tree: it charges at most one message per peer other than the
    /// origin.
    #[test]
    fn chunking_an_ingest_moves_only_its_messages(
        corpus in proptest::collection::vec(arb_corpus_triple(), 0..40),
        cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..5),
    ) {
        let origin = PeerId(3);
        // Inserts `triples` in one call: its outcome, and whether the
        // call charged what one update tree may.
        let insert = |sys: &mut GridVineSystem, triples: &[Triple]| {
            let before = sys.messages_sent();
            let placed = sys.insert_triples(origin, triples.to_vec());
            assert_eq!(sys.check(), Ok(()));
            (placed, sys.messages_sent() - before < 24)
        };
        let mut whole = mapped_pair(HashKind::OrderPreserving);
        prop_assert_eq!(insert(&mut whole, &corpus), (Ok(corpus.len()), true));

        let mut chunked = mapped_pair(HashKind::OrderPreserving);
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c.index(corpus.len() + 1)).collect();
        bounds.push(corpus.len());
        bounds.sort_unstable();
        let mut from = 0;
        for to in bounds {
            let chunk = &corpus[from..to];
            prop_assert_eq!(insert(&mut chunked, chunk), (Ok(to - from), true));
            from = to;
        }

        let mut single = mapped_pair(HashKind::OrderPreserving);
        for t in &corpus {
            prop_assert_eq!(single.insert_triple(origin, t.clone()), Ok(()));
            prop_assert_eq!(single.check(), Ok(()));
        }

        let query = gridvine_rdf::parse_single("SELECT ?x WHERE (?x, <S0#a0>, ?o)").unwrap();
        let plan = QueryPlan::search(query);
        let options = QueryOptions::new().strategy(Strategy::Iterative);
        for (name, other) in [("chunked", &chunked), ("single", &single)] {
            for p in (0..24).map(PeerId::from_index) {
                let rows: Vec<Triple> = other.peer_db(p).iter().collect();
                prop_assert_eq!(rows, whole.peer_db(p).iter().collect::<Vec<_>>(), "{} {:?}", name, p);
            }
        }
        let draw = whole.random_peer();
        let base = whole.execute(PeerId(7), &plan, &options).unwrap();
        let answerable = |t: &Triple| ["S0#a0", "S1#b0"].contains(&t.predicate.as_str());
        prop_assert_eq!(base.rows.is_empty(), !corpus.iter().any(answerable));
        for (name, other) in [("chunked", &mut chunked), ("single", &mut single)] {
            prop_assert_eq!(other.random_peer(), draw, "{}", name);
            let out = other.execute(PeerId(7), &plan, &options).unwrap();
            prop_assert_eq!(&out.rows, &base.rows, "{}", name);
            prop_assert_eq!(out.stats, base.stats, "{}", name);
        }
    }

    /// Every copy an ingest makes lives at its keys' σ groups, and at
    /// every peer of each, after every call — under both hashes, from
    /// any origin, however the corpus is cut. Under the order-preserving
    /// hash every key of this fixture lies under a σ group of one, so
    /// only the uniform arm sees whether a destination's replicas get
    /// their copies.
    #[test]
    fn every_copy_lives_at_its_keys_sigma_groups(
        corpus in proptest::collection::vec(arb_corpus_triple(), 0..40),
        cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..5),
        uniform in any::<bool>(),
        origin in 0usize..24,
    ) {
        let hash = if uniform { HashKind::Uniform } else { HashKind::OrderPreserving };
        let sys = &mut mapped_pair(hash);
        let mut bounds: Vec<usize> = cuts.iter().map(|c| c.index(corpus.len() + 1)).collect();
        bounds.push(corpus.len());
        bounds.sort_unstable();
        let mut from = 0;
        for to in bounds {
            let chunk = corpus[from..to].to_vec();
            prop_assert_eq!(sys.insert_triples(PeerId::from_index(origin), chunk), Ok(to - from));
            prop_assert_eq!(sys.check(), Ok(()));
            from = to;
        }
    }
}
