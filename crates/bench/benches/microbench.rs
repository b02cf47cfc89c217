//! Criterion micro-benchmarks over the reproduction's hot paths.
//!
//! One group per paper-relevant operation:
//! * `hash` — order-preserving vs uniform key hashing (§2.2);
//! * `routing` — messages/latency of `Retrieve` routing across network
//!   sizes (§2.1, the O(log n) claim in wall-clock form);
//! * `rdf` — the interned-dictionary / id-index / hash-join hot paths
//!   at 100k triples (bulk ingest, point selection, prefix range scan,
//!   3-pattern conjunctive join);
//! * `triple_store` — insert and indexed selection on `DB_p` (§2.2);
//! * `reformulate` — BFS query expansion over mapping chains (§3);
//! * `matcher` — combined lexical+instance matching of two schemas (§4);
//! * `bayes` — cycle enumeration + belief propagation (§3.2);
//! * `search` — end-to-end `SearchFor` on the synchronous system;
//! * `conjunctive` — distributed two-pattern joins under both join
//!   policies (§2.3, ablation A4);
//! * `compose` — mapping-path composition and BFS path search (§3.2
//!   repair machinery);
//! * `netsim` — the simulator's inner loop: event queue, WAN latency
//!   sampling, CDF quantiles.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use gridvine_core::{GridVineConfig, GridVineSystem, JoinMode, QueryOptions, QueryPlan, Strategy};
use gridvine_pgrid::{
    HashKind, KeyHasher, OrderPreservingHash, Overlay, PeerId, Topology, UniformHash,
};
use gridvine_rdf::{ConjunctiveQuery, Term, Triple, TriplePatternQuery, TripleStore};
use gridvine_semantic::{
    assess, compose_path, find_path, match_profiles, reformulations, BayesConfig, Correspondence,
    MappingKind, MappingRegistry, MatcherConfig, Provenance, Schema, SchemaId,
};
use gridvine_workload::{Workload, WorkloadConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn bench_hash(c: &mut Criterion) {
    let mut g = c.benchmark_group("hash");
    let op = OrderPreservingHash::default();
    let uni = UniformHash;
    g.bench_function("order_preserving_24b", |b| {
        b.iter(|| op.hash(black_box("EMBL#OrganismClassification"), 24))
    });
    g.bench_function("uniform_24b", |b| {
        b.iter(|| uni.hash(black_box("EMBL#OrganismClassification"), 24))
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut g = c.benchmark_group("routing");
    for n in [64usize, 256, 1024] {
        let mut rng = StdRng::seed_from_u64(1);
        let topo = Topology::balanced(n, 2, &mut rng);
        let mut overlay: Overlay<u8> = Overlay::new(&topo);
        let h = OrderPreservingHash::default();
        let keys: Vec<_> = (0..256).map(|i| h.hash(&format!("k{i}"), 24)).collect();
        g.bench_with_input(BenchmarkId::new("retrieve", n), &n, |b, &n| {
            let mut i = 0usize;
            b.iter(|| {
                let key = &keys[i % keys.len()];
                let origin = PeerId::from_index(i % n);
                i += 1;
                overlay.route(origin, black_box(key), &mut rng).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_rdf(c: &mut Criterion) {
    // The dictionary/id/hash-join hot paths at 100k triples. The
    // before/after comparison against the seed's string-keyed
    // nested-loop implementation lives in the `bench_rdf` binary
    // (writes BENCH_rdf.json); this group tracks the new engine.
    let entities = 33_334usize;
    let mut triples: Vec<Triple> = Vec::with_capacity(entities * 3);
    for i in 0..entities {
        let subject = format!("http://www.ebi.ac.uk/embl/entry#E{i:06}");
        let organism = if i < 64 {
            format!("Aspergillus niger strain {i}")
        } else {
            format!("Escherichia coli K-12 MG{i}")
        };
        triples.push(Triple::new(
            subject.as_str(),
            "http://www.ebi.ac.uk/embl/schema#organism",
            Term::literal(organism),
        ));
        triples.push(Triple::new(
            subject.as_str(),
            "http://www.ebi.ac.uk/embl/schema#length",
            Term::literal(format!("{}", 400 + i % 4000)),
        ));
        triples.push(Triple::new(
            subject.as_str(),
            "http://www.ebi.ac.uk/embl/schema#lab",
            Term::uri(format!("http://collab.embl.org/labs#L{:03}", i % 500)),
        ));
    }
    let mut g = c.benchmark_group("rdf");
    g.bench_function("bulk_ingest_100k", |b| {
        b.iter(|| {
            let mut db = TripleStore::new();
            db.insert_batch(triples.iter().cloned());
            db.len()
        })
    });
    let mut db = TripleStore::new();
    db.insert_batch(triples.iter().cloned());
    g.bench_function("select_eq", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % entities;
            db.select_eq_rows(
                gridvine_rdf::Position::Subject,
                &format!("http://www.ebi.ac.uk/embl/entry#E{i:06}"),
            )
            .count()
        })
    });
    g.bench_function("match_pattern_sp", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 7919) % entities;
            db.match_pattern(&gridvine_rdf::TriplePattern::new(
                gridvine_rdf::PatternTerm::constant(Term::uri(format!(
                    "http://www.ebi.ac.uk/embl/entry#E{i:06}"
                ))),
                gridvine_rdf::PatternTerm::constant(Term::uri(
                    "http://www.ebi.ac.uk/embl/schema#organism",
                )),
                gridvine_rdf::PatternTerm::var("o"),
            ))
            .len()
        })
    });
    g.bench_function("select_like_prefix", |b| {
        let pattern = gridvine_rdf::TriplePattern::new(
            gridvine_rdf::PatternTerm::var("s"),
            gridvine_rdf::PatternTerm::var("p"),
            gridvine_rdf::PatternTerm::constant(Term::literal("Aspergillus%")),
        );
        b.iter(|| db.match_pattern(black_box(&pattern)).len())
    });
    let q = ConjunctiveQuery::new(
        vec!["x".into(), "len".into(), "lab".into()],
        vec![
            gridvine_rdf::TriplePattern::new(
                gridvine_rdf::PatternTerm::var("x"),
                gridvine_rdf::PatternTerm::constant(Term::uri(
                    "http://www.ebi.ac.uk/embl/schema#organism",
                )),
                gridvine_rdf::PatternTerm::constant(Term::literal("%Aspergillus%")),
            ),
            gridvine_rdf::TriplePattern::new(
                gridvine_rdf::PatternTerm::var("x"),
                gridvine_rdf::PatternTerm::constant(Term::uri(
                    "http://www.ebi.ac.uk/embl/schema#length",
                )),
                gridvine_rdf::PatternTerm::var("len"),
            ),
            gridvine_rdf::TriplePattern::new(
                gridvine_rdf::PatternTerm::var("x"),
                gridvine_rdf::PatternTerm::constant(Term::uri(
                    "http://www.ebi.ac.uk/embl/schema#lab",
                )),
                gridvine_rdf::PatternTerm::var("lab"),
            ),
        ],
    )
    .expect("valid query");
    g.bench_function("conjunctive_join_3_100k", |b| {
        b.iter(|| q.evaluate(black_box(&db)).len())
    });
    g.finish();
}

fn bench_triple_store(c: &mut Criterion) {
    let mut g = c.benchmark_group("triple_store");
    let w = Workload::generate(WorkloadConfig::small(3));
    let triples: Vec<Triple> = w.all_triples().into_iter().map(|(_, t)| t).collect();
    g.bench_function("insert_1k", |b| {
        b.iter(|| {
            let mut db = TripleStore::new();
            for t in triples.iter().take(1000) {
                db.insert(black_box(t.clone()));
            }
            db.len()
        })
    });
    let mut db = TripleStore::new();
    for t in &triples {
        db.insert(t.clone());
    }
    let q = TriplePatternQuery::example_aspergillus();
    g.bench_function("resolve_pattern", |b| {
        b.iter(|| db.resolve(black_box(&q.pattern), "x"))
    });
    g.finish();
}

fn chain_registry(len: usize) -> MappingRegistry {
    let mut reg = MappingRegistry::new();
    for i in 0..=len {
        reg.add_schema(Schema::new(format!("S{i}").as_str(), [format!("a{i}")]));
    }
    for i in 0..len {
        reg.add_mapping(
            format!("S{i}").as_str(),
            format!("S{}", i + 1).as_str(),
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new(format!("a{i}"), format!("a{}", i + 1))],
        );
    }
    reg
}

fn bench_reformulate(c: &mut Criterion) {
    let mut g = c.benchmark_group("reformulate");
    for len in [4usize, 16, 49] {
        let reg = chain_registry(len);
        let q = TriplePatternQuery::new(
            "x",
            gridvine_rdf::TriplePattern::new(
                gridvine_rdf::PatternTerm::var("x"),
                gridvine_rdf::PatternTerm::constant(Term::uri("S0#a0")),
                gridvine_rdf::PatternTerm::var("o"),
            ),
        )
        .unwrap();
        g.bench_with_input(BenchmarkId::new("chain", len), &len, |b, _| {
            b.iter(|| {
                reformulations(black_box(&reg), black_box(&q), 64)
                    .unwrap()
                    .len()
            })
        });
    }
    g.finish();
}

fn bench_matcher(c: &mut Criterion) {
    let w = Workload::generate(WorkloadConfig::small(5));
    let a = w.profile_of(w.schemas[0].id());
    let b2 = w.profile_of(w.schemas[1].id());
    let cfg = MatcherConfig::default();
    c.bench_function("matcher/match_pair", |b| {
        b.iter(|| match_profiles(black_box(&a), black_box(&b2), &cfg).len())
    });
}

fn bench_bayes(c: &mut Criterion) {
    // Ring of 8 schemas with 3 chords: a cycle-rich assessment input.
    let mut reg = chain_registry(8);
    for (s, t) in [(0usize, 4usize), (2, 6), (1, 5)] {
        reg.add_mapping(
            format!("S{s}").as_str(),
            format!("S{t}").as_str(),
            MappingKind::Equivalence,
            Provenance::Automatic,
            vec![Correspondence::new(format!("a{s}"), format!("a{t}"))],
        );
    }
    let cfg = BayesConfig::default();
    c.bench_function("bayes/assess_ring8", |b| {
        b.iter(|| assess(black_box(&reg), &cfg).posteriors.len())
    });
}

fn bench_search(c: &mut Criterion) {
    let w = Workload::generate(WorkloadConfig::small(7));
    let build = || {
        let mut sys = GridVineSystem::new(GridVineConfig {
            peers: 64,
            hash: HashKind::OrderPreserving,
            ..GridVineConfig::default()
        });
        let p0 = PeerId(0);
        for s in &w.schemas {
            sys.insert_schema(p0, s.clone()).unwrap();
        }
        for s in &w.schemas {
            sys.insert_triples(p0, w.triples_of(s.id())).unwrap();
        }
        for i in 0..w.schemas.len() - 1 {
            let a = w.schemas[i].id().clone();
            let b = w.schemas[i + 1].id().clone();
            let corrs = w.ground_truth.correct_pairs(&a, &b);
            sys.insert_mapping(
                p0,
                a,
                b,
                MappingKind::Equivalence,
                Provenance::Manual,
                corrs,
            )
            .unwrap();
        }
        sys
    };
    let mut sys = build();
    let q = TriplePatternQuery::example_aspergillus();
    let mut g = c.benchmark_group("search");
    let mut rng = StdRng::seed_from_u64(1);
    let plan = QueryPlan::search(q);
    g.bench_function("iterative", |b| {
        b.iter(|| {
            let origin = PeerId::from_index(rng.gen_range(0..64));
            sys.execute(
                origin,
                black_box(&plan),
                &QueryOptions::new().strategy(Strategy::Iterative),
            )
            .unwrap()
            .rows
            .len()
        })
    });
    g.bench_function("recursive", |b| {
        b.iter(|| {
            let origin = PeerId::from_index(rng.gen_range(0..64));
            sys.execute(
                origin,
                black_box(&plan),
                &QueryOptions::new().strategy(Strategy::Recursive),
            )
            .unwrap()
            .rows
            .len()
        })
    });
    g.finish();
}

fn bench_netsim(c: &mut Criterion) {
    use gridvine_netsim::{Cdf, EventQueue, LatencyModel, NodeId, RegionalWan, SimTime};
    let mut g = c.benchmark_group("netsim");
    // Event queue: schedule + drain 1k interleaved events (the
    // simulator's inner loop).
    g.bench_function("event_queue_1k", |b| {
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..1000u32 {
                q.schedule(SimTime(((i * 2654435761) % 100_000) as u64), i);
            }
            let mut n = 0u32;
            while let Some((_, e)) = q.pop() {
                n = n.wrapping_add(e);
            }
            n
        })
    });
    // WAN latency sampling (the per-message cost of the E1 model).
    let mut wan = RegionalWan::planetlab(7);
    let mut i = 0u32;
    g.bench_function("wan_sample", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            wan.sample(
                NodeId::from_index((i % 340) as usize),
                NodeId::from_index(((i * 7) % 340) as usize),
            )
        })
    });
    // CDF quantile over 10k samples (the E1 post-processing).
    let mut cdf = Cdf::new();
    for k in 0..10_000 {
        cdf.record((k as f64 * 0.7919) % 60.0);
    }
    g.bench_function("cdf_median_10k", |b| {
        b.iter(|| black_box(&mut cdf).median())
    });
    g.finish();
}

fn bench_compose(c: &mut Criterion) {
    let mut g = c.benchmark_group("compose");
    for len in [4usize, 16, 49] {
        let reg = chain_registry(len);
        // The chain's full forward path (one step per mapping).
        let path: Vec<gridvine_semantic::Step> = reg
            .mappings()
            .map(|m| gridvine_semantic::Step {
                mapping: m.id,
                direction: gridvine_semantic::Direction::Forward,
            })
            .collect();
        g.bench_with_input(BenchmarkId::new("compose_path", len), &len, |b, _| {
            b.iter(|| {
                compose_path(black_box(&reg), black_box(&path))
                    .unwrap()
                    .quality
            })
        });
        let from = SchemaId::new("S0");
        let to = SchemaId::new(format!("S{len}"));
        g.bench_with_input(BenchmarkId::new("find_path", len), &len, |b, _| {
            b.iter(|| find_path(black_box(&reg), &from, &to).unwrap().len())
        });
    }
    g.finish();
}

fn bench_conjunctive(c: &mut Criterion) {
    // One schema, 8 selective matches among 400 entities, every entity
    // carrying a length fact: the A4 workload at fixed size.
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 64,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    sys.insert_schema(p0, Schema::new("EMBL", ["Organism", "SequenceLength"]))
        .unwrap();
    for i in 0..400usize {
        let subject = format!("seq:E{i:05}");
        let organism = if i < 8 {
            format!("Aspergillus strain {i}")
        } else {
            format!("Escherichia coli K-{i}")
        };
        sys.insert_triple(
            p0,
            Triple::new(subject.as_str(), "EMBL#Organism", Term::literal(organism)),
        )
        .unwrap();
        sys.insert_triple(
            p0,
            Triple::new(
                subject.as_str(),
                "EMBL#SequenceLength",
                Term::literal(format!("{}", 400 + i)),
            ),
        )
        .unwrap();
    }
    let q = ConjunctiveQuery::new(
        vec!["x".into(), "len".into()],
        vec![
            gridvine_rdf::TriplePattern::new(
                gridvine_rdf::PatternTerm::var("x"),
                gridvine_rdf::PatternTerm::constant(Term::uri("EMBL#Organism")),
                gridvine_rdf::PatternTerm::constant(Term::literal("%Aspergillus%")),
            ),
            gridvine_rdf::TriplePattern::new(
                gridvine_rdf::PatternTerm::var("x"),
                gridvine_rdf::PatternTerm::constant(Term::uri("EMBL#SequenceLength")),
                gridvine_rdf::PatternTerm::var("len"),
            ),
        ],
    )
    .unwrap();
    let mut g = c.benchmark_group("conjunctive");
    let mut rng = StdRng::seed_from_u64(2);
    let plan = QueryPlan::conjunctive(q);
    for (name, mode) in [
        ("independent", JoinMode::Independent),
        ("bound_substitution", JoinMode::BoundSubstitution),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                let origin = PeerId::from_index(rng.gen_range(0..64));
                sys.execute(
                    origin,
                    black_box(&plan),
                    &QueryOptions::new()
                        .strategy(Strategy::Iterative)
                        .join_mode(mode),
                )
                .unwrap()
                .rows
                .len()
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_hash,
    bench_routing,
    bench_rdf,
    bench_triple_store,
    bench_reformulate,
    bench_matcher,
    bench_bayes,
    bench_search,
    bench_conjunctive,
    bench_compose,
    bench_netsim
);
criterion_main!(benches);
