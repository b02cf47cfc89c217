//! Before/after microbenchmark for the columnar/interned/hash-join
//! refactors of `gridvine-rdf`.
//!
//! The "before" side is a faithful replica of the seed implementation —
//! `String`-keyed position indexes, per-candidate `Binding` unification,
//! and the O(n·m) nested-loop binding join — kept here so the comparison
//! stays reproducible after the real crate moved on. Both sides run the
//! same operations over the same 100k-triple corpus:
//!
//! * `ingest_100k` — bulk insert with index maintenance;
//! * `select_eq_point` / `select_eq_scan` — exact selections via the
//!   row-cursor API (row ids collected, terms deferred — the like-for-
//!   like of the seed's `Vec<&Triple>`);
//! * `match_pattern_sp` — what a destination peer runs on the
//!   bound-join path: `match_pattern` with a subject and a predicate
//!   constant (shortest posting + residual), bindings materialized;
//! * `select_like_prefix` — `Aspergillus%` object prefix selection
//!   through `match_pattern` (prefix range over the sorted key index);
//! * `conjunctive_join_3` — a 3-pattern conjunctive query (selective
//!   head, two joined fan-out patterns);
//! * `parallel_ingest_8way` — 8 threads ingesting 8 corpus partitions
//!   into 8 peer stores through one shared dictionary handle: 8-way
//!   sharded locks ("new") vs a single global lock ("seed" column);
//!   both pools gate their shard count on the host's available
//!   parallelism, so on a single-core container the comparison
//!   degenerates to ~1.0× by construction (no contention to eliminate).
//! * `exec_first_result` / `exec_limit_10` — the pull-based query
//!   session over a full synchronous PDMS federation (8-schema mapping
//!   chain): the "seed" column is the blocking `execute` drain of the
//!   whole reformulation closure, the "new" column is pulling the
//!   session only until the first row batch lands (first-result
//!   latency) or running with `limit(10)` (early-termination savings).
//! * `exec_overlap_first_result` — **simulated-clock** first-result
//!   latency of the event-driven session scheduler over an 8-schema
//!   star federation whose matching data lives in the schemas the
//!   serial walk reaches last: the "seed" column is `window(1)` (one
//!   subquery in flight, the serial pull order), the "new" column
//!   `window(4)` (independent closure hops pipelined). Both columns
//!   are simulated milliseconds, deterministic per seed, and identical
//!   in rows and message counts — only the clock moves.
//! * `exec_load_p99` — **simulated-clock** p99 completion latency of an
//!   open-loop session stream through the concurrent-session
//!   multiplexer at two arrival rates: the "seed" column submits at
//!   32× the rate of the "new" column against an 8-slot admission cap,
//!   so arrivals stack up in the bounded wait queue and the tail
//!   absorbs the backlog. Both columns are simulated milliseconds from
//!   real per-session completion instants; the row pins the
//!   latency-under-load measurement end to end.
//! * `exec_failover_p99` — **simulated-clock** p99 session latency
//!   over a federation whose chain predicates carry a factor-3
//!   replication rule: the "seed" column runs with the first-ranked
//!   replica holder crashed (every data resolution fails over to the
//!   next live replica), the "new" column fault-free. Both columns
//!   deliver identical rows with zero failures — the gap is the
//!   failover surcharge.
//!
//! Writes `BENCH_rdf.json` into the working directory and prints a
//! table. `--quick` runs a reduced corpus as a CI smoke check (no JSON
//! rewrite), catching layout regressions without full benchmark time.

use gridvine_bench::Table;
use gridvine_core::{
    GridVineConfig, GridVineSystem, PlacementPolicy, QueryOptions, QueryPlan, ResultEvent, Strategy,
};
use gridvine_load::{run_open_loop, ArrivalProcess, LoadConfig};
use gridvine_netsim::{Cdf, SimDuration};
use gridvine_pgrid::PeerId;
use gridvine_rdf::{
    ConjunctiveQuery, PatternTerm, Position, SharedTermDict, Term, Triple, TriplePattern,
    TriplePatternQuery, TripleStore,
};
use gridvine_semantic::{Correspondence, MappingKind, Provenance, Schema};
use std::time::Instant;

// ---------------------------------------------------------------------
// The seed implementation, replicated as the baseline.
// ---------------------------------------------------------------------
mod seed_baseline {
    use gridvine_rdf::{
        like_match, Binding, ConjunctiveQuery, PatternTerm, Position, Term, Triple, TriplePattern,
    };
    use std::collections::HashMap;

    /// The seed's triple representation: three owned `String`s (the
    /// workspace's `Triple` has since moved to shared `Arc<str>`
    /// buffers, which would flatter the baseline's clone/store costs).
    #[derive(PartialEq, Eq)]
    pub struct SeedTriple {
        subject: String,
        predicate: String,
        object: String,
        object_is_literal: bool,
    }

    impl SeedTriple {
        fn of(t: &Triple) -> SeedTriple {
            SeedTriple {
                subject: t.subject.as_str().to_string(),
                predicate: t.predicate.as_str().to_string(),
                object: t.object.lexical().to_string(),
                object_is_literal: t.object.is_literal(),
            }
        }

        fn lexical(&self, pos: Position) -> &str {
            match pos {
                Position::Subject => &self.subject,
                Position::Predicate => &self.predicate,
                Position::Object => &self.object,
            }
        }

        fn term(&self, pos: Position) -> Term {
            match pos {
                Position::Subject => Term::uri(self.subject.as_str()),
                Position::Predicate => Term::uri(self.predicate.as_str()),
                Position::Object if self.object_is_literal => Term::literal(self.object.as_str()),
                Position::Object => Term::uri(self.object.as_str()),
            }
        }

        /// The seed's `TriplePattern::match_triple`: slot-wise unify,
        /// cloning terms into the binding.
        fn match_pattern(&self, pattern: &TriplePattern) -> Option<Binding> {
            let mut b = Binding::new();
            for pos in Position::ALL {
                let value = self.term(pos);
                match pattern.slot(pos) {
                    PatternTerm::Var(name) => match b.get(name) {
                        Some(bound) => {
                            if bound != &value {
                                return None;
                            }
                        }
                        None => b.bind(name.clone(), value),
                    },
                    PatternTerm::Const(t) => {
                        if let Term::Literal(pat) = t {
                            if pat.contains('%') {
                                if !like_match(value.lexical(), pat) {
                                    return None;
                                }
                                continue;
                            }
                        }
                        if t != &value {
                            return None;
                        }
                    }
                }
            }
            Some(b)
        }
    }

    /// The seed's `TripleStore`: String rows + three String-keyed hash
    /// indexes.
    #[derive(Default)]
    pub struct NaiveStore {
        rows: Vec<SeedTriple>,
        by_subject: HashMap<String, Vec<u32>>,
        by_predicate: HashMap<String, Vec<u32>>,
        by_object: HashMap<String, Vec<u32>>,
        live: usize,
        tombstones: Vec<bool>,
    }

    impl NaiveStore {
        pub fn new() -> NaiveStore {
            NaiveStore::default()
        }

        pub fn len(&self) -> usize {
            self.live
        }

        pub fn insert(&mut self, t: &Triple) -> bool {
            let row = SeedTriple::of(t);
            if self.contains_row(&row) {
                return false;
            }
            let id = self.rows.len() as u32;
            self.by_subject
                .entry(row.subject.clone())
                .or_default()
                .push(id);
            self.by_predicate
                .entry(row.predicate.clone())
                .or_default()
                .push(id);
            self.by_object
                .entry(row.object.clone())
                .or_default()
                .push(id);
            self.rows.push(row);
            self.tombstones.push(false);
            self.live += 1;
            true
        }

        fn contains_row(&self, row: &SeedTriple) -> bool {
            self.by_subject
                .get(&row.subject)
                .map(|ids| {
                    ids.iter()
                        .any(|&id| !self.tombstones[id as usize] && &self.rows[id as usize] == row)
                })
                .unwrap_or(false)
        }

        pub fn iter(&self) -> impl Iterator<Item = &SeedTriple> {
            self.rows
                .iter()
                .zip(&self.tombstones)
                .filter(|(_, dead)| !**dead)
                .map(|(t, _)| t)
        }

        pub fn select_eq(&self, pos: Position, value: &str) -> Vec<&SeedTriple> {
            let index = match pos {
                Position::Subject => &self.by_subject,
                Position::Predicate => &self.by_predicate,
                Position::Object => &self.by_object,
            };
            index
                .get(value)
                .map(|ids| {
                    ids.iter()
                        .filter(|&&id| !self.tombstones[id as usize])
                        .map(|&id| &self.rows[id as usize])
                        .collect()
                })
                .unwrap_or_default()
        }

        pub fn select_like(&self, pos: Position, pattern: &str) -> Vec<&SeedTriple> {
            if !pattern.contains('%') {
                return self.select_eq(pos, pattern);
            }
            self.iter()
                .filter(|t| like_match(t.lexical(pos), pattern))
                .collect()
        }

        pub fn match_pattern(&self, pattern: &TriplePattern) -> Vec<Binding> {
            let exact = pattern
                .constants()
                .into_iter()
                .find(|(_, t)| !(t.is_literal() && t.lexical().contains('%')));
            let candidates: Vec<&SeedTriple> = match exact {
                Some((pos, term)) => self.select_eq(pos, term.lexical()),
                None => self.iter().collect(),
            };
            candidates
                .into_iter()
                .filter_map(|t| t.match_pattern(pattern))
                .collect()
        }

        /// The seed's `ConjunctiveQuery::evaluate`: nested-loop joins.
        pub fn evaluate(&self, q: &ConjunctiveQuery) -> Vec<Binding> {
            let mut partial: Vec<Binding> = vec![Binding::new()];
            for pattern in &q.patterns {
                let matches = self.match_pattern(pattern);
                let mut next = Vec::new();
                for acc in &partial {
                    for m in &matches {
                        if let Some(j) = acc.join(m) {
                            next.push(j);
                        }
                    }
                }
                partial = next;
                if partial.is_empty() {
                    break;
                }
            }
            let vars: Vec<&str> = q.distinguished.iter().map(String::as_str).collect();
            let mut out: Vec<Binding> = partial.into_iter().map(|b| b.project(&vars)).collect();
            out.sort_by_key(|b| format!("{b}"));
            out.dedup();
            out
        }
    }
}

// ---------------------------------------------------------------------
// Corpus and queries
// ---------------------------------------------------------------------

const ENTITIES: usize = 33_334; // ×3 triples ≈ 100k
const QUICK_ENTITIES: usize = 3_334; // ×3 ≈ 10k for the CI smoke run
const SELECTIVE: usize = 64; // Aspergillus matches

/// Realistically-sized RDF: full URIs in the EMBL style the paper quotes
/// (§2.2 uses `http://www.ebi.ac.uk/embl/...` identifiers), not
/// abbreviated CURIEs — term length is what the string-keyed seed paid
/// for on every index insert.
const P_ORGANISM: &str = "http://www.ebi.ac.uk/embl/schema#organismClassification";
const P_LENGTH: &str = "http://www.ebi.ac.uk/embl/schema#sequenceLength";
const P_LAB: &str = "http://www.ebi.ac.uk/embl/schema#submittingLaboratory";

fn subject_uri(i: usize) -> String {
    format!("http://www.ebi.ac.uk/embl/entry#E{i:06}")
}

fn corpus(entities: usize) -> Vec<Triple> {
    let mut triples = Vec::with_capacity(entities * 3);
    for i in 0..entities {
        let subject = subject_uri(i);
        let organism = if i < SELECTIVE {
            format!("Aspergillus niger van Tieghem strain {i}")
        } else {
            format!("Escherichia coli str. K-12 substr. MG{i}")
        };
        triples.push(Triple::new(
            subject.as_str(),
            P_ORGANISM,
            Term::literal(organism),
        ));
        triples.push(Triple::new(
            subject.as_str(),
            P_LENGTH,
            Term::literal(format!("{}", 400 + i % 4000)),
        ));
        triples.push(Triple::new(
            subject.as_str(),
            P_LAB,
            Term::uri(format!(
                "http://collab.embl.org/laboratories#L{:03}",
                i % 500
            )),
        ));
    }
    triples
}

fn three_pattern_query() -> ConjunctiveQuery {
    ConjunctiveQuery::new(
        vec!["x".into(), "len".into(), "lab".into()],
        vec![
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri(P_ORGANISM)),
                PatternTerm::constant(Term::literal("%Aspergillus%")),
            ),
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri(P_LENGTH)),
                PatternTerm::var("len"),
            ),
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri(P_LAB)),
                PatternTerm::var("lab"),
            ),
        ],
    )
    .expect("valid query")
}

/// Best-of-`reps` wall time of `f`, in nanoseconds, with a result sink
/// so the work cannot be optimized out.
fn best_ns<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = std::hint::black_box(f());
        let ns = start.elapsed().as_nanos() as f64;
        if ns < best {
            best = ns;
        }
        out = Some(r);
    }
    (best, out.expect("at least one rep"))
}

struct Measurement {
    name: &'static str,
    baseline_ms: f64,
    new_ms: f64,
}

/// 8 threads ingest 8 corpus partitions into 8 peer stores, all
/// canonicalizing lexicals through one shared dictionary handle with
/// `shards` lock shards. Returns best-of-`reps` wall nanoseconds.
fn parallel_ingest_8way(triples: &[Triple], shards: usize, reps: usize) -> f64 {
    let parts: Vec<&[Triple]> = triples.chunks(triples.len().div_ceil(8)).collect();
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let lexicon = SharedTermDict::with_shards(shards);
        let start = Instant::now();
        let total: usize = std::thread::scope(|s| {
            let handles: Vec<_> = parts
                .iter()
                .map(|part| {
                    let lexicon = &lexicon;
                    s.spawn(move || {
                        let mut db = TripleStore::new();
                        db.insert_batch(part.iter().map(|t| lexicon.canonical_triple(t)));
                        db.len()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).sum()
        });
        let ns = start.elapsed().as_nanos() as f64;
        assert_eq!(std::hint::black_box(total), triples.len());
        if ns < best {
            best = ns;
        }
    }
    best
}

/// A synchronous PDMS federation for the session ops: an 8-schema
/// equivalence chain with `entities` Aspergillus records spread evenly,
/// plus the S0-vocabulary query whose closure reaches every schema.
/// `placement` is the null policy for the placement-free measurements
/// (bit-identical to the pre-placement scheduler) and a replication
/// rule for the failover row.
fn session_federation(
    entities: usize,
    placement: PlacementPolicy,
) -> (GridVineSystem, TriplePatternQuery) {
    const SCHEMAS: usize = 8;
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 64,
        placement,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    for i in 0..SCHEMAS {
        sys.insert_schema(
            p0,
            Schema::new(format!("S{i}").as_str(), [format!("organism{i}")]),
        )
        .expect("schema stored");
    }
    for i in 0..SCHEMAS - 1 {
        sys.insert_mapping(
            p0,
            format!("S{i}").as_str(),
            format!("S{}", i + 1).as_str(),
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new(
                format!("organism{i}"),
                format!("organism{}", i + 1),
            )],
        )
        .expect("mapping stored");
    }
    for e in 0..entities {
        let s = e % SCHEMAS;
        sys.insert_triple(
            p0,
            Triple::new(
                format!("seq:E{e:05}").as_str(),
                format!("S{s}#organism{s}").as_str(),
                Term::literal(format!("Aspergillus sp. strain {e}")),
            ),
        )
        .expect("triple stored");
    }
    let q = TriplePatternQuery::new(
        "x",
        TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("S0#organism0")),
            PatternTerm::constant(Term::literal("%Aspergillus%")),
        ),
    )
    .expect("valid query");
    (sys, q)
}

/// The pull-based session ops: full drain (baseline) vs first-result
/// pull and `limit(10)` early termination. Steady state: after the
/// first rep the closure cache is warm on every path, so best-of-reps
/// compares warm against warm.
fn exec_session_ops(quick: bool, results: &mut Vec<Measurement>) {
    let entities = if quick { 200 } else { 800 };
    let reps = if quick { 3 } else { 7 };
    let (mut sys, q) = session_federation(entities, PlacementPolicy::default());
    let plan = QueryPlan::search(q);
    let options = QueryOptions::new().strategy(Strategy::Iterative);
    let origin = PeerId(17);

    let (full_ns, full_rows) = best_ns(reps, || {
        sys.execute(origin, &plan, &options)
            .expect("runs")
            .rows
            .len()
    });
    assert_eq!(full_rows, entities, "the closure reaches every schema");

    let (first_ns, first_batch) = best_ns(reps, || {
        let mut session = sys.open(origin, &plan, &options).expect("opens");
        loop {
            match session.next_event().expect("advances") {
                Some(ResultEvent::Rows(batch)) => break batch.len(),
                Some(_) => continue,
                None => break 0,
            }
        }
    });
    assert!(first_batch > 0, "first pull batch is non-empty");
    results.push(Measurement {
        name: "exec_first_result",
        baseline_ms: full_ns / 1e6,
        new_ms: first_ns / 1e6,
    });

    let (limit_ns, limit_rows) = best_ns(reps, || {
        sys.execute(origin, &plan, &options.limit(10))
            .expect("runs")
            .rows
            .len()
    });
    assert_eq!(limit_rows, 10);
    results.push(Measurement {
        name: "exec_limit_10",
        baseline_ms: full_ns / 1e6,
        new_ms: limit_ns / 1e6,
    });
}

/// A star federation for the scheduler-overlap measurement: S0 maps
/// directly to each of S1..=S7, but matching data lives only in
/// S1..=S3 — the children the serial depth-first walk visits *last* —
/// so a `window(1)` session resolves the whole empty fan-out before
/// its first row, while a wider window pipelines the independent hops
/// and reaches the data several simulated round-trips earlier.
fn overlap_federation(entities: usize) -> (GridVineSystem, TriplePatternQuery) {
    const SCHEMAS: usize = 8;
    let mut sys = GridVineSystem::new(GridVineConfig {
        peers: 64,
        ..GridVineConfig::default()
    });
    let p0 = PeerId(0);
    for i in 0..SCHEMAS {
        sys.insert_schema(
            p0,
            Schema::new(format!("S{i}").as_str(), [format!("organism{i}")]),
        )
        .expect("schema stored");
    }
    for i in 1..SCHEMAS {
        sys.insert_mapping(
            p0,
            "S0",
            format!("S{i}").as_str(),
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new(
                "organism0".to_string(),
                format!("organism{i}"),
            )],
        )
        .expect("mapping stored");
    }
    for e in 0..entities {
        let s = 1 + e % 3; // data only in S1..=S3
        sys.insert_triple(
            p0,
            Triple::new(
                format!("seq:E{e:05}").as_str(),
                format!("S{s}#organism{s}").as_str(),
                Term::literal(format!("Aspergillus sp. strain {e}")),
            ),
        )
        .expect("triple stored");
    }
    let q = TriplePatternQuery::new(
        "x",
        TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("S0#organism0")),
            PatternTerm::constant(Term::literal("%Aspergillus%")),
        ),
    )
    .expect("valid query");
    (sys, q)
}

/// Simulated-clock first-result latency, `window(1)` vs `window(4)`.
/// Cold sessions on identically-seeded fresh systems; the simulated
/// clock is deterministic, so one run per window is exact.
fn exec_overlap_ops(quick: bool, results: &mut Vec<Measurement>) {
    let entities = if quick { 60 } else { 240 };
    let run = |w: usize| {
        let (mut sys, q) = overlap_federation(entities);
        let plan = QueryPlan::search(q);
        let options = QueryOptions::new().strategy(Strategy::Iterative).window(w);
        let mut session = sys.open(PeerId(17), &plan, &options).expect("opens");
        let mut elapsed_ms = None;
        while let Some(ev) = session.next_event().expect("advances") {
            if elapsed_ms.is_none() {
                if let ResultEvent::Rows(batch) = &ev {
                    if !batch.is_empty() {
                        elapsed_ms = Some(session.sim_elapsed().as_micros() as f64 / 1e3);
                    }
                }
            }
        }
        let total = session.into_outcome();
        (
            total.stats.messages,
            elapsed_ms.expect("the federation has matching rows"),
        )
    };
    let (serial_msgs, serial_ms) = run(1);
    let (overlap_msgs, overlap_ms) = run(4);
    // Equivalence: the window moves the clock, never the computation.
    assert_eq!(serial_msgs, overlap_msgs, "identical drained messages");
    assert!(
        overlap_ms * 2.0 <= serial_ms,
        "window(4) must reach the first row ≥2× sooner on the simulated \
         clock: {overlap_ms:.3}ms vs {serial_ms:.3}ms"
    );
    results.push(Measurement {
        name: "exec_overlap_first_result",
        baseline_ms: serial_ms,
        new_ms: overlap_ms,
    });
}

/// Simulated-clock p99 completion latency under open-loop load: the
/// same session stream against the chain federation at two arrival
/// rates. Every session gets its own origin (cold closure caches, so
/// service time is uniform) and the gap between arrivals is derived
/// from the deterministic single-session service time: the light rate
/// never fills the 8-slot admission cap, the heavy rate offers 4× what
/// the pool can drain — the p99 difference is pure wait-queue delay on
/// the simulated clock, measured from submission to final reply.
fn exec_load_ops(quick: bool, results: &mut Vec<Measurement>) {
    let entities = if quick { 40 } else { 80 };
    let sessions = if quick { 24 } else { 56 }; // < peers: one origin each
                                                // One standalone session's simulated makespan = the service time.
    let service = {
        let (mut sys, q) = session_federation(entities, PlacementPolicy::default());
        let plan = QueryPlan::search(q);
        let options = QueryOptions::new().strategy(Strategy::Iterative).window(4);
        let mut session = sys.open(PeerId(0), &plan, &options).expect("opens");
        while session.next_event().expect("advances").is_some() {}
        session.sim_elapsed()
    };
    assert!(service > SimDuration::ZERO);

    let run = |gap: SimDuration| {
        let (mut sys, q) = session_federation(entities, PlacementPolicy::default());
        let plans = vec![QueryPlan::search(q)];
        let cfg = LoadConfig {
            sessions,
            arrivals: ArrivalProcess::Deterministic { gap },
            origins: sessions,
            max_concurrent: 8,
            queue_capacity: sessions,
            seed: 0x0431,
            ..LoadConfig::default()
        };
        let r = run_open_loop(&mut sys, &plans, &cfg);
        assert_eq!(r.completed, sessions, "every admitted session completes");
        r.latency.p99.as_micros() as f64 / 1e3
    };
    // Against the 8-slot admission cap, gap = service admits every
    // arrival into a near-empty pool, while gap = service/32 offers 4×
    // the drain rate — arrivals stack up in the wait queue and the
    // completion latency absorbs the backlog.
    let loaded_ms = run(SimDuration::from_micros(service.as_micros() / 32));
    let light_ms = run(service);
    assert!(
        loaded_ms >= light_ms * 2.0,
        "a 4x-overloaded pool must at least double the p99: \
         {loaded_ms:.3}ms vs {light_ms:.3}ms"
    );
    results.push(Measurement {
        name: "exec_load_p99",
        baseline_ms: loaded_ms,
        new_ms: light_ms,
    });
}

/// Simulated-clock p99 session latency with a crashed primary replica
/// holder ("seed" column) vs fault-free ("new" column). A factor-3
/// placement rule covers every chain predicate, so data resolutions
/// take the replica-aware routing path; the victim is the first-ranked
/// holder (lowest index — the flat model's serving order), which never
/// owns a schema key here, so mediation discovery stays fault-free.
/// Each session issues cold from its own non-holder origin; the crash
/// converts every data resolution into a failover but sheds nothing —
/// both columns deliver identical rows with zero failures, and the p99
/// gap is the failover surcharge on the simulated clock.
fn exec_failover_ops(quick: bool, results: &mut Vec<Measurement>) {
    const SCHEMAS: usize = 8;
    let entities = if quick { 40 } else { 80 };
    let sessions = if quick { 16 } else { 40 };
    let policy = PlacementPolicy::new().replicate("S", 3);

    let run = |crash_primary: bool| {
        let (mut sys, q) = session_federation(entities, policy.clone());
        let plan = QueryPlan::search(q);
        // window(1): every unit sits on the critical path, so the
        // failed-attempt message of each failover lands on the clock
        // instead of hiding inside the pipelined window's slack.
        let options = QueryOptions::new().strategy(Strategy::Iterative).window(1);
        let schema_owners: Vec<PeerId> = (0..SCHEMAS)
            .flat_map(|i| sys.replica_holders(&format!("S{i}")))
            .collect();
        let holders = sys.replica_holders("S0#organism0");
        if crash_primary {
            let victim = *holders.iter().min_by_key(|p| p.0).expect("holders");
            assert!(
                !schema_owners.contains(&victim),
                "the primary data holder must not own a schema key"
            );
            sys.crash_peer(victim);
        }
        let mut origins = (0..64u32)
            .map(PeerId)
            .filter(|p| !holders.contains(p) && !schema_owners.contains(p));
        let mut lat = Cdf::new();
        let mut rows = 0usize;
        let mut failures = 0usize;
        for _ in 0..sessions {
            let origin = origins.next().expect("enough non-holder origins");
            let mut session = sys.open(origin, &plan, &options).expect("opens");
            while let Some(ev) = session.next_event().expect("advances") {
                if let ResultEvent::Rows(batch) = ev {
                    rows += batch.len();
                }
            }
            lat.record_duration(session.sim_elapsed());
            failures += session.into_outcome().stats.failures;
        }
        assert_eq!(failures, 0, "failover leaves zero failures");
        (
            lat.quantile(0.99) * 1e3,
            rows,
            sys.replica_counters().failovers,
        )
    };
    let (clean_ms, clean_rows, clean_failovers) = run(false);
    let (crashed_ms, crashed_rows, crashed_failovers) = run(true);
    assert_eq!(
        clean_rows,
        entities * sessions,
        "the closure delivers fully"
    );
    assert_eq!(
        crashed_rows, clean_rows,
        "failover keeps the rows identical"
    );
    assert_eq!(clean_failovers, 0);
    assert!(
        crashed_failovers > 0,
        "the crashed primary forces failovers"
    );
    assert!(
        crashed_ms >= clean_ms,
        "failover cannot make the tail faster: {crashed_ms:.3}ms vs {clean_ms:.3}ms"
    );
    results.push(Measurement {
        name: "exec_failover_p99",
        baseline_ms: crashed_ms,
        new_ms: clean_ms,
    });
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let entities = if quick { QUICK_ENTITIES } else { ENTITIES };
    let triples = corpus(entities);
    let q = three_pattern_query();
    let mut results: Vec<Measurement> = Vec::new();

    // --- ingest -------------------------------------------------------
    let (base_ns, naive) = best_ns(7, || {
        let mut db = seed_baseline::NaiveStore::new();
        for t in &triples {
            db.insert(t);
        }
        db
    });
    // The producer hands over owned triples (the overlay delivers owned
    // items); cloning the corpus for each rep happens outside the timed
    // region, symmetrically with the baseline's by-ref intake.
    let mut new_ns = f64::INFINITY;
    let mut db = TripleStore::new();
    for _ in 0..7 {
        let batch: Vec<Triple> = triples.clone();
        let start = Instant::now();
        let mut fresh = TripleStore::new();
        fresh.insert_batch(batch);
        let ns = start.elapsed().as_nanos() as f64;
        if ns < new_ns {
            new_ns = ns;
        }
        db = fresh;
    }
    assert_eq!(naive.len(), db.len());
    results.push(Measurement {
        name: "ingest_100k",
        baseline_ms: base_ns / 1e6,
        new_ms: new_ns / 1e6,
    });

    // Row-at-a-time ingest for transparency (the distributed system's
    // online Update path inserts one triple per overlay delivery).
    let mut row_ns = f64::INFINITY;
    let mut row_len = 0;
    for _ in 0..7 {
        let batch: Vec<Triple> = triples.clone();
        let start = Instant::now();
        let mut fresh = TripleStore::new();
        for t in batch {
            fresh.insert(t);
        }
        let ns = start.elapsed().as_nanos() as f64;
        if ns < row_ns {
            row_ns = ns;
        }
        row_len = fresh.len();
    }
    assert_eq!(row_len, db.len());
    results.push(Measurement {
        name: "ingest_100k_row_at_a_time",
        baseline_ms: base_ns / 1e6,
        new_ms: row_ns / 1e6,
    });

    // --- select_eq ----------------------------------------------------
    // Point probes: the destination-peer σ of §2.3 — a routed subject
    // constant, interleaved with misses, asked as a cardinality
    // ("how many rows claim this subject?"). The seed must allocate and
    // fill a `Vec<&Triple>` to answer; the cursor answers from the
    // posting list's length (O(1) on a tombstone-free store) — the
    // deferral is the optimization. Handle collection is measured
    // separately in `select_eq_scan`.
    let probes: Vec<String> = (0..entities).step_by(7).map(subject_uri).collect();
    let (base_ns, base_hits) = best_ns(15, || {
        let mut n = 0;
        for p in &probes {
            n += naive.select_eq(Position::Subject, p).len();
            n += naive.select_eq(Position::Subject, "seq:missing").len();
        }
        n
    });
    let (new_ns, new_hits) = best_ns(15, || {
        let mut n = 0;
        for p in &probes {
            n += db.select_eq_rows(Position::Subject, p).count();
            n += db.select_eq_rows(Position::Subject, "seq:missing").count();
        }
        n
    });
    assert_eq!(base_hits, new_hits);
    results.push(Measurement {
        name: "select_eq_point",
        baseline_ms: base_ns / 1e6,
        new_ms: new_ns / 1e6,
    });

    // Scan: the fat predicate posting list (a third of the store),
    // again collected as row-id handles on the cursor side.
    let (base_ns, base_hits) = best_ns(15, || {
        naive.select_eq(Position::Predicate, P_ORGANISM).len()
    });
    let (new_ns, new_hits) = best_ns(15, || {
        db.select_eq_rows(Position::Predicate, P_ORGANISM)
            .collect::<Vec<u32>>()
            .len()
    });
    assert_eq!(base_hits, new_hits);
    results.push(Measurement {
        name: "select_eq_scan",
        baseline_ms: base_ns / 1e6,
        new_ms: new_ns / 1e6,
    });

    // --- match_pattern, subject + predicate constant ------------------
    // The destination-peer σ of the bound-join path: the executor
    // substitutes a bound subject into a pattern that already carries
    // its predicate, and the peer answers with materialized bindings.
    let sp_patterns: Vec<TriplePattern> = probes
        .iter()
        .map(|s| {
            TriplePattern::new(
                PatternTerm::constant(Term::uri(s.as_str())),
                PatternTerm::constant(Term::uri(P_ORGANISM)),
                PatternTerm::var("o"),
            )
        })
        .collect();
    let (base_ns, base_rows) = best_ns(5, || {
        let rows = sp_patterns.iter().map(|p| naive.match_pattern(p));
        rows.collect::<Vec<_>>()
    });
    let (new_ns, new_rows) = best_ns(5, || {
        let rows = sp_patterns.iter().map(|p| db.match_pattern(p));
        rows.collect::<Vec<_>>()
    });
    assert_eq!(base_rows, new_rows);
    assert!(new_rows.iter().all(|r| r.len() == 1));
    results.push(Measurement {
        name: "match_pattern_sp",
        baseline_ms: base_ns / 1e6,
        new_ms: new_ns / 1e6,
    });

    // --- select_like prefix -------------------------------------------
    let (base_ns, base_hits) = best_ns(5, || {
        naive.select_like(Position::Object, "Aspergillus%").len()
    });
    let like_prefix = TriplePattern::new(
        PatternTerm::var("s"),
        PatternTerm::var("p"),
        PatternTerm::constant(Term::literal("Aspergillus%")),
    );
    let (new_ns, new_hits) = best_ns(5, || db.match_pattern(&like_prefix).len());
    assert_eq!(base_hits, new_hits);
    assert_eq!(new_hits, SELECTIVE);
    results.push(Measurement {
        name: "select_like_prefix",
        baseline_ms: base_ns / 1e6,
        new_ms: new_ns / 1e6,
    });

    // --- 3-pattern conjunctive join -----------------------------------
    let (base_ns, base_rows) = best_ns(5, || naive.evaluate(&q).len());
    let (new_ns, new_rows) = best_ns(5, || q.evaluate(&db).len());
    assert_eq!(base_rows, new_rows);
    assert_eq!(new_rows, SELECTIVE);
    results.push(Measurement {
        name: "conjunctive_join_3",
        baseline_ms: base_ns / 1e6,
        new_ms: new_ns / 1e6,
    });

    // --- 8-way parallel ingest through a shared dictionary ------------
    // The dictionary-sharding ablation: same 8 threads, same 8 peer
    // stores, same pooled-lexicon canonicalization; the baseline pool
    // has a single lock shard (every intern serializes), the new side
    // the default 8.
    let reps = if quick { 2 } else { 5 };
    let single_ns = parallel_ingest_8way(&triples, 1, reps);
    let sharded_ns = parallel_ingest_8way(&triples, 8, reps);
    results.push(Measurement {
        name: "parallel_ingest_8way",
        baseline_ms: single_ns / 1e6,
        new_ms: sharded_ns / 1e6,
    });
    // Keep the row honest: the pool caps its lock shards at the host's
    // available parallelism, so on a low-core box the "8-way" column
    // measured fewer shards than its name says (by design — there is
    // no contention to eliminate there; see SharedTermDict docs).
    let effective_shards = SharedTermDict::with_shards(8).shard_count();
    if effective_shards < 8 {
        println!(
            "note: host parallelism caps the shared pool at {effective_shards} shard(s); \
             parallel_ingest_8way compared {effective_shards}-shard vs 1-shard"
        );
    }

    // --- pull-based query sessions over the synchronous PDMS ----------
    // First-result latency and early-termination savings vs the full
    // blocking drain of an 8-schema reformulation closure.
    exec_session_ops(quick, &mut results);

    // --- event-driven scheduler: overlapped in-flight subqueries ------
    // Simulated-clock first-result latency of window(4) vs window(1)
    // over the star federation (both columns simulated milliseconds).
    exec_overlap_ops(quick, &mut results);

    // --- open-loop latency under load ---------------------------------
    // p99 completion latency of the session-multiplexer stream at a
    // heavy vs light arrival rate (both columns simulated milliseconds).
    exec_load_ops(quick, &mut results);

    // --- replica failover under a crashed primary ---------------------
    // p99 session latency with the first-ranked holder of the
    // replicated data keys crashed vs fault-free (both columns
    // simulated milliseconds; identical rows, zero failures).
    exec_failover_ops(quick, &mut results);

    // --- report -------------------------------------------------------
    println!(
        "BENCH rdf: seed baseline vs columnar/interned/hash-join store ({} triples{})",
        triples.len(),
        if quick { ", --quick smoke" } else { "" }
    );
    let mut table = Table::new(&["operation", "seed_ms", "new_ms", "speedup"]);
    for m in &results {
        table.row(&[
            m.name.to_string(),
            format!("{:.2}", m.baseline_ms),
            format!("{:.2}", m.new_ms),
            format!("{:.1}x", m.baseline_ms / m.new_ms),
        ]);
    }
    print!("{}", table.render());

    if quick {
        // Smoke mode: regressions fail the asserts above; don't clobber
        // the checked-in full-corpus numbers.
        println!("\n--quick: skipping BENCH_rdf.json rewrite");
        return;
    }
    let mut json = format!("{{\n  \"triples\": {},\n  \"results\": [\n", triples.len());
    for (i, m) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"op\": \"{}\", \"seed_ms\": {:.3}, \"new_ms\": {:.3}, \"speedup\": {:.2}}}{}\n",
            m.name,
            m.baseline_ms,
            m.new_ms,
            m.baseline_ms / m.new_ms,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_rdf.json", &json).expect("write BENCH_rdf.json");
    println!("\nwrote BENCH_rdf.json");
}
