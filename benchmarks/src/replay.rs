//! Layer replays for the traced pass.
//!
//! After an op ran through the façade, the same op's work is issued
//! again directly against each layer's public API on the live data:
//! the mapping closure through `reformulations`, one overlay route per
//! key the op resolves, one `match_pattern` (and `join`) on the peer
//! database each route ends at, and one `EventQueue` schedule+pop pair
//! per overlay message the op charged. Each layer's calls are recorded
//! as one span under the op's `replay` span, so the trace says how the
//! op's host time splits by layer without any span inside the crates.
//!
//! The replay re-derives the executor's subqueries from the plan, so
//! it is an estimate: `Counts::routes` against the op's own
//! `ExecStats` shows how much of the work it covered.

use crate::adapters::{self, ReplayOverlay, ReplayQueue};
use crate::trace::Tracer;
use crate::workloads::TESTBED_SEED;
use gridvine_core::{ExecStats, GridVineSystem, JoinMode};
use gridvine_pgrid::{BitString, PeerId, Topology};
use gridvine_rdf::{Binding, ConjunctiveQuery, Triple, TriplePattern, TriplePatternQuery};
use std::collections::BTreeSet;

/// How much work the replays issued, for the per-unit costs.
#[derive(Debug, Default)]
pub struct Counts {
    pub routes: u64,
    pub hops: u64,
    pub match_rows: u64,
    pub join_rows: u64,
    pub event_pairs: u64,
    pub updates: u64,
    pub batch_triples: u64,
    pub latency_samples: u64,
}

pub struct Replayer {
    overlay: ReplayOverlay,
    queue: ReplayQueue,
    ttl: usize,
    pub counts: Counts,
}

/// Triples re-inserted by the set-up replays.
const SETUP_UPDATE_TRIPLES: usize = 2_000;
const SETUP_BATCH_TRIPLES: usize = 50_000;
const SETUP_LATENCY_SAMPLES: u64 = 100_000;

impl Replayer {
    /// Materialise the replay overlay (span `replay.pgrid.build`) and a
    /// queue held at `event_depth`, the number of replies the workload
    /// keeps pending on one clock.
    pub fn new(tr: &mut Tracer, topology: &Topology, event_depth: usize, ttl: usize) -> Replayer {
        let overlay = tr.span("replay.pgrid.build", || {
            ReplayOverlay::new(topology, TESTBED_SEED)
        });
        Replayer {
            overlay,
            queue: ReplayQueue::at_depth(event_depth),
            ttl,
            counts: Counts::default(),
        }
    }

    /// Set-up work issued again layer by layer: overlay updates for a
    /// slice of the corpus, one bulk load into a fresh store, and a run
    /// of latency samples.
    pub fn setup(
        &mut self,
        tr: &mut Tracer,
        peers: usize,
        triples: &[Triple],
        key_of: impl Fn(&str) -> BitString,
    ) {
        let slice = &triples[..triples.len().min(SETUP_UPDATE_TRIPLES)];
        let keyed: Vec<(BitString, Triple)> = slice
            .iter()
            .flat_map(|t| {
                [
                    key_of(t.subject.as_str()),
                    key_of(t.predicate.as_str()),
                    key_of(t.object.lexical()),
                ]
                .map(|k| (k, t.clone()))
            })
            .collect();
        self.counts.updates += keyed.len() as u64;
        tr.begin("replay.pgrid.update");
        for (key, t) in keyed {
            self.overlay.update(PeerId(0), key, t);
        }
        tr.end();

        let batch = triples[..triples.len().min(SETUP_BATCH_TRIPLES)].to_vec();
        self.counts.batch_triples += batch.len() as u64;
        tr.begin("replay.rdf.insert_batch");
        std::hint::black_box(adapters::insert_batch(batch));
        tr.end();

        self.counts.latency_samples += SETUP_LATENCY_SAMPLES;
        tr.begin("replay.netsim.latency_sample");
        std::hint::black_box(adapters::latency_samples(
            TESTBED_SEED,
            peers,
            SETUP_LATENCY_SAMPLES,
        ));
        tr.end();
    }

    /// Route every (origin, key) request in one `replay.pgrid.route`
    /// span; returns the destinations.
    pub fn routes(&mut self, tr: &mut Tracer, requests: &[(PeerId, BitString)]) -> Vec<PeerId> {
        tr.begin("replay.pgrid.route");
        let mut dests = Vec::with_capacity(requests.len());
        for (origin, key) in requests {
            let (dest, hops) = self.overlay.route(*origin, key).unwrap_or((*origin, 0));
            self.counts.hops += hops;
            dests.push(dest);
        }
        tr.end();
        self.counts.routes += requests.len() as u64;
        dests
    }

    /// One schedule+pop pair per overlay message.
    pub fn events(&mut self, tr: &mut Tracer, messages: u64) {
        if messages == 0 {
            return;
        }
        tr.begin("replay.netsim.events");
        self.queue.pairs(messages);
        tr.end();
        self.counts.event_pairs += messages;
    }

    /// Route and match a list of concrete patterns on the live peer
    /// databases; returns every binding matched.
    fn resolve(
        &mut self,
        tr: &mut Tracer,
        sys: &GridVineSystem,
        origin: PeerId,
        patterns: &[TriplePattern],
        extra_keys: Vec<BitString>,
    ) -> Vec<Binding> {
        let routable: Vec<(&TriplePattern, BitString)> = patterns
            .iter()
            .filter_map(|p| {
                let (_, term) = p.routing_constant()?;
                Some((p, sys.key_of(term.lexical())))
            })
            .collect();
        let requests: Vec<(PeerId, BitString)> = routable
            .iter()
            .map(|(_, k)| k.clone())
            .chain(extra_keys)
            .map(|k| (origin, k))
            .collect();
        let dests = self.routes(tr, &requests);
        tr.begin("replay.rdf.match");
        let mut rows = Vec::new();
        for ((pattern, _), dest) in routable.iter().zip(&dests) {
            rows.extend(adapters::match_pattern(sys.peer_db(*dest), pattern));
        }
        tr.end();
        self.counts.match_rows += rows.len() as u64;
        rows
    }

    /// The mapping closure of one single-pattern query, then its
    /// resolution at every schema reached. `cold` says the real op
    /// expanded the closure itself instead of replaying a cached one:
    /// only then is the expansion recorded as semantic-layer time, and
    /// the mapping lists' keys are routed too.
    fn closure(
        &mut self,
        tr: &mut Tracer,
        sys: &GridVineSystem,
        origin: PeerId,
        query: &TriplePatternQuery,
        cold: bool,
    ) -> Vec<Binding> {
        let fetch_mappings = cold;
        if cold {
            tr.begin("replay.semantic.closure");
        }
        let reformulated = adapters::closure(sys.registry(), query, self.ttl);
        if cold {
            tr.end();
        }
        let patterns: Vec<TriplePattern> = reformulated
            .iter()
            .map(|r| r.query.pattern.clone())
            .collect();
        let schema_keys = if fetch_mappings {
            reformulated
                .iter()
                .map(|r| sys.key_of(r.schema.as_str()))
                .collect()
        } else {
            Vec::new()
        };
        self.resolve(tr, sys, origin, &patterns, schema_keys)
    }

    /// Replay one closure search.
    pub fn search(
        &mut self,
        tr: &mut Tracer,
        sys: &GridVineSystem,
        origin: PeerId,
        query: &TriplePatternQuery,
        stats: &ExecStats,
    ) {
        tr.begin("replay");
        self.closure(tr, sys, origin, query, stats.mapping_fetches > 0);
        self.events(tr, stats.messages);
        tr.end();
    }

    /// Replay one two-pattern conjunctive query in the given join mode.
    pub fn conjunctive(
        &mut self,
        tr: &mut Tracer,
        sys: &GridVineSystem,
        origin: PeerId,
        query: &ConjunctiveQuery,
        mode: JoinMode,
        stats: &ExecStats,
    ) {
        let cold = stats.mapping_fetches > 0;
        tr.begin("replay");
        let (first, rest) = query.patterns.split_first().expect("queries are non-empty");
        let first_rows = self.closure(tr, sys, origin, &as_single(first), cold);
        for pattern in rest {
            match mode {
                JoinMode::Independent => {
                    self.closure(tr, sys, origin, &as_single(pattern), cold);
                }
                JoinMode::BoundSubstitution => {
                    // One substituted instance per distinct partial
                    // solution, at every schema the pattern reaches.
                    if cold {
                        tr.begin("replay.semantic.closure");
                    }
                    let reformulated =
                        adapters::closure(sys.registry(), &as_single(pattern), self.ttl);
                    if cold {
                        tr.end();
                    }
                    let shared: Vec<&str> = pattern
                        .variables()
                        .into_iter()
                        .filter(|v| first.variables().contains(v))
                        .collect();
                    let mut instances = Vec::new();
                    for partial in distinct_rows(&first_rows, &shared) {
                        for r in &reformulated {
                            instances.push(r.query.pattern.substitute(&partial));
                        }
                    }
                    self.resolve(tr, sys, origin, &instances, Vec::new());
                }
            }
        }
        // The join itself, on the peer database holding the first
        // pattern's key space.
        if let (Some(second), Some((_, term))) = (rest.first(), first.routing_constant()) {
            let holder = sys.topology().responsible(&sys.key_of(term.lexical()))[0];
            let db = sys.peer_db(holder);
            let inputs = adapters::match_pattern(db, first).len()
                + adapters::match_pattern(db, second).len();
            tr.begin("replay.rdf.join");
            let joined = adapters::join(db, first, second);
            tr.end();
            self.counts.join_rows += (inputs + joined.len()) as u64;
        }
        self.events(tr, stats.messages);
        tr.end();
    }
}

/// A single-pattern query over `pattern`, distinguished on its first
/// variable.
fn as_single(pattern: &TriplePattern) -> TriplePatternQuery {
    let var = pattern.variables()[0].to_string();
    TriplePatternQuery::new(var, pattern.clone()).expect("the variable occurs in the pattern")
}

/// Distinct projections of `rows` onto `vars`.
fn distinct_rows(rows: &[Binding], vars: &[&str]) -> Vec<Binding> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    for row in rows {
        let projected = row.project(vars);
        if seen.insert(projected.to_string()) {
            out.push(projected);
        }
    }
    out
}
