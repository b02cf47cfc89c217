//! Query reformulation by view unfolding (§3, Figure 2).
//!
//! "Mappings allow the reformulation of a query posed against a given
//! schema into a new query posed against a semantically similar schema.
//! By iterating this process over several mappings, a query can traverse
//! a sequence of schemas at the mediation layer and retrieve all relevant
//! results, irrespective of their schemas."
//!
//! ## The one walk
//!
//! The reformulation rule — follow active mappings out of a schema,
//! enter every schema at most once, stop at the TTL — is spelled out
//! once, in two functions of this module:
//!
//! * `reformulate_pattern` applies one mapping to one pattern (view
//!   unfolding of a single predicate correspondence); nothing else in
//!   the workspace builds a reformulated pattern from a mapping.
//! * [`expand_hop`] is one step of the closure walk: given a [`Hop`],
//!   the mapping list fetched at its schema and the visited set, it
//!   admits the newly reached hops with their path-minimum quality.
//!
//! Three drivers call the step and add only *where the mapping list
//! comes from and when a hop is sent*: [`reformulations`] reads the
//! local registry and expands breadth-first (the expansion the
//! *iterative* strategy executes at the originating peer);
//! `gridvine-core`'s synchronous executor fetches each list from the
//! DHT and resolves hops depth-first, one per session pull; its WAN
//! driver expands a hop the moment the reply carrying its mapping list
//! lands. A finished walk is memoized as [`CachedHop`]s in a
//! [`ClosureCache`]; [`CachedHop::replay`] turns a recorded hop back
//! into the pattern to pose, for any pattern sharing the predicate.

use crate::graph::MappingRegistry;
use crate::mapping::{Direction, Mapping, MappingId};
use crate::schema::{Schema, SchemaId};
use gridvine_rdf::fasthash::FxHashMap;
use gridvine_rdf::{PatternTerm, Term, TriplePattern, TriplePatternQuery, Uri};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One application of a mapping along a reformulation path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Step {
    pub mapping: MappingId,
    pub direction: Direction,
}

/// A query translated into another schema's vocabulary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Reformulation {
    /// Schema the reformulated query is posed against.
    pub schema: SchemaId,
    /// The translated query.
    pub query: TriplePatternQuery,
    /// The mapping path from the original schema (empty for the
    /// original query itself).
    pub path: Vec<Step>,
}

impl Reformulation {
    /// Number of mapping applications.
    pub fn depth(&self) -> usize {
        self.path.len()
    }

    /// Smallest quality along the path (1.0 for the original query);
    /// a simple confidence proxy for ranking results.
    pub fn path_quality(&self, registry: &MappingRegistry) -> f64 {
        self.path
            .iter()
            .filter_map(|s| registry.mapping(s.mapping))
            .map(|m| m.quality)
            .fold(1.0, f64::min)
    }
}

/// Why a query cannot be reformulated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReformulateError {
    /// The query's predicate is a variable — there is no schema to
    /// translate from.
    UnboundPredicate,
    /// The predicate does not follow the `<schema>#<attr>` convention.
    MalformedPredicate { uri: String },
}

impl std::fmt::Display for ReformulateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReformulateError::UnboundPredicate => {
                write!(f, "query predicate is a variable; nothing to reformulate")
            }
            ReformulateError::MalformedPredicate { uri } => {
                write!(f, "predicate {uri:?} is not of the form schema#attribute")
            }
        }
    }
}

impl std::error::Error for ReformulateError {}

/// Extract the (schema, attribute) of a pattern's predicate constant.
pub fn pattern_schema(pattern: &TriplePattern) -> Result<(SchemaId, String), ReformulateError> {
    match &pattern.predicate {
        PatternTerm::Var(_) => Err(ReformulateError::UnboundPredicate),
        PatternTerm::Const(Term::Literal(s)) => {
            Err(ReformulateError::MalformedPredicate { uri: s.to_string() })
        }
        PatternTerm::Const(Term::Uri(u)) => match Schema::split_predicate(u) {
            Some((schema, attr)) => Ok((schema, attr.to_string())),
            None => Err(ReformulateError::MalformedPredicate {
                uri: u.as_str().to_string(),
            }),
        },
    }
}

/// Extract the (schema, attribute) of a query's predicate constant.
pub fn query_schema(query: &TriplePatternQuery) -> Result<(SchemaId, String), ReformulateError> {
    pattern_schema(&query.pattern)
}

/// Apply one mapping to a pattern: replace the predicate `source#attr`
/// by `dest#attr'` (view unfolding of a single predicate
/// correspondence), keeping the subject and object slots. Returns
/// `None` if the mapping is inactive, does not apply from the
/// pattern's schema in `direction`, or does not cover the attribute.
fn reformulate_pattern(
    pattern: &TriplePattern,
    mapping: &Mapping,
    direction: Direction,
) -> Option<TriplePattern> {
    let (schema, attr) = pattern_schema(pattern).ok()?;
    if mapping.applicable_from(&schema) != Some(direction) {
        return None;
    }
    let new_attr = mapping.translate(&attr, direction)?;
    let dest = mapping.destination(direction);
    Some(with_predicate(
        pattern,
        Uri::new(format!("{dest}#{new_attr}")),
    ))
}

/// `pattern`'s subject and object slots under another predicate.
fn with_predicate(pattern: &TriplePattern, predicate: Uri) -> TriplePattern {
    TriplePattern::new(
        pattern.subject.clone(),
        PatternTerm::Const(Term::Uri(predicate)),
        pattern.object.clone(),
    )
}

/// One hop of a closure walk: `pattern` posed against `schema` — the
/// schema its predicate names — reached over `depth` mapping
/// applications whose smallest mapping quality is `quality`.
#[derive(Debug, Clone)]
pub struct Hop {
    pub schema: SchemaId,
    pub pattern: TriplePattern,
    pub depth: usize,
    pub quality: f64,
}

impl Hop {
    /// The walk's first hop: the query's own pattern in its own
    /// schema (as [`pattern_schema`] reads it), depth 0, quality 1.
    pub fn origin(schema: SchemaId, pattern: TriplePattern) -> Hop {
        Hop {
            schema,
            pattern,
            depth: 0,
            quality: 1.0,
        }
    }
}

/// One expansion step of the closure walk (§3–§4), the only such loop
/// in the workspace: follow every mapping of `mappings` that is active
/// and applies out of `hop`'s schema, enter each destination schema at
/// most once (`visited`, which the caller seeds with the origin
/// schema), and hand each newly admitted hop — translated pattern, one
/// level deeper, quality the path minimum — to `admit` together with
/// the mapping that reached it, in list order. A second copy of a
/// mapping in the list is a no-op: its destination is visited by then.
///
/// The TTL is the caller's to enforce *before* fetching a mapping list
/// (a hop at the TTL is resolved but never expanded), since fetching is
/// what costs messages.
pub fn expand_hop<'m>(
    hop: &Hop,
    mappings: impl IntoIterator<Item = &'m Mapping>,
    visited: &mut BTreeSet<SchemaId>,
    mut admit: impl FnMut(Hop, &'m Mapping, Direction),
) {
    for m in mappings {
        let Some(direction) = m.applicable_from(&hop.schema) else {
            continue;
        };
        let dest = m.destination(direction);
        if visited.contains(dest) {
            continue;
        }
        let Some(pattern) = reformulate_pattern(&hop.pattern, m, direction) else {
            continue;
        };
        visited.insert(dest.clone());
        let reached = Hop {
            schema: dest.clone(),
            pattern,
            depth: hop.depth + 1,
            quality: hop.quality.min(m.quality),
        };
        admit(reached, m, direction);
    }
}

/// One hop of a memoized reformulation closure: the schema a query
/// reaches, the translated predicate to pose there, the mapping-path
/// depth and the path quality (minimum mapping quality along the path).
///
/// The closure of a triple-pattern query through the mapping network
/// depends only on its *predicate* — subject and object constraints are
/// carried along unchanged by view unfolding — so a recorded hop list
/// can be replayed for any pattern sharing the predicate: the consumer
/// swaps in each hop's predicate and keeps its own subject/object slots
/// (this is what makes the cache pay off under bound-substitution
/// joins, where every substituted instance shares the predicate).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedHop {
    /// Schema reached at this hop (the origin schema at depth 0).
    pub schema: SchemaId,
    /// Predicate to pose there: `schema#translated-attribute`.
    pub predicate: Uri,
    /// Mapping applications from the origin (0 for the original query).
    pub depth: usize,
    /// Minimum mapping quality along the path (1.0 at the origin).
    pub quality: f64,
}

impl CachedHop {
    /// Record a walked hop: everything but its subject/object slots.
    pub fn record(hop: &Hop) -> CachedHop {
        let predicate = match hop.pattern.predicate.as_const() {
            Some(Term::Uri(u)) => u.clone(),
            _ => unreachable!("a hop's schema is read off its constant URI predicate"),
        };
        CachedHop {
            schema: hop.schema.clone(),
            predicate,
            depth: hop.depth,
            quality: hop.quality,
        }
    }

    /// The pattern to pose at this hop when the closure is replayed
    /// for `pattern`: its subject/object slots under the recorded
    /// predicate.
    pub fn replay(&self, pattern: &TriplePattern) -> TriplePattern {
        with_predicate(pattern, self.predicate.clone())
    }
}

/// Cache key of one closure expansion: where the walk starts and how
/// deep it may go. Subject/object constraints are deliberately absent —
/// see [`CachedHop`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ClosureKey {
    pub schema: SchemaId,
    pub attr: String,
    pub ttl: usize,
}

/// Hit/miss/eviction accounting of one [`ClosureCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from a coherent entry.
    pub hits: u64,
    /// Lookups that found no coherent entry (stale-epoch clears count
    /// here too — the caller pays the cold walk either way).
    pub misses: u64,
    /// Entries displaced by the capacity bound (epoch clears are not
    /// evictions; they are invalidations).
    pub evictions: u64,
}

/// An epoch-keyed, capacity-bounded LRU memo of reformulation closures.
///
/// Every entry was computed against one mapping-network [`epoch`]
/// ([`MappingRegistry::epoch`]); the cache stores the epoch it is
/// coherent with and self-invalidates wholesale the first time it is
/// consulted under a newer one — a mapping insert, deprecation or
/// repair may rewire any path, so per-entry invalidation buys nothing.
/// Repeated plans over an unchanged mapping network skip the closure
/// BFS (and, in the distributed executor, its per-schema mapping-list
/// retrieves) entirely.
///
/// The cache ([`ClosureCache::bounded`]) also models a real peer's
/// finite memory: at most `capacity` closures are retained
/// and inserting past the bound evicts the least-recently-used entry
/// (lookups refresh recency). Eviction is a linear scan over the
/// recency ticks — capacities are per-peer and small, so a pointer-
/// chasing LRU list would cost more than it saves.
///
/// Each entry also keeps a stamp `S` its writer gives it and every hit
/// hands back (the distributed executor stamps an entry with the
/// simulated instant it was committed at; `()` stamps nothing).
///
/// [`epoch`]: MappingRegistry::epoch
#[derive(Debug, Clone)]
pub struct ClosureCache<S = ()> {
    epoch: u64,
    /// Per key: the recorded hops, their stamp and the recency tick.
    entries: FxHashMap<ClosureKey, (Arc<[CachedHop]>, S, u64)>,
    capacity: usize,
    /// Monotone recency stamp; bumped by every lookup hit and insert.
    tick: u64,
    counters: CacheCounters,
}

impl<S: Clone> ClosureCache<S> {
    /// A cache retaining at most `capacity` closures under LRU
    /// eviction. A zero capacity caches nothing (every lookup misses).
    pub fn bounded(capacity: usize) -> ClosureCache<S> {
        ClosureCache {
            epoch: 0,
            entries: FxHashMap::default(),
            capacity,
            tick: 0,
            counters: CacheCounters::default(),
        }
    }

    /// The hops recorded for `key` and their stamp, if the cache is
    /// coherent with `epoch` and holds the entry. A stale cache (any
    /// older epoch) is cleared on the spot and misses. Hits refresh the
    /// entry's recency.
    pub fn lookup(&mut self, epoch: u64, key: &ClosureKey) -> Option<(Arc<[CachedHop]>, S)> {
        if self.epoch != epoch {
            self.entries.clear();
            self.epoch = epoch;
            self.counters.misses += 1;
            return None;
        }
        self.tick += 1;
        match self.entries.get_mut(key) {
            Some((hops, stamp, tick)) => {
                *tick = self.tick;
                self.counters.hits += 1;
                Some((hops.clone(), stamp.clone()))
            }
            None => {
                self.counters.misses += 1;
                None
            }
        }
    }

    /// Record a fully-expanded closure computed at `epoch`, stamped
    /// `stamp`. A stale cache is cleared first so entries from
    /// different epochs never coexist; a full cache evicts its
    /// least-recently-used entry.
    pub fn insert(&mut self, epoch: u64, key: ClosureKey, hops: Vec<CachedHop>, stamp: S) {
        if self.epoch != epoch {
            self.entries.clear();
            self.epoch = epoch;
        }
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let fresh = !self.entries.contains_key(&key);
        if fresh {
            while self.entries.len() >= self.capacity {
                let lru = self
                    .entries
                    .iter()
                    .min_by_key(|(_, (_, _, tick))| *tick)
                    .map(|(k, _)| k.clone())
                    .expect("len >= cap >= 1 implies an entry");
                self.entries.remove(&lru);
                self.counters.evictions += 1;
            }
        }
        self.entries.insert(key, (hops.into(), stamp, self.tick));
    }

    /// Number of memoized closures (for tests and introspection).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime hit/miss/eviction counters.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Number of entries valid under `epoch` — the whole cache when
    /// coherent, zero when stale (a stale cache counts as empty even
    /// before its lazy clear).
    pub fn coherent_len(&self, epoch: u64) -> usize {
        if self.epoch == epoch {
            self.entries.len()
        } else {
            0
        }
    }
}

/// Breadth-first expansion of a query through the mapping network.
///
/// Returns the original query (depth 0) followed by one reformulation
/// per newly reached schema, in non-decreasing path length, visiting at
/// most `ttl` mapping applications deep. Each schema is visited once —
/// the loop-prevention rule is [`expand_hop`]'s.
pub fn reformulations(
    registry: &MappingRegistry,
    query: &TriplePatternQuery,
    ttl: usize,
) -> Result<Vec<Reformulation>, ReformulateError> {
    let (origin, _) = query_schema(query)?;
    let mut visited = BTreeSet::from([origin.clone()]);
    let mut out = vec![Reformulation {
        schema: origin,
        query: query.clone(),
        path: Vec::new(),
    }];
    // `out` is its own breadth-first queue: reformulations are expanded
    // in the order they were admitted.
    let mut next = 0;
    while let Some(from) = out.get(next) {
        next += 1;
        if from.depth() >= ttl {
            continue;
        }
        let hop = Hop {
            schema: from.schema.clone(),
            pattern: from.query.pattern.clone(),
            depth: from.depth(),
            quality: 1.0, // not reported: see `Reformulation::path_quality`
        };
        let path = from.path.clone();
        expand_hop(
            &hop,
            registry.mappings(),
            &mut visited,
            |reached, m, direction| {
                let mut path = path.clone();
                path.push(Step {
                    mapping: m.id,
                    direction,
                });
                out.push(Reformulation {
                    schema: reached.schema,
                    query: TriplePatternQuery {
                        distinguished: query.distinguished.clone(),
                        pattern: reached.pattern,
                    },
                    path,
                });
            },
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{Correspondence, MappingKind, MappingStatus, Provenance};
    use crate::schema::Schema;

    /// The Figure 2 setup: EMBL#Organism ≡ EMP#SystematicName.
    fn figure2_registry() -> MappingRegistry {
        let mut reg = MappingRegistry::new();
        reg.add_schema(Schema::new("EMBL", ["Organism"]));
        reg.add_schema(Schema::new("EMP", ["SystematicName"]));
        reg.add_mapping(
            "EMBL",
            "EMP",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("Organism", "SystematicName")],
        );
        reg
    }

    fn aspergillus_query() -> TriplePatternQuery {
        TriplePatternQuery::example_aspergillus()
    }

    #[test]
    fn figure2_reformulation() {
        // SearchFor(x1? : (x1?, EMBL#Organism, %Aspergillus%))
        //   ⇒ SearchFor(x2? : (x2?, EMP#SystematicName, %Aspergillus%))
        let reg = figure2_registry();
        let refs = reformulations(&reg, &aspergillus_query(), 5).expect("reformulates");
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[0].depth(), 0);
        assert_eq!(refs[1].schema, SchemaId::new("EMP"));
        assert_eq!(
            refs[1]
                .query
                .pattern
                .predicate
                .as_const()
                .map(|t| t.lexical()),
            Some("EMP#SystematicName")
        );
        // Object constraint is carried along unchanged.
        assert_eq!(
            refs[1].query.pattern.object.as_const().map(|t| t.lexical()),
            Some("%Aspergillus%")
        );
        assert_eq!(refs[1].depth(), 1);
    }

    #[test]
    fn equivalence_applies_backward_too() {
        let reg = figure2_registry();
        let q = TriplePatternQuery::new(
            "x",
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri("EMP#SystematicName")),
                PatternTerm::constant(Term::literal("%Aspergillus%")),
            ),
        )
        .unwrap();
        let refs = reformulations(&reg, &q, 5).expect("reformulates");
        assert_eq!(refs.len(), 2);
        assert_eq!(refs[1].schema, SchemaId::new("EMBL"));
        assert_eq!(refs[1].path[0].direction, Direction::Backward);
    }

    #[test]
    fn chain_expands_transitively_within_ttl() {
        let mut reg = MappingRegistry::new();
        for (i, attr) in ["a0", "a1", "a2", "a3"].iter().enumerate() {
            reg.add_schema(Schema::new(format!("S{i}").as_str(), [*attr]));
        }
        for i in 0..3 {
            reg.add_mapping(
                format!("S{i}").as_str(),
                format!("S{}", i + 1).as_str(),
                MappingKind::Equivalence,
                Provenance::Manual,
                vec![Correspondence::new(format!("a{i}"), format!("a{}", i + 1))],
            );
        }
        let q = TriplePatternQuery::new(
            "x",
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri("S0#a0")),
                PatternTerm::var("o"),
            ),
        )
        .unwrap();
        let all = reformulations(&reg, &q, 10).expect("ok");
        assert_eq!(all.len(), 4);
        assert_eq!(all[3].schema, SchemaId::new("S3"));
        assert_eq!(all[3].depth(), 3);
        assert_eq!(
            all[3]
                .query
                .pattern
                .predicate
                .as_const()
                .map(|t| t.lexical()),
            Some("S3#a3")
        );

        // TTL truncates the expansion.
        let limited = reformulations(&reg, &q, 1).expect("ok");
        assert_eq!(limited.len(), 2);
    }

    #[test]
    fn cycles_do_not_loop() {
        // Triangle of equivalences: each schema visited exactly once.
        let mut reg = MappingRegistry::new();
        for (s, a) in [("A", "x"), ("B", "y"), ("C", "z")] {
            reg.add_schema(Schema::new(s, [a]));
        }
        reg.add_mapping(
            "A",
            "B",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("x", "y")],
        );
        reg.add_mapping(
            "B",
            "C",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("y", "z")],
        );
        reg.add_mapping(
            "C",
            "A",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("z", "x")],
        );
        let q = TriplePatternQuery::new(
            "v",
            TriplePattern::new(
                PatternTerm::var("v"),
                PatternTerm::constant(Term::uri("A#x")),
                PatternTerm::var("o"),
            ),
        )
        .unwrap();
        let all = reformulations(&reg, &q, 50).expect("ok");
        assert_eq!(all.len(), 3);
        let schemas: BTreeSet<&str> = all.iter().map(|r| r.schema.as_str()).collect();
        assert_eq!(schemas, BTreeSet::from(["A", "B", "C"]));
    }

    #[test]
    fn deprecated_mappings_are_skipped() {
        let mut reg = figure2_registry();
        let id = reg.mappings().next().map(|m| m.id).unwrap();
        reg.deprecate(id);
        let refs = reformulations(&reg, &aspergillus_query(), 5).expect("ok");
        assert_eq!(refs.len(), 1, "only the original query remains");
    }

    #[test]
    fn uncovered_attribute_stops_translation() {
        let mut reg = MappingRegistry::new();
        reg.add_schema(Schema::new("EMBL", ["Organism", "Length"]));
        reg.add_schema(Schema::new("EMP", ["SystematicName"]));
        reg.add_mapping(
            "EMBL",
            "EMP",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("Organism", "SystematicName")],
        );
        let q = TriplePatternQuery::new(
            "x",
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri("EMBL#Length")),
                PatternTerm::var("o"),
            ),
        )
        .unwrap();
        let refs = reformulations(&reg, &q, 5).expect("ok");
        assert_eq!(refs.len(), 1, "Length has no correspondence");
    }

    #[test]
    fn variable_predicate_is_an_error() {
        let reg = figure2_registry();
        let q = TriplePatternQuery::new(
            "x",
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::var("p"),
                PatternTerm::var("o"),
            ),
        )
        .unwrap();
        assert_eq!(
            reformulations(&reg, &q, 5).unwrap_err(),
            ReformulateError::UnboundPredicate
        );
    }

    #[test]
    fn malformed_predicate_is_an_error() {
        let reg = figure2_registry();
        let q = TriplePatternQuery::new(
            "x",
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri("no-hash-here")),
                PatternTerm::var("o"),
            ),
        )
        .unwrap();
        assert!(matches!(
            reformulations(&reg, &q, 5).unwrap_err(),
            ReformulateError::MalformedPredicate { .. }
        ));
    }

    fn hop_at(schema: &str, attr: &str) -> Hop {
        Hop::origin(
            SchemaId::new(schema),
            TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri(format!("{schema}#{attr}"))),
                PatternTerm::var("o"),
            ),
        )
    }

    fn link(id: u32, source: &str, target: &str, pair: (&str, &str)) -> Mapping {
        Mapping::new(
            MappingId(id),
            source,
            target,
            MappingKind::Equivalence,
            Provenance::Automatic,
            vec![Correspondence::new(pair.0, pair.1)],
        )
    }

    /// Run one expansion step from a fresh visited set holding only
    /// the hop's schema; the admitted hops and the set afterwards.
    fn expand(hop: &Hop, mappings: &[Mapping]) -> (Vec<Hop>, BTreeSet<SchemaId>) {
        let mut visited = BTreeSet::from([hop.schema.clone()]);
        let mut admitted = Vec::new();
        expand_hop(hop, mappings, &mut visited, |reached, _, _| {
            admitted.push(reached)
        });
        (admitted, visited)
    }

    #[test]
    fn a_mapping_listed_twice_admits_its_destination_once() {
        // A bidirectional mapping is stored at both schemas' key spaces;
        // when the two keys share a peer the fetched list holds it twice.
        let m = link(0, "A", "B", ("x", "y"));
        let (admitted, visited) = expand(&hop_at("B", "y"), &[m.clone(), m]);
        assert_eq!(admitted.len(), 1);
        assert_eq!(admitted[0].schema, SchemaId::new("A"));
        assert_eq!(admitted[0].depth, 1);
        assert_eq!(
            admitted[0].pattern.predicate.as_const(),
            Some(&Term::uri("A#x"))
        );
        assert_eq!(visited.len(), 2);
    }

    #[test]
    fn an_inactive_mapping_admits_nothing() {
        for status in [MappingStatus::Deprecated, MappingStatus::Quarantined] {
            let mut m = link(0, "A", "B", ("x", "y"));
            m.status = status;
            let (admitted, visited) = expand(&hop_at("A", "x"), &[m]);
            assert!(admitted.is_empty(), "{status:?}");
            assert_eq!(visited.len(), 1);
        }
    }

    #[test]
    fn admitted_quality_is_the_path_minimum() {
        let mut weak = link(0, "A", "B", ("x", "y"));
        weak.quality = 0.6;
        let strong = link(1, "B", "C", ("y", "z"));
        let (first, _) = expand(&hop_at("A", "x"), std::slice::from_ref(&weak));
        assert!((first[0].quality - 0.6).abs() < 1e-12);
        // The stronger second link cannot raise the path's quality…
        let (second, _) = expand(&first[0], &[strong]);
        assert_eq!(second[0].schema, SchemaId::new("C"));
        assert_eq!(second[0].depth, 2);
        assert!((second[0].quality - 0.6).abs() < 1e-12);
        // …and a weaker one lowers it.
        let mut weaker = link(2, "B", "C", ("y", "z"));
        weaker.quality = 0.25;
        let (second, _) = expand(&first[0], &[weaker]);
        assert!((second[0].quality - 0.25).abs() < 1e-12);
    }

    #[test]
    fn a_visited_destination_is_skipped() {
        // The visited check comes before the translation: a mapping
        // back into an entered schema costs a set probe, no pattern.
        let hop = hop_at("B", "y");
        let mut visited = BTreeSet::from([SchemaId::new("A"), SchemaId::new("B")]);
        let before = visited.clone();
        let mut admitted = 0;
        expand_hop(
            &hop,
            &[link(0, "A", "B", ("x", "y")), link(1, "B", "A", ("y", "x"))],
            &mut visited,
            |_, _, _| admitted += 1,
        );
        assert_eq!(admitted, 0);
        assert_eq!(visited, before);
    }

    #[test]
    fn a_recorded_hop_replays_under_any_pattern_sharing_the_predicate() {
        let (admitted, _) = expand(&hop_at("A", "x"), &[link(0, "A", "B", ("x", "y"))]);
        let recorded = CachedHop::record(&admitted[0]);
        assert_eq!(recorded.predicate, Uri::new("B#y"));
        assert_eq!((recorded.depth, recorded.quality), (1, 0.9));
        let bound = TriplePattern::new(
            PatternTerm::constant(Term::uri("seq:A1")),
            PatternTerm::constant(Term::uri("A#x")),
            PatternTerm::var("o"),
        );
        let replayed = recorded.replay(&bound);
        assert_eq!(replayed.subject, bound.subject);
        assert_eq!(replayed.object, bound.object);
        assert_eq!(replayed.predicate.as_const(), Some(&Term::uri("B#y")));
    }

    #[test]
    fn epoch_bumps_on_every_mapping_mutation() {
        let mut reg = figure2_registry();
        let e0 = reg.epoch();
        let id = reg.mappings().next().map(|m| m.id).unwrap();
        reg.deprecate(id);
        let e1 = reg.epoch();
        assert!(e1 > e0, "deprecation must bump the epoch");
        reg.reactivate(id);
        let e2 = reg.epoch();
        assert!(e2 > e1, "reactivation must bump the epoch");
        reg.mapping_mut(id).unwrap().quality = 0.5;
        let e3 = reg.epoch();
        assert!(e3 > e2, "repair (mutable access) must bump the epoch");
        reg.add_mapping(
            "EMP",
            "EMBL",
            MappingKind::Equivalence,
            Provenance::Automatic,
            vec![Correspondence::new("SystematicName", "Organism")],
        );
        assert!(reg.epoch() > e3, "insert must bump the epoch");
    }

    #[test]
    fn closure_cache_hits_within_an_epoch_and_clears_across() {
        let mut reg = figure2_registry();
        let key = ClosureKey {
            schema: SchemaId::new("EMBL"),
            attr: "Organism".to_string(),
            ttl: 10,
        };
        let hops = vec![CachedHop::record(&hop_at("EMBL", "Organism"))];
        let mut cache = ClosureCache::bounded(4);
        assert!(cache.lookup(reg.epoch(), &key).is_none());
        cache.insert(reg.epoch(), key.clone(), hops.clone(), 7);
        let (hit, stamp) = cache.lookup(reg.epoch(), &key).expect("same-epoch hit");
        assert_eq!((&*hit, stamp), (hops.as_slice(), 7));
        // Any registry mutation invalidates the whole cache.
        let id = reg.mappings().next().map(|m| m.id).unwrap();
        reg.deprecate(id);
        assert!(
            cache.lookup(reg.epoch(), &key).is_none(),
            "stale entries gone"
        );
        assert!(cache.is_empty());
        // Entries recorded at the new epoch are served again.
        cache.insert(reg.epoch(), key.clone(), hops, 8);
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup(reg.epoch(), &key).is_some());
    }

    fn hop(schema: &str) -> CachedHop {
        CachedHop::record(&hop_at(schema, "a"))
    }

    fn key(schema: &str) -> ClosureKey {
        ClosureKey {
            schema: SchemaId::new(schema),
            attr: "a".to_string(),
            ttl: 10,
        }
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let mut cache = ClosureCache::bounded(2);
        cache.insert(0, key("A"), vec![hop("A")], ());
        cache.insert(0, key("B"), vec![hop("B")], ());
        assert_eq!(cache.len(), 2);
        // Touch A so B becomes the LRU entry.
        assert!(cache.lookup(0, &key("A")).is_some());
        cache.insert(0, key("C"), vec![hop("C")], ());
        assert_eq!(cache.len(), 2, "capacity bound respected");
        assert!(cache.lookup(0, &key("A")).is_some(), "A survived (recent)");
        assert!(cache.lookup(0, &key("B")).is_none(), "B evicted (LRU)");
        assert!(cache.lookup(0, &key("C")).is_some());
        let c = cache.counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.hits, 3);
        assert_eq!(c.misses, 1);
    }

    #[test]
    fn bounded_cache_still_invalidates_on_epoch_bump() {
        let mut cache = ClosureCache::bounded(4);
        cache.insert(0, key("A"), vec![hop("A")], ());
        assert!(cache.lookup(0, &key("A")).is_some());
        // A newer epoch clears everything — that is an invalidation,
        // not an eviction.
        assert!(cache.lookup(1, &key("A")).is_none());
        assert!(cache.is_empty());
        assert_eq!(cache.counters().evictions, 0);
        // Re-inserting a present key never evicts.
        cache.insert(1, key("A"), vec![hop("A")], ());
        cache.insert(1, key("A"), vec![hop("A")], ());
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.counters().evictions, 0);
    }

    #[test]
    fn zero_capacity_cache_never_stores() {
        let mut cache = ClosureCache::bounded(0);
        cache.insert(0, key("A"), vec![hop("A")], ());
        assert!(cache.is_empty());
        assert!(cache.lookup(0, &key("A")).is_none());
    }

    #[test]
    fn path_quality_is_minimum_along_path() {
        let mut reg = MappingRegistry::new();
        for (s, a) in [("A", "x"), ("B", "y"), ("C", "z")] {
            reg.add_schema(Schema::new(s, [a]));
        }
        let m1 = reg.add_mapping(
            "A",
            "B",
            MappingKind::Equivalence,
            Provenance::Automatic,
            vec![Correspondence::new("x", "y")],
        );
        let _m2 = reg.add_mapping(
            "B",
            "C",
            MappingKind::Equivalence,
            Provenance::Automatic,
            vec![Correspondence::new("y", "z")],
        );
        reg.mapping_mut(m1).unwrap().quality = 0.6;
        let q = TriplePatternQuery::new(
            "v",
            TriplePattern::new(
                PatternTerm::var("v"),
                PatternTerm::constant(Term::uri("A#x")),
                PatternTerm::var("o"),
            ),
        )
        .unwrap();
        let all = reformulations(&reg, &q, 5).expect("ok");
        let to_c = all
            .iter()
            .find(|r| r.schema.as_str() == "C")
            .expect("reaches C");
        assert!((to_c.path_quality(&reg) - 0.6).abs() < 1e-12);
    }
}
