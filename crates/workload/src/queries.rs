//! Query workload generation.
//!
//! The paper's deployment submitted 23 000 triple-pattern queries (§2.3)
//! and the demo issues constrained organism searches (Fig. 2). The
//! generator produces queries of both shapes against a generated corpus,
//! with ground-truth answer sets so recall is measurable.
//!
//! Truth is read off the corpus' canonical values, not off any store:
//! [`QueryGenerator::new`] indexes them once, so a query's truth costs
//! one pass over its concept's distinct values rather than a pass over
//! every entity.

use crate::generate::Workload;
use crate::vocab::{self, ConceptId, CONCEPTS};
use gridvine_netsim::rng::Zipf;
use gridvine_rdf::{
    ConjunctiveQuery, LikePattern, PatternTerm, Term, TriplePattern, TriplePatternQuery,
};
use gridvine_semantic::{Schema, SchemaId};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// A generated query with its provenance and exact answer set.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneratedQuery {
    /// Schema the query is posed against.
    pub schema: SchemaId,
    /// Concept constrained by the query.
    pub concept: usize,
    /// The query itself.
    pub query: TriplePatternQuery,
    /// Accessions of *all* entities in the corpus whose concept value
    /// matches the constraint — the global ground-truth answer set a
    /// perfectly integrated system would return.
    pub true_answers: BTreeSet<String>,
}

/// Query-mix tunables.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryConfig {
    /// Zipf exponent over schemas (popular databases are queried more).
    pub schema_skew: f64,
    /// Probability of a `%substring%` constraint instead of equality.
    pub wildcard_probability: f64,
}

impl Default for QueryConfig {
    fn default() -> Self {
        QueryConfig {
            schema_skew: 0.8,
            wildcard_probability: 0.5,
        }
    }
}

/// Generates queries over one corpus.
///
/// Ground truth comes from two tables built in one pass over the corpus
/// by [`QueryGenerator::new`], both holding entity ids (indices into
/// [`Workload::entities`]) rather than accessions:
///
/// * for each categorical concept (those with a
///   [`vocab::value_pool`], the only ones a query constrains), every
///   distinct canonical value with the ascending ids of the entities
///   holding it — a pattern is evaluated once per distinct value;
/// * for each concept, one bit per entity: set when some schema that
///   carries the concept exports the entity (the join side of
///   [`GeneratedConjunctiveQuery::true_answers`]).
pub struct QueryGenerator<'a> {
    workload: &'a Workload,
    config: QueryConfig,
    schema_zipf: Zipf,
    /// Per concept id: distinct canonical value → entity ids, for the
    /// categorical concepts; `None` for the others.
    values: Vec<Option<BTreeMap<&'a str, Vec<u32>>>>,
    /// Per concept id: one bit per entity, set when a schema carrying
    /// the concept exports it.
    exported: Vec<Vec<u64>>,
}

/// One drawn single-pattern query with the ids of its true answers.
struct Draw<'a> {
    schema: &'a Schema,
    concept: ConceptId,
    query: TriplePatternQuery,
    ids: Vec<u32>,
}

impl<'a> QueryGenerator<'a> {
    pub fn new(workload: &'a Workload, config: QueryConfig) -> QueryGenerator<'a> {
        let schema_zipf = Zipf::new(workload.schemas.len(), config.schema_skew);
        let mut values: Vec<Option<BTreeMap<&'a str, Vec<u32>>>> = CONCEPTS
            .iter()
            .map(|c| vocab::value_pool(c.id).map(|_| BTreeMap::new()))
            .collect();
        for (i, e) in workload.entities.iter().enumerate() {
            let id = u32::try_from(i).expect("entity ids fit in u32");
            for (&c, v) in &e.values {
                if let Some(Some(index)) = values.get_mut(c) {
                    index.entry(v.as_str()).or_default().push(id);
                }
            }
        }
        let words = workload.entities.len().div_ceil(64);
        let mut exported = vec![vec![0u64; words]; CONCEPTS.len()];
        for s in &workload.schemas {
            for a in s.attributes() {
                let c = workload.ground_truth.concept(s.id(), a).expect("labelled");
                let bits = &mut exported[c.0];
                for &i in &workload.exports[s.id()] {
                    bits[i / 64] |= 1 << (i % 64);
                }
            }
        }
        QueryGenerator {
            workload,
            config,
            schema_zipf,
            values,
            exported,
        }
    }

    /// Ids of the entities whose canonical `concept` value matches the
    /// `%`-wildcard `pattern`.
    fn matching(&self, concept: ConceptId, pattern: &str) -> Vec<u32> {
        let index = self.values[concept.0]
            .as_ref()
            .expect("queries constrain categorical concepts only");
        match LikePattern::parse(pattern) {
            LikePattern::Exact(value) => index.get(value).cloned().unwrap_or_default(),
            like => index
                .iter()
                .filter(|(value, _)| like.matches(value))
                .flat_map(|(_, ids)| ids.iter().copied())
                .collect(),
        }
    }

    /// The accessions of the given entities.
    fn accessions(&self, ids: impl IntoIterator<Item = u32>) -> BTreeSet<String> {
        ids.into_iter()
            .map(|i| self.workload.entities[i as usize].accession.clone())
            .collect()
    }

    /// Generate one single-pattern query: pick a schema, a categorical
    /// attribute of it, and a value constraint that has at least one
    /// true answer in the corpus.
    pub fn single<R: Rng + ?Sized>(&self, r: &mut R) -> GeneratedQuery {
        let d = self.draw(r);
        GeneratedQuery {
            schema: d.schema.id().clone(),
            concept: d.concept.0,
            query: d.query,
            true_answers: self.accessions(d.ids),
        }
    }

    /// The draws of [`QueryGenerator::single`], its truth kept as ids.
    fn draw<R: Rng + ?Sized>(&self, r: &mut R) -> Draw<'a> {
        // Try schemas until one has a categorical attribute (organism
        // is always present, so the first try almost always works).
        loop {
            let s = &self.workload.schemas[self.schema_zipf.sample(r)];
            let categorical: Vec<(&str, ConceptId)> = s
                .attributes()
                .iter()
                .filter_map(|a| {
                    let c = self.workload.ground_truth.concept(s.id(), a)?;
                    CONCEPTS[c.0].categorical.then_some((String::as_str(a), c))
                })
                .collect();
            let Some(&(attr, concept)) = categorical.get(r.gen_range(0..categorical.len().max(1)))
            else {
                continue;
            };
            let pool = vocab::value_pool(concept).expect("categorical concept has a pool");
            let value = pool[r.gen_range(0..pool.len())];
            let pattern_text = if r.gen::<f64>() < self.config.wildcard_probability {
                // Constrain on the first word, Figure-2 style.
                let word = value.split_whitespace().next().unwrap_or(value);
                format!("%{word}%")
            } else {
                value.to_string()
            };
            let query = TriplePatternQuery::new(
                "x",
                TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::constant(Term::Uri(s.predicate(attr))),
                    PatternTerm::constant(Term::literal(pattern_text.clone())),
                ),
            )
            .expect("x occurs in the pattern");
            return Draw {
                schema: s,
                concept,
                query,
                ids: self.matching(concept, &pattern_text),
            };
        }
    }

    /// A batch of queries.
    pub fn batch<R: Rng + ?Sized>(&self, n: usize, r: &mut R) -> Vec<GeneratedQuery> {
        (0..n).map(|_| self.single(r)).collect()
    }

    /// The Figure-2 query posed against EMBL, with its ground truth.
    pub fn figure2(&self) -> GeneratedQuery {
        let query = TriplePatternQuery::example_aspergillus();
        GeneratedQuery {
            schema: SchemaId::new("EMBL"),
            concept: 0,
            query,
            true_answers: self.accessions(self.matching(ConceptId(0), "%Aspergillus%")),
        }
    }
}

/// A generated conjunctive (two-pattern join) query with ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeneratedConjunctiveQuery {
    /// Schema the query is posed against.
    pub schema: SchemaId,
    /// Concept constrained by the first pattern.
    pub constrained_concept: usize,
    /// Concept the second pattern joins in (unconstrained value).
    pub join_concept: usize,
    /// The query: `SELECT ?x, ?v WHERE (?x, s#a1, const), (?x, s#a2, ?v)`.
    pub query: ConjunctiveQuery,
    /// Accessions a perfectly integrated system would return: entities
    /// whose constrained-concept value matches *and* that are exported
    /// by at least one schema carrying the join concept (the second
    /// pattern needs an actual triple to bind `?v`).
    pub true_answers: BTreeSet<String>,
}

impl<'a> QueryGenerator<'a> {
    /// Generate a conjunctive query: a Figure-2-style constraint on a
    /// categorical attribute joined (on the subject) with a second,
    /// unconstrained attribute of the same schema (§2.3).
    pub fn conjunctive<R: Rng + ?Sized>(&self, r: &mut R) -> GeneratedConjunctiveQuery {
        loop {
            // Reuse the single-pattern machinery for the selective leg.
            let head = self.draw(r);
            let s = head.schema;
            // A second attribute with a *different* concept.
            let others: Vec<(&str, ConceptId)> = s
                .attributes()
                .iter()
                .filter_map(|a| {
                    let c = self.workload.ground_truth.concept(s.id(), a)?;
                    (c != head.concept).then_some((a.as_str(), c))
                })
                .collect();
            if others.is_empty() {
                continue;
            }
            let (join_attr, join_concept) = others[r.gen_range(0..others.len())];
            let query = ConjunctiveQuery::new(
                vec!["x".into(), "v".into()],
                vec![
                    head.query.pattern,
                    TriplePattern::new(
                        PatternTerm::var("x"),
                        PatternTerm::constant(Term::Uri(s.predicate(join_attr))),
                        PatternTerm::var("v"),
                    ),
                ],
            )
            .expect("x and v occur in the patterns");
            // Keep the head's answers that some schema can join.
            let bits = &self.exported[join_concept.0];
            let joinable = head
                .ids
                .into_iter()
                .filter(|&i| bits[i as usize / 64] >> (i % 64) & 1 == 1);
            return GeneratedConjunctiveQuery {
                schema: s.id().clone(),
                constrained_concept: head.concept.0,
                join_concept: join_concept.0,
                query,
                true_answers: self.accessions(joinable),
            };
        }
    }

    /// A batch of conjunctive queries.
    pub fn conjunctive_batch<R: Rng + ?Sized>(
        &self,
        n: usize,
        r: &mut R,
    ) -> Vec<GeneratedConjunctiveQuery> {
        (0..n).map(|_| self.conjunctive(r)).collect()
    }
}

/// Recall of a result set against a query's global ground truth:
/// |found ∩ true| / |true| (1.0 when nothing is true).
pub fn recall(found: &BTreeSet<String>, truth: &BTreeSet<String>) -> f64 {
    if truth.is_empty() {
        return 1.0;
    }
    found.intersection(truth).count() as f64 / truth.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::WorkloadConfig;
    use gridvine_netsim::rng;

    fn setup() -> Workload {
        Workload::generate(WorkloadConfig::small(5))
    }

    #[test]
    fn generated_queries_have_answers() {
        let w = setup();
        let g = QueryGenerator::new(&w, QueryConfig::default());
        let mut r = rng::seeded(1);
        let qs = g.batch(50, &mut r);
        assert_eq!(qs.len(), 50);
        let with_answers = qs.iter().filter(|q| !q.true_answers.is_empty()).count();
        // Values are drawn from the pools that generated the data, so
        // most constraints must be satisfiable.
        assert!(with_answers > 25, "{with_answers}/50 answerable");
    }

    #[test]
    fn queries_are_well_formed() {
        let w = setup();
        let g = QueryGenerator::new(&w, QueryConfig::default());
        let mut r = rng::seeded(2);
        for q in g.batch(30, &mut r) {
            assert_eq!(q.query.distinguished, "x");
            assert!(matches!(q.query.pattern.subject, PatternTerm::Var(_)));
            let pred = q
                .query
                .pattern
                .predicate
                .as_const()
                .expect("constant predicate");
            assert!(pred.lexical().starts_with(q.schema.as_str()));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let w = setup();
        let g = QueryGenerator::new(&w, QueryConfig::default());
        let a: Vec<String> = g
            .batch(10, &mut rng::seeded(3))
            .iter()
            .map(|q| q.query.to_string())
            .collect();
        let b: Vec<String> = g
            .batch(10, &mut rng::seeded(3))
            .iter()
            .map(|q| q.query.to_string())
            .collect();
        assert_eq!(a, b);
    }

    #[test]
    fn figure2_query_is_answerable() {
        let w = setup();
        let g = QueryGenerator::new(&w, QueryConfig::default());
        let q = g.figure2();
        assert!(!q.true_answers.is_empty());
        assert_eq!(q.schema, SchemaId::new("EMBL"));
    }

    #[test]
    fn recall_math() {
        let truth: BTreeSet<String> = ["a", "b", "c", "d"].iter().map(|s| s.to_string()).collect();
        let found: BTreeSet<String> = ["a", "b", "x"].iter().map(|s| s.to_string()).collect();
        assert!((recall(&found, &truth) - 0.5).abs() < 1e-12);
        assert_eq!(recall(&found, &BTreeSet::new()), 1.0);
        assert_eq!(recall(&BTreeSet::new(), &truth), 0.0);
    }

    #[test]
    fn conjunctive_queries_are_well_formed_and_answerable() {
        let w = setup();
        let g = QueryGenerator::new(&w, QueryConfig::default());
        let mut r = rng::seeded(6);
        let qs = g.conjunctive_batch(30, &mut r);
        for q in &qs {
            assert_eq!(q.query.patterns.len(), 2);
            assert_ne!(q.constrained_concept, q.join_concept);
            assert_eq!(
                q.query.distinguished,
                vec!["x".to_string(), "v".to_string()]
            );
            // Both predicates belong to the same schema.
            for p in &q.query.patterns {
                let pred = p.predicate.as_const().expect("constant predicate");
                assert!(pred.lexical().starts_with(q.schema.as_str()));
            }
            // Conjunctive truth never exceeds the head pattern's truth.
            assert!(q.true_answers.len() <= w.entities.len());
        }
        let answerable = qs.iter().filter(|q| !q.true_answers.is_empty()).count();
        assert!(answerable > 15, "{answerable}/30 answerable");
    }

    #[test]
    fn conjunctive_generation_is_deterministic() {
        let w = setup();
        let g = QueryGenerator::new(&w, QueryConfig::default());
        let a: Vec<String> = g
            .conjunctive_batch(8, &mut rng::seeded(7))
            .iter()
            .map(|q| q.query.to_string())
            .collect();
        let b: Vec<String> = g
            .conjunctive_batch(8, &mut rng::seeded(7))
            .iter()
            .map(|q| q.query.to_string())
            .collect();
        assert_eq!(a, b);
    }

    /// The scan the index replaces: the accessions of every entity in
    /// the corpus whose canonical `concept` value matches `pattern`.
    pub(super) fn scan_matches(
        w: &Workload,
        concept: ConceptId,
        pattern: &str,
    ) -> BTreeSet<String> {
        w.entities
            .iter()
            .filter(|e| {
                e.values
                    .get(&concept.0)
                    .is_some_and(|v| gridvine_rdf::like_match(v, pattern))
            })
            .map(|e| e.accession.clone())
            .collect()
    }

    /// `single` as a scan: the same draws, truth from [`scan_matches`].
    fn reference_single<R: Rng>(g: &QueryGenerator, r: &mut R) -> GeneratedQuery {
        let w = g.workload;
        loop {
            let s = &w.schemas[g.schema_zipf.sample(r)];
            let categorical: Vec<(&str, ConceptId)> = s
                .attributes()
                .iter()
                .filter_map(|a| {
                    let c = w.ground_truth.concept(s.id(), a)?;
                    CONCEPTS[c.0].categorical.then_some((a.as_str(), c))
                })
                .collect();
            let Some(&(attr, concept)) = categorical.get(r.gen_range(0..categorical.len().max(1)))
            else {
                continue;
            };
            let pool = vocab::value_pool(concept).unwrap();
            let value = pool[r.gen_range(0..pool.len())];
            let pattern = if r.gen::<f64>() < g.config.wildcard_probability {
                format!("%{}%", value.split_whitespace().next().unwrap_or(value))
            } else {
                value.to_string()
            };
            let query = TriplePatternQuery::new(
                "x",
                TriplePattern::new(
                    PatternTerm::var("x"),
                    PatternTerm::constant(Term::Uri(s.predicate(attr))),
                    PatternTerm::constant(Term::literal(pattern.clone())),
                ),
            )
            .unwrap();
            return GeneratedQuery {
                schema: s.id().clone(),
                concept: concept.0,
                query,
                true_answers: scan_matches(w, concept, &pattern),
            };
        }
    }

    /// `conjunctive` as a scan: the head's scanned truth intersected
    /// with the accessions of every schema carrying the join concept.
    fn reference_conjunctive<R: Rng>(g: &QueryGenerator, r: &mut R) -> GeneratedConjunctiveQuery {
        let w = g.workload;
        loop {
            let head = reference_single(g, r);
            let s = w.schemas.iter().find(|s| *s.id() == head.schema).unwrap();
            let others: Vec<(&str, ConceptId)> = s
                .attributes()
                .iter()
                .filter_map(|a| {
                    let c = w.ground_truth.concept(s.id(), a)?;
                    (c.0 != head.concept).then_some((a.as_str(), c))
                })
                .collect();
            if others.is_empty() {
                continue;
            }
            let (join_attr, join_concept) = others[r.gen_range(0..others.len())];
            let query = ConjunctiveQuery::new(
                vec!["x".into(), "v".into()],
                vec![
                    head.query.pattern.clone(),
                    TriplePattern::new(
                        PatternTerm::var("x"),
                        PatternTerm::constant(Term::Uri(s.predicate(join_attr))),
                        PatternTerm::var("v"),
                    ),
                ],
            )
            .unwrap();
            let joinable: BTreeSet<String> = w
                .schemas
                .iter()
                .filter(|s2| {
                    s2.attributes()
                        .iter()
                        .any(|a| w.ground_truth.concept(s2.id(), a) == Some(join_concept))
                })
                .flat_map(|s2| w.exports[s2.id()].iter())
                .map(|&i| w.entities[i].accession.clone())
                .collect();
            return GeneratedConjunctiveQuery {
                schema: head.schema,
                constrained_concept: head.concept,
                join_concept: join_concept.0,
                query,
                true_answers: head.true_answers.intersection(&joinable).cloned().collect(),
            };
        }
    }

    #[test]
    fn batches_are_the_scan_references_batches() {
        use rand::RngCore;
        for noise in [0.0, 0.4] {
            let w = Workload::generate(WorkloadConfig {
                entities: 300,
                value_noise: noise,
                ..WorkloadConfig::small(17)
            });
            let g = QueryGenerator::new(&w, QueryConfig::default());

            let (mut r, mut reference) = (rng::seeded(8), rng::seeded(8));
            for q in g.batch(200, &mut r) {
                let want = reference_single(&g, &mut reference);
                assert_eq!(
                    (&q.schema, q.concept, &q.query, &q.true_answers),
                    (&want.schema, want.concept, &want.query, &want.true_answers)
                );
            }
            assert_eq!(r.next_u64(), reference.next_u64(), "same draws");

            let (mut r, mut reference) = (rng::seeded(9), rng::seeded(9));
            let mut pruned = 0;
            for q in g.conjunctive_batch(200, &mut r) {
                let want = reference_conjunctive(&g, &mut reference);
                assert_eq!(
                    (&q.schema, q.constrained_concept, q.join_concept, &q.query),
                    (
                        &want.schema,
                        want.constrained_concept,
                        want.join_concept,
                        &want.query
                    )
                );
                assert_eq!(q.true_answers, want.true_answers);
                let pattern = q.query.patterns[0].object.as_const().unwrap().lexical();
                let head = scan_matches(&w, ConceptId(q.constrained_concept), pattern);
                pruned += usize::from(q.true_answers.len() < head.len());
            }
            assert_eq!(r.next_u64(), reference.next_u64(), "same draws");
            assert!(pruned > 0, "some join must prune its head's answers");
        }
    }

    #[test]
    fn zipf_skew_prefers_popular_schemas() {
        let w = Workload::generate(WorkloadConfig {
            schemas: 20,
            ..WorkloadConfig::small(9)
        });
        let g = QueryGenerator::new(
            &w,
            QueryConfig {
                schema_skew: 1.2,
                ..QueryConfig::default()
            },
        );
        let mut r = rng::seeded(4);
        let qs = g.batch(400, &mut r);
        let first_schema = w.schemas[0].id().clone();
        let hits = qs.iter().filter(|q| q.schema == first_schema).count();
        assert!(hits > 40, "rank-0 schema should dominate: {hits}/400");
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::scan_matches;
    use super::*;
    use crate::generate::WorkloadConfig;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// For every categorical concept, the index answers each LIKE
        /// shape — built from the words of one entity's value — and the
        /// catch-alls `%`, `%%` and an absent value as the scan does.
        #[test]
        fn the_index_answers_every_pattern_as_the_scan_does(
            seed in 0u64..1_000,
            noise in prop::sample::select(vec![0.0, 0.4]),
            pick in 0usize..60,
        ) {
            let w = Workload::generate(WorkloadConfig {
                value_noise: noise,
                ..WorkloadConfig::small(seed)
            });
            let g = QueryGenerator::new(&w, QueryConfig::default());
            for c in CONCEPTS.iter().filter(|c| c.categorical) {
                let value = &w.entities[pick % w.entities.len()].values[&c.id.0];
                let mut patterns = vec![
                    value.clone(),
                    "%".to_string(),
                    "%%".to_string(),
                    "no such value".to_string(),
                ];
                for word in value.split_whitespace() {
                    patterns.extend([format!("{word}%"), format!("%{word}"), format!("%{word}%")]);
                }
                for pattern in &patterns {
                    prop_assert_eq!(
                        g.accessions(g.matching(c.id, pattern)),
                        scan_matches(&w, c.id, pattern),
                        "concept {} pattern {:?}", c.name, pattern
                    );
                }
            }
        }
    }
}
