//! Workload generation: schemas, entities, triples and ground truth.
//!
//! The generator reproduces the *structure* of the paper's demo corpus
//! (§4): ~50 heterogeneous schemas about protein/nucleotide sequences,
//! sharing references to the same sequences (common accession subjects),
//! with lexically related but differently named attributes. Because we
//! generate it, we also know the true attribute correspondences —
//! [`GroundTruth`] — so recall and matcher precision are measurable,
//! which the original demo could only eyeball.

use crate::vocab::{self, Concept, ConceptId, CONCEPTS, SCHEMA_NAMES};
use gridvine_netsim::rng;
use gridvine_rdf::{Term, Triple, Uri};
use gridvine_semantic::{
    Correspondence, Mapping, MappingId, MappingKind, Provenance, Schema, SchemaId, SchemaProfile,
};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Generator parameters.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkloadConfig {
    /// Number of schemas (the paper uses 50).
    pub schemas: usize,
    /// Number of distinct sequence entities in the corpus.
    pub entities: usize,
    /// Attributes per schema, inclusive range.
    pub min_attrs: usize,
    pub max_attrs: usize,
    /// Fraction of all entities each schema exports (instance overlap
    /// between schemas comes from sampling the same entity pool).
    pub export_fraction: f64,
    /// Probability that a (schema, concept) pair renders its values in
    /// a non-canonical format (upper-case, first-word, abbreviated) —
    /// real databases disagree on formatting, which degrades the
    /// instance-based matching signal. 0 = every schema stores
    /// canonical values.
    pub value_noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            schemas: 50,
            entities: 400,
            min_attrs: 5,
            max_attrs: 10,
            export_fraction: 0.25,
            value_noise: 0.0,
            seed: 0x000B_10DB,
        }
    }
}

impl WorkloadConfig {
    /// A small configuration for unit tests.
    pub fn small(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            schemas: 8,
            entities: 60,
            min_attrs: 4,
            max_attrs: 7,
            export_fraction: 0.5,
            value_noise: 0.0,
            seed,
        }
    }

    /// Sized to the paper's deployment: 50 schemas and enough entities
    /// that the corpus holds ≈ 17 000 triples.
    pub fn paper_scale(seed: u64) -> WorkloadConfig {
        WorkloadConfig {
            schemas: 50,
            entities: 950,
            min_attrs: 5,
            max_attrs: 10,
            export_fraction: 0.05,
            value_noise: 0.0,
            seed,
        }
    }
}

/// One sequence entity with a value per concept.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Entity {
    /// The shared accession, e.g. `P04832` — used as the triple subject
    /// by *every* schema exporting the entity. These are the "shared
    /// references to the same protein sequence" of §4.
    pub accession: String,
    /// concept id → value.
    pub values: BTreeMap<usize, String>,
}

impl Entity {
    /// Subject URI for triples about this entity.
    pub fn subject(&self) -> Uri {
        Uri::new(format!("seq:{}", self.accession))
    }
}

/// Exact attribute-level ground truth.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct GroundTruth {
    /// (schema, attribute) → concept.
    concept_of: BTreeMap<(SchemaId, String), usize>,
}

impl GroundTruth {
    /// The concept an attribute denotes.
    pub fn concept(&self, schema: &SchemaId, attr: &str) -> Option<ConceptId> {
        self.concept_of
            .get(&(schema.clone(), attr.to_string()))
            .map(|&c| ConceptId(c))
    }

    /// Whether a correspondence between two schemas is semantically
    /// correct (same concept on both sides).
    pub fn is_correct(&self, source: &SchemaId, target: &SchemaId, c: &Correspondence) -> bool {
        match (
            self.concept(source, &c.source_attr),
            self.concept(target, &c.target_attr),
        ) {
            (Some(a), Some(b)) => a == b,
            _ => false,
        }
    }

    /// All correct correspondences between two schemas.
    pub fn correct_pairs(&self, source: &SchemaId, target: &SchemaId) -> Vec<Correspondence> {
        let mut out = Vec::new();
        for ((s, attr), c) in &self.concept_of {
            if s != source {
                continue;
            }
            for ((t, battr), bc) in &self.concept_of {
                if t == target && c == bc {
                    out.push(Correspondence::new(attr.clone(), battr.clone()));
                }
            }
        }
        out
    }

    /// Number of labelled (schema, attribute) pairs.
    pub fn len(&self) -> usize {
        self.concept_of.len()
    }

    pub fn is_empty(&self) -> bool {
        self.concept_of.is_empty()
    }
}

/// How a schema renders a concept's values (databases disagree on
/// formatting; see [`WorkloadConfig::value_noise`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ValueFormat {
    /// The canonical value as generated.
    Canonical,
    /// Upper-cased.
    Upper,
    /// First whitespace-separated word only.
    FirstWord,
    /// `Genus s.`-style abbreviation (first word + initial of second).
    Abbreviated,
}

impl ValueFormat {
    /// Render a canonical value in this format.
    pub fn render(self, canonical: &str) -> String {
        match self {
            ValueFormat::Canonical => canonical.to_string(),
            ValueFormat::Upper => canonical.to_uppercase(),
            ValueFormat::FirstWord => canonical
                .split_whitespace()
                .next()
                .unwrap_or(canonical)
                .to_string(),
            ValueFormat::Abbreviated => {
                let mut words = canonical.split_whitespace();
                match (words.next(), words.next()) {
                    (Some(first), Some(second)) => {
                        format!("{first} {}.", &second[..second.len().min(1)])
                    }
                    _ => canonical.to_string(),
                }
            }
        }
    }
}

/// A generated corpus.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Workload {
    pub config: WorkloadConfig,
    pub schemas: Vec<Schema>,
    pub entities: Vec<Entity>,
    /// Which entities each schema exports (indices into `entities`).
    pub exports: BTreeMap<SchemaId, Vec<usize>>,
    /// Per (schema, concept) value formatting.
    pub formats: BTreeMap<(SchemaId, usize), ValueFormat>,
    pub ground_truth: GroundTruth,
}

impl Workload {
    /// Generate a corpus deterministically from the config.
    pub fn generate(config: WorkloadConfig) -> Workload {
        assert!(config.schemas >= 1, "need at least one schema");
        assert!(
            config.schemas <= SCHEMA_NAMES.len(),
            "at most {} schemas supported",
            SCHEMA_NAMES.len()
        );
        assert!(
            config.min_attrs >= 1 && config.min_attrs <= config.max_attrs,
            "invalid attribute range"
        );
        assert!(
            (0.0..=1.0).contains(&config.export_fraction),
            "export fraction in [0,1]"
        );
        let mut r = rng::seeded(config.seed);

        // Entities.
        let organisms = vocab::ORGANISMS;
        let entities: Vec<Entity> = (0..config.entities)
            .map(|i| {
                let accession = accession(i);
                let mut values = BTreeMap::new();
                for c in CONCEPTS {
                    let v = match vocab::value_pool(c.id) {
                        Some(pool) => pool[r.gen_range(0..pool.len())].to_string(),
                        None => synth_value(c, &accession, &mut r),
                    };
                    values.insert(c.id.0, v);
                }
                // Organism and taxonomy must agree (lineage embeds the
                // organism) for realism.
                let org = organisms[r.gen_range(0..organisms.len())].to_string();
                values.insert(ConceptId(8).0, format!("cellular organisms; {org}"));
                values.insert(ConceptId(0).0, org);
                Entity { accession, values }
            })
            .collect();

        // Schemas: the first schema is always EMBL with an `Organism`
        // attribute so the paper's Figure-2 query works verbatim; the
        // second is EMP with `SystematicName`.
        let mut schemas = Vec::with_capacity(config.schemas);
        let mut ground_truth = GroundTruth::default();
        for (si, name) in SCHEMA_NAMES.iter().take(config.schemas).enumerate() {
            let id = SchemaId::new(*name);
            let n_attrs = r.gen_range(config.min_attrs..=config.max_attrs);
            // Choose concepts: always include organism + accession so
            // instance linking works, then random others.
            let mut concept_ids: Vec<usize> = vec![0, 1];
            let mut others: Vec<usize> = (2..CONCEPTS.len()).collect();
            others.shuffle(&mut r);
            concept_ids.extend(others.into_iter().take(n_attrs.saturating_sub(2)));

            let mut attrs = Vec::new();
            for &cid in &concept_ids {
                let concept = &CONCEPTS[cid];
                let variant = match (si, cid) {
                    (0, 0) => "Organism",       // EMBL#Organism (Fig. 2)
                    (1, 0) => "SystematicName", // EMP#SystematicName (Fig. 2)
                    _ => concept.variants[r.gen_range(0..concept.variants.len())],
                };
                attrs.push(variant.to_string());
                ground_truth
                    .concept_of
                    .insert((id.clone(), variant.to_string()), cid);
            }
            schemas.push(Schema::new(*name, attrs));
        }

        // Value formats: with probability `value_noise`, a schema stores
        // a concept in a non-canonical format. The Figure-2 schemas keep
        // organism canonical so the `%Aspergillus%` walkthrough works.
        let mut formats = BTreeMap::new();
        let variants = [
            ValueFormat::Upper,
            ValueFormat::FirstWord,
            ValueFormat::Abbreviated,
        ];
        for (si, s) in schemas.iter().enumerate() {
            for attr in s.attributes() {
                let cid = ground_truth.concept(s.id(), attr).expect("labelled").0;
                let figure2 = si < 2 && cid == 0;
                let fmt = if !figure2 && r.gen::<f64>() < config.value_noise {
                    variants[r.gen_range(0..variants.len())]
                } else {
                    ValueFormat::Canonical
                };
                formats.insert((s.id().clone(), cid), fmt);
            }
        }

        // Exports: each schema samples its share of the entity pool.
        let per_schema = ((config.entities as f64 * config.export_fraction).round() as usize)
            .clamp(1, config.entities);
        let mut exports = BTreeMap::new();
        for s in &schemas {
            let mut idx: Vec<usize> = (0..config.entities).collect();
            idx.shuffle(&mut r);
            idx.truncate(per_schema);
            idx.sort_unstable();
            exports.insert(s.id().clone(), idx);
        }

        Workload {
            config,
            schemas,
            entities,
            exports,
            formats,
            ground_truth,
        }
    }

    /// The value `schema` stores for `concept` of an entity, in the
    /// schema's own format.
    pub fn rendered_value(&self, schema: &SchemaId, concept: usize, entity: &Entity) -> String {
        self.format_of(schema, concept)
            .render(&entity.values[&concept])
    }

    fn format_of(&self, schema: &SchemaId, concept: usize) -> ValueFormat {
        self.formats
            .get(&(schema.clone(), concept))
            .copied()
            .unwrap_or(ValueFormat::Canonical)
    }

    /// The triples one schema contributes: for each exported entity and
    /// each schema attribute, `(seq:ACC, Schema#Attr, value)`. The
    /// triples of one call share their subject and predicate buffers.
    pub fn triples_of(&self, schema: &SchemaId) -> Vec<Triple> {
        let Some(s) = self.schemas.iter().find(|s| s.id() == schema) else {
            return Vec::new();
        };
        let Some(idx) = self.exports.get(schema) else {
            return Vec::new();
        };
        let attrs: Vec<(Uri, usize, ValueFormat)> = s
            .attributes()
            .iter()
            .map(|attr| {
                let cid = self
                    .ground_truth
                    .concept(schema, attr)
                    .expect("generated attributes are labelled")
                    .0;
                (s.predicate(attr), cid, self.format_of(schema, cid))
            })
            .collect();
        let mut out = Vec::with_capacity(idx.len() * attrs.len());
        for &i in idx {
            let e = &self.entities[i];
            let subject = e.subject();
            for (predicate, cid, format) in &attrs {
                out.push(Triple::new(
                    subject.clone(),
                    predicate.clone(),
                    Term::literal(format.render(&e.values[cid])),
                ));
            }
        }
        out
    }

    /// All triples of the corpus, tagged by schema.
    pub fn all_triples(&self) -> Vec<(SchemaId, Triple)> {
        self.schemas
            .iter()
            .flat_map(|s| {
                self.triples_of(s.id())
                    .into_iter()
                    .map(move |t| (s.id().clone(), t))
            })
            .collect()
    }

    /// Total triple count.
    pub fn triple_count(&self) -> usize {
        self.schemas
            .iter()
            .map(|s| self.exports[s.id()].len() * s.len())
            .sum()
    }

    /// The observable [`SchemaProfile`] of a schema (feeds the matcher).
    pub fn profile_of(&self, schema: &SchemaId) -> SchemaProfile {
        let mut p = SchemaProfile::new(schema.clone());
        let Some(s) = self.schemas.iter().find(|s| s.id() == schema) else {
            return p;
        };
        if let Some(idx) = self.exports.get(schema) {
            for &i in idx {
                let e = &self.entities[i];
                for attr in s.attributes() {
                    let cid = self.ground_truth.concept(schema, attr).expect("labelled");
                    let value = self.rendered_value(schema, cid.0, e);
                    p.observe(attr.clone(), e.accession.clone(), value);
                }
            }
        }
        p
    }

    /// Entities exported by both schemas (shared references).
    pub fn shared_entities(&self, a: &SchemaId, b: &SchemaId) -> Vec<usize> {
        let (Some(ea), Some(eb)) = (self.exports.get(a), self.exports.get(b)) else {
            return Vec::new();
        };
        let sb: BTreeSet<usize> = eb.iter().copied().collect();
        ea.iter().copied().filter(|i| sb.contains(i)).collect()
    }

    /// The manual mapping chain the WAN experiments preload: consecutive
    /// schemas linked by their ground-truth correspondences as
    /// equivalences (a pair sharing no concept is left unlinked), with
    /// ids dense from 0 in chain order, as a fresh registry assigns them.
    pub fn chain_mappings(&self) -> Vec<Mapping> {
        let mut chain = Vec::new();
        for pair in self.schemas.windows(2) {
            let (a, b) = (pair[0].id(), pair[1].id());
            let correspondences = self.ground_truth.correct_pairs(a, b);
            if !correspondences.is_empty() {
                chain.push(Mapping::new(
                    MappingId(chain.len() as u32),
                    a.clone(),
                    b.clone(),
                    MappingKind::Equivalence,
                    Provenance::Manual,
                    correspondences,
                ));
            }
        }
        chain
    }
}

/// The accession of entity `i`. The first 90 000 entities take a
/// permutation of `P10000` … `P99999`; later ones continue at `P100000`
/// and up, one digit or more longer, so no two entities share one.
fn accession(i: usize) -> String {
    if i < 90_000 {
        format!("P{}", 10_000 + i * 7 % 90_000)
    } else {
        format!("P{}", 10_000 + i)
    }
}

fn synth_value<R: Rng + ?Sized>(c: &Concept, accession: &str, r: &mut R) -> String {
    match c.name {
        "accession" => accession.to_string(),
        "sequence" => {
            let len = r.gen_range(10..40);
            let alphabet = ['A', 'C', 'D', 'E', 'F', 'G', 'H', 'K', 'L', 'M'];
            (0..len)
                .map(|_| alphabet[r.gen_range(0..alphabet.len())])
                .collect()
        }
        "length" => format!("{}", r.gen_range(80..4000)),
        "description" => format!("putative protein {accession}"),
        "gene" => format!("gene{}", r.gen_range(1..999)),
        "created" => format!(
            "199{}-0{}-1{}",
            r.gen_range(0..10),
            r.gen_range(1..10),
            r.gen_range(0..10)
        ),
        "modified" => format!(
            "200{}-0{}-2{}",
            r.gen_range(0..8),
            r.gen_range(1..10),
            r.gen_range(0..8)
        ),
        "reference" => format!("PMID:{}", r.gen_range(1_000_000..9_999_999)),
        "mass" => format!("{}", r.gen_range(8_000..200_000)),
        "features" => format!("{} features", r.gen_range(1..30)),
        other => format!("{other}-{accession}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Workload {
        Workload::generate(WorkloadConfig::small(1))
    }

    #[test]
    fn generates_requested_shape() {
        let w = small();
        assert_eq!(w.schemas.len(), 8);
        assert_eq!(w.entities.len(), 60);
        for s in &w.schemas {
            assert!(s.len() >= 4 && s.len() <= 7, "{:?}", s);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Workload::generate(WorkloadConfig::small(7));
        let b = Workload::generate(WorkloadConfig::small(7));
        assert_eq!(a.schemas, b.schemas);
        assert_eq!(a.triple_count(), b.triple_count());
        assert_eq!(
            a.triples_of(&SchemaId::new("EMBL")),
            b.triples_of(&SchemaId::new("EMBL"))
        );
    }

    #[test]
    fn figure2_schemas_present() {
        let w = small();
        let embl = w
            .schemas
            .iter()
            .find(|s| s.id().as_str() == "EMBL")
            .unwrap();
        assert!(embl.attributes().contains(&"Organism".to_string()));
        let emp = w.schemas.iter().find(|s| s.id().as_str() == "EMP").unwrap();
        assert!(emp.attributes().contains(&"SystematicName".to_string()));
        // Ground truth links them to the same concept.
        let c1 = w
            .ground_truth
            .concept(&SchemaId::new("EMBL"), "Organism")
            .unwrap();
        let c2 = w
            .ground_truth
            .concept(&SchemaId::new("EMP"), "SystematicName")
            .unwrap();
        assert_eq!(c1, c2);
    }

    #[test]
    fn triples_share_subjects_across_schemas() {
        let w = small();
        let a = SchemaId::new("EMBL");
        let b = SchemaId::new("EMP");
        let shared = w.shared_entities(&a, &b);
        assert!(
            !shared.is_empty(),
            "50% export over 60 entities must overlap"
        );
        let ta = w.triples_of(&a);
        let tb = w.triples_of(&b);
        let subjects_a: BTreeSet<&str> = ta.iter().map(|t| t.subject.as_str()).collect();
        let subjects_b: BTreeSet<&str> = tb.iter().map(|t| t.subject.as_str()).collect();
        assert!(subjects_a.intersection(&subjects_b).count() >= shared.len());
    }

    #[test]
    fn triple_count_matches_enumeration() {
        let w = small();
        assert_eq!(w.triple_count(), w.all_triples().len());
    }

    #[test]
    fn paper_scale_is_about_17k_triples() {
        let w = Workload::generate(WorkloadConfig::paper_scale(3));
        let n = w.triple_count();
        assert!(
            (15_000..20_000).contains(&n),
            "expected ≈17k triples, got {n}"
        );
        assert_eq!(w.schemas.len(), 50);
    }

    #[test]
    fn ground_truth_correct_pairs_are_symmetric_in_size() {
        let w = small();
        let a = SchemaId::new("EMBL");
        let b = SchemaId::new("EMP");
        let ab = w.ground_truth.correct_pairs(&a, &b);
        let ba = w.ground_truth.correct_pairs(&b, &a);
        assert_eq!(ab.len(), ba.len());
        assert!(!ab.is_empty(), "organism+accession are always shared");
        for c in &ab {
            assert!(w.ground_truth.is_correct(&a, &b, c));
            assert!(!w.ground_truth.is_correct(
                &a,
                &b,
                &Correspondence::new(c.source_attr.clone(), "Nonexistent")
            ));
        }
    }

    #[test]
    fn profiles_expose_shared_instance_values() {
        let w = small();
        let a = w.profile_of(&SchemaId::new("EMBL"));
        let b = w.profile_of(&SchemaId::new("EMP"));
        let shared = a.shared_instances(&b);
        assert!(!shared.is_empty());
        // Same concept ⇒ same values on shared instances.
        let organisms_a = &a.attributes["Organism"];
        let organisms_b = &b.attributes["SystematicName"];
        for i in &shared {
            assert_eq!(organisms_a.get(i), organisms_b.get(i));
        }
    }

    #[test]
    fn accessions_are_distinct_and_the_first_90_000_keep_their_form() {
        let mut seen = BTreeSet::new();
        for i in 0..200_000 {
            let a = accession(i);
            if i < 90_000 {
                assert_eq!(a, format!("P{:05}", 10_000 + i * 7 % 90_000));
            }
            assert!(seen.insert(a), "entity {i} repeats an accession");
        }
    }

    #[test]
    fn value_noise_changes_formats_but_not_ground_truth() {
        let noisy = Workload::generate(WorkloadConfig {
            value_noise: 0.8,
            ..WorkloadConfig::small(13)
        });
        let non_canonical = noisy
            .formats
            .values()
            .filter(|f| **f != ValueFormat::Canonical)
            .count();
        assert!(non_canonical > 0, "80% noise must hit some formats");
        // Figure-2 organism attributes stay canonical.
        assert_eq!(
            noisy.formats.get(&(SchemaId::new("EMBL"), 0)),
            Some(&ValueFormat::Canonical)
        );
        assert_eq!(
            noisy.formats.get(&(SchemaId::new("EMP"), 0)),
            Some(&ValueFormat::Canonical)
        );
        // Ground truth is about concepts, not formats.
        let clean = Workload::generate(WorkloadConfig::small(13));
        assert_eq!(noisy.ground_truth.len(), clean.ground_truth.len());
    }

    #[test]
    fn value_formats_render() {
        assert_eq!(
            ValueFormat::Canonical.render("Aspergillus niger"),
            "Aspergillus niger"
        );
        assert_eq!(
            ValueFormat::Upper.render("Aspergillus niger"),
            "ASPERGILLUS NIGER"
        );
        assert_eq!(
            ValueFormat::FirstWord.render("Aspergillus niger"),
            "Aspergillus"
        );
        assert_eq!(
            ValueFormat::Abbreviated.render("Aspergillus niger"),
            "Aspergillus n."
        );
        assert_eq!(ValueFormat::Abbreviated.render("single"), "single");
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn too_many_schemas_rejected() {
        Workload::generate(WorkloadConfig {
            schemas: 500,
            ..WorkloadConfig::default()
        });
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Every generated triple's predicate is labelled in the ground
        /// truth and its subject is a shared-accession URI.
        #[test]
        fn triples_are_labelled(seed in 0u64..50) {
            let w = Workload::generate(WorkloadConfig::small(seed));
            for (schema, t) in w.all_triples() {
                let (_, attr) = Schema::split_predicate(&t.predicate).unwrap();
                prop_assert!(w.ground_truth.concept(&schema, attr).is_some());
                prop_assert!(t.subject.as_str().starts_with("seq:"));
            }
        }

        /// correct_pairs only ever contains same-concept pairs.
        #[test]
        fn correct_pairs_sound(seed in 0u64..30) {
            let w = Workload::generate(WorkloadConfig::small(seed));
            let ids: Vec<SchemaId> = w.schemas.iter().map(|s| s.id().clone()).collect();
            for a in &ids {
                for b in &ids {
                    if a == b { continue; }
                    for c in w.ground_truth.correct_pairs(a, b) {
                        prop_assert_eq!(
                            w.ground_truth.concept(a, &c.source_attr),
                            w.ground_truth.concept(b, &c.target_attr)
                        );
                    }
                }
            }
        }
    }
}
