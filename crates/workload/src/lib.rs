//! # gridvine-workload
//!
//! Synthetic bioinformatics workload for the GridVine reproduction.
//!
//! The paper's demonstration (§4) federates real EBI data: "50 distinct
//! schemas, all related to protein and nucleotide sequences", linked by
//! "shared references to the same protein sequence". That data cannot be
//! redistributed, so this crate generates a corpus with the same
//! structure — and, because it is generated, with *exact ground truth*:
//!
//! * [`vocab`] — the domain concepts (organism, accession, sequence, …)
//!   and the attribute-name variants real databases use for them;
//! * [`generate::Workload`] — 50 schemas drawing per-concept name
//!   variants, hundreds of sequence entities with shared accessions,
//!   triples per schema, schema profiles for the matcher, and
//!   [`generate::GroundTruth`] for correspondence correctness;
//! * [`queries::QueryGenerator`] — Zipf-skewed single-pattern and
//!   two-pattern join queries with global ground-truth answer sets,
//!   enabling exact recall measurements (the §4 storyline). Truth is
//!   computed from the entities' canonical values through an index the
//!   generator builds once per corpus: entity ids (not accessions) per
//!   distinct value of each categorical concept, and per concept one
//!   bit per entity saying whether a schema carrying it exports it.
//!
//! ```
//! use gridvine_workload::prelude::*;
//!
//! let w = Workload::generate(WorkloadConfig::small(42));
//! assert_eq!(w.schemas.len(), 8);
//! let gen = QueryGenerator::new(&w, QueryConfig::default());
//! let fig2 = gen.figure2();
//! assert!(!fig2.true_answers.is_empty());
//! ```

pub mod generate;
pub mod queries;
pub mod vocab;

/// Glob-import surface.
pub mod prelude {
    pub use crate::generate::{Entity, GroundTruth, Workload, WorkloadConfig};
    pub use crate::queries::{
        recall, GeneratedConjunctiveQuery, GeneratedQuery, QueryConfig, QueryGenerator,
    };
    pub use crate::vocab::{Concept, ConceptId, CONCEPTS, ORGANISMS, SCHEMA_NAMES};
}

pub use generate::{Entity, GroundTruth, Workload, WorkloadConfig};
pub use queries::{recall, GeneratedConjunctiveQuery, GeneratedQuery, QueryConfig, QueryGenerator};
pub use vocab::{Concept, ConceptId, CONCEPTS, ORGANISMS, SCHEMA_NAMES};
