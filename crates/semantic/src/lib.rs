//! # gridvine-semantic
//!
//! The self-organizing semantics of GridVine (§3 of the paper): schemas,
//! pairwise GAV mappings, the mapping-graph analytics behind the
//! connectivity indicator, query reformulation by view unfolding, the
//! automatic schema matchers, and the Bayesian cycle analysis that
//! deprecates bad mappings.
//!
//! | paper concept | here |
//! |---|---|
//! | schemas as attribute sets (§2.2) | [`schema::Schema`] |
//! | equivalence / subsumption GAV mappings (§3) | [`mapping::Mapping`] |
//! | graph of schemas & mappings (§3.1) | [`graph::MappingRegistry`] |
//! | `ci = Σ (jk − k) p_jk` (§3.1) | [`connectivity::DegreeDistribution`] |
//! | query reformulation / view unfolding (§3, Fig. 2) | [`reformulate`] |
//! | lexicographic + set-distance matchers (§4) | [`matcher`] |
//! | Bayesian cycle analysis & deprecation (§3.2) | [`bayes`] |
//!
//! ```
//! use gridvine_semantic::prelude::*;
//! use gridvine_rdf::TriplePatternQuery;
//!
//! // The Figure-2 scenario: EMBL#Organism ≡ EMP#SystematicName.
//! let mut reg = MappingRegistry::new();
//! reg.add_schema(Schema::new("EMBL", ["Organism"]));
//! reg.add_schema(Schema::new("EMP", ["SystematicName"]));
//! reg.add_mapping(
//!     "EMBL", "EMP",
//!     MappingKind::Equivalence, Provenance::Manual,
//!     vec![Correspondence::new("Organism", "SystematicName")],
//! );
//! let q = TriplePatternQuery::example_aspergillus();
//! let refs = reformulations(&reg, &q, 5).unwrap();
//! assert_eq!(refs.len(), 2); // original + EMP reformulation
//! ```

pub mod bayes;
pub mod compose;
pub mod connectivity;
pub mod graph;
pub mod mapping;
pub mod matcher;
pub mod reformulate;
pub mod schema;

/// Glob-import surface.
pub mod prelude {
    pub use crate::bayes::{apply_assessment, assess, Assessment, BayesConfig, CycleOutcome};
    pub use crate::compose::{compose_path, find_path, Composed};
    pub use crate::connectivity::{connectivity_indicator, DegreeDistribution};
    pub use crate::graph::{DegreeRecord, MappingRegistry};
    pub use crate::mapping::{
        Correspondence, Direction, Mapping, MappingId, MappingKind, MappingStatus, Provenance,
    };
    pub use crate::matcher::{match_profiles, MatcherConfig, SchemaProfile, ScoredCorrespondence};
    pub use crate::reformulate::{
        expand_hop, pattern_schema, query_schema, reformulations, CacheCounters, CachedHop,
        ClosureCache, ClosureKey, Hop, ReformulateError, Reformulation, Step,
    };
    pub use crate::schema::{Schema, SchemaId};
}

pub use bayes::{
    apply_assessment, assess, assess_cycles, find_cycles, Assessment, BayesConfig, CycleOutcome,
};
pub use compose::{compose_path, find_path, Composed};
pub use connectivity::{connectivity_indicator, DegreeDistribution};
pub use graph::{DegreeRecord, MappingRegistry};
pub use mapping::{
    Correspondence, Direction, Mapping, MappingId, MappingKind, MappingStatus, Provenance,
};
pub use matcher::{match_profiles, MatcherConfig, SchemaProfile, ScoredCorrespondence};
pub use reformulate::{
    expand_hop, pattern_schema, query_schema, reformulations, CacheCounters, CachedHop,
    ClosureCache, ClosureKey, Hop, ReformulateError, Reformulation, Step,
};
pub use schema::{Schema, SchemaId};
