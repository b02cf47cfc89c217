//! # gridvine-core
//!
//! The GridVine Peer Data Management System — the paper's primary
//! contribution, assembled from the substrate crates:
//!
//! * [`gridvine_netsim`] simulates the Internet layer,
//! * [`gridvine_pgrid`] provides the structured overlay layer,
//! * [`gridvine_rdf`] and [`gridvine_semantic`] provide the semantic
//!   mediation layer's data model and self-organizing logic.
//!
//! The query surface is a **logical plan → pull-based session**
//! pipeline: a [`plan::QueryPlan`] names the shape of one `SearchFor`
//! (pattern lookup, object-prefix range sweep, reformulation closure,
//! conjunctive join);
//! [`GridVineSystem::open`](system::GridVineSystem::open) turns it into
//! an incremental [`session::QuerySession`] that advances one
//! subquery per pull and yields [`session::ResultEvent`]s (row batches,
//! schema hops with path quality, stats deltas) with genuine early
//! termination, while
//! [`GridVineSystem::execute`](system::GridVineSystem::execute) is the
//! blocking drain of such a session under [`exec::QueryOptions`]
//! (strategy, join mode, TTL, result limit), returning a uniform
//! [`exec::QueryOutcome`]. Repeated closures over an unchanged mapping
//! network, from any origin and under either strategy, replay an
//! epoch-keyed reformulation-closure cache kept at the peer holding the
//! origin schema's mapping list instead of re-walking the BFS.
//!
//! Two execution modes cover the paper's experiments:
//!
//! * [`system::GridVineSystem`] — the *synchronous* PDMS over the
//!   logical overlay with exact message accounting: all `Update`
//!   variants of Figure 1 (`data`, `schema`, `mapping`,
//!   `connectivity`), plan execution with **iterative** and
//!   **recursive** reformulation and two conjunctive join policies,
//!   and the full self-organization loop ([`selforg`]): connectivity
//!   monitoring via `Hash(Domain)`, automatic mapping creation from
//!   shared instance references, Bayesian deprecation, and composition
//!   repair of deprecated links.
//! * [`harness::Deployment`] — the *asynchronous* deployment over the
//!   discrete-event simulator, charging wide-area latency per message;
//!   its lookup driver ([`harness::Deployment::run_queries`])
//!   reproduces the §2.3 latency CDF claim. Reformulation and joins run
//!   on the synchronous engine only.
//!
//! ```
//! use gridvine_core::prelude::*;
//! use gridvine_rdf::{Term, Triple, TriplePatternQuery};
//! use gridvine_semantic::{Correspondence, MappingKind, Provenance, Schema};
//! use gridvine_pgrid::PeerId;
//!
//! let mut sys = GridVineSystem::new(GridVineConfig::default());
//! let p = PeerId(0);
//! sys.insert_schema(p, Schema::new("EMBL", ["Organism"])).unwrap();
//! sys.insert_schema(p, Schema::new("EMP", ["SystematicName"])).unwrap();
//! sys.insert_mapping(p, "EMBL", "EMP", MappingKind::Equivalence, Provenance::Manual,
//!     vec![Correspondence::new("Organism", "SystematicName")]).unwrap();
//! sys.insert_triple(p, Triple::new("seq:A78712", "EMBL#Organism",
//!     Term::literal("Aspergillus niger"))).unwrap();
//! sys.insert_triple(p, Triple::new("seq:NEN94295-05", "EMP#SystematicName",
//!     Term::literal("Aspergillus oryzae"))).unwrap();
//!
//! let plan = QueryPlan::search(TriplePatternQuery::example_aspergillus());
//! let out = sys.execute(PeerId(3), &plan, &QueryOptions::default()).unwrap();
//! assert_eq!(out.rows.len(), 2); // both records, across schemas
//! ```

pub mod harness;
pub mod item;
pub mod plan;
pub mod selforg;
pub mod system;

pub use system::exec;
pub use system::place;
pub use system::pool;
pub use system::session;

/// Glob-import surface.
pub mod prelude {
    pub use crate::harness::{BatchReport, Deployment, DeploymentConfig};
    pub use crate::item::{KeySpace, MediationItem};
    pub use crate::plan::QueryPlan;
    pub use crate::selforg::{RoundReport, SelfOrgConfig};
    pub use crate::system::conjunctive::JoinMode;
    pub use crate::system::exec::{ExecStats, QueryOptions, QueryOutcome};
    pub use crate::system::place::{PlacementPolicy, PlacementRule};
    pub use crate::system::pool::{PoolEvent, SessionId, SessionPool};
    pub use crate::system::session::{QuerySession, ResultEvent};
    pub use crate::system::{
        AssessmentReport, CommitRecovery, GridVineConfig, GridVineSystem, Strategy, SystemError,
    };
}

pub use harness::{BatchReport, Deployment, DeploymentConfig};
pub use item::{KeySpace, MediationItem};
pub use plan::QueryPlan;
pub use selforg::{RoundReport, SelfOrgConfig};
pub use system::conjunctive::JoinMode;
pub use system::exec::{ExecStats, QueryOptions, QueryOutcome};
pub use system::place::{PlacementPolicy, PlacementRule};
pub use system::pool::{PoolEvent, SessionId, SessionPool};
pub use system::session::{QuerySession, ResultEvent};
pub use system::{
    AssessmentReport, CommitRecovery, GridVineConfig, GridVineSystem, Strategy, SystemError,
};
