//! # gridvine
//!
//! Umbrella crate for the GridVine reproduction — re-exports every layer
//! of the stack so examples and downstream users need a single
//! dependency.
//!
//! * [`netsim`] — deterministic discrete-event network simulator
//!   (the Internet layer);
//! * [`pgrid`] — the P-Grid structured overlay (the overlay layer);
//! * [`rdf`] — triples, the local triple database, RDQL-subset parser;
//! * [`semantic`] — schemas, mappings, connectivity indicator,
//!   matchers, Bayesian assessment (the mediation layer's logic);
//! * [`workload`] — the synthetic bioinformatics corpus with ground
//!   truth;
//! * [`core`] — the PDMS itself: `Update`/`SearchFor`, reformulation,
//!   self-organization, and the asynchronous deployment harness.
//!
//! See `README.md` for a tour and the experiment index.

pub use gridvine_core as core;
pub use gridvine_netsim as netsim;
pub use gridvine_pgrid as pgrid;
pub use gridvine_rdf as rdf;
pub use gridvine_semantic as semantic;
pub use gridvine_workload as workload;

/// One-stop prelude combining the per-crate preludes.
pub mod prelude {
    pub use gridvine_core::prelude::*;
    pub use gridvine_netsim::prelude::*;
    pub use gridvine_pgrid::prelude::*;
    pub use gridvine_rdf::prelude::*;
    pub use gridvine_semantic::prelude::*;
    pub use gridvine_workload::prelude::*;
}
