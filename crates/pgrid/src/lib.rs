//! # gridvine-pgrid
//!
//! A from-scratch implementation of the **P-Grid** structured overlay —
//! the access structure GridVine uses at its overlay layer (§2.1 of the
//! paper). P-Grid arranges peers into a distributed virtual binary search
//! tree: each peer `p` owns a binary path π(p), stores the data whose
//! keys fall under that path, keeps *routing references* to the other
//! side of the tree at every level of its path, and *replica references*
//! σ(p) to peers sharing its path.
//!
//! The crate provides:
//!
//! * [`bits::BitString`] — the binary key space;
//! * [`hash`] — the order-preserving hash of §2.2 (plus a uniform
//!   baseline for ablations);
//! * [`store::Store`] — the per-peer ordered multimap;
//! * [`topology::Topology`] — the global trie with validated invariants
//!   (prefix-free coverage, legal references, replica consistency);
//! * [`overlay::Overlay`] — synchronous `Retrieve`/`Update` with exact
//!   message accounting (the mediation layer programs against this);
//! * [`proto::PGridNode`] — the same protocol as an asynchronous actor
//!   over [`gridvine_netsim`], charging WAN latency and surviving churn.
//!
//! Both operations meet the paper's complexity claim: routing resolves
//! in `O(log |Π|)` messages for balanced and unbalanced trees alike.
//!
//! ```
//! use gridvine_pgrid::prelude::*;
//! use rand::SeedableRng;
//!
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! let topo = Topology::balanced(64, 2, &mut rng);
//! let mut overlay: Overlay<String> = Overlay::new(&topo);
//! let hasher = OrderPreservingHash::default();
//! let key = hasher.hash("EMBL#Organism", 24);
//! overlay
//!     .update(PeerId(0), UpdateOp::Insert, key.clone(), "triple".into(), &mut rng)
//!     .unwrap();
//! let (values, route) = overlay.retrieve(PeerId(42), &key, &mut rng).unwrap();
//! assert_eq!(values, vec!["triple".to_string()]);
//! assert!(route.messages() as usize <= topo.depth() + 1);
//! ```

pub mod bits;
pub mod hash;
pub mod overlay;
pub mod proto;
pub mod store;
pub mod topology;

/// Glob-import surface.
pub mod prelude {
    pub use crate::bits::BitString;
    pub use crate::hash::{HashKind, KeyHasher, OrderPreservingHash, UniformHash};
    pub use crate::overlay::{Overlay, Route, RouteError};
    pub use crate::proto::{Outcome, PGridMsg, PGridNode, Status};
    pub use crate::store::{Store, UpdateOp};
    pub use crate::topology::{PeerId, PeerView, Topology, TopologyError};
}

pub use bits::BitString;
pub use hash::{HashKind, KeyHasher, OrderPreservingHash, UniformHash};
pub use overlay::{Overlay, Route, RouteError};
pub use proto::{Outcome, PGridMsg, PGridNode, Status};
pub use store::{Store, UpdateOp};
pub use topology::{PeerId, PeerView, Topology, TopologyError};
