//! # gridvine-netsim
//!
//! A deterministic discrete-event network simulator. This crate stands in
//! for the *Internet layer* of the GridVine architecture (Figure 1 of the
//! paper): several hundred machines scattered around the world, exchanging
//! messages over a wide-area network.
//!
//! The paper's headline deployment claim (§2.3) — *"a recent deployment of
//! GridVine on 340 machines scattered around the world sharing 17000
//! triples showed that 40% of the 23000 triple pattern queries we submitted
//! were answered within one second only, and 75% within five seconds"* — is
//! a statement about overlay hop counts multiplied by wide-area round-trip
//! times. This simulator reproduces exactly that product:
//!
//! * a [`clock::SimTime`] with microsecond resolution,
//! * an [`event::EventQueue`] with deterministic FIFO tie-breaking,
//! * pluggable [`latency`] models, including a regional WAN model with
//!   log-normally distributed inter-region delays,
//! * a generic actor-style [`network::Network`] in which protocol nodes
//!   (implementing [`node::Node`]) exchange typed messages and set timers,
//!   optionally losing each message independently
//!   ([`network::NetworkConfig::loss`]),
//! * a [`churn`] process injecting node failures and joins,
//! * [`stats`]: an exact latency CDF.
//!
//! Everything is seeded: running the same experiment twice produces
//! byte-identical output.
//!
//! ## Quick example
//!
//! ```
//! use gridvine_netsim::prelude::*;
//!
//! // A trivial protocol: every node replies "pong" to "ping".
//! #[derive(Clone, Debug)]
//! enum Msg { Ping, Pong }
//!
//! struct Echo { pongs: usize }
//! impl Node<Msg> for Echo {
//!     fn handle_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
//!         match msg {
//!             Msg::Ping => ctx.send(from, Msg::Pong),
//!             Msg::Pong => self.pongs += 1,
//!         }
//!     }
//! }
//!
//! let mut net = Network::new(NetworkConfig::lan(), 42);
//! let a = net.add_node(Echo { pongs: 0 });
//! let b = net.add_node(Echo { pongs: 0 });
//! net.send_external(a, b, Msg::Ping);
//! net.run_until_quiescent();
//! assert_eq!(net.node(a).pongs, 1);
//! ```

pub mod churn;
pub mod clock;
pub mod event;
pub mod latency;
pub mod network;
pub mod node;
pub mod rng;
pub mod stats;

/// Convenient glob-import surface for simulator users.
pub mod prelude {
    pub use crate::churn::{ChurnConfig, ChurnProcess};
    pub use crate::clock::{SimDuration, SimTime};
    pub use crate::latency::{LatencyConfig, LatencyModel, RegionalWan};
    pub use crate::network::{Network, NetworkConfig, NetworkStats};
    pub use crate::node::{Ctx, Node, NodeId};
    pub use crate::stats::Cdf;
}

pub use churn::{ChurnConfig, ChurnProcess};
pub use clock::{SimDuration, SimTime};
pub use event::EventQueue;
pub use latency::{LatencyConfig, LatencyModel, RegionalWan, RegionalWanConfig};
pub use network::{Network, NetworkConfig, NetworkStats};
pub use node::{Ctx, Node, NodeId};
pub use stats::Cdf;
