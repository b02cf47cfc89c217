//! The event-driven P-Grid protocol over the network simulator.
//!
//! [`crate::overlay::Overlay`] executes routing synchronously and counts
//! messages; this module runs the *same* per-peer decision procedure as
//! an asynchronous message protocol on top of
//! [`gridvine_netsim::Network`], which additionally charges wide-area
//! latency, drops messages, and exposes peers to churn. Experiments E1
//! (latency CDF) and A2 (availability under churn) run here.
//!
//! Protocol:
//!
//! * `Retrieve { key }` — greedy prefix forwarding hop by hop; the
//!   responsible peer answers the **origin** directly with the values
//!   in its bucket for `key` (one response message, as in the paper's
//!   `Retrieve(key, q)`). The origin's [`Outcome`] names the peer that
//!   answered ([`Outcome::responder`]), so a caller whose answer is
//!   computed from that peer's state rather than shipped in `values` —
//!   GridVine resolves `q` on the answering peer's triple database —
//!   reads the store of the replica that actually replied, also after
//!   a fail-over.
//! * Peers are loaded out of band, through [`PGridNode::store_mut`]:
//!   the protocol routes reads only.
//! * Origins set a timeout timer per request; a request with no response
//!   by the deadline is recorded as failed (churn/loss experiments read
//!   this).
//! * A peer that cannot forward (all references at the needed level dead
//!   or unknown) retries once through a replica before giving up with a
//!   `NotFound` response.

use crate::bits::BitString;
use crate::store::Store;
use crate::topology::{PeerView, Topology};
use gridvine_netsim::{Ctx, Node, NodeId, SimDuration, SimTime};
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Correlates a request with its response at the origin.
pub type RequestId = u64;

/// Wire messages of the P-Grid protocol, carrying values of type `V`.
#[derive(Debug, Clone)]
pub enum PGridMsg<V> {
    /// Route a retrieval toward the peer responsible for `key`.
    Retrieve {
        id: RequestId,
        origin: NodeId,
        key: BitString,
        hops: u32,
    },
    /// Answer from the responsible peer to the origin.
    RetrieveResp {
        id: RequestId,
        values: Vec<V>,
        hops: u32,
        found: bool,
    },
}

/// Outcome of a completed (or timed-out) request at its origin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Outcome<V> {
    pub id: RequestId,
    pub issued_at: SimTime,
    pub completed_at: SimTime,
    pub hops: u32,
    /// The peer whose response completed the request: the responsible
    /// peer (or σ replica) that answered, the peer a routing hole made
    /// give up with `NotFound`, or the origin itself when it answered
    /// locally. `None` when the request timed out.
    pub responder: Option<NodeId>,
    pub values: Vec<V>,
    pub status: Status,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Status {
    Ok,
    NotFound,
    TimedOut,
}

impl<V> Outcome<V> {
    /// End-to-end latency of the request.
    pub fn latency(&self) -> SimDuration {
        self.completed_at.saturating_since(self.issued_at)
    }
}

/// A retrieve this node originated. It carries its key so a timeout
/// can retry through a different random path/replica.
#[derive(Debug)]
struct Pending {
    issued_at: SimTime,
    key: BitString,
    retries_left: u32,
}

/// A P-Grid peer running the asynchronous protocol.
#[derive(Debug)]
pub struct PGridNode<V> {
    view: PeerView,
    store: Store<V>,
    /// Requests this node originated and is still waiting on.
    pending: HashMap<RequestId, Pending>,
    /// Finished requests, for the harness to drain.
    completed: Vec<Outcome<V>>,
    next_id: RequestId,
    timeout: SimDuration,
    /// Retrieve attempts after the first (σ(p) replication only helps
    /// queries when timeouts fail over to another path).
    retries: u32,
}

impl<V: Clone + PartialEq> PGridNode<V> {
    /// Build the node for peer `i` of a constructed topology (peer `i`
    /// of the topology must be node `i` of the network).
    pub fn from_topology(topology: &Topology, index: usize, timeout: SimDuration) -> PGridNode<V> {
        PGridNode {
            view: topology.view(crate::topology::PeerId::from_index(index)),
            store: Store::new(),
            pending: HashMap::new(),
            completed: Vec::new(),
            next_id: (index as u64) << 40, // per-origin id spaces stay disjoint
            timeout,
            retries: 2,
        }
    }

    /// Set the number of retrieve retries after a timeout (default 2).
    pub fn set_retries(&mut self, retries: u32) {
        self.retries = retries;
    }

    /// The peer's view of the overlay.
    pub fn view(&self) -> &PeerView {
        &self.view
    }

    /// Local store (harnesses preload data through this).
    pub fn store_mut(&mut self) -> &mut Store<V> {
        &mut self.store
    }

    pub fn store(&self) -> &Store<V> {
        &self.store
    }

    /// Outcomes of requests this node originated; drained by the harness.
    pub fn drain_completed(&mut self) -> Vec<Outcome<V>> {
        std::mem::take(&mut self.completed)
    }

    /// Start a retrieval for `key` from this node. Returns the request id.
    pub fn start_retrieve(&mut self, ctx: &mut Ctx<'_, PGridMsg<V>>, key: BitString) -> RequestId {
        let id = self.fresh_id();
        self.pending.insert(
            id,
            Pending {
                issued_at: ctx.now(),
                key: key.clone(),
                retries_left: self.retries,
            },
        );
        ctx.set_timer(self.timeout, id);
        let origin = ctx.self_id();
        let msg = PGridMsg::Retrieve {
            id,
            origin,
            key,
            hops: 0,
        };
        self.route_or_handle(ctx, origin, msg);
        id
    }

    fn fresh_id(&mut self) -> RequestId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Apply the greedy forwarding rule to a routed message, or consume
    /// it locally when this peer is responsible. `from` is the peer the
    /// message came from (this peer itself for a request it starts).
    fn route_or_handle(&mut self, ctx: &mut Ctx<'_, PGridMsg<V>>, from: NodeId, msg: PGridMsg<V>) {
        match msg {
            PGridMsg::Retrieve {
                id,
                origin,
                key,
                hops,
            } => {
                if self.view.is_responsible(&key) {
                    let values = self.store.get(&key).to_vec();
                    let found = !values.is_empty();
                    let resp = PGridMsg::RetrieveResp {
                        id,
                        values,
                        hops,
                        found,
                    };
                    self.respond(ctx, origin, resp);
                    return;
                }
                match self.pick_next_hop(ctx, &key) {
                    Some(next) => ctx.send(
                        next,
                        PGridMsg::Retrieve {
                            id,
                            origin,
                            key,
                            hops: hops + 1,
                        },
                    ),
                    None => {
                        let resp = PGridMsg::RetrieveResp {
                            id,
                            values: Vec::new(),
                            hops,
                            found: false,
                        };
                        self.respond(ctx, origin, resp);
                    }
                }
            }
            resp @ PGridMsg::RetrieveResp { .. } => {
                self.consume_response(ctx.now(), from, resp);
            }
        }
    }

    /// Answer `origin`: over the wire, or on the spot when this peer is
    /// the origin.
    fn respond(&mut self, ctx: &mut Ctx<'_, PGridMsg<V>>, origin: NodeId, resp: PGridMsg<V>) {
        if origin == ctx.self_id() {
            self.consume_response(ctx.now(), origin, resp);
        } else {
            ctx.send(origin, resp);
        }
    }

    /// Choose a forwarding target for `key`: a random reference at the
    /// divergence level, falling back to a replica that might know one.
    fn pick_next_hop(&self, ctx: &mut Ctx<'_, PGridMsg<V>>, key: &BitString) -> Option<NodeId> {
        let level = self.view.forwarding_level(key)?;
        let refs = self.view.refs.get(level).map(Vec::as_slice).unwrap_or(&[]);
        if let Some(p) = refs.choose(ctx.rng()) {
            return Some(NodeId::from_index(p.index()));
        }
        // Routing hole: bounce through a random replica (it may hold a
        // different reference sample for this level).
        self.view
            .replicas
            .choose(ctx.rng())
            .map(|p| NodeId::from_index(p.index()))
    }

    fn consume_response(&mut self, now: SimTime, responder: NodeId, msg: PGridMsg<V>) {
        let PGridMsg::RetrieveResp {
            id,
            values,
            hops,
            found,
        } = msg
        else {
            return;
        };
        let status = if found { Status::Ok } else { Status::NotFound };
        let Some(p) = self.pending.remove(&id) else {
            return; // response after timeout: ignore
        };
        self.completed.push(Outcome {
            id,
            issued_at: p.issued_at,
            completed_at: now,
            hops,
            responder: Some(responder),
            values,
            status,
        });
    }
}

impl<V: Clone + PartialEq> Node<PGridMsg<V>> for PGridNode<V> {
    fn handle_message(&mut self, ctx: &mut Ctx<'_, PGridMsg<V>>, from: NodeId, msg: PGridMsg<V>) {
        self.route_or_handle(ctx, from, msg);
    }

    fn on_recover(&mut self, ctx: &mut Ctx<'_, PGridMsg<V>>) {
        // Crashing dropped our in-flight timers and any responses sent
        // while we were down. Re-issue pending retrieves (a client
        // process restarting does exactly this) and re-arm the timers,
        // in request order: each re-issue draws the network's RNG, so
        // the map's iteration order would make the run irreproducible.
        let mut pending: Vec<(RequestId, BitString)> = self
            .pending
            .iter()
            .map(|(id, p)| (*id, p.key.clone()))
            .collect();
        pending.sort_unstable_by_key(|&(id, _)| id);
        for (id, key) in pending {
            ctx.set_timer(self.timeout, id);
            let origin = ctx.self_id();
            self.route_or_handle(
                ctx,
                origin,
                PGridMsg::Retrieve {
                    id,
                    origin,
                    key,
                    hops: 0,
                },
            );
        }
    }

    fn handle_timer(&mut self, ctx: &mut Ctx<'_, PGridMsg<V>>, token: u64) {
        // Timers carry the request id; if it is still pending, this
        // attempt failed — retry through a fresh random path while
        // retries are left, give up otherwise.
        let Some(p) = self.pending.get_mut(&token) else {
            return;
        };
        if p.retries_left > 0 {
            p.retries_left -= 1;
            let key = p.key.clone();
            ctx.set_timer(self.timeout, token);
            let origin = ctx.self_id();
            self.route_or_handle(
                ctx,
                origin,
                PGridMsg::Retrieve {
                    id: token,
                    origin,
                    key,
                    hops: 0,
                },
            );
            return;
        }
        let p = self.pending.remove(&token).expect("checked above");
        self.completed.push(Outcome {
            id: token,
            issued_at: p.issued_at,
            completed_at: ctx.now(),
            hops: 0,
            responder: None,
            values: Vec::new(),
            status: Status::TimedOut,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{KeyHasher, OrderPreservingHash};
    use crate::topology::Topology;
    use gridvine_netsim::{Network, NetworkConfig};
    use rand::SeedableRng;

    type Net = Network<PGridNode<String>, PGridMsg<String>>;

    fn build(n: usize, cfg: NetworkConfig, seed: u64) -> (Net, Topology) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let topo = Topology::balanced(n, 2, &mut rng);
        let mut net: Net = Network::new(cfg, seed);
        for i in 0..n {
            net.add_node(PGridNode::from_topology(
                &topo,
                i,
                SimDuration::from_secs(30),
            ));
        }
        (net, topo)
    }

    /// Store `value` under `key` at every peer of its σ group, out of
    /// band, as a harness loads data.
    fn preload(net: &mut Net, topo: &Topology, key: &BitString, value: &str) {
        for p in topo.responsible(key) {
            net.node_mut(NodeId::from_index(p.index()))
                .store_mut()
                .insert(key.clone(), value.to_string());
        }
    }

    #[test]
    fn retrieve_over_the_wire() {
        let (mut net, topo) = build(32, NetworkConfig::lan(), 1);
        let h = OrderPreservingHash::default();
        let key = h.hash("EMBL#Organism", 24);
        preload(&mut net, &topo, &key, "Aspergillus");

        let asker = NodeId::from_index(17);
        net.invoke(asker, |node, ctx| node.start_retrieve(ctx, key.clone()));
        net.run_until_quiescent();
        let done = net.node_mut(asker).drain_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].status, Status::Ok);
        assert_eq!(done[0].values, vec!["Aspergillus".to_string()]);
        assert!(done[0].latency() > SimDuration::ZERO);
        let holders = topo.responsible(&key);
        let responder = done[0].responder.expect("answered, not timed out");
        assert!(holders.iter().any(|p| p.index() == responder.index()));
    }

    #[test]
    fn retrieval_of_absent_key_is_not_found() {
        let (mut net, _) = build(16, NetworkConfig::lan(), 2);
        let h = OrderPreservingHash::default();
        let key = h.hash("missing", 24);
        let origin = NodeId::from_index(5);
        net.invoke(origin, |node, ctx| node.start_retrieve(ctx, key));
        net.run_until_quiescent();
        let done = net.node_mut(origin).drain_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].status, Status::NotFound);
    }

    #[test]
    fn hop_count_within_depth_bound() {
        let (mut net, topo) = build(128, NetworkConfig::lan(), 3);
        let h = OrderPreservingHash::default();
        for i in 0..40 {
            let key = h.hash(&format!("probe-{i}"), 24);
            let origin = NodeId::from_index(i % 128);
            net.invoke(origin, |node, ctx| node.start_retrieve(ctx, key));
        }
        net.run_until_quiescent();
        for i in 0..128 {
            for o in net.node_mut(NodeId::from_index(i)).drain_completed() {
                assert!(
                    (o.hops as usize) <= topo.depth() + 1,
                    "hops {} > depth {}",
                    o.hops,
                    topo.depth()
                );
            }
        }
    }

    #[test]
    fn timeout_fires_when_destination_group_is_dead() {
        let (mut net, topo) = build(8, NetworkConfig::lan(), 5);
        let h = OrderPreservingHash::default();
        let key = h.hash("doomed", 24);
        // Kill the entire responsible replica group.
        for p in topo.responsible(&key).to_vec() {
            net.crash(NodeId::from_index(p.index()));
        }
        let origin = NodeId::from_index(
            (0..8)
                .find(|i| !topo.responsible(&key).iter().any(|p| p.index() == *i))
                .expect("someone survives"),
        );
        net.invoke(origin, |node, ctx| {
            node.set_retries(1);
            node.start_retrieve(ctx, key)
        });
        net.run_until_quiescent();
        let done = net.node_mut(origin).drain_completed();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].status, Status::TimedOut);
        assert_eq!(done[0].responder, None);
        // Initial attempt + one retry, 30 s timeout each.
        assert_eq!(done[0].latency(), SimDuration::from_secs(60));
    }

    #[test]
    fn a_recovered_node_reissues_its_retrieves_in_request_order() {
        let run = || {
            let (mut net, _) = build(64, NetworkConfig::planetlab(), 1);
            let h = OrderPreservingHash::default();
            let origin = NodeId::from_index(3);
            for i in 0..8 {
                let key = h.hash(&format!("probe-{i}"), 24);
                net.invoke(origin, |node, ctx| node.start_retrieve(ctx, key));
            }
            net.crash(origin);
            net.recover(origin);
            net.run_until_quiescent();
            let mut done: Vec<_> = net
                .node_mut(origin)
                .drain_completed()
                .into_iter()
                .map(|o| (o.id, o.hops, o.completed_at))
                .collect();
            done.sort();
            done
        };
        let first = run();
        assert_eq!(first.len(), 8);
        for _ in 0..4 {
            assert_eq!(run(), first);
        }
    }

    /// 8 peers over 4 depth-2 paths: every path has exactly 2 replicas.
    fn replicated_net(seed: u64) -> (Net, Topology) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let paths: Vec<_> = ["00", "00", "01", "01", "10", "10", "11", "11"]
            .iter()
            .map(|s| crate::bits::BitString::parse(s))
            .collect();
        let topo = Topology::from_paths(paths, 2, &mut rng);
        topo.validate().expect("valid");
        let mut net: Net = Network::new(NetworkConfig::lan(), seed);
        for i in 0..8 {
            net.add_node(PGridNode::from_topology(
                &topo,
                i,
                SimDuration::from_secs(30),
            ));
        }
        (net, topo)
    }

    #[test]
    fn replica_survives_primary_crash() {
        // Load, crash one holder, read: the σ(p) replica must answer.
        let (mut net, topo) = replicated_net(6);
        let h = OrderPreservingHash::default();
        let key = h.hash("durable", 24);
        preload(&mut net, &topo, &key, "kept");
        let group = topo.responsible(&key).to_vec();
        assert!(group.len() >= 2);
        net.crash(NodeId::from_index(group[0].index()));
        // An origin outside the group retries until it happens to route
        // to the live replica; with 2 refs per level it usually succeeds
        // within a few attempts. Try several times.
        let origin = NodeId::from_index(
            (0..8)
                .find(|i| !group.iter().any(|p| p.index() == *i))
                .expect("someone survives"),
        );
        let mut got = false;
        for _ in 0..24 {
            net.invoke(origin, |node, ctx| node.start_retrieve(ctx, key.clone()));
            net.run_until_quiescent();
            let done = net.node_mut(origin).drain_completed();
            if let Some(o) = done.iter().find(|o| o.status == Status::Ok) {
                // The outcome names the replica that answered.
                assert_eq!(o.responder, Some(NodeId::from_index(group[1].index())));
                got = true;
                break;
            }
        }
        assert!(got, "live replica should eventually answer");
    }

    #[test]
    fn wan_latency_is_charged() {
        let (mut net, topo) = build(64, NetworkConfig::planetlab(), 7);
        let h = OrderPreservingHash::default();
        let key = h.hash("wan-item", 24);
        preload(&mut net, &topo, &key, "x");
        net.invoke(NodeId::from_index(33), |node, ctx| {
            node.start_retrieve(ctx, key.clone())
        });
        net.run_until_quiescent();
        let done = net.node_mut(NodeId::from_index(33)).drain_completed();
        assert_eq!(done.len(), 1);
        // Multi-hop over a WAN: at least tens of milliseconds.
        assert!(done[0].latency() >= SimDuration::from_millis(20));
    }
}
