//! The synchronous logical overlay: `Retrieve(key)` / `Update(key, value)`
//! with exact message accounting.
//!
//! This is the overlay facade the mediation layer programs against
//! (§2.1: "P-Grid supports two basic operations: Retrieve(key) … and
//! Update(key, value)"). Routing is executed hop by hop over the peers'
//! private views — never by consulting global state — so the message
//! counts reported here are exactly what the distributed protocol in
//! [`crate::proto`] generates; the event-driven variant additionally
//! charges wall-clock latency. The one exception is
//! [`Overlay::route_updates`], which routes a batch of keys as one
//! update tree: it has no twin in [`crate::proto`], whose updates
//! travel one key per message.

use crate::bits::BitString;
use crate::store::{Store, UpdateOp};
use crate::topology::{PeerId, PeerView, Topology};
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Why a routed operation failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteError {
    /// A routing-table level needed for the key had no live reference.
    NoRoute { at_peer: PeerId, level: usize },
    /// The hop budget was exhausted (should not happen in a valid trie).
    TooManyHops { budget: usize },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::NoRoute { at_peer, level } => {
                write!(f, "no route from {at_peer} at level {level}")
            }
            RouteError::TooManyHops { budget } => write!(f, "exceeded hop budget {budget}"),
        }
    }
}

impl std::error::Error for RouteError {}

/// Result of routing a key to its responsible peer.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Route {
    /// The responsible peer the route terminated at.
    pub destination: PeerId,
    /// Forwarding edges walked from the originator to the destination.
    edges: u64,
}

impl Route {
    /// Overlay messages consumed by this route (one per forwarding edge).
    pub fn messages(&self) -> u64 {
        self.edges
    }
}

/// A synchronous P-Grid overlay instance: topology + per-peer stores.
#[derive(Debug, Clone)]
pub struct Overlay<V> {
    views: Vec<PeerView>,
    /// Longest path among `views` (the tree depth). The views are
    /// built once, in [`Overlay::new`], and never change afterwards.
    max_path_len: usize,
    stores: Vec<Store<V>>,
    messages_sent: u64,
}

impl<V: Clone + PartialEq> Overlay<V> {
    /// Materialize the per-peer views and empty stores from a topology.
    pub fn new(topology: &Topology) -> Overlay<V> {
        let views: Vec<PeerView> = (0..topology.len())
            .map(|i| topology.view(PeerId::from_index(i)))
            .collect();
        let stores = (0..topology.len()).map(|_| Store::new()).collect();
        Overlay {
            max_path_len: views.iter().map(|v| v.path.len()).max().unwrap_or(0),
            views,
            stores,
            messages_sent: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.views.len()
    }

    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// The longest peer path: a route reads no more bits of a key.
    pub fn max_path_len(&self) -> usize {
        self.max_path_len
    }

    /// Total overlay messages consumed by all operations so far.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// Reset the message counter (per-experiment accounting).
    pub fn reset_messages(&mut self) {
        self.messages_sent = 0;
    }

    /// The view of one peer.
    pub fn view(&self, peer: PeerId) -> &PeerView {
        &self.views[peer.index()]
    }

    /// The local store of one peer (read-only; mutations go through
    /// [`Overlay::update`]).
    pub fn store(&self, peer: PeerId) -> &Store<V> {
        &self.stores[peer.index()]
    }

    /// Route `key` from `origin` to a responsible peer using greedy
    /// prefix routing over peer-local views only.
    pub fn route<R: Rng + ?Sized>(
        &mut self,
        origin: PeerId,
        key: &BitString,
        rng: &mut R,
    ) -> Result<Route, RouteError> {
        // Hop budget: the tree depth bounds legal routes; 2× + 8 allows
        // for replica indirection without masking real routing loops.
        let budget = 2 * self.max_path_len + 8;
        let mut current = origin;
        let mut edges = 0;
        loop {
            let view = &self.views[current.index()];
            match view.forwarding_level(key) {
                None => {
                    return Ok(Route {
                        destination: current,
                        edges,
                    });
                }
                Some(level) => {
                    let candidates = view.refs.get(level).map(Vec::as_slice).unwrap_or(&[]);
                    let Some(next) = candidates.choose(rng).copied() else {
                        return Err(RouteError::NoRoute {
                            at_peer: current,
                            level,
                        });
                    };
                    self.messages_sent += 1;
                    edges += 1;
                    if edges >= budget as u64 {
                        return Err(RouteError::TooManyHops { budget });
                    }
                    current = next;
                }
            }
        }
    }

    /// `Update(key, value)` issued at `origin`: route to the responsible
    /// peer, apply, and propagate to its replicas (one message each).
    pub fn update<R: Rng + ?Sized>(
        &mut self,
        origin: PeerId,
        op: UpdateOp,
        key: BitString,
        value: V,
        rng: &mut R,
    ) -> Result<Route, RouteError> {
        let route = self.route(origin, &key, rng)?;
        let dest = route.destination;
        self.stores[dest.index()].apply(op, key.clone(), value.clone());
        let replicas = self.views[dest.index()].replicas.clone();
        for r in replicas {
            self.messages_sent += 1;
            self.stores[r.index()].apply(op, key.clone(), value.clone());
        }
        Ok(route)
    }

    /// Route a batch of `Update`s issued at `origin` as one update tree
    /// and charge it, **without storing anything** — for callers that
    /// keep the destination-side state themselves (the mediation
    /// layer's per-peer databases). Prefix routing splits the batch
    /// where its keys part: a peer keeps the keys it is responsible
    /// for and sends each forwarding level's group on in one message to
    /// one reference at that level; a peer that keeps keys propagates
    /// them to each of its replicas in one message. Every edge enters a
    /// disjoint subtree, so each peer receives at most one message: a
    /// call charges at most `len() - 1`, one per peer but the origin.
    ///
    /// Returns each key's destination. A group that meets a hole (or
    /// the hop budget) fails its keys alone; the rest of the tree goes
    /// on, and what it cost stays charged. A batch of one key draws,
    /// lands and charges exactly as [`Overlay::update`].
    pub fn route_updates<R: Rng + ?Sized>(
        &mut self,
        origin: PeerId,
        keys: &[BitString],
        rng: &mut R,
    ) -> Vec<Result<PeerId, RouteError>> {
        let budget = 2 * self.max_path_len + 8;
        let mut out = vec![Ok(origin); keys.len()];
        // (peer, edges walked to reach it, the keys it received)
        let mut pending = vec![(origin, 0, (0..keys.len()).collect::<Vec<_>>())];
        while let Some((peer, edges, group)) = pending.pop() {
            let view = &self.views[peer.index()];
            let mut by_level = vec![Vec::new(); view.path.len()];
            let mut kept = false;
            for i in group {
                match view.forwarding_level(&keys[i]) {
                    None => {
                        out[i] = Ok(peer);
                        kept = true;
                    }
                    Some(level) => by_level[level].push(i),
                }
            }
            if kept {
                self.messages_sent += view.replicas.len() as u64;
            }
            for (level, group) in by_level.into_iter().enumerate() {
                if group.is_empty() {
                    continue;
                }
                let candidates = view.refs.get(level).map(Vec::as_slice).unwrap_or(&[]);
                let error = match candidates.choose(rng).copied() {
                    None => RouteError::NoRoute {
                        at_peer: peer,
                        level,
                    },
                    Some(next) => {
                        self.messages_sent += 1;
                        if edges + 1 < budget {
                            pending.push((next, edges + 1, group));
                            continue;
                        }
                        RouteError::TooManyHops { budget }
                    }
                };
                for i in group {
                    out[i] = Err(error.clone());
                }
            }
        }
        out
    }

    /// `Retrieve(key)` issued at `origin`: route and return the values
    /// stored under exactly `key`, plus the route taken (the response
    /// message back to the originator is charged too).
    pub fn retrieve<R: Rng + ?Sized>(
        &mut self,
        origin: PeerId,
        key: &BitString,
        rng: &mut R,
    ) -> Result<(Vec<V>, Route), RouteError> {
        let route = self.route(origin, key, rng)?;
        let values = self.stores[route.destination.index()].get(key).to_vec();
        if route.destination != origin {
            self.messages_sent += 1; // response message
        }
        Ok((values, route))
    }

    /// Charge one response message if the destination differs from the
    /// origin — the accounting a `Retrieve` adds on top of its route.
    /// Exposed so callers that answer a routed request from peer-local
    /// state (instead of shipping the stored values back through
    /// [`Overlay::retrieve`]) keep identical message counts.
    pub fn charge_response(&mut self, origin: PeerId, destination: PeerId) {
        if destination != origin {
            self.messages_sent += 1;
        }
    }

    /// Charge `n` messages for a *direct* exchange between two peers
    /// that bypasses prefix routing entirely — a request to an address
    /// the sender learned from an earlier reply, or a closure committed
    /// to the peer holding its schema's mapping list — so it pays per
    /// message exchanged rather than per routing hop.
    /// Local exchanges (`from == to`) are free, like everywhere else
    /// in the accounting.
    pub fn charge_direct(&mut self, from: PeerId, to: PeerId, n: u64) {
        if from != to {
            self.messages_sent += n;
        }
    }

    /// Distinct peer regions (paths) intersecting a key prefix — the
    /// replica groups a range scan must visit, sorted. A range read
    /// probes each region with one routed request and evaluates at the
    /// peer it lands on.
    pub fn range_regions(&self, prefix: &BitString) -> Vec<BitString> {
        let mut regions: Vec<BitString> = Vec::new();
        for v in &self.views {
            let intersects = prefix.is_prefix_of(&v.path) || v.path.is_prefix_of(prefix);
            if intersects && !regions.contains(&v.path) {
                regions.push(v.path.clone());
            }
        }
        regions.sort();
        regions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{KeyHasher, OrderPreservingHash};
    use crate::topology::Topology;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    fn overlay(n: usize) -> Overlay<String> {
        let mut r = rng();
        let topo = Topology::balanced(n, 2, &mut r);
        topo.validate().expect("valid");
        Overlay::new(&topo)
    }

    #[test]
    fn route_reaches_responsible_peer() {
        let mut o = overlay(64);
        let mut r = rng();
        let h = OrderPreservingHash::default();
        for word in ["alpha", "beta", "EMBL#Organism", "zeta", ""] {
            let key = h.hash(word, 24);
            let route = o.route(PeerId(0), &key, &mut r).expect("routable");
            assert!(o.view(route.destination).is_responsible(&key));
        }
    }

    #[test]
    fn route_from_responsible_peer_is_zero_hops() {
        let mut o = overlay(16);
        let mut r = rng();
        let path = o.view(PeerId(3)).path.clone();
        let mut key = path.clone();
        for _ in 0..8 {
            key.push(false);
        }
        let route = o.route(PeerId(3), &key, &mut r).expect("routable");
        assert_eq!(route.destination, PeerId(3));
        assert_eq!(route.messages(), 0);
    }

    #[test]
    fn routing_cost_is_logarithmic() {
        let mut r = rng();
        let h = OrderPreservingHash::default();
        let mut o: Overlay<u32> = Overlay::new(&Topology::balanced(256, 2, &mut r));
        let mut total_msgs = 0u64;
        let trials = 200;
        for i in 0..trials {
            let key = h.hash(&format!("key-{i}"), 24);
            let origin = PeerId::from_index((i * 37) % 256);
            let route = o.route(origin, &key, &mut r).expect("routable");
            total_msgs += route.messages();
        }
        let mean = total_msgs as f64 / trials as f64;
        // depth = 8; expected hops ≈ half the depth; must be well below n.
        assert!(mean <= 8.5, "mean hops {mean} exceeds depth bound");
        assert!(mean >= 1.0, "routing suspiciously free: {mean}");
    }

    #[test]
    fn update_then_retrieve_round_trips() {
        let mut o = overlay(32);
        let mut r = rng();
        let h = OrderPreservingHash::default();
        let key = h.hash("swissprot:P12345", 24);
        o.update(
            PeerId(1),
            UpdateOp::Insert,
            key.clone(),
            "record".to_string(),
            &mut r,
        )
        .expect("update ok");
        let (values, _) = o.retrieve(PeerId(30), &key, &mut r).expect("retrieve ok");
        assert_eq!(values, vec!["record".to_string()]);
    }

    #[test]
    fn update_replicates_to_sigma() {
        // 12 peers at depth 3: paths 000..011 get two peers each.
        let mut r = rng();
        let topo = Topology::balanced(12, 2, &mut r);
        let mut o: Overlay<&str> = Overlay::new(&topo);
        let key = BitString::parse("0000000");
        o.update(PeerId(5), UpdateOp::Insert, key.clone(), "x", &mut r)
            .expect("update ok");
        let holders: Vec<usize> = (0..12)
            .filter(|i| !o.store(PeerId::from_index(*i)).is_empty())
            .collect();
        assert_eq!(holders.len(), 2, "item should live on both replicas");
        for i in holders {
            assert_eq!(o.store(PeerId::from_index(i)).get(&key), &["x"]);
        }
    }

    #[test]
    fn a_batch_of_one_key_routes_like_update_but_stores_nothing() {
        // Two identically seeded overlays: `update` and a one-key
        // `route_updates` must draw, land and charge alike; only the
        // bucket write differs.
        let mut r1 = rng();
        let mut r2 = rng();
        let topo = Topology::balanced(24, 2, &mut rng());
        let mut stored: Overlay<&str> = Overlay::new(&topo);
        let mut routed: Overlay<&str> = Overlay::new(&topo);
        let h = OrderPreservingHash::default();
        for word in ["alpha", "beta", "gamma", "delta"] {
            let key = h.hash(word, 24);
            let a = stored
                .update(PeerId(5), UpdateOp::Insert, key.clone(), "x", &mut r1)
                .unwrap();
            let b = routed.route_updates(PeerId(5), &[key], &mut r2);
            assert_eq!(b, [Ok(a.destination)]);
            assert_eq!(stored.messages_sent(), routed.messages_sent());
        }
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "the same draws");
        assert!((0..24).all(|i| routed.store(PeerId::from_index(i)).is_empty()));
        assert!((0..24).any(|i| !stored.store(PeerId::from_index(i)).is_empty()));
    }

    #[test]
    fn delete_removes_everywhere() {
        let mut r = rng();
        let topo = Topology::balanced(12, 2, &mut r);
        let mut o: Overlay<&str> = Overlay::new(&topo);
        let key = BitString::parse("0000000");
        o.update(PeerId(0), UpdateOp::Insert, key.clone(), "x", &mut r)
            .unwrap();
        o.update(PeerId(7), UpdateOp::Delete, key.clone(), "x", &mut r)
            .unwrap();
        assert!((0..12).all(|i| o.store(PeerId::from_index(i)).is_empty()));
    }

    #[test]
    fn message_accounting_counts_request_and_response() {
        let mut o = overlay(16);
        let mut r = rng();
        o.reset_messages();
        let key = BitString::parse("111100001111");
        let before = o.messages_sent();
        let (_, route) = o.retrieve(PeerId(0), &key, &mut r).unwrap();
        let after = o.messages_sent();
        if route.destination == PeerId(0) {
            assert_eq!(after - before, 0);
        } else {
            assert_eq!(after - before, route.messages() + 1);
        }
    }

    #[test]
    fn missing_key_returns_empty_not_error() {
        let mut o = overlay(8);
        let mut r = rng();
        let (values, _) = o
            .retrieve(PeerId(2), &BitString::parse("10101010"), &mut r)
            .unwrap();
        assert!(values.is_empty());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::hash::HashKind;
    use crate::topology::Topology;
    use proptest::prelude::*;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever the network size and key, routing from any origin
        /// terminates at a peer responsible for the key, within the
        /// depth bound.
        #[test]
        fn routing_always_terminates_correctly(
            n in 1usize..300,
            seed in 0u64..30,
            word in "[ -~]{0,16}",
            kind in prop_oneof![Just(HashKind::OrderPreserving), Just(HashKind::Uniform)],
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let topo = Topology::balanced(n, 2, &mut rng);
            let mut o: Overlay<u8> = Overlay::new(&topo);
            let key = kind.build().hash(&word, 24);
            let origin = PeerId::from_index(seed as usize % n);
            let route = o.route(origin, &key, &mut rng).expect("balanced grid always routes");
            prop_assert!(o.view(route.destination).is_responsible(&key));
            prop_assert!(route.messages() as usize <= topo.depth() + 1);
        }

        /// An update tree delivers every key to a peer responsible for
        /// it, and one call charges at most one message per peer other
        /// than the origin, σ replicas included.
        #[test]
        fn an_update_tree_reaches_every_key_within_one_message_per_peer(
            n in prop_oneof![Just(12usize), Just(64usize), Just(340usize)],
            seed in 0u64..30,
            words in proptest::collection::vec("[ -~]{0,12}", 0..300),
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let topo = Topology::balanced(n, 2, &mut rng);
            let mut o: Overlay<u8> = Overlay::new(&topo);
            let h = HashKind::Uniform.build();
            let keys: Vec<BitString> = words.iter().map(|w| h.hash(w, 24)).collect();
            let origin = PeerId::from_index(seed as usize % n);
            let out = o.route_updates(origin, &keys, &mut rng);
            for (key, dest) in keys.iter().zip(&out) {
                let dest = dest.clone().expect("a balanced grid always routes");
                prop_assert!(o.view(dest).is_responsible(key));
            }
            prop_assert!(o.messages_sent() < n as u64);
        }

        /// Insert/retrieve round-trips for arbitrary words across sizes.
        #[test]
        fn store_round_trip(n in 1usize..128, seed in 0u64..20, words in proptest::collection::vec("[a-z]{1,10}", 1..20)) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let topo = Topology::balanced(n, 2, &mut rng);
            let mut o: Overlay<String> = Overlay::new(&topo);
            let h = HashKind::OrderPreserving.build();
            for w in &words {
                let key = h.hash(w, 24);
                o.update(PeerId(0), UpdateOp::Insert, key, w.clone(), &mut rng).expect("update");
            }
            for w in &words {
                let key = h.hash(w, 24);
                let (values, _) = o.retrieve(PeerId::from_index(n / 2), &key, &mut rng).expect("retrieve");
                prop_assert!(values.contains(w), "lost {w}");
            }
        }
    }
}
