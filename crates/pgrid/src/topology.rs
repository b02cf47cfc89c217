//! The logical P-Grid trie: peer paths, replica sets and routing tables.
//!
//! A [`Topology`] is the global view of a constructed P-Grid network —
//! which peer owns which path π(p), who replicates whom (σ(p)), and which
//! routing references each peer holds at each level of its path. Real
//! peers only ever see their own slice ([`Topology::view`]); the global
//! object exists so tests and experiments can validate invariants and
//! compute ground truth.
//!
//! Invariants (checked by [`Topology::validate`]):
//!
//! * every peer has a path; the set of **distinct** paths is prefix-free
//!   (no path is a proper prefix of another), and
//! * the distinct paths cover the whole key space: Σ 2^(−|π|) = 1, so
//!   every key has exactly one responsible path;
//! * every replica set contains every peer with that path;
//! * a routing reference of peer `p` at level `l` points to a peer whose
//!   path agrees with π(p) on the first `l` bits and differs at bit `l`.

use crate::bits::BitString;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Logical peer identifier; dense, convertible to a `netsim` node index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PeerId(pub u32);

impl PeerId {
    #[inline]
    pub fn from_index(i: usize) -> PeerId {
        PeerId(u32::try_from(i).expect("peer index fits in u32"))
    }

    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// Errors detected by [`Topology::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// Two distinct paths where one is a prefix of the other.
    PrefixOverlap {
        shorter: BitString,
        longer: BitString,
    },
    /// The distinct paths do not cover the key space.
    IncompleteCoverage {
        covered_fraction_num: u64,
        covered_fraction_den: u64,
    },
    /// A routing reference violates the level agreement rule.
    BadReference {
        peer: PeerId,
        level: usize,
        target: PeerId,
    },
    /// A replica set disagrees with path equality.
    BadReplicaSet { peer: PeerId },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::PrefixOverlap { shorter, longer } => {
                write!(f, "path {shorter} is a prefix of path {longer}")
            }
            TopologyError::IncompleteCoverage {
                covered_fraction_num,
                covered_fraction_den,
            } => write!(
                f,
                "paths cover {covered_fraction_num}/{covered_fraction_den} of the key space"
            ),
            TopologyError::BadReference {
                peer,
                level,
                target,
            } => {
                write!(
                    f,
                    "peer {peer} level-{level} reference to {target} is invalid"
                )
            }
            TopologyError::BadReplicaSet { peer } => {
                write!(f, "replica set of {peer} is inconsistent")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A peer's private view of the overlay: its path, replicas and routing
/// references — everything the routing algorithm may legally consult.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PeerView {
    pub id: PeerId,
    pub path: BitString,
    /// σ(p): other peers with the same path.
    pub replicas: Vec<PeerId>,
    /// `refs[l]`: peers on the other side of the tree at level `l`
    /// (their paths agree with ours on `l` bits and differ at bit `l`).
    pub refs: Vec<Vec<PeerId>>,
}

impl PeerView {
    /// Whether this peer is responsible for `key`.
    pub fn is_responsible(&self, key: &BitString) -> bool {
        self.path.is_prefix_of(key)
    }

    /// Greedy prefix-routing decision for `key`: `None` when this peer is
    /// responsible, otherwise the candidate references to forward to.
    pub fn forwarding_level(&self, key: &BitString) -> Option<usize> {
        if self.is_responsible(key) {
            return None;
        }
        Some(self.path.common_prefix_len(key))
    }

    /// Candidates for forwarding a message about `key`, or an empty slice
    /// when the routing table has a hole at the needed level.
    pub fn candidates(&self, key: &BitString) -> &[PeerId] {
        match self.forwarding_level(key) {
            None => &[],
            Some(l) => self.refs.get(l).map(Vec::as_slice).unwrap_or(&[]),
        }
    }
}

/// Global view of a constructed P-Grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    paths: Vec<BitString>,
    /// peers per distinct path, i.e. the replica sets keyed by path.
    groups: BTreeMap<BitString, Vec<PeerId>>,
    /// routing[peer][level] = referenced peers on the other side.
    routing: Vec<Vec<Vec<PeerId>>>,
}

impl Topology {
    /// Build a balanced P-Grid over `n` peers with paths of depth
    /// ⌊log₂ n⌋ and `refs_per_level` sampled references per level.
    ///
    /// With `n` not a power of two, the surplus peers become replicas,
    /// mirroring how a real P-Grid absorbs population growth.
    ///
    /// # Panics
    /// Panics if `n == 0` or `refs_per_level == 0`.
    pub fn balanced<R: Rng + ?Sized>(n: usize, refs_per_level: usize, rng: &mut R) -> Topology {
        assert!(n > 0, "need at least one peer");
        assert!(refs_per_level > 0, "need at least one reference per level");
        let depth = if n <= 1 { 0 } else { n.ilog2() as usize };
        let leaves = 1usize << depth;
        let paths: Vec<BitString> = (0..n)
            .map(|i| BitString::from_u64((i % leaves) as u64, depth))
            .collect();
        Topology::from_paths(paths, refs_per_level, rng)
    }

    /// Build from explicit per-peer paths (used by the construction
    /// algorithm and by data-adapted topologies).
    pub fn from_paths<R: Rng + ?Sized>(
        paths: Vec<BitString>,
        refs_per_level: usize,
        rng: &mut R,
    ) -> Topology {
        let mut groups: BTreeMap<BitString, Vec<PeerId>> = BTreeMap::new();
        for (i, p) in paths.iter().enumerate() {
            groups
                .entry(p.clone())
                .or_default()
                .push(PeerId::from_index(i));
        }
        let mut topo = Topology {
            paths,
            groups,
            routing: Vec::new(),
        };
        topo.rebuild_routing(refs_per_level, rng);
        topo
    }

    /// Build a data-adapted (possibly unbalanced) trie: split any region
    /// holding more than `max_load` of the given keys, then spread the
    /// `n` peers over the resulting leaf regions proportionally to load.
    /// This models P-Grid's storage load balancing (§2 "index
    /// load-balancing").
    pub fn adapted<R: Rng + ?Sized>(
        keys: &[BitString],
        n: usize,
        max_load: usize,
        max_depth: usize,
        refs_per_level: usize,
        rng: &mut R,
    ) -> Topology {
        assert!(n > 0 && max_load > 0);
        // Recursively split the key space on load.
        let mut leaves: Vec<(BitString, usize)> = Vec::new();
        let mut stack = vec![BitString::empty()];
        while let Some(region) = stack.pop() {
            let load = keys.iter().filter(|k| region.is_prefix_of(k)).count();
            if load > max_load && region.len() < max_depth {
                stack.push(region.child(false));
                stack.push(region.child(true));
            } else {
                leaves.push((region, load));
            }
        }
        leaves.sort_by(|a, b| a.0.cmp(&b.0));
        // Assign peers to leaves proportionally to load (every leaf gets
        // at least one peer so coverage stays complete).
        let total_load: usize = leaves.iter().map(|(_, l)| l.max(&1)).sum();
        let mut assignment: Vec<BitString> = Vec::with_capacity(n);
        let mut counts: Vec<usize> = leaves
            .iter()
            .map(|(_, l)| ((*l).max(1) * n / total_load).max(1))
            .collect();
        // Adjust rounding drift.
        while counts.iter().sum::<usize>() > n.max(leaves.len()) {
            let i = counts
                .iter()
                .enumerate()
                .max_by_key(|(_, c)| **c)
                .map(|(i, _)| i)
                .expect("non-empty");
            if counts[i] > 1 {
                counts[i] -= 1;
            } else {
                break;
            }
        }
        while counts.iter().sum::<usize>() < n {
            let i = counts
                .iter()
                .enumerate()
                .min_by_key(|(_, c)| **c)
                .map(|(i, _)| i)
                .expect("non-empty");
            counts[i] += 1;
        }
        for ((path, _), c) in leaves.iter().zip(&counts) {
            for _ in 0..*c {
                assignment.push(path.clone());
            }
        }
        assignment.truncate(n.max(leaves.len()));
        Topology::from_paths(assignment, refs_per_level, rng)
    }

    /// Build from explicit paths *and* explicit routing tables — a trie
    /// with hand-made routing holes, say. Illegal references (wrong side,
    /// wrong level) are dropped rather than trusted.
    pub fn from_paths_and_routing(
        paths: Vec<BitString>,
        routing: Vec<Vec<Vec<PeerId>>>,
    ) -> Topology {
        assert_eq!(paths.len(), routing.len(), "one routing table per peer");
        let mut groups: BTreeMap<BitString, Vec<PeerId>> = BTreeMap::new();
        for (i, p) in paths.iter().enumerate() {
            groups
                .entry(p.clone())
                .or_default()
                .push(PeerId::from_index(i));
        }
        let mut sanitized = Vec::with_capacity(routing.len());
        for (i, levels) in routing.into_iter().enumerate() {
            let path = &paths[i];
            let mut clean: Vec<Vec<PeerId>> = vec![Vec::new(); path.len()];
            for (l, refs) in levels.into_iter().enumerate().take(path.len()) {
                let sib = path.sibling_at(l);
                for r in refs {
                    let tp = &paths[r.index()];
                    if (sib.is_prefix_of(tp) || tp.is_prefix_of(&sib)) && !clean[l].contains(&r) {
                        clean[l].push(r);
                    }
                }
            }
            sanitized.push(clean);
        }
        Topology {
            paths,
            groups,
            routing: sanitized,
        }
    }

    /// Re-sample all routing tables with `refs_per_level` entries per
    /// level.
    fn rebuild_routing<R: Rng + ?Sized>(&mut self, refs_per_level: usize, rng: &mut R) {
        let n = self.paths.len();
        let mut routing = Vec::with_capacity(n);
        let mut pool: Vec<PeerId> = Vec::new();
        for i in 0..n {
            let path = &self.paths[i];
            let mut levels = Vec::with_capacity(path.len());
            for l in 0..path.len() {
                let sibling = path.sibling_at(l);
                // Peers whose path starts with (or is a prefix of) the
                // sibling region.
                pool.clear();
                pool.extend(
                    self.groups
                        .iter()
                        .filter(|(p, _)| sibling.is_prefix_of(p) || p.is_prefix_of(&sibling))
                        .flat_map(|(_, peers)| peers.iter().copied()),
                );
                pool.shuffle(rng);
                // A copy of the kept prefix: the region's buffer holds up
                // to n/2 slots, a level keeps `refs_per_level`.
                levels.push(pool[..pool.len().min(refs_per_level)].to_vec());
            }
            routing.push(levels);
        }
        self.routing = routing;
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.paths.len()
    }

    pub fn is_empty(&self) -> bool {
        self.paths.is_empty()
    }

    /// Path of a peer.
    pub fn path(&self, peer: PeerId) -> &BitString {
        &self.paths[peer.index()]
    }

    /// Maximum path depth in the network (|Π| in the paper's O(log |Π|)).
    pub fn depth(&self) -> usize {
        self.paths.iter().map(BitString::len).max().unwrap_or(0)
    }

    /// Distinct paths with their replica groups.
    pub fn groups(&self) -> impl Iterator<Item = (&BitString, &[PeerId])> {
        self.groups.iter().map(|(p, g)| (p, g.as_slice()))
    }

    /// All peers responsible for `key` (the replica set of the covering
    /// path); empty only if coverage is incomplete.
    pub fn responsible(&self, key: &BitString) -> &[PeerId] {
        self.groups
            .iter()
            .find(|(p, _)| p.is_prefix_of(key))
            .map(|(_, g)| g.as_slice())
            .unwrap_or(&[])
    }

    /// A peer's private view (path + replicas + routing refs).
    pub fn view(&self, peer: PeerId) -> PeerView {
        let path = self.paths[peer.index()].clone();
        let replicas = self
            .groups
            .get(&path)
            .map(|g| g.iter().copied().filter(|p| *p != peer).collect())
            .unwrap_or_default();
        PeerView {
            id: peer,
            path,
            replicas,
            refs: self.routing[peer.index()].clone(),
        }
    }

    /// Check all structural invariants.
    pub fn validate(&self) -> Result<(), TopologyError> {
        // Prefix-freeness of distinct paths.
        let distinct: Vec<&BitString> = self.groups.keys().collect();
        for (i, a) in distinct.iter().enumerate() {
            for b in distinct.iter().skip(i + 1) {
                if a.is_prefix_of(b) {
                    return Err(TopologyError::PrefixOverlap {
                        shorter: (*a).clone(),
                        longer: (*b).clone(),
                    });
                }
                if b.is_prefix_of(a) {
                    return Err(TopologyError::PrefixOverlap {
                        shorter: (*b).clone(),
                        longer: (*a).clone(),
                    });
                }
            }
        }
        // Coverage: Σ 2^(depth - |π|) over distinct paths must be 2^depth.
        let depth = self.depth();
        if depth <= 63 {
            let den: u64 = 1u64 << depth;
            let num: u64 = distinct.iter().map(|p| 1u64 << (depth - p.len())).sum();
            if num != den {
                return Err(TopologyError::IncompleteCoverage {
                    covered_fraction_num: num,
                    covered_fraction_den: den,
                });
            }
        }
        // Routing reference legality.
        for (i, levels) in self.routing.iter().enumerate() {
            let peer = PeerId::from_index(i);
            let path = &self.paths[i];
            for (l, refs) in levels.iter().enumerate() {
                for target in refs {
                    let tp = &self.paths[target.index()];
                    let sib = path.sibling_at(l);
                    if !(sib.is_prefix_of(tp) || tp.is_prefix_of(&sib)) {
                        return Err(TopologyError::BadReference {
                            peer,
                            level: l,
                            target: *target,
                        });
                    }
                }
            }
        }
        // Replica sets.
        for (path, group) in &self.groups {
            for p in group {
                if &self.paths[p.index()] != path {
                    return Err(TopologyError::BadReplicaSet { peer: *p });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn balanced_power_of_two_has_one_peer_per_leaf() {
        let t = Topology::balanced(8, 2, &mut rng());
        assert_eq!(t.len(), 8);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.groups().count(), 8);
        t.validate().expect("valid topology");
    }

    #[test]
    fn balanced_non_power_of_two_creates_replicas() {
        let t = Topology::balanced(11, 2, &mut rng());
        assert_eq!(t.len(), 11);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.groups().count(), 8);
        let replicated: usize = t.groups().filter(|(_, g)| g.len() > 1).count();
        assert_eq!(replicated, 3);
        t.validate().expect("valid topology");
    }

    #[test]
    fn single_peer_owns_everything() {
        let t = Topology::balanced(1, 1, &mut rng());
        assert_eq!(t.depth(), 0);
        let key = BitString::parse("010101");
        assert_eq!(t.responsible(&key), &[PeerId(0)]);
        t.validate().expect("valid topology");
    }

    #[test]
    fn responsible_matches_prefix() {
        let t = Topology::balanced(16, 2, &mut rng());
        let key = BitString::parse("01100110");
        let peers = t.responsible(&key);
        assert!(!peers.is_empty());
        for p in peers {
            assert!(t.path(*p).is_prefix_of(&key));
        }
    }

    #[test]
    fn views_have_legal_references() {
        let t = Topology::balanced(32, 3, &mut rng());
        for i in 0..32 {
            let v = t.view(PeerId::from_index(i));
            assert_eq!(v.refs.len(), v.path.len());
            for (l, refs) in v.refs.iter().enumerate() {
                assert!(!refs.is_empty(), "level {l} of peer {i} is empty");
                for r in refs {
                    let tp = t.path(*r);
                    assert_eq!(v.path.common_prefix_len(tp), l);
                }
            }
        }
    }

    #[test]
    fn routing_levels_hold_no_more_than_refs_per_level() {
        // Level 0's sibling region is half the network: a level must not
        // keep that region's buffer behind its few references.
        let mut t = Topology::balanced(256, 3, &mut rng());
        for refs_per_level in [3, 1] {
            for (i, levels) in t.routing.iter().enumerate() {
                for (l, refs) in levels.iter().enumerate() {
                    assert!(
                        refs.capacity() <= refs_per_level,
                        "peer {i} level {l}: capacity {} for {} refs",
                        refs.capacity(),
                        refs.len()
                    );
                }
            }
            t.rebuild_routing(1, &mut rng());
        }
    }

    #[test]
    fn view_replicas_exclude_self() {
        let t = Topology::balanced(12, 2, &mut rng());
        for i in 0..12 {
            let v = t.view(PeerId::from_index(i));
            assert!(!v.replicas.contains(&v.id));
        }
    }

    #[test]
    fn candidates_empty_when_responsible() {
        let t = Topology::balanced(8, 2, &mut rng());
        let v = t.view(PeerId(0));
        let mut own_key = v.path.clone();
        own_key.push(true);
        assert!(v.is_responsible(&own_key));
        assert!(v.candidates(&own_key).is_empty());
        assert_eq!(v.forwarding_level(&own_key), None);
    }

    #[test]
    fn adapted_splits_hot_regions() {
        // 90 % of keys start with 1, spread uniformly within each side:
        // the 1-side should need deeper splits.
        let mut keys = Vec::new();
        for i in 0..900u64 {
            keys.push(BitString::from_u64((1 << 15) | ((i * 36) & 0x7FFF), 16));
        }
        for i in 0..100u64 {
            keys.push(BitString::from_u64((i * 327) & 0x7FFF, 16));
        }
        let t = Topology::adapted(&keys, 64, 50, 12, 2, &mut rng());
        t.validate().expect("valid adapted topology");
        let depth_of = |prefix: &str| {
            t.groups()
                .filter(|(p, _)| BitString::parse(prefix).is_prefix_of(p))
                .map(|(p, _)| p.len())
                .max()
                .unwrap_or(0)
        };
        assert!(
            depth_of("1") > depth_of("0"),
            "hot side should split deeper: {} vs {}",
            depth_of("1"),
            depth_of("0")
        );
    }

    #[test]
    fn validate_catches_prefix_overlap() {
        let paths = vec![BitString::parse("0"), BitString::parse("01")];
        let t = Topology::from_paths(paths, 1, &mut rng());
        assert!(matches!(
            t.validate(),
            Err(TopologyError::PrefixOverlap { .. })
        ));
    }

    #[test]
    fn validate_catches_incomplete_coverage() {
        let paths = vec![BitString::parse("00"), BitString::parse("01")];
        let t = Topology::from_paths(paths, 1, &mut rng());
        assert!(matches!(
            t.validate(),
            Err(TopologyError::IncompleteCoverage { .. })
        ));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    proptest! {
        /// Balanced topologies of any size validate and give every key a
        /// responsible replica group.
        #[test]
        fn balanced_always_valid(n in 1usize..200, seed in 0u64..50, key_bits in "[01]{20}") {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let t = Topology::balanced(n, 2, &mut rng);
            prop_assert!(t.validate().is_ok());
            let key = BitString::parse(&key_bits);
            prop_assert!(!t.responsible(&key).is_empty());
        }

        /// Every peer is in the replica group of its own path.
        #[test]
        fn groups_partition_peers(n in 1usize..100, seed in 0u64..20) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let t = Topology::balanced(n, 2, &mut rng);
            let total: usize = t.groups().map(|(_, g)| g.len()).sum();
            prop_assert_eq!(total, n);
        }
    }
}
