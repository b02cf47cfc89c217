//! Mediation-layer items and their overlay keys.
//!
//! Everything GridVine shares lives in the DHT (§2.2–§3.1):
//!
//! * a **triple** is indexed three times — `Update(Hash(s), t)`,
//!   `Update(Hash(p), t)`, `Update(Hash(o), t)`;
//! * a **schema** at `Hash(Schema Name)`;
//! * a **mapping** at the source schema's key space — "or at the key
//!   spaces corresponding to both schemas if the mapping is
//!   bidirectional" (§3); we also place a lightweight record at the
//!   target of one-way mappings so the target peer can maintain its
//!   in-degree for the §3.1 statistics (see the root `README.md`);
//! * a **connectivity record** at `Hash(Domain)`.

use gridvine_pgrid::{BitString, KeyHasher, PeerId};
use gridvine_rdf::{Triple, TripleStore};
use gridvine_semantic::{DegreeRecord, Mapping, MappingKind, Schema};
use serde::{Deserialize, Serialize};

/// A value stored in the overlay by the mediation layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MediationItem {
    /// A triple as an overlay value. Neither engine stores it: both
    /// `GridVineSystem` and the WAN `Deployment` keep triples in the
    /// responsible peers' indexed `DB_p` only and resolve a data
    /// retrieve there. The variant remains for callers that push
    /// triples through the generic-payload overlay — the
    /// message-level churn tests and examples, and the benchmark's
    /// `pgrid.update_ns` replay.
    Triple(Triple),
    Schema(Schema),
    /// A mapping stored at one of its schema key spaces; `at_source`
    /// says which role this copy plays.
    Mapping {
        mapping: Mapping,
        at_source: bool,
    },
    Connectivity(DegreeRecord),
}

/// Derives overlay keys for mediation items using the configured hash.
pub struct KeySpace<'a> {
    hasher: &'a (dyn KeyHasher + Send + Sync),
    depth: usize,
}

impl<'a> KeySpace<'a> {
    pub fn new(hasher: &'a (dyn KeyHasher + Send + Sync), depth: usize) -> KeySpace<'a> {
        assert!(depth > 0, "key depth must be positive");
        KeySpace { hasher, depth }
    }

    /// Key of an arbitrary lexical value.
    pub fn key_of(&self, lexical: &str) -> BitString {
        self.hasher.hash(lexical, self.depth)
    }

    /// The three index keys of a triple (subject, predicate, object).
    pub fn triple_keys(&self, t: &Triple) -> [BitString; 3] {
        [
            self.key_of(t.subject.as_str()),
            self.key_of(t.predicate.as_str()),
            self.key_of(t.object.lexical()),
        ]
    }

    /// Key a schema definition lives under.
    pub fn schema_key(&self, schema: &Schema) -> BitString {
        self.key_of(schema.id().as_str())
    }

    /// Keys a mapping is stored under: always the source schema key;
    /// bidirectional (equivalence) mappings and in-degree records also
    /// at the target.
    pub fn mapping_keys(&self, m: &Mapping) -> Vec<(BitString, bool)> {
        let mut keys = vec![(self.key_of(m.source.as_str()), true)];
        if m.kind == MappingKind::Equivalence {
            // §3: "at the key spaces corresponding to both schemas if the
            // mapping is bidirectional"; one-way subsumption mappings are
            // only discoverable from their source schema.
            keys.push((self.key_of(m.target.as_str()), false));
        }
        keys
    }

    /// Key of the domain connectivity aggregation.
    pub fn domain_key(&self, domain: &str) -> BitString {
        self.key_of(domain)
    }

    /// The bit prefix covering *every* key of a lexical value starting
    /// with `prefix` — the primitive behind `Aspergillus%`-style range
    /// searches. Only meaningful under the order-preserving hash: it is
    /// the common prefix of the hashes of the interval endpoints
    /// `[prefix, prefix·0x7F…)`.
    pub fn prefix_key(&self, prefix: &str) -> BitString {
        let lo = self.hasher.hash(prefix, self.depth);
        let mut upper = String::with_capacity(prefix.len() + 16);
        upper.push_str(prefix);
        for _ in 0..16 {
            upper.push('\u{7e}'); // '~': top of the printable alphabet
        }
        let hi = self.hasher.hash(&upper, self.depth);
        lo.prefix(lo.common_prefix_len(&hi))
    }
}

/// The copies `Update(t)` places, on their way into the peers' `DB_p`s:
/// both engines decide *who* stores a triple (the synchronous system
/// by a call's update tree, the WAN deployment from the topology), stage
/// the copies here, and [`TripleStage::flush`] bulk-loads every touched
/// peer once. What is staged costs what is staged — nothing here is
/// sized by the peer count, so a stage of one triple is cheap.
#[derive(Default)]
pub(crate) struct TripleStage {
    triples: Vec<Triple>,
    /// One `(peer, index into triples)` per staged copy.
    copies: Vec<(PeerId, u32)>,
}

impl TripleStage {
    /// Stage a copy of `t` for each of `holders`, returning how many. A
    /// peer named twice (two of the triple's keys are its own) is staged
    /// twice; its store keeps one row.
    pub(crate) fn push(&mut self, t: Triple, holders: impl IntoIterator<Item = PeerId>) -> usize {
        let index = u32::try_from(self.triples.len()).expect("fewer than 2^32 staged triples");
        self.triples.push(t);
        let before = self.copies.len();
        self.copies
            .extend(holders.into_iter().map(|peer| (peer, index)));
        self.copies.len() - before
    }

    /// Load what is staged — one [`TripleStore::insert_batch`] per
    /// touched peer, its copies in the order they were staged, so each
    /// `DB_p` ends with the rows, under the row ids, that storing every
    /// copy on arrival would have given it — and empty the stage.
    /// Returns the peers that gained a row they did not hold.
    pub(crate) fn flush(&mut self, dbs: &mut [TripleStore]) -> Vec<PeerId> {
        // Indexes ascend in staging order, so sorting the pairs groups
        // them by peer and keeps each group in arrival order.
        self.copies.sort_unstable();
        let gained = self
            .copies
            .chunk_by(|a, b| a.0 == b.0)
            .filter_map(|group| {
                let peer = group[0].0;
                let batch = group.iter().map(|&(_, i)| self.triples[i as usize].clone());
                (dbs[peer.index()].insert_batch(batch) > 0).then_some(peer)
            })
            .collect();
        self.triples.clear();
        self.copies.clear();
        gained
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gridvine_pgrid::OrderPreservingHash;
    use gridvine_rdf::Term;
    use gridvine_semantic::{Correspondence, MappingId, Provenance};

    fn keyspace(h: &OrderPreservingHash) -> KeySpace<'_> {
        KeySpace::new(h, 24)
    }

    #[test]
    fn triple_indexed_three_times() {
        let h = OrderPreservingHash::default();
        let ks = keyspace(&h);
        let t = Triple::new(
            "seq:P1",
            "EMBL#Organism",
            Term::literal("Aspergillus niger"),
        );
        let [s, p, o] = ks.triple_keys(&t);
        assert_eq!(s.len(), 24);
        assert_ne!(s, p);
        assert_ne!(p, o);
        // Keys derive from lexical values only.
        assert_eq!(s, ks.key_of("seq:P1"));
        assert_eq!(p, ks.key_of("EMBL#Organism"));
        assert_eq!(o, ks.key_of("Aspergillus niger"));
    }

    #[test]
    fn mapping_stored_at_both_schema_keys() {
        let h = OrderPreservingHash::default();
        let ks = keyspace(&h);
        let m = Mapping::new(
            MappingId(0),
            "EMBL",
            "EMP",
            MappingKind::Equivalence,
            Provenance::Manual,
            vec![Correspondence::new("Organism", "SystematicName")],
        );
        let keys = ks.mapping_keys(&m);
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0], (ks.key_of("EMBL"), true));
        assert_eq!(keys[1], (ks.key_of("EMP"), false));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_depth_rejected() {
        let h = OrderPreservingHash::default();
        let _ = KeySpace::new(&h, 0);
    }

    #[test]
    fn prefix_key_covers_all_extensions() {
        let h = OrderPreservingHash::default();
        let ks = KeySpace::new(&h, 32);
        let p = ks.prefix_key("Aspergillus");
        assert!(!p.is_empty(), "a long prefix pins many bits");
        for s in [
            "Aspergillus",
            "Aspergillus niger",
            "Aspergillus oryzae var. brunneus",
        ] {
            assert!(
                p.is_prefix_of(&ks.key_of(s)),
                "{s} must hash under the prefix region"
            );
        }
        // And excludes non-matching values.
        assert!(!p.is_prefix_of(&ks.key_of("Penicillium")));
    }

    #[test]
    fn prefix_key_narrows_with_longer_prefixes() {
        let h = OrderPreservingHash::default();
        let ks = KeySpace::new(&h, 48);
        let short = ks.prefix_key("As");
        let long = ks.prefix_key("Aspergillus");
        assert!(short.len() < long.len());
        assert!(short.is_prefix_of(&long));
    }
}

#[cfg(test)]
mod prefix_proptests {
    use super::*;
    use gridvine_pgrid::OrderPreservingHash;
    use proptest::prelude::*;

    proptest! {
        /// Every extension of a prefix hashes inside the prefix region.
        #[test]
        fn prefix_region_sound(prefix in "[A-Za-z]{1,8}", suffix in "[A-Za-z ]{0,10}") {
            let h = OrderPreservingHash::default();
            let ks = KeySpace::new(&h, 48);
            let region = ks.prefix_key(&prefix);
            let full = format!("{prefix}{suffix}");
            prop_assert!(region.is_prefix_of(&ks.key_of(&full)),
                "{} outside region of {}", full, prefix);
        }
    }
}
