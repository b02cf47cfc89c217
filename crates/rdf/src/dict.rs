//! The interned term dictionary: lexical values ⇄ dense [`TermId`]s.
//!
//! Every distinct lexical form (URI text or literal text) that enters a
//! [`crate::TripleStore`] is interned exactly once and addressed by a
//! dense `u32` id from then on. Triples are stored as id columns, the
//! store's indexes are keyed by id, and selections/joins compare ids —
//! string bytes are only touched at ingest (one hash of the lexical) and
//! at the result boundary (materializing terms for the caller).
//!
//! A [`TermDict`] is one open-addressed table of 8-byte `(tag, id)`
//! slots over one id→string column: ids are issued densely from 0 in
//! first-seen order, so resolving is one array access and an array
//! directly indexed by id needs exactly [`TermDict::len`] entries.
//! Interning is sequential — a store is loaded by the one thread that
//! owns it.
//!
//! The string data itself lives in reference-counted `Arc<str>` buffers
//! shared between the id→string column, the sorted per-position key
//! indexes and other dictionaries, so each distinct lexical is stored
//! once regardless of how many rows, indexes or stores reference it.
//! [`TermDict::canonical_triple`] is how the peer stores hosted in one
//! process come to share them: a system keeps one dictionary as its
//! lexicon, rebuilds every incoming triple over the lexicon's buffers,
//! and each store that interns such a triple adopts the buffers by
//! reference count (ids stay per store; only buffers are pooled).

use crate::fasthash::FxHasher;
use crate::term::{Term, Uri};
use crate::triple::Triple;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::Hasher;
use std::sync::Arc;

/// Dense identifier of an interned lexical value: its index in the
/// owning [`TermDict`]'s first-seen order.
///
/// Ids are stable for the lifetime of the dictionary (a
/// [`crate::TripleStore::compact`] rebuilds the dictionary and may
/// renumber).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TermId(pub u32);

impl TermId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Tag of a lexical value: Fx over the bytes, then a final avalanche
/// mix, keeping the high 32 bits — all of which are well distributed,
/// so the tag both picks the home slot (its low bits) and verifies a
/// probe (all of it).
#[inline]
fn tag_lexical(s: &str) -> u32 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    let mut z = h.finish();
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    ((z ^ (z >> 31)) >> 32) as u32
}

const EMPTY: u32 = u32::MAX;

/// Push onto an append-only column, growing it by half its capacity
/// (at least 4 slots) when full instead of `Vec`'s doubling: a store
/// keeps its columns for life, so their slack is paid per row — at
/// most a third of the capacity here, half with doubling — while the
/// copies stay amortized O(1) per push.
#[inline]
pub(crate) fn push_by_half<T>(column: &mut Vec<T>, value: T) {
    if column.len() == column.capacity() {
        column.reserve_exact((column.capacity() / 2).max(4));
    }
    column.push(value);
}

/// One open-addressing slot, 8 bytes: the lexical's 32-bit tag and its
/// id, interleaved so a probe touches a single cache line. The home
/// slot is the tag's low bits, so growing the table re-seats every
/// entry from its tag alone, without reading a string; a full tag match
/// is verified against the interned string.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Slot {
    tag: u32,
    id: u32,
}

const VACANT: Slot = Slot { tag: 0, id: EMPTY };

/// Bidirectional map between lexical values and [`TermId`]s: an
/// open-addressed id table plus the id→string column (see the module
/// docs).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TermDict {
    /// Open-addressed `(tag32, id)` slots; power-of-two length, `id ==
    /// EMPTY` marks a vacant slot. A probe touches one flat array and
    /// compares `u32`s; the interned string itself is only read to
    /// verify a full tag match (i.e. almost only on true hits) — the
    /// hot path costs one cache miss, not a bucket walk plus a
    /// scattered key compare.
    slots: Vec<Slot>,
    /// The id→string column: one entry per occupied slot.
    terms: Vec<Arc<str>>,
}

impl TermDict {
    pub fn new() -> TermDict {
        TermDict::default()
    }

    /// Number of distinct interned lexical values.
    pub fn len(&self) -> usize {
        self.terms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Exclusive upper bound on `TermId::index()` over every id this
    /// dictionary has issued — the sizing bound for arrays directly
    /// indexed by id. Ids are dense, so it equals [`TermDict::len`].
    pub fn id_bound(&self) -> usize {
        self.terms.len()
    }

    /// The id of a tagged lexical, or the vacant slot where it belongs.
    fn probe(&self, tag: u32, lexical: &str) -> Result<u32, usize> {
        debug_assert!(!self.slots.is_empty());
        let mask = self.slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                return Err(i);
            }
            if slot.tag == tag && &*self.terms[slot.id as usize] == lexical {
                return Ok(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Double the table (16 slots at first) and re-seat every entry.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(16);
        let old = std::mem::replace(&mut self.slots, vec![VACANT; cap]);
        let mask = cap - 1;
        for slot in old {
            if slot.id == EMPTY {
                continue;
            }
            let mut i = slot.tag as usize & mask;
            while self.slots[i].id != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// [`TermDict::probe`] for a value about to be interned.
    fn find_or_slot(&mut self, tag: u32, lexical: &str) -> Result<u32, usize> {
        // Keep load factor under 5/8: linear probing degrades fast past
        // that, and short probe runs matter more than table bytes for
        // the point-lookup path (growing may move the vacant slot, so
        // grow before probing).
        if (self.terms.len() + 1) * 8 > self.slots.len() * 5 {
            self.grow();
        }
        self.probe(tag, lexical)
    }

    fn insert_new(&mut self, arc: Arc<str>, slot: usize, tag: u32) -> TermId {
        let id = u32::try_from(self.terms.len()).expect("term dictionary overflow");
        assert!(id < EMPTY, "term dictionary overflow");
        self.slots[slot] = Slot { tag, id };
        push_by_half(&mut self.terms, arc);
        TermId(id)
    }

    /// Intern an already-shared buffer: a first-seen value is adopted by
    /// reference count, with no string copy at all.
    pub fn intern_shared(&mut self, lexical: &Arc<str>) -> TermId {
        let tag = tag_lexical(lexical);
        match self.find_or_slot(tag, lexical) {
            Ok(id) => TermId(id),
            Err(slot) => self.insert_new(Arc::clone(lexical), slot, tag),
        }
    }

    /// Id of an already-interned value, if any. The read-only half of
    /// [`TermDict::intern_shared`]: selections use it so probing for a value
    /// the store has never seen is a single hash and no allocation.
    #[inline]
    pub fn lookup(&self, lexical: &str) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(tag_lexical(lexical), lexical).ok().map(TermId)
    }

    /// The lexical value of an id.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    #[inline]
    pub fn resolve(&self, id: TermId) -> &str {
        &self.terms[id.index()]
    }

    /// Shared handle to the interned buffer (for secondary indexes that
    /// key on the string without copying it).
    #[inline]
    pub(crate) fn shared(&self, id: TermId) -> Arc<str> {
        Arc::clone(&self.terms[id.index()])
    }

    /// Heap bytes of the table and the id→string column, by capacity;
    /// the string buffers are shared with other dictionaries and left
    /// out.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.terms.capacity() * std::mem::size_of::<Arc<str>>()
    }

    /// The interned buffer of an already-shared lexical, adopting it on
    /// first sight.
    fn canonical(&mut self, lexical: &Arc<str>) -> Arc<str> {
        let id = self.intern_shared(lexical);
        self.shared(id)
    }

    /// Rebuild a triple over this dictionary's buffers: refcount bumps
    /// for known lexicals, zero-copy adoption for new ones. Stores that
    /// ingest triples canonicalized through one dictionary share one
    /// buffer per distinct lexical (see the module docs).
    pub fn canonical_triple(&mut self, t: &Triple) -> Triple {
        let object = match &t.object {
            Term::Uri(u) => Term::Uri(Uri::from(self.canonical(u.shared()))),
            Term::Literal(s) => Term::Literal(self.canonical(s)),
        };
        Triple::new(
            Uri::from(self.canonical(t.subject.shared())),
            Uri::from(self.canonical(t.predicate.shared())),
            object,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = TermDict::new();
        let a = d.intern_shared(&Arc::from("EMBL#Organism"));
        let b = d.intern_shared(&Arc::from("embl:A78712"));
        let a2 = d.intern_shared(&Arc::from("EMBL#Organism"));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
        // Ids are dense, in first-seen order.
        assert_eq!((a.index(), b.index()), (0, 1));
        assert_eq!(d.id_bound(), d.len());
    }

    #[test]
    fn resolve_round_trips() {
        let mut d = TermDict::new();
        for s in ["", "a", "Aspergillus niger", "seq:A78712", "100%"] {
            let id = d.intern_shared(&Arc::from(s));
            assert_eq!(d.resolve(id), s);
            assert_eq!(d.lookup(s), Some(id));
        }
        assert_eq!(d.lookup("never seen"), None);
    }

    #[test]
    fn shared_buffers_are_refcounted_not_copied() {
        let mut d = TermDict::new();
        let id = d.intern_shared(&Arc::from("EMBL#Organism"));
        let h1 = d.shared(id);
        let h2 = d.shared(id);
        assert!(Arc::ptr_eq(&h1, &h2));
    }

    #[test]
    fn canonical_triple_adopts_buffers_once() {
        let mut lexicon = TermDict::new();
        let subject: Arc<str> = Arc::from("embl:A78712");
        let t = Triple::new(
            Uri::from(Arc::clone(&subject)),
            "EMBL#Organism",
            Term::literal("Aspergillus niger"),
        );
        let a = lexicon.canonical_triple(&t);
        // A first-seen buffer is adopted, not copied.
        assert!(Arc::ptr_eq(a.subject.shared(), &subject));
        assert_eq!(a, t);
        assert_eq!(lexicon.len(), 3);
        // A second triple maps onto the first one's buffers, and a
        // literal with the subject's lexical resolves to its buffer.
        let b = lexicon.canonical_triple(&Triple::new(
            "embl:A78712",
            "EMBL#Organism",
            Term::literal("embl:A78712"),
        ));
        assert!(Arc::ptr_eq(b.subject.shared(), &subject));
        assert!(Arc::ptr_eq(b.predicate.shared(), a.predicate.shared()));
        let Term::Literal(object) = &b.object else {
            panic!("the object stays a literal");
        };
        assert!(Arc::ptr_eq(object, &subject));
        assert_eq!(lexicon.len(), 3);
    }

    #[test]
    fn interned_and_canonicalized_lexicals_share_one_pool() {
        let mut lexicon = TermDict::new();
        let id = lexicon.intern_shared(&Arc::from("x"));
        let t = lexicon.canonical_triple(&Triple::new("x", "p", Term::uri("x")));
        assert!(Arc::ptr_eq(t.subject.shared(), &lexicon.shared(id)));
        let Term::Uri(object) = &t.object else {
            panic!("the object stays a URI");
        };
        assert!(Arc::ptr_eq(object.shared(), &lexicon.shared(id)));
        assert_eq!(lexicon.len(), 2);
    }

    #[test]
    fn stores_loaded_through_one_lexicon_share_buffers() {
        use crate::{Position, TripleStore};
        // Two peers with disjoint subjects and shared predicates and
        // objects, loaded through one lexicon.
        let corpus: Vec<Triple> = (0..200)
            .map(|i| {
                let object = Term::literal(format!("v{}", i % 7));
                Triple::new(format!("seq:E{i:03}"), format!("p{}", i % 3), object)
            })
            .collect();
        let mut lexicon = TermDict::new();
        let peers: Vec<TripleStore> = corpus
            .chunks(100)
            .map(|part| {
                let mut db = TripleStore::new();
                db.insert_batch(part.iter().map(|t| lexicon.canonical_triple(t)));
                assert!(part.iter().all(|t| db.contains(t)));
                db
            })
            .collect();
        assert_eq!(peers.iter().map(TripleStore::len).sum::<usize>(), 200);
        assert_eq!(lexicon.len(), 200 + 3 + 7);
        // Each peer holds its own ids but the lexicon's buffers.
        let buffer = |db: &TripleStore, lexical: &str| {
            let t = db
                .select_eq_rows(Position::Predicate, lexical)
                .triples()
                .next();
            Arc::clone(t.expect("both peers hold the predicate").predicate.shared())
        };
        for lexical in ["p0", "p1", "p2"] {
            let canonical = lexicon.shared(lexicon.lookup(lexical).expect("interned"));
            assert!(Arc::ptr_eq(&buffer(&peers[0], lexical), &canonical));
            assert!(Arc::ptr_eq(&buffer(&peers[1], lexical), &canonical));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// intern → resolve is lossless for URI-ish and literal-ish
        /// strings alike, and lookup agrees with intern.
        #[test]
        fn round_trip_lossless(values in proptest::collection::vec("[ -~]{0,24}", 0..40)) {
            let mut d = TermDict::new();
            let ids: Vec<TermId> = values.iter().map(|v| d.intern_shared(&Arc::from(v.as_str()))).collect();
            for (v, id) in values.iter().zip(&ids) {
                prop_assert_eq!(d.resolve(*id), v.as_str());
                prop_assert_eq!(d.lookup(v), Some(*id));
            }
            // Distinct values get distinct ids; equal values share one.
            for (i, a) in values.iter().enumerate() {
                for (j, b) in values.iter().enumerate() {
                    prop_assert_eq!(ids[i] == ids[j], a == b, "{:?} vs {:?}", a, b);
                }
            }
        }
    }
}
