//! The interned term dictionary: lexical values ⇄ dense [`TermId`]s.
//!
//! Every distinct lexical form (URI text or literal text) that enters a
//! [`crate::TripleStore`] is interned exactly once and addressed by a
//! dense `u32` id from then on. Triples are stored as id columns, the
//! store's indexes are keyed by id, and selections/joins compare ids —
//! string bytes are only touched at ingest (one hash of the lexical) and
//! at the result boundary (materializing terms for the caller).
//!
//! A [`TermDict`] is one open-addressed `(hash, id)` table over one
//! id→string column: ids are issued densely from 0 in first-seen order,
//! so resolving is one array access and an array directly indexed by id
//! needs exactly [`TermDict::len`] entries. Interning is sequential — a
//! store is loaded by the one thread that owns it.
//!
//! [`SharedTermDict`] is the same structure behind a mutex and an
//! `Arc`, through which the peer stores hosted in one process pool
//! their string buffers.
//!
//! The string data itself lives in reference-counted `Arc<str>` buffers
//! shared between the id→string table, the string→id map, the sorted
//! per-position key indexes and any pooled handles, so each distinct
//! lexical is stored once regardless of how many rows, indexes or
//! stores reference it.

use crate::fasthash::FxHasher;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::Hasher;
use std::sync::{Arc, Mutex};

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

/// Hash of a lexical value: Fx over the bytes, with a final avalanche
/// mix so the table index (low bits) and the stored verifier (all 64
/// bits) are both well distributed.
#[inline]
pub(crate) fn hash_lexical(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    let mut z = h.finish();
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z ^ (z >> 31)
}

const EMPTY: u32 = u32::MAX;

/// One open-addressing slot: hash verifier + id, interleaved so a probe
/// touches a single cache line.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Slot {
    hash: u64,
    id: u32,
}

const VACANT: Slot = Slot { hash: 0, id: EMPTY };

/// Bidirectional map between lexical values and [`TermId`]s: an
/// open-addressed id table plus the id→string column (see the module
/// docs).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TermDict {
    /// Open-addressed `(hash64, id)` slots; power-of-two length, `id ==
    /// EMPTY` marks a vacant slot. A probe touches one flat array and
    /// compares `u64`s; the interned string itself is only read to
    /// verify a full 64-bit hash match (i.e. almost only on true hits) —
    /// the hot path costs one cache miss, not a bucket walk plus a
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

    /// The id of a pre-hashed lexical, or the vacant slot where it
    /// belongs.
    fn probe(&self, hash: u64, lexical: &str) -> Result<u32, usize> {
        debug_assert!(!self.slots.is_empty());
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                return Err(i);
            }
            if slot.hash == hash && &*self.terms[slot.id as usize] == lexical {
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
            let mut i = (slot.hash as usize) & mask;
            while self.slots[i].id != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// [`TermDict::probe`] for a value about to be interned.
    fn find_or_slot(&mut self, hash: u64, lexical: &str) -> Result<u32, usize> {
        // Keep load factor under 5/8: linear probing degrades fast past
        // that, and short probe runs matter more than table bytes for
        // the point-lookup path (growing may move the vacant slot, so
        // grow before probing).
        if (self.terms.len() + 1) * 8 > self.slots.len() * 5 {
            self.grow();
        }
        self.probe(hash, lexical)
    }

    fn insert_new(&mut self, arc: Arc<str>, slot: usize, hash: u64) -> TermId {
        let id = u32::try_from(self.terms.len()).expect("term dictionary overflow");
        assert!(id < EMPTY, "term dictionary overflow");
        self.slots[slot] = Slot { hash, id };
        self.terms.push(arc);
        TermId(id)
    }

    /// Intern a lexical value, allocating an id on first sight.
    pub fn intern(&mut self, lexical: &str) -> TermId {
        let hash = hash_lexical(lexical);
        match self.find_or_slot(hash, lexical) {
            Ok(id) => TermId(id),
            Err(slot) => self.insert_new(Arc::from(lexical), slot, hash),
        }
    }

    /// Intern an already-shared buffer: a first-seen value is adopted by
    /// reference count, with no string copy at all.
    pub fn intern_shared(&mut self, lexical: &Arc<str>) -> TermId {
        let hash = hash_lexical(lexical);
        match self.find_or_slot(hash, lexical) {
            Ok(id) => TermId(id),
            Err(slot) => self.insert_new(Arc::clone(lexical), slot, hash),
        }
    }

    /// Id of an already-interned value, if any. The read-only half of
    /// [`TermDict::intern`]: selections use it so probing for a value
    /// the store has never seen is a single hash and no allocation.
    #[inline]
    pub fn lookup(&self, lexical: &str) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(hash_lexical(lexical), lexical).ok().map(TermId)
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
}

/// A process-wide, thread-safe string pool: one [`TermDict`] behind a
/// mutex and an `Arc`, so the peer stores hosted in one process share
/// it through cheap handle clones.
///
/// Each peer's [`crate::TripleStore`] keeps its own dense id space (ids
/// are meaningless across stores anyway), so the shared handle pools
/// *buffers*, not ids: [`SharedTermDict::intern`] returns the canonical
/// `Arc<str>` for a lexical, and a store that interns that buffer
/// adopts it by reference count. Hosting N peer stores in one process
/// then stores each distinct lexical once, no matter how many peers'
/// databases it appears in.
#[derive(Debug, Clone, Default)]
pub struct SharedTermDict {
    pool: Arc<Mutex<TermDict>>,
}

impl SharedTermDict {
    pub fn new() -> SharedTermDict {
        SharedTermDict::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TermDict> {
        self.pool.lock().expect("term pool poisoned")
    }

    /// The canonical shared buffer for a lexical value, interning it on
    /// first sight.
    pub fn intern(&self, lexical: &str) -> Arc<str> {
        let mut pool = self.lock();
        let id = pool.intern(lexical);
        pool.shared(id)
    }

    /// Like [`SharedTermDict::intern`] but adopting an already-shared
    /// buffer on first sight (no copy), e.g. a term out of a wire
    /// message or another store's dictionary.
    pub fn intern_shared(&self, lexical: &Arc<str>) -> Arc<str> {
        Self::adopt(&mut self.lock(), lexical)
    }

    fn adopt(pool: &mut TermDict, lexical: &Arc<str>) -> Arc<str> {
        let id = pool.intern_shared(lexical);
        pool.shared(id)
    }

    /// Rebuild a triple over the pool's canonical buffers: refcount
    /// bumps for known lexicals, zero-copy adoption for new ones. Peer
    /// stores that ingest canonicalized triples end up sharing one
    /// buffer per distinct lexical across the whole process.
    pub fn canonical_triple(&self, t: &crate::triple::Triple) -> crate::triple::Triple {
        use crate::term::{Term, Uri};
        let pool = &mut *self.lock();
        let object = match &t.object {
            Term::Uri(u) => Term::Uri(Uri::from(Self::adopt(pool, u.shared()))),
            Term::Literal(s) => Term::Literal(Self::adopt(pool, s)),
        };
        crate::triple::Triple::new(
            Uri::from(Self::adopt(pool, t.subject.shared())),
            Uri::from(Self::adopt(pool, t.predicate.shared())),
            object,
        )
    }

    /// Number of distinct pooled lexicals.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = TermDict::new();
        let a = d.intern("EMBL#Organism");
        let b = d.intern("embl:A78712");
        let a2 = d.intern("EMBL#Organism");
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
            let id = d.intern(s);
            assert_eq!(d.resolve(id), s);
            assert_eq!(d.lookup(s), Some(id));
        }
        assert_eq!(d.lookup("never seen"), None);
    }

    #[test]
    fn shared_buffers_are_refcounted_not_copied() {
        let mut d = TermDict::new();
        let id = d.intern("EMBL#Organism");
        let h1 = d.shared(id);
        let h2 = d.shared(id);
        assert!(Arc::ptr_eq(&h1, &h2));
    }

    #[test]
    fn shared_pool_canonicalizes_buffers() {
        let pool = SharedTermDict::new();
        let a = pool.intern("EMBL#Organism");
        let b = pool.intern("EMBL#Organism");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(pool.len(), 1);
        // Adopting a pre-shared buffer keeps it canonical.
        let pre: Arc<str> = Arc::from("embl:A78712");
        let c = pool.intern_shared(&pre);
        assert!(Arc::ptr_eq(&pre, &c));
        assert!(Arc::ptr_eq(&pool.intern("embl:A78712"), &pre));
        assert_eq!(pool.len(), 2);
    }

    #[test]
    fn peers_ingesting_through_one_pool_from_threads_lose_nothing() {
        use crate::{Term, Triple, TripleStore};
        // Four partitions with disjoint subjects, shared predicates and
        // objects, each canonicalized and stored on its own thread.
        let corpus: Vec<Triple> = (0..400)
            .map(|i| {
                let object = Term::literal(format!("v{}", i % 7));
                Triple::new(format!("seq:E{i:03}"), format!("p{}", i % 3), object)
            })
            .collect();
        let pool = SharedTermDict::new();
        let stored: usize = std::thread::scope(|s| {
            let ingest = |part: &[Triple]| {
                let mut db = TripleStore::new();
                db.insert_batch(part.iter().map(|t| pool.canonical_triple(t)));
                assert!(part.iter().all(|t| db.contains(t)));
                db.len()
            };
            let peers: Vec<_> = corpus
                .chunks(100)
                .map(|part| s.spawn(move || ingest(part)))
                .collect();
            peers.into_iter().map(|peer| peer.join().unwrap()).sum()
        });
        assert_eq!(stored, corpus.len());
        assert_eq!(pool.len(), 400 + 3 + 7);
    }

    #[test]
    fn shared_pool_handles_are_one_pool() {
        let pool = SharedTermDict::new();
        let clone = pool.clone();
        let a = pool.intern("x");
        let b = clone.intern("x");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(pool.len(), 1);
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
            let ids: Vec<TermId> = values.iter().map(|v| d.intern(v)).collect();
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
