//! The interned term dictionary: lexical values ⇄ dense [`TermId`]s.
//!
//! Every distinct lexical form (URI text or literal text) that enters a
//! [`crate::TripleStore`] is interned exactly once and addressed by a
//! dense `u32` id from then on. Triples are stored as id columns, the
//! store's indexes are keyed by id, and selections/joins compare ids —
//! string bytes are only touched at ingest (one hash of the lexical) and
//! at the result boundary (materializing terms for the caller).
//!
//! ## Sharding
//!
//! The dictionary is split into [`SHARDS`] independent shards selected
//! by high hash bits. A [`TermId`] packs the owning shard into its low
//! [`SHARD_BITS`] bits and the shard-local id above them, so resolving
//! stays a two-load array access and ids remain *almost* dense: the id
//! space wastes at most the shard skew, which a balanced hash keeps to a
//! few percent ([`TermDict::id_bound`] is the array-sizing bound).
//! Sharding buys **parallel interning**: bulk ingest pre-hashes its
//! lexicals once and interns them on one scoped thread per shard, each
//! thread owning its shard exclusively
//! ([`TermDict::intern_shared_batch`]) — no locks, no CAS retries, just
//! disjoint ownership.
//!
//! [`SharedTermDict`] is the other holder of a shard: one, behind a
//! mutex and an `Arc`, through which the peer stores hosted in one
//! process pool their string buffers.
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

/// log2 of the shard count of a [`TermDict`].
pub const SHARD_BITS: u32 = 3;
/// Number of independent shards in a [`TermDict`].
pub const SHARDS: usize = 1 << SHARD_BITS;

/// Dense identifier of an interned lexical value.
///
/// The low [`SHARD_BITS`] bits name the owning shard, the bits above
/// them the shard-local id. Ids are stable for the lifetime of the
/// owning [`TermDict`] (a [`crate::TripleStore::compact`] rebuilds the
/// dictionary and may renumber).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TermId(pub u32);

impl TermId {
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    #[inline]
    fn assemble(shard: usize, local: u32) -> TermId {
        TermId((local << SHARD_BITS) | shard as u32)
    }

    #[inline]
    fn shard(self) -> usize {
        (self.0 & (SHARDS as u32 - 1)) as usize
    }

    #[inline]
    fn local(self) -> usize {
        (self.0 >> SHARD_BITS) as usize
    }
}

impl fmt::Debug for TermId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Hash of a lexical value: Fx over the bytes, with a final avalanche
/// mix so the table index (low bits), the stored verifier (all 64 bits)
/// and the shard selector (high bits) are all well distributed.
#[inline]
pub(crate) fn hash_lexical(s: &str) -> u64 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    let mut z = h.finish();
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z ^ (z >> 31)
}

/// Shard selector: high hash bits, independent of the low bits the
/// in-shard table indexes with.
#[inline]
fn shard_of(hash: u64, shards: usize) -> usize {
    ((hash >> 48) as usize) & (shards - 1)
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

/// Open-addressed `(hash64, id)` slots. A probe touches one flat array
/// and compares `u64`s; the interned string itself is only read to
/// verify a full 64-bit hash match (i.e. almost only on true hits) —
/// the hot path costs one cache miss, not a bucket walk plus a
/// scattered key compare.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct IdTable {
    /// Power-of-two length; `id == EMPTY` marks a vacant slot.
    slots: Vec<Slot>,
    len: usize,
}

impl IdTable {
    fn probe(&self, hash: u64, is_match: impl Fn(u32) -> bool) -> Result<u32, usize> {
        debug_assert!(!self.slots.is_empty());
        let mask = self.slots.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                return Err(i);
            }
            if slot.hash == hash && is_match(slot.id) {
                return Ok(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow_to(&mut self, cap: usize) {
        debug_assert!(cap.is_power_of_two() && cap >= self.slots.len());
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

    fn grow(&mut self) {
        self.grow_to((self.slots.len() * 2).max(16));
    }
}

/// One independent dictionary shard: an open-addressed id table plus the
/// id→string column. Shard-local ids are dense from 0.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct Shard {
    table: IdTable,
    terms: Vec<Arc<str>>,
}

impl Shard {
    /// Locate a pre-hashed lexical, or the vacant slot where it belongs.
    fn find_or_slot(&mut self, hash: u64, lexical: &str) -> Result<u32, usize> {
        // Keep load factor under 5/8: linear probing degrades fast past
        // that, and short probe runs matter more than table bytes for
        // the point-lookup path (growing may move the vacant slot, so
        // grow before probing).
        if (self.table.len + 1) * 8 > self.table.slots.len() * 5 {
            self.table.grow();
        }
        self.table
            .probe(hash, |id| &*self.terms[id as usize] == lexical)
    }

    fn insert_new(&mut self, arc: Arc<str>, slot: usize, hash: u64) -> u32 {
        let local = u32::try_from(self.terms.len()).expect("term dictionary shard overflow");
        assert!(
            local < (u32::MAX >> SHARD_BITS),
            "term dictionary shard overflow"
        );
        self.table.slots[slot] = Slot { hash, id: local };
        self.table.len += 1;
        self.terms.push(arc);
        local
    }

    /// Intern a pre-hashed shared buffer, returning the shard-local id.
    fn intern_shared(&mut self, hash: u64, lexical: &Arc<str>) -> u32 {
        match self.find_or_slot(hash, lexical) {
            Ok(local) => local,
            Err(slot) => self.insert_new(Arc::clone(lexical), slot, hash),
        }
    }

    fn lookup(&self, hash: u64, lexical: &str) -> Option<u32> {
        if self.table.slots.is_empty() {
            return None;
        }
        self.table
            .probe(hash, |id| &*self.terms[id as usize] == lexical)
            .ok()
    }

    fn reserve(&mut self, additional: usize) {
        let needed = (self.terms.len() + additional) * 8 / 5 + 1;
        if needed > self.table.slots.len() {
            self.table.grow_to(needed.next_power_of_two().max(16));
        }
        self.terms.reserve(additional);
    }
}

/// Bidirectional map between lexical values and [`TermId`]s, split into
/// [`SHARDS`] hash-selected shards (see the module docs).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TermDict {
    shards: Vec<Shard>,
}

impl Default for TermDict {
    fn default() -> TermDict {
        TermDict {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
        }
    }
}

impl TermDict {
    pub fn new() -> TermDict {
        TermDict::default()
    }

    /// Number of distinct interned lexical values.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.terms.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.terms.is_empty())
    }

    /// Exclusive upper bound on `TermId::index()` over every id this
    /// dictionary has issued — the sizing bound for arrays directly
    /// indexed by id. Exceeds [`TermDict::len`] only by the shard skew.
    pub fn id_bound(&self) -> usize {
        self.shards.iter().map(|s| s.terms.len()).max().unwrap_or(0) << SHARD_BITS
    }

    /// Intern a lexical value, allocating an id on first sight.
    pub fn intern(&mut self, lexical: &str) -> TermId {
        let hash = hash_lexical(lexical);
        let shard = shard_of(hash, SHARDS);
        match self.shards[shard].find_or_slot(hash, lexical) {
            Ok(local) => TermId::assemble(shard, local),
            Err(slot) => {
                let local = self.shards[shard].insert_new(Arc::from(lexical), slot, hash);
                TermId::assemble(shard, local)
            }
        }
    }

    /// Intern an already-shared buffer: a first-seen value is adopted by
    /// reference count, with no string copy at all.
    pub fn intern_shared(&mut self, lexical: &Arc<str>) -> TermId {
        let hash = hash_lexical(lexical);
        let shard = shard_of(hash, SHARDS);
        TermId::assemble(shard, self.shards[shard].intern_shared(hash, lexical))
    }

    /// Bulk interning: hash every lexical once, then intern shard-by-
    /// shard — one scoped thread per shard for large batches, each
    /// owning its shard exclusively (no locks). Returns one id per
    /// input, in input order.
    ///
    /// This is the parallel half of [`crate::TripleStore::insert_batch`]:
    /// dictionary work is the string-touching part of ingest, and it
    /// partitions perfectly by shard.
    pub fn intern_shared_batch(&mut self, lexicals: &[&Arc<str>]) -> Vec<TermId> {
        let hashes: Vec<u64> = lexicals.iter().map(|l| hash_lexical(l)).collect();
        let mut ids: Vec<TermId> = vec![TermId(0); lexicals.len()];
        // Sequential cutoff: thread spawn + the 8 extra hash-array scans
        // only pay for themselves on batches with real interning volume
        // and actual cores to spread over.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        if cores < 2 || lexicals.len() < 16_384 {
            for ((id, &hash), lexical) in ids.iter_mut().zip(&hashes).zip(lexicals) {
                let shard = shard_of(hash, SHARDS);
                *id = TermId::assemble(shard, self.shards[shard].intern_shared(hash, lexical));
            }
            return ids;
        }
        let assigned: Vec<Vec<(u32, u32)>> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter_mut()
                .enumerate()
                .map(|(k, shard)| {
                    let hashes = &hashes;
                    scope.spawn(move || {
                        let mut out: Vec<(u32, u32)> = Vec::new();
                        for (i, &hash) in hashes.iter().enumerate() {
                            if shard_of(hash, SHARDS) == k {
                                out.push((i as u32, shard.intern_shared(hash, lexicals[i])));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (shard, pairs) in assigned.iter().enumerate() {
            for &(i, local) in pairs {
                ids[i as usize] = TermId::assemble(shard, local);
            }
        }
        ids
    }

    /// Pre-size the table for `additional` more distinct values, so bulk
    /// interning proceeds without intermediate growth rehashes. Prefer
    /// accurate estimates: an oversized table costs more in probe cache
    /// misses than geometric growth would.
    pub fn reserve(&mut self, additional: usize) {
        let per_shard = additional.div_ceil(SHARDS);
        for shard in &mut self.shards {
            shard.reserve(per_shard);
        }
    }

    /// Id of an already-interned value, if any. The read-only half of
    /// [`TermDict::intern`]: selections use it so probing for a value
    /// the store has never seen is a single hash and no allocation.
    #[inline]
    pub fn lookup(&self, lexical: &str) -> Option<TermId> {
        let hash = hash_lexical(lexical);
        let shard = shard_of(hash, SHARDS);
        self.shards[shard]
            .lookup(hash, lexical)
            .map(|local| TermId::assemble(shard, local))
    }

    /// The lexical value of an id.
    ///
    /// # Panics
    /// Panics if `id` was not produced by this dictionary.
    #[inline]
    pub fn resolve(&self, id: TermId) -> &str {
        &self.shards[id.shard()].terms[id.local()]
    }

    /// Shared handle to the interned buffer (for secondary indexes that
    /// key on the string without copying it).
    #[inline]
    pub(crate) fn shared(&self, id: TermId) -> Arc<str> {
        Arc::clone(&self.shards[id.shard()].terms[id.local()])
    }
}

/// A process-wide, thread-safe string pool: one dictionary shard
/// behind a mutex and an `Arc`, so the peer stores hosted in one
/// process share it through cheap handle clones.
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
    pool: Arc<Mutex<Shard>>,
}

impl SharedTermDict {
    pub fn new() -> SharedTermDict {
        SharedTermDict::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Shard> {
        self.pool.lock().expect("term pool poisoned")
    }

    /// The canonical shared buffer for a lexical value, interning it on
    /// first sight.
    pub fn intern(&self, lexical: &str) -> Arc<str> {
        let hash = hash_lexical(lexical);
        let mut pool = self.lock();
        match pool.find_or_slot(hash, lexical) {
            Ok(local) => Arc::clone(&pool.terms[local as usize]),
            Err(slot) => {
                let arc: Arc<str> = Arc::from(lexical);
                pool.insert_new(Arc::clone(&arc), slot, hash);
                arc
            }
        }
    }

    /// Like [`SharedTermDict::intern`] but adopting an already-shared
    /// buffer on first sight (no copy), e.g. a term out of a wire
    /// message or another store's dictionary.
    pub fn intern_shared(&self, lexical: &Arc<str>) -> Arc<str> {
        Self::adopt(&mut self.lock(), lexical)
    }

    fn adopt(pool: &mut Shard, lexical: &Arc<str>) -> Arc<str> {
        let hash = hash_lexical(lexical);
        let local = pool.intern_shared(hash, lexical);
        Arc::clone(&pool.terms[local as usize])
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
        self.lock().terms.len()
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
        assert!(d.id_bound() > a.index().max(b.index()));
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
    fn batch_interning_agrees_with_sequential() {
        let strings: Vec<Arc<str>> = (0..100)
            .map(|i| Arc::from(format!("term-{}", i % 37).as_str()))
            .collect();
        let refs: Vec<&Arc<str>> = strings.iter().collect();
        let mut seq = TermDict::new();
        let seq_ids: Vec<TermId> = refs.iter().map(|s| seq.intern_shared(s)).collect();
        let mut batch = TermDict::new();
        let batch_ids = batch.intern_shared_batch(&refs);
        assert_eq!(seq_ids, batch_ids);
        assert_eq!(seq.len(), batch.len());
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
