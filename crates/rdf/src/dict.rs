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
//! reference count.
//!
//! A lexical's bytes are read once per ingest, in the lexicon. The
//! rebuilt triple is a [`TaggedTriple`]: it carries, for each of its
//! three lexicals, the tag the lexicon computed and the lexicon's id,
//! and a store interns it with those tags instead of hashing again. A
//! probe whose tag matches then accepts the slot on pointer equality
//! (the interned buffer *is* the carried one, same address and length)
//! before comparing bytes, and every copy of a canonical triple passes
//! that check. Only this module builds a `TaggedTriple`, so a tag never
//! disagrees with its lexical.
//!
//! **Codes.** A term's *code* is `id << 1 | literal`: the id of its
//! lexical and its kind, so `<x>` and `"x"` share an id and differ in
//! code. Ids stay per store, but each dictionary also answers, per id,
//! its **lexicon id** ([`TermDict::lexicon_id`]): the id the lexicon
//! carried for it, or the id itself when none was carried. A store
//! ships rows as codes over lexicon ids, so every store loaded through
//! one lexicon ships one code per term and the origin of a query joins
//! and dedups codes from many stores without reading a string; a store
//! fed plain triples ships its own ids, which its own dictionary
//! decodes. The lexicon ids are a `u32` column beside the id→string
//! column, kept only from the first carried id on (an id below its
//! length is its own lexicon id, so a store fed plain triples keeps
//! none). [`TermDict::term_of_code`] decodes a code of the dictionary's
//! own ids — at the origin, the lexicon's.

use crate::fasthash::FxHasher;
use crate::join::{VarTable, UNBOUND};
use crate::term::{Term, Uri};
use crate::triple::{Binding, Triple};
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
pub(crate) fn tag_lexical(s: &str) -> u32 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    let mut z = h.finish();
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    ((z ^ (z >> 31)) >> 32) as u32
}

const EMPTY: u32 = u32::MAX;

/// Whether two lexicals are equal, accepting one shared buffer (same
/// address, same length) before reading bytes.
#[inline]
pub(crate) fn same_lexical(a: &str, b: &str) -> bool {
    std::ptr::eq(a, b) || a == b
}

/// A triple with the dictionary tag of each of its lexicals (subject,
/// predicate, object), as [`TermDict::canonical_triple`] or
/// [`TaggedTriple::new`] computed them, so that every store interning a
/// copy skips hashing them — and, when a lexicon rebuilt it, the
/// lexicon ids of the three, which the store keeps (see the module
/// docs). [`crate::TripleStore::insert_batch`] takes it by value or by
/// reference.
#[derive(Debug)]
pub struct TaggedTriple {
    triple: Triple,
    tags: [u32; 3],
    ids: Option<[u32; 3]>,
}

impl TaggedTriple {
    /// Tag a triple's lexicals, reading each once. It carries no
    /// lexicon ids: a store interning it ships its own.
    pub fn new(triple: Triple) -> TaggedTriple {
        let tags = [
            tag_lexical(triple.subject.as_str()),
            tag_lexical(triple.predicate.as_str()),
            tag_lexical(triple.object.lexical()),
        ];
        TaggedTriple {
            triple,
            tags,
            ids: None,
        }
    }

    /// Tag a triple's lexicals and carry `ids` as their lexicon ids
    /// (a store re-inserting its own rows keeps its codes this way).
    pub(crate) fn with_lexicon_ids(triple: Triple, ids: [u32; 3]) -> TaggedTriple {
        TaggedTriple {
            ids: Some(ids),
            ..TaggedTriple::new(triple)
        }
    }

    pub fn triple(&self) -> &Triple {
        &self.triple
    }
}

/// What [`crate::TripleStore::insert_batch`] takes: a [`Triple`], whose
/// lexicals the store hashes, or a [`TaggedTriple`], by value or by
/// reference, whose carried tags (and lexicon ids) it interns with.
/// Sealed: only this module implements it.
pub trait Insertable: sealed::Parts {}

/// What an [`Insertable`] carries beside its triple: per lexical, its
/// tag, and its lexicon id if a lexicon rebuilt it.
pub(crate) type Carried = Option<([u32; 3], Option<[u32; 3]>)>;

pub(crate) mod sealed {
    use super::{Carried, TaggedTriple, Triple};

    /// The triple, and what it carries.
    pub trait Parts {
        fn parts(&self) -> (&Triple, Carried);
    }

    impl Parts for Triple {
        fn parts(&self) -> (&Triple, Carried) {
            (self, None)
        }
    }

    impl Parts for TaggedTriple {
        fn parts(&self) -> (&Triple, Carried) {
            (&self.triple, Some((self.tags, self.ids)))
        }
    }

    impl Parts for &TaggedTriple {
        fn parts(&self) -> (&Triple, Carried) {
            (*self).parts()
        }
    }
}

impl Insertable for Triple {}
impl Insertable for TaggedTriple {}
impl Insertable for &TaggedTriple {}

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
    /// The lexicon id of each id below its length; an id at or past it
    /// is its own (see the module docs). Empty until an id is carried.
    lexicon_ids: Vec<u32>,
    /// Whether some id is its own lexicon id while another was carried:
    /// then one of this dictionary's lexicon ids and a lexicon's equal
    /// id may name different lexicals.
    mixed: bool,
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
            if slot.tag == tag && same_lexical(&self.terms[slot.id as usize], lexical) {
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
    /// reference count, with no string copy at all. The lexical is
    /// hashed only when its tag is not carried (by a [`TaggedTriple`]);
    /// a first-seen value records its carried lexicon id, if any.
    pub(crate) fn intern(
        &mut self,
        lexical: &Arc<str>,
        tag: Option<u32>,
        lexicon_id: Option<u32>,
    ) -> TermId {
        let tag = tag.unwrap_or_else(|| tag_lexical(lexical));
        debug_assert_eq!(tag, tag_lexical(lexical), "a carried tag is its lexical's");
        match self.find_or_slot(tag, lexical) {
            Ok(id) => {
                debug_assert!(
                    lexicon_id.is_none_or(|l| l == self.lexicon_id(TermId(id))),
                    "a store is loaded through one lexicon"
                );
                TermId(id)
            }
            Err(slot) => {
                let id = self.insert_new(Arc::clone(lexical), slot, tag);
                if lexicon_id.is_some() || !self.lexicon_ids.is_empty() {
                    self.mixed |= lexicon_id.is_none() || self.lexicon_ids.len() < id.index();
                    // Ids interned before the first carried one are
                    // their own.
                    while self.lexicon_ids.len() < id.index() {
                        let own = self.lexicon_ids.len() as u32;
                        push_by_half(&mut self.lexicon_ids, own);
                    }
                    push_by_half(&mut self.lexicon_ids, lexicon_id.unwrap_or(id.0));
                }
                id
            }
        }
    }

    /// Id of an already-interned value, if any. The read-only half of
    /// interning: selections use it so probing for a value the store
    /// has never seen is a single hash and no allocation.
    #[inline]
    pub fn lookup(&self, lexical: &str) -> Option<TermId> {
        self.lookup_tagged(tag_lexical(lexical), lexical)
    }

    /// [`TermDict::lookup`] with the lexical's tag already computed: no
    /// byte of `lexical` is read to hash it, and a slot holding the very
    /// buffer `lexical` points into is accepted without comparing bytes.
    #[inline]
    pub(crate) fn lookup_tagged(&self, tag: u32, lexical: &str) -> Option<TermId> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(tag, lexical).ok().map(TermId)
    }

    /// The code of a term this dictionary holds (see the module docs).
    #[inline]
    pub fn code_of(&self, term: &Term) -> Option<u64> {
        let id = self.lookup(term.lexical())?;
        Some(((id.0 as u64) << 1) | term.is_literal() as u64)
    }

    /// The lexicon id of an id: the one a lexicon carried for it, or
    /// the id itself (see the module docs).
    #[inline]
    pub fn lexicon_id(&self, id: TermId) -> u32 {
        self.lexicon_ids.get(id.index()).copied().unwrap_or(id.0)
    }

    /// Whether any id was interned with a carried lexicon id.
    pub(crate) fn carries_lexicon_ids(&self) -> bool {
        !self.lexicon_ids.is_empty()
    }

    /// Whether a code of this dictionary's lexicon ids names the term
    /// the equal code of `lexicon` names — so the two compare as codes.
    /// It does when every id carried its lexicon id (from `lexicon`, the
    /// one a store is loaded through), or when none did and `lexicon` is
    /// this dictionary; not when a store was fed both plain triples and
    /// triples rebuilt over a lexicon.
    pub(crate) fn codes_are_over(&self, lexicon: &TermDict) -> bool {
        if self.carries_lexicon_ids() {
            !self.mixed
        } else {
            std::ptr::eq(self, lexicon)
        }
    }

    /// Mark this dictionary's lexicon ids as no longer comparable with a
    /// lexicon's if `other`'s were not ([`TermDict::codes_are_over`]).
    pub(crate) fn inherit_mixed(&mut self, other: &TermDict) {
        self.mixed |= other.mixed;
    }

    /// The term behind a code of this dictionary's ids (zero-copy: a
    /// refcount bump on the interned buffer).
    ///
    /// # Panics
    /// Panics if the code's id was not produced by this dictionary.
    pub fn term_of_code(&self, code: u64) -> Term {
        debug_assert_ne!(code, UNBOUND);
        let lexical = self.shared(TermId((code >> 1) as u32));
        if code & 1 == 1 {
            Term::literal(lexical)
        } else {
            Term::uri(lexical)
        }
    }

    /// A row of codes over `vars` as a [`Binding`] (unbound slots
    /// skipped): the result boundary of a join.
    pub fn decode_row(&self, row: &[u64], vars: &VarTable) -> Binding {
        let mut b = Binding::new();
        for (slot, &code) in row.iter().enumerate() {
            if code != UNBOUND {
                b.bind(vars.names()[slot].clone(), self.term_of_code(code));
            }
        }
        b
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

    /// Heap bytes of the table, the id→string column and the lexicon
    /// ids, by capacity; the string buffers are shared with other
    /// dictionaries and left out.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
            + self.terms.capacity() * std::mem::size_of::<Arc<str>>()
            + self.lexicon_ids.capacity() * std::mem::size_of::<u32>()
    }

    /// Heap bytes of the lexicon ids alone, by capacity.
    #[cfg(test)]
    pub(crate) fn lexicon_id_bytes(&self) -> usize {
        self.lexicon_ids.capacity() * std::mem::size_of::<u32>()
    }

    /// The interned buffer of an already-shared lexical, adopting it on
    /// first sight, its tag and its id.
    fn canonical(&mut self, lexical: &Arc<str>) -> (Arc<str>, u32, u32) {
        let tag = tag_lexical(lexical);
        let id = self.intern(lexical, Some(tag), None);
        (self.shared(id), tag, self.lexicon_id(id))
    }

    /// Rebuild a triple over this dictionary's buffers: refcount bumps
    /// for known lexicals, zero-copy adoption for new ones, with the
    /// tags hashing them took and the lexicon ids they have here. Stores
    /// that ingest triples canonicalized through one dictionary share
    /// one buffer per distinct lexical, read none of its bytes, and ship
    /// one code per term (see the module docs).
    pub fn canonical_triple(&mut self, t: &Triple) -> TaggedTriple {
        let (object, o, oid) = self.canonical(t.object.shared_lexical());
        let object = match t.object {
            Term::Uri(_) => Term::Uri(Uri::from(object)),
            Term::Literal(_) => Term::Literal(object),
        };
        let (subject, s, sid) = self.canonical(t.subject.shared());
        let (predicate, p, pid) = self.canonical(t.predicate.shared());
        TaggedTriple {
            triple: Triple::new(Uri::from(subject), Uri::from(predicate), object),
            tags: [s, p, o],
            ids: Some([sid, pid, oid]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = TermDict::new();
        let a = d.intern(&Arc::from("EMBL#Organism"), None, None);
        let b = d.intern(&Arc::from("embl:A78712"), None, None);
        let a2 = d.intern(&Arc::from("EMBL#Organism"), None, None);
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
            let id = d.intern(&Arc::from(s), None, None);
            assert_eq!(d.resolve(id), s);
            assert_eq!(d.lookup(s), Some(id));
        }
        assert_eq!(d.lookup("never seen"), None);
    }

    #[test]
    fn shared_buffers_are_refcounted_not_copied() {
        let mut d = TermDict::new();
        let id = d.intern(&Arc::from("EMBL#Organism"), None, None);
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
        let a = lexicon.canonical_triple(&t).triple().clone();
        // A first-seen buffer is adopted, not copied.
        assert!(Arc::ptr_eq(a.subject.shared(), &subject));
        assert_eq!(a, t);
        assert_eq!(lexicon.len(), 3);
        // A second triple maps onto the first one's buffers, and a
        // literal with the subject's lexical resolves to its buffer.
        let b = lexicon
            .canonical_triple(&Triple::new(
                "embl:A78712",
                "EMBL#Organism",
                Term::literal("embl:A78712"),
            ))
            .triple()
            .clone();
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
        let id = lexicon.intern(&Arc::from("x"), None, None);
        let t = lexicon
            .canonical_triple(&Triple::new("x", "p", Term::uri("x")))
            .triple()
            .clone();
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
            let ids: Vec<TermId> = values.iter().map(|v| d.intern(&Arc::from(v.as_str()), None, None)).collect();
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

        /// Interning the lexicals of tagged triples — rebuilt over a
        /// lexicon's buffers, or tagged over buffers of their own, so
        /// equal lexicals arrive both in one buffer and in different
        /// ones — issues the ids, length and lookups interning them by
        /// string does.
        #[test]
        fn carried_tags_intern_as_strings_do(
            triples in proptest::collection::vec(
                ("[a-c]{0,2}", "[a-c]{1}", "[a-c]{0,2}", any::<bool>(), any::<bool>()),
                0..60,
            ),
        ) {
            let (mut lexicon, mut by_string, mut tagged) = (TermDict::new(), TermDict::new(), TermDict::new());
            for (s, p, o, literal, canonical) in &triples {
                // Fresh buffers for every triple.
                let object = if *literal { Term::literal(o.as_str()) } else { Term::uri(o.as_str()) };
                let t = Triple::new(s.as_str(), p.as_str(), object);
                let staged = if *canonical {
                    lexicon.canonical_triple(&t)
                } else {
                    TaggedTriple::new(t.clone())
                };
                prop_assert_eq!(staged.tags, TaggedTriple::new(t.clone()).tags);
                let copy = staged.triple();
                let lexicals = [copy.subject.shared(), copy.predicate.shared(), copy.object.shared_lexical()];
                for (k, lexical) in lexicals.into_iter().enumerate() {
                    let id = tagged.intern(lexical, Some(staged.tags[k]), None);
                    prop_assert_eq!(id, by_string.intern(&Arc::from(&**lexical), None, None));
                }
            }
            prop_assert_eq!(tagged.len(), by_string.len());
            for (s, p, o, ..) in &triples {
                for lexical in [s, p, o] {
                    prop_assert_eq!(tagged.lookup(lexical), by_string.lookup(lexical));
                    let id = tagged.lookup(lexical).expect("interned");
                    prop_assert_eq!(tagged.resolve(id), lexical.as_str());
                }
            }
        }
    }
}
