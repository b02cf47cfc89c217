//! The per-peer local triple database `DB_p`.
//!
//! "Each peer p maintains a local database DBp to store the triples it is
//! responsible for … the physical schemas of the local databases can all
//! be identical and consist of three attributes SDB = (subject,
//! predicate, object). The local databases support three standard
//! relational algebra operators: projection π, selection σ and (self)
//! join ⋈" (§2.2).
//!
//! ## Layout
//!
//! Every lexical value is interned through the store's [`TermDict`]
//! and a stored triple is a *row id* into three per-position `TermId`
//! columns (`columns.rs`). Rows enter one way —
//! [`TripleStore::insert_batch`], which [`TripleStore::insert`] calls
//! with a batch of one — and its cost is the cost of its rows: a peer
//! of a 340-peer network receives `Update(t)` about three rows at a
//! time, so the path carries no per-call set-up. It takes owned
//! [`Triple`]s, or [`crate::TaggedTriple`]s by value or by reference:
//! a tagged triple's carried tags spare the dictionary its hashes, and
//! a copy rebuilt over a lexicon's buffers (as every copy a system
//! stages is) is matched to the dictionary's terms on pointer equality,
//! so ingesting it reads none of its string bytes. One access structure
//! sits on top of the columns — **posting lists**: per position, term
//! id → row ids, split at `csr_end`, the first row id the CSR head does
//! not cover:
//!
//! * the **CSR head** holds the rows below `csr_end` in one shared
//!   *offsets + data* pair (compressed sparse rows: `data` holds every
//!   posting of the position back to back, `offsets[t]..offsets[t+1]`
//!   is term `t`'s span, directly indexed by the dense id), so the head
//!   is two flat arrays — no per-term allocation, and a probe touches
//!   sequential memory;
//! * rows appended since the last rebuild spill into a sparse
//!   **tail**: a map from the terms that have such rows to their
//!   lists (up to `INLINE_POSTING` ids inline in the entry). When the
//!   tail reaches a quarter of the rows the head covers (and at least
//!   `SEAL_FLOOR` rows) the head is rebuilt over the whole row space,
//!   at exactly the length it needs, and the tail freed. The rebuilds
//!   fall at geometrically spaced sizes, so each row is counted into a
//!   head O(1) times over a store's life, a batch of three rows
//!   rebuilds nothing, and the tail holds fewer than `SEAL_FLOOR` rows
//!   or less than a fifth of the store, whatever its size.
//!
//! What a store holds is sized by its rows, not by its dictionary: the
//! only per-term structures are the dictionary itself (an 8-byte slot
//! and a buffer handle per term, plus a 4-byte lexicon id in a store
//! loaded through a lexicon) and the CSR offsets (4 bytes per term and
//! position); the tail has an entry per term *with tail rows*. A
//! sealed row costs 12 bytes in the columns and 4 per position in a
//! head; the heads are allocated at their exact length, and the
//! columns and the dictionary's id→string column grow by half, not
//! double, so their slack is at most half what they hold. There is no
//! row set either — the columns are the one copy of a row. Whether a
//! row is live (the idempotence of [`TripleStore::insert_batch`],
//! [`TripleStore::remove`] and [`TripleStore::contains`]) is answered
//! from the shortest of its three posting lists; a term the store has
//! never seen has none, so a row bringing a new term is new at once. A
//! batch's own rows are indexed when it ends, so a set scoped to the
//! call catches a triple the batch repeats.
//!
//! Each position additionally keeps a lazily built sorted key index
//! (`BTreeMap<Arc<str>, TermId>`, sharing the dictionary's buffers) so
//! `abc%` prefix patterns run as range scans; a batch drops it only
//! when it brings the position a term it did not have.
//!
//! ```text
//!            row-id space ───────────────────────────────▶
//!            ┌────────────── below csr_end ────────┬─── above ────┐
//!  columns   │ s[..] p[..] o[..]  (TermId, row id) │   s p o      │
//!            └──────────────────────────────────────┴──────────────┘
//!  postings   CSR head (rebuilt when the tail        sparse tail
//!             reaches a quarter of it)               {t → Inline[≤5]
//!             offsets: [0, 2, 2, 5, …]  ── term t ─┐        or Heap}
//!             data:    [r0 r7 │ r1 r4 r9 │ …]  ◀───┘  terms with tail
//!                                                   rows only
//! ```
//!
//! ## Operators
//!
//! * **σ / π — one scan, compiled once, bound per seed or swept
//!   once.** One kernel walks rows for a pattern. *Compile*, once per
//!   call: the pattern's constants become kind-tagged codes (a constant
//!   the dictionary lacks, or a literal at subject or predicate
//!   position, empties every instance) and the shortest of their
//!   posting lists is picked, its `LIKE`s are parsed, its variable
//!   positions recorded. Then the scan picks an access path (the
//!   shortest posting list among the instance's exact codes, else a
//!   prefix range over the sorted key index, else every row) and runs
//!   the residual predicate (every other exact code, the kind bit of an
//!   object the access path names, `LIKE`s, repeated variables) as
//!   columnar sweeps over 256-row granules; a residual `LIKE` is judged
//!   once per distinct term, in a direct-mapped verdict table with a
//!   slot per candidate row (64 to 4 096).
//!   [`TripleStore::match_seeds_into`] answers a whole binding column
//!   — a [`SeedColumn`], one row per instance a bound join asks for —
//!   in one call, one of two ways, by a cost rule over counts the store
//!   holds (the constants' posting length against the seeds times the
//!   mean posting length at the seeded position). *Swept*: the
//!   pattern is scanned once and each row it admits matched to its
//!   seeds by the codes it ships at the seeded positions, with no
//!   dictionary probe. *Bound per seed*: one dictionary probe per value
//!   the seed binds, with the value's tag (computed for the whole
//!   column on its first probe, [`SeedColumn`]) and the lexicon's
//!   buffer, so no value is hashed and a shared buffer is accepted on
//!   pointer equality, and a value the store has never seen ends the
//!   instance before any posting list is touched; then the instance is
//!   scanned. Either way a value is matched exactly (a bound `"50%"` is
//!   a value, not a `LIKE`). [`TripleStore::match_into`] is the same
//!   kernel with no seed. Both append to a [`BindingBatch`]
//!   the codes the store *ships*: each term's lexicon id, shifted, with
//!   its kind bit (see [`crate::dict`]), so a shipped cell is a `u64`
//!   read off two columns and touches no reference count.
//!   [`TripleStore::for_each_match_row`] (codes of the store's own
//!   ids), [`TripleStore::match_pattern`] (those rows decoded through
//!   the store's dictionary) and [`TripleStore::resolve`] are its other
//!   output formats.
//! * **⋈ — one join.** [`TripleStore::join`] hash-joins two patterns'
//!   match sets on their shared variables ([`crate::join`]).
//!
//! [`TripleStore::select_eq_rows`] and [`TripleStore::iter`] /
//! [`TripleStore::iter_refs`] hand out [`RowCursor`]s (`cursor.rs`):
//! lazy row-id iterators that defer term materialization until the
//! consumer asks. Selections and joins compare `u64` term codes;
//! strings are materialized only at the API boundary.
//!
//! [`TripleStore::compact`] re-inserts the live rows with each term's
//! lexicon id, so a store loaded through a lexicon ships the same codes
//! after it.

mod columns;
mod cursor;

pub use cursor::RowCursor;

/// Rows per evaluation granule: the batch size of the pattern scan.
pub(crate) const GRANULE: usize = 256;

use crate::batch::{BindingBatch, SeedColumn};
use crate::dict::{same_lexical, Insertable, TaggedTriple, TermDict, TermId};
use crate::fasthash::{FxHashMap, FxHashSet};
use crate::join::{hash_join_rows, VarTable, UNBOUND};
use crate::term::{LikePattern, Term};
use crate::triple::{Binding, PatternTerm, Position, Triple, TriplePattern};
use columns::{Columns, Row};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::{Arc, OnceLock};

/// Row ids a tail posting entry holds before spilling to the heap.
const INLINE_POSTING: usize = 5;

/// Tail length below which the CSR posting heads are never rebuilt.
const SEAL_FLOOR: usize = 32;

/// The CSR posting heads are rebuilt — the tail "sealed" into them —
/// once the tail (rows at or above `csr_end`) holds a quarter of the
/// rows the heads cover, `csr_end / SEAL_FRACTION`, and at least
/// [`SEAL_FLOOR`].
const SEAL_FRACTION: usize = 4;

/// One position's posting index: term id → row ids, split at `csr_end`
/// (see the module diagram):
///
/// * the **CSR head** covers every row below `csr_end`: `data` is all
///   postings of the position concatenated in term order (each span
///   ascending by row id), `offsets[t]..offsets[t+1]` indexes term
///   `t`'s span. Two flat arrays for the whole position, allocated at
///   their exact length — a probe is two sequential loads, and a
///   rebuild is a counting pass, no per-term allocation;
/// * the **tail** holds rows appended since the last rebuild, as small
///   inline/heap lists keyed by term — only the terms that have such
///   rows. Freed when the head is rebuilt.
///
/// A term's full posting list is `head(t) ++ tail(t)`: both ascending,
/// every head id below every tail id. A row costs the position 4 bytes
/// in `data` once sealed; a term costs 4 in `offsets`, and a 41-byte
/// hash-map slot (the map at most 7/8 full) while it has tail rows.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct PostingIndex {
    /// `offsets[t]..offsets[t+1]` is term `t`'s span in `data`.
    offsets: Vec<u32>,
    /// All head postings of the position, term-major, row-ascending.
    data: Vec<u32>,
    /// First row id NOT covered by the CSR head.
    csr_end: u32,
    /// Rows `>= csr_end`, for the terms that have any.
    tail: FxHashMap<TermId, PostingList>,
    /// Terms with a posting at this position (tombstoned rows count):
    /// with the row count, the mean posting length the scan kernel's
    /// cost rule reads.
    terms: usize,
    /// Sorted key index: lexical → id over the terms with a posting at
    /// this position; backs prefix range scans. Built lazily on first
    /// use by [`TripleStore::sorted`] (one bulk sort, far cheaper than
    /// per-insert tree maintenance) and dropped when the position gains
    /// a term — never for a row over known terms, and never by a
    /// removal, which tombstones the row and leaves its postings.
    #[serde(skip)]
    sorted: OnceLock<BTreeMap<Arc<str>, TermId>>,
}

impl PostingIndex {
    /// Term `t`'s head postings (rows `< csr_end`), ascending.
    #[inline]
    fn head(&self, t: usize) -> &[u32] {
        match self.offsets.get(t..t + 2) {
            Some(w) => &self.data[w[0] as usize..w[1] as usize],
            None => &[],
        }
    }

    /// Term `term`'s tail postings (rows `>= csr_end`), ascending.
    #[inline]
    fn tail_of(&self, term: TermId) -> &[u32] {
        self.tail
            .get(&term)
            .map(PostingList::as_slice)
            .unwrap_or(&[])
    }

    /// Term `term`'s full posting list as its two ascending halves.
    #[inline]
    fn parts(&self, term: TermId) -> (&[u32], &[u32]) {
        (self.head(term.index()), self.tail_of(term))
    }

    /// Whether term `term` has no posting at this position.
    #[inline]
    fn is_empty_term(&self, term: TermId) -> bool {
        self.head(term.index()).is_empty() && self.tail_of(term).is_empty()
    }

    /// Append a row id (`row >= csr_end`) to term `term`'s tail.
    #[inline]
    fn push(&mut self, term: TermId, row: u32) {
        let in_head = !self.head(term.index()).is_empty();
        let list = self.tail.entry(term).or_insert_with(|| {
            if !in_head {
                // The position gains a term: the key index lacks it.
                self.sorted.take();
                self.terms += 1;
            }
            PostingList::default()
        });
        list.push(row);
    }

    /// Rebuild the CSR head to cover all of `col` (one counting pass:
    /// count, prefix-sum, fill) into arrays of exactly the length it
    /// needs, and free the tail. `bound` is the dictionary's exclusive
    /// id-index bound.
    fn rebuild(&mut self, col: &[TermId], bound: usize) {
        let mut offsets = vec![0u32; bound + 1];
        for id in col {
            offsets[id.index() + 1] += 1;
        }
        // Rows the tail never saw may bring terms the key index lacks.
        let terms = offsets.iter().filter(|&&count| count != 0).count();
        if self.sorted.get().is_some_and(|keys| keys.len() != terms) {
            self.sorted.take();
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut data = vec![0u32; col.len()];
        for (row, id) in col.iter().enumerate() {
            let slot = &mut offsets[id.index()];
            data[*slot as usize] = row as u32;
            *slot += 1;
        }
        // Each offsets[t] advanced to end(t) == start(t+1); rotate the
        // starts back into place.
        offsets.rotate_right(1);
        offsets[0] = 0;
        self.offsets = offsets;
        self.data = data;
        self.csr_end = col.len() as u32;
        self.tail = FxHashMap::default();
        self.terms = terms;
    }

    /// Heap bytes of the head and of the tail, by capacity (a hash-map
    /// entry counted with its control byte). The lazily built key index
    /// is left out.
    #[cfg(test)]
    fn heap_bytes(&self) -> (usize, usize) {
        let entry = std::mem::size_of::<(TermId, PostingList)>() + 1;
        let spilled: usize = self
            .tail
            .values()
            .map(|list| match list {
                PostingList::Heap(v) => v.capacity() * 4,
                PostingList::Inline { .. } => 0,
            })
            .sum();
        let head = (self.offsets.capacity() + self.data.capacity()) * 4;
        (head, self.tail.capacity() * entry + spilled)
    }
}

/// One term's posting list, with small-list inlining: up to
/// [`INLINE_POSTING`] row ids live inside the index entry itself, so
/// probing a selective term (most subjects and objects have a handful
/// of rows) is **one** array access — no second pointer chase, and no
/// per-term heap allocation at ingest. Fat lists (predicates, hot
/// objects) spill to a heap `Vec` once.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum PostingList {
    Inline {
        len: u8,
        rows: [u32; INLINE_POSTING],
    },
    Heap(Vec<u32>),
}

impl Default for PostingList {
    fn default() -> PostingList {
        PostingList::Inline {
            len: 0,
            rows: [0; INLINE_POSTING],
        }
    }
}

impl PostingList {
    #[inline]
    fn as_slice(&self) -> &[u32] {
        match self {
            PostingList::Inline { len, rows } => &rows[..*len as usize],
            PostingList::Heap(v) => v,
        }
    }

    #[inline]
    fn push(&mut self, row: u32) {
        match self {
            PostingList::Inline { len, rows } => {
                if (*len as usize) < INLINE_POSTING {
                    rows[*len as usize] = row;
                    *len += 1;
                } else {
                    let mut v = Vec::with_capacity(INLINE_POSTING * 4);
                    v.extend_from_slice(&rows[..]);
                    v.push(row);
                    *self = PostingList::Heap(v);
                }
            }
            PostingList::Heap(v) => v.push(row),
        }
    }
}

/// A borrowed view of one stored triple, for callers that only need to
/// look, not own (scans, counting, profile building).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripleRef<'a> {
    pub subject: &'a str,
    pub predicate: &'a str,
    pub object: &'a str,
    pub object_is_literal: bool,
}

/// A local triple database with interned terms and (s, p, o) posting
/// indexes (see the module docs).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TripleStore {
    dict: TermDict,
    /// The columnar row storage (including tombstone bits).
    cols: Columns,
    /// Posting lists: term id at a position → row ids. Deleted rows
    /// leave tombstones in the columns to keep row ids stable.
    by_subject: PostingIndex,
    by_predicate: PostingIndex,
    by_object: PostingIndex,
    live: usize,
}

impl TripleStore {
    pub fn new() -> TripleStore {
        TripleStore::default()
    }

    /// Number of live triples.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The term dictionary (diagnostics / size accounting).
    pub fn dict(&self) -> &TermDict {
        &self.dict
    }

    fn index(&self, pos: Position) -> &PostingIndex {
        match pos {
            Position::Subject => &self.by_subject,
            Position::Predicate => &self.by_predicate,
            Position::Object => &self.by_object,
        }
    }

    /// The position's sorted key index, building it on first use: one
    /// bulk sort of the distinct terms, then a sorted-range bulk load.
    fn sorted(&self, pos: Position) -> &BTreeMap<Arc<str>, TermId> {
        let index = self.index(pos);
        index.sorted.get_or_init(|| {
            let mut pairs: Vec<(Arc<str>, TermId)> = (0..self.dict.id_bound() as u32)
                .map(TermId)
                .filter(|&id| !index.is_empty_term(id))
                .map(|id| (self.dict.shared(id), id))
                .collect();
            pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
            BTreeMap::from_iter(pairs)
        })
    }

    /// Insert a triple; duplicates are ignored (idempotent, like the
    /// overlay store — replica synchronization re-delivers freely).
    /// Returns whether the triple was new. A batch of one: see
    /// [`TripleStore::insert_batch`].
    pub fn insert(&mut self, t: Triple) -> bool {
        self.insert_batch([t]) == 1
    }

    /// Rebuild all three CSR posting heads over the whole row space
    /// (one counting pass per position) and empty the tails.
    fn rebuild_posting_csr(&mut self) {
        let bound = self.dict.id_bound();
        self.by_subject.rebuild(&self.cols.s, bound);
        self.by_predicate.rebuild(&self.cols.p, bound);
        self.by_object.rebuild(&self.cols.o, bound);
    }

    /// The one way a row enters the store: append every triple the
    /// store does not hold yet, in iteration order, and return how many
    /// were new. A [`crate::TaggedTriple`] is interned with its carried
    /// tags (see the module docs).
    ///
    /// One pass interns and deduplicates. Then, when the appended rows
    /// take the tail to a quarter of the rows the CSR heads cover (and
    /// to at least `SEAL_FLOOR`), the heads are rebuilt over every row
    /// and the tail fill is skipped; otherwise one pass per position
    /// appends the rows to its tail. Either way a row costs O(1)
    /// amortized: a rebuild at `n` rows follows at least `n / 5` rows
    /// appended since the last one. A position's sorted key index is
    /// dropped only when the batch brought that position a term it did
    /// not have.
    ///
    /// A triple is new when no live row among the store's rows before
    /// the call holds it — searched in the shortest of its three
    /// posting lists, empty for a term this call interned first — and
    /// no earlier triple of the call appended it, which a set scoped to
    /// the call remembers. The rows are indexed only once the call
    /// ends: indexing each as it is appended would fill a tail that a
    /// sealing batch then throws away.
    ///
    /// The cost of a call is the cost of its rows: `Update(t)` on a
    /// 340-peer network hands each peer about three rows at a time, so
    /// nothing here is per call — no system call, no pre-sizing (the
    /// columns and the dictionary grow by half, the call's set by
    /// doubling; reserving for the batch measured no faster at 50 000
    /// rows, and a table sized for a batch of mostly known terms only
    /// costs probe cache misses).
    pub fn insert_batch<T: Insertable>(&mut self, triples: impl IntoIterator<Item = T>) -> usize {
        // Bulk feeds are typically grouped by subject (an entity's facts
        // travel together) over a handful of predicates: remembering the
        // last subject and the last four predicates by id turns most
        // interns into one cache-hot compare with the dictionary's own
        // buffer — a pointer compare for a canonical triple.
        let first_new = self.cols.len();
        let mut appended: FxHashSet<Row> = FxHashSet::default();
        let mut subject: Option<TermId> = None;
        let mut predicates: [Option<TermId>; 4] = [None; 4];
        let mut oldest = 0;
        for t in triples {
            let (t, carried) = t.parts();
            let tag = |k: usize| carried.map(|(tags, _)| tags[k]);
            let id = |k: usize| carried.and_then(|(_, ids)| Some(ids?[k]));
            let s = match subject {
                Some(id) if same_lexical(self.dict.resolve(id), t.subject.as_str()) => id,
                _ => *subject.insert(self.dict.intern(t.subject.shared(), tag(0), id(0))),
            };
            let known = predicates
                .iter()
                .flatten()
                .find(|&&id| same_lexical(self.dict.resolve(id), t.predicate.as_str()));
            let p = match known {
                Some(&id) => id,
                None => {
                    let id = self.dict.intern(t.predicate.shared(), tag(1), id(1));
                    predicates[oldest] = Some(id);
                    oldest = (oldest + 1) % predicates.len();
                    id
                }
            };
            let row = Row {
                s,
                p,
                o: self.dict.intern(t.object.shared_lexical(), tag(2), id(2)),
                o_lit: t.object.is_literal(),
            };
            if self.find_row(&row).is_none() && appended.insert(row) {
                self.cols.push(row);
            }
        }
        let added = self.cols.len() - first_new;
        self.live += added;

        // Rows the CSR heads do not cover (the positions share `csr_end`).
        let csr_end = self.by_subject.csr_end as usize;
        if self.cols.len() - csr_end >= SEAL_FLOOR.max(csr_end / SEAL_FRACTION) {
            self.rebuild_posting_csr();
        } else if added > 0 {
            let fill = |index: &mut PostingIndex, ids: &[TermId]| {
                for (row, tid) in (first_new..).zip(&ids[first_new..]) {
                    index.push(*tid, row as u32);
                }
            };
            fill(&mut self.by_subject, &self.cols.s);
            fill(&mut self.by_predicate, &self.cols.p);
            fill(&mut self.by_object, &self.cols.o);
        }
        added
    }

    /// Remove a triple; returns whether it was present. The row is
    /// tombstoned in place (row ids stay stable for every index and
    /// cursor); [`TripleStore::compact`] reclaims the space.
    pub fn remove(&mut self, t: &Triple) -> bool {
        let Some(id) = self.encode(t).and_then(|row| self.find_row(&row)) else {
            return false;
        };
        self.cols.kill(id);
        self.live -= 1;
        true
    }

    pub fn contains(&self, t: &Triple) -> bool {
        self.encode(t)
            .is_some_and(|row| self.find_row(&row).is_some())
    }

    /// Id-encode a caller triple; `None` if any component was never
    /// interned (then the triple cannot be present).
    fn encode(&self, t: &Triple) -> Option<Row> {
        Some(Row {
            s: self.dict.lookup(t.subject.as_str())?,
            p: self.dict.lookup(t.predicate.as_str())?,
            o: self.dict.lookup(t.object.lexical())?,
            o_lit: t.object.is_literal(),
        })
    }

    /// The live row id holding `row`, if any — at most one does —
    /// searched in the shortest of the row's three posting lists. Rows
    /// appended by a running [`TripleStore::insert_batch`] are not
    /// indexed yet, so not found.
    fn find_row(&self, row: &Row) -> Option<u32> {
        let (head, tail) = [
            self.by_subject.parts(row.s),
            self.by_predicate.parts(row.p),
            self.by_object.parts(row.o),
        ]
        .into_iter()
        .min_by_key(|(head, tail)| head.len() + tail.len())?;
        head.iter()
            .chain(tail)
            .copied()
            .find(|&id| !self.cols.is_dead(id) && self.cols.row(id) == *row)
    }

    /// Materialize one stored row: three refcount bumps on the
    /// dictionary's buffers, no string copies.
    fn materialize(&self, row: &Row) -> Triple {
        let object = if row.o_lit {
            Term::literal(self.dict.shared(row.o))
        } else {
            Term::uri(self.dict.shared(row.o))
        };
        Triple::new(self.dict.shared(row.s), self.dict.shared(row.p), object)
    }

    fn row_ref(&self, row: &Row) -> TripleRef<'_> {
        TripleRef {
            subject: self.dict.resolve(row.s),
            predicate: self.dict.resolve(row.p),
            object: self.dict.resolve(row.o),
            object_is_literal: row.o_lit,
        }
    }

    /// Borrowed view of a row id.
    pub(crate) fn ref_of(&self, id: u32) -> TripleRef<'_> {
        self.row_ref(&self.cols.row(id))
    }

    /// Owned triple of a row id.
    pub(crate) fn triple_of(&self, id: u32) -> Triple {
        self.materialize(&self.cols.row(id))
    }

    // -----------------------------------------------------------------
    // Cursors
    // -----------------------------------------------------------------

    /// Cursor over every live row (ascending row id).
    pub(crate) fn rows(&self) -> RowCursor<'_> {
        RowCursor::full(self)
    }

    /// σ as a cursor: live rows whose `pos` equals `value` (either
    /// kind), via the posting list — one dictionary probe, then lazy
    /// iteration with no allocation and no term materialization until
    /// the consumer asks ([`RowCursor::refs`] / [`RowCursor::triples`]).
    #[inline]
    pub fn select_eq_rows(&self, pos: Position, value: &str) -> RowCursor<'_> {
        match self.dict.lookup(value) {
            Some(id) => {
                let (head, tail) = self.posting_parts(pos, id);
                RowCursor::posting(self, head, tail)
            }
            None => RowCursor::empty(self),
        }
    }

    /// Iterate over live triples (materialized on the fly).
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.rows().triples()
    }

    /// Iterate over live triples as borrowed views (no materialization).
    pub fn iter_refs(&self) -> impl Iterator<Item = TripleRef<'_>> + '_ {
        self.rows().refs()
    }

    /// The raw posting list of a term in a position (may contain
    /// tombstoned row ids), as its CSR-head and tail halves — both
    /// ascending, every head id below every tail id.
    #[inline]
    fn posting_parts(&self, pos: Position, id: TermId) -> (&[u32], &[u32]) {
        self.index(pos).parts(id)
    }

    /// Row ids (tombstoned ones included) of every term in `pos` whose
    /// lexical starts with `prefix` — a range scan of the sorted key
    /// index.
    fn prefix_row_ids(&self, pos: Position, prefix: &str) -> Vec<u32> {
        let mut ids: Vec<u32> = self
            .sorted(pos)
            .range::<str, _>((Bound::Included(prefix), Bound::Unbounded))
            .take_while(|(k, _)| k.starts_with(prefix))
            .flat_map(|(_, &tid)| {
                let (head, tail) = self.posting_parts(pos, tid);
                head.iter().chain(tail).copied()
            })
            .collect();
        ids.sort_unstable(); // insertion order, like a scan would yield
        ids
    }

    /// The compile step of the scan kernel (see the module docs): what
    /// every instance of `pattern` shares, resolved against this store
    /// once.
    fn compile<'a>(&'a self, pattern: &'a TriplePattern) -> Compiled<'a> {
        let (mut exact, mut absent) = (Vec::new(), false);
        let mut likes = Vec::new();
        let mut vars = Vec::new();
        for pos in Position::ALL {
            match pattern.slot(pos) {
                PatternTerm::Var(v) => vars.push((pos, v.as_str())),
                PatternTerm::Const(Term::Literal(p)) if p.contains('%') => {
                    likes.push((pos, LikePattern::parse(p)));
                }
                // Subjects and predicates are URIs: a literal there
                // matches no row, and neither does a constant the
                // dictionary has never seen.
                PatternTerm::Const(term) => match self.dict.code_of(term) {
                    Some(code) if pos == Position::Object || !term.is_literal() => {
                        exact.push((pos, code));
                    }
                    _ => absent = true,
                },
            }
        }
        let mut repeats = Vec::new();
        for (k, &(pos, name)) in vars.iter().enumerate() {
            for &(other, _) in vars[k + 1..].iter().filter(|&&(_, n)| n == name) {
                repeats.push((pos, other));
            }
        }
        // The constants' shortest posting list, picked once per call.
        let mut access = None;
        for (k, &(pos, code)) in exact.iter().enumerate() {
            access = shorter(
                access,
                k,
                self.posting_parts(pos, TermId((code >> 1) as u32)),
            );
        }
        Compiled {
            store: self,
            exact,
            access,
            absent,
            likes,
            vars,
            repeats,
            seeded: Vec::new(),
            bound: Vec::new(),
            buf: Vec::new(),
        }
    }

    /// The code a shipped row carries for one position of a stored row:
    /// the term's lexicon id, shifted, with the kind bit (see
    /// [`crate::dict`]).
    #[inline]
    fn shipped_code(&self, id: u32, pos: Position) -> u64 {
        let local = self.cols.code_at(id, pos);
        let lexicon_id = self.dict.lexicon_id(TermId((local >> 1) as u32));
        ((lexicon_id as u64) << 1) | (local & 1)
    }

    /// Matching rows as term-code rows over `vars` (the hash-join input
    /// format of [`crate::join`]).
    fn match_codes(&self, pattern: &TriplePattern, vars: &VarTable) -> Vec<Vec<u64>> {
        let mut out = Vec::new();
        self.for_each_match_row(pattern, vars, |row| out.push(row.to_vec()));
        out
    }

    /// Stream matching rows as term-code rows over `vars` through one
    /// reused scratch row, for consumers that probe or copy per row
    /// (e.g. [`crate::ConjunctiveQuery::evaluate`]'s hash-join probe
    /// loop). The slice handed to `f` is valid only for the duration of
    /// the call; slots the pattern does not bind stay [`UNBOUND`],
    /// bound slots are overwritten on every match.
    pub fn for_each_match_row(
        &self,
        pattern: &TriplePattern,
        vars: &VarTable,
        mut f: impl FnMut(&[u64]),
    ) {
        let slots: Vec<(Position, usize)> = Position::ALL
            .iter()
            .filter_map(|&pos| match pattern.slot(pos) {
                PatternTerm::Var(v) => Some((pos, vars.slot(v).expect("pattern var registered"))),
                PatternTerm::Const(_) => None,
            })
            .collect();
        let mut row = vec![UNBOUND; vars.len()];
        self.compile(pattern).scan(None, |id| {
            for &(pos, slot) in &slots {
                row[slot] = self.cols.code_at(id, pos);
            }
            f(&row);
        });
    }

    /// The scan kernel with no seed, behind every shipped row of a
    /// pattern that stands for itself: append one row per triple
    /// matching `pattern`, in insertion order, to `out` — whose header
    /// must be `pattern`'s variables ([`BindingBatch::for_pattern`] of
    /// it, or of a pattern differing only in constants) — and return
    /// how many were appended. Each cell is the term's code over this
    /// store's lexicon ids (see [`crate::dict`]). A literal constant
    /// containing `%` is a LIKE predicate on its position; a repeated
    /// variable binds its one column; an all-constant pattern appends
    /// zero-width rows that still count.
    ///
    /// # Panics
    /// Panics if the header names a variable `pattern` does not have.
    pub fn match_into(&self, pattern: &TriplePattern, out: &mut BindingBatch) -> usize {
        debug_assert_eq!(out.vars(), BindingBatch::for_pattern(pattern).vars());
        let mut compiled = self.compile(pattern);
        let cols = compiled.columns(out);
        compiled.scan_into(None, &cols, out)
    }

    /// The scan kernel over a binding column: for each seed in turn,
    /// append to `out` the rows of the instance the seed makes of
    /// `template` — every variable the seed binds fixed to the seed's
    /// term, matched exactly (a `%` in a bound value is no wildcard) —
    /// and push how many that was to `shipped`. The seeds' codes are
    /// over `lexicon`'s ids: the lexicon this store was loaded through,
    /// or for a store fed plain triples its own dictionary. `out`'s
    /// header is the variables of `template` the seeds leave unbound
    /// ([`BindingBatch::for_instances`]). For a seed without `%`, the
    /// rows are [`TripleStore::match_into`]'s of the substituted
    /// instance, in its order.
    ///
    /// `template` is compiled once; then the column is answered one of
    /// two ways, whichever walks fewer postings — an index nested-loop
    /// join or a hash semi-join, picked by input size:
    ///
    /// * **one sweep**, when the template has an exact constant whose
    ///   posting list, of length M, is no longer than what N seeds
    ///   would walk, N times the mean posting length at the seeded
    ///   position (the shortest mean, if the seeds bind several): the
    ///   list is scanned once with the template's own filters, and each
    ///   row is matched to its seeds by the codes it ships at the seeded
    ///   positions, in a hash map of the column. No dictionary is
    ///   probed and no string read. It runs only when this store's codes
    ///   compare with `lexicon`'s (not for a store fed both plain
    ///   triples and triples rebuilt over a lexicon);
    /// * **per seed**, otherwise: one dictionary probe per value the
    ///   seed binds, with the value's carried tag and the lexicon's
    ///   buffer, so no value is hashed and a value this store shares the
    ///   buffer of is accepted on pointer equality; a value the store
    ///   has never seen ships zero rows without a scan, and the instance
    ///   is scanned through the shortest posting list among its exact
    ///   codes.
    ///
    /// # Panics
    /// Panics if the header names a variable `template` does not have.
    pub fn match_seeds_into(
        &self,
        template: &TriplePattern,
        seeds: &SeedColumn,
        lexicon: &TermDict,
        out: &mut BindingBatch,
        shipped: &mut Vec<usize>,
    ) {
        self.match_seeds_by(None, template, seeds, lexicon, out, shipped);
    }

    /// [`TripleStore::match_seeds_into`] along `path`, or along the one
    /// its cost rule picks for `None`.
    pub(crate) fn match_seeds_by(
        &self,
        path: Option<SeedPath>,
        template: &TriplePattern,
        seeds: &SeedColumn,
        lexicon: &TermDict,
        out: &mut BindingBatch,
        shipped: &mut Vec<usize>,
    ) {
        debug_assert!(out.vars().iter().all(|v| seeds.column(v).is_none()));
        let mut compiled = self.compile_seeded(template, seeds);
        let cols = compiled.columns(out);
        match path.unwrap_or_else(|| compiled.path(seeds.len(), lexicon)) {
            SeedPath::Sweep => {
                debug_assert!(self.dict.codes_are_over(lexicon));
                compiled.sweep_into(seeds, &cols, out, shipped);
            }
            SeedPath::Probe => {
                for i in 0..seeds.len() {
                    let seed = Seed {
                        codes: seeds.seed(i),
                        tags: seeds.tags(i, lexicon),
                        lexicon,
                    };
                    shipped.push(compiled.scan_into(Some(seed), &cols, out));
                }
            }
        }
    }

    /// [`TripleStore::compile`], with each variable position `seeds`
    /// bind recorded.
    fn compile_seeded<'a>(
        &'a self,
        template: &'a TriplePattern,
        seeds: &SeedColumn,
    ) -> Compiled<'a> {
        let mut compiled = self.compile(template);
        compiled.seeded = compiled
            .vars
            .iter()
            .filter_map(|&(pos, name)| Some((pos, seeds.column(name)?)))
            .collect();
        compiled
    }

    /// Evaluate a triple pattern against the local database, returning
    /// one binding per matching triple, in insertion order: the rows
    /// [`TripleStore::match_into`] ships, decoded through this store's
    /// own dictionary.
    pub fn match_pattern(&self, pattern: &TriplePattern) -> Vec<Binding> {
        let header = BindingBatch::for_pattern(pattern);
        let mut compiled = self.compile(pattern);
        let cols = compiled.columns(&header);
        let columns: Vec<(&String, Position)> = header.vars().iter().zip(cols).collect();
        let mut out = Vec::new();
        compiled.scan(None, |id| {
            let mut b = Binding::new();
            for &(name, pos) in &columns {
                let term = self.dict.term_of_code(self.cols.code_at(id, pos));
                b.bind(name.clone(), term);
            }
            out.push(b);
        });
        out
    }

    /// The destination-peer resolution of §2.3:
    /// `Results = π_pos(x) σ_pos(const)=const (DB_dest)`.
    /// Returns the terms bound to `var`, sorted and deduplicated.
    pub fn resolve(&self, pattern: &TriplePattern, var: &str) -> Vec<Term> {
        let vars = VarTable::from_patterns([pattern]);
        let Some(slot) = vars.slot(var) else {
            return Vec::new();
        };
        let mut codes: Vec<u64> = Vec::new();
        self.for_each_match_row(pattern, &vars, |row| codes.push(row[slot]));
        codes.sort_unstable();
        codes.dedup();
        let mut out: Vec<Term> = codes
            .into_iter()
            .map(|c| self.dict.term_of_code(c))
            .collect();
        out.sort();
        out
    }

    /// Self-join ⋈: evaluate two patterns and hash-join their binding
    /// sets on the shared variables. This is the building block for
    /// conjunctive queries (§2.3: "iteratively resolving each triple
    /// pattern … and aggregating").
    pub fn join(&self, left: &TriplePattern, right: &TriplePattern) -> Vec<Binding> {
        let vars = VarTable::from_patterns([left, right]);
        let l = self.match_codes(left, &vars);
        let r = self.match_codes(right, &vars);
        hash_join_rows(&l, &r)
            .iter()
            .map(|row| self.dict.decode_row(row, &vars))
            .collect()
    }

    /// Compact the store: drop tombstoned rows — the live rows are
    /// re-inserted, in order, into a fresh store, so columns, dictionary
    /// (sharing the old one's buffers) and posting lists hold exactly
    /// what is live, and each term keeps its lexicon id, so the store
    /// ships the codes it shipped before — and leave the CSR posting
    /// heads covering the whole row space: rebuilt once, unless the
    /// re-insert already sealed.
    pub fn compact(&mut self) {
        if self.cols.any_dead() {
            let mut live = TripleStore::new();
            if self.dict.carries_lexicon_ids() {
                live.insert_batch(self.rows().map(|id| {
                    let row = self.cols.row(id);
                    let ids = [row.s, row.p, row.o].map(|t| self.dict.lexicon_id(t));
                    TaggedTriple::with_lexicon_ids(self.materialize(&row), ids)
                }));
                live.dict.inherit_mixed(&self.dict);
            } else {
                live.insert_batch(self.iter());
            }
            *self = live;
        }
        if (self.by_subject.csr_end as usize) < self.cols.len() {
            self.rebuild_posting_csr();
        }
    }
}

/// The most slots a scan's `LIKE` verdict table takes: 32 KiB, an L1
/// data cache's worth, so filling the table of a scan over a whole
/// store costs a small part of the scan.
const MAX_VERDICTS: usize = 4096;

/// The shortest posting list found so far among an instance's exact
/// codes: the code's index, and the list's two halves.
type Access<'a> = Option<(usize, &'a [u32], &'a [u32])>;

/// `best`, or code `k`'s posting list `parts` if it is strictly
/// shorter (the first of equal lists wins).
#[inline]
fn shorter<'a>(best: Access<'a>, k: usize, parts: (&'a [u32], &'a [u32])) -> Access<'a> {
    let len = parts.0.len() + parts.1.len();
    match best {
        Some((_, head, tail)) if head.len() + tail.len() <= len => best,
        _ => Some((k, parts.0, parts.1)),
    }
}

/// How [`TripleStore::match_seeds_into`] answers a binding column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SeedPath {
    /// Bind and scan each seed's instance in turn.
    Probe,
    /// Scan the template once and match its rows to the seeds.
    Sweep,
}

/// One seed of a binding column as the scan kernel binds it: its codes
/// over `lexicon`'s ids, and their tags.
#[derive(Clone, Copy)]
struct Seed<'s> {
    codes: &'s [u64],
    tags: &'s [u32],
    lexicon: &'s TermDict,
}

/// A pattern compiled against one store by [`TripleStore::compile`]:
/// what every instance of it shares, plus scratch reused from one seed
/// to the next.
struct Compiled<'a> {
    store: &'a TripleStore,
    /// Every exact constant as a kind-tagged code of this store's ids.
    exact: Vec<(Position, u64)>,
    /// The shortest posting list among `exact`'s.
    access: Access<'a>,
    /// A constant the store lacks, or a literal at subject or predicate
    /// position: no instance can match.
    absent: bool,
    likes: Vec<(Position, LikePattern<'a>)>,
    /// Every variable position, with its variable.
    vars: Vec<(Position, &'a str)>,
    /// Position pairs holding one variable: their codes must agree.
    repeats: Vec<(Position, Position)>,
    /// For a binding column: each variable position its seeds bind,
    /// with the seed column holding the value.
    seeded: Vec<(Position, usize)>,
    /// A seeded instance's exact codes: `exact`, then what its seed
    /// binds.
    bound: Vec<(Position, u64)>,
    /// The current granule of candidate row ids.
    buf: Vec<u32>,
}

impl Compiled<'_> {
    /// For each column of `out`'s header (at most three), the first
    /// position holding its variable.
    fn columns(&self, out: &BindingBatch) -> [Position; 3] {
        let mut cols = [Position::Subject; 3];
        for (col, name) in cols.iter_mut().zip(out.vars()) {
            let first = self.vars.iter().find(|&&(_, v)| v == name);
            *col = first
                .expect("batch header names a variable of the pattern")
                .0;
        }
        cols
    }

    /// Call `f` with every live row id of the instance `seed` makes (the
    /// pattern itself, for `None`), in insertion order. The bind step
    /// comes first: one dictionary probe per variable the seed binds,
    /// with the value's carried tag and the lexicon's buffer, and
    /// nothing more when the instance cannot match — a constant or a
    /// bound value the store lacks, or a literal bound at subject or
    /// predicate position. The access path is then the shortest posting
    /// list among the instance's exact codes (the constants' was picked
    /// at compile time), else a `LIKE` prefix's range over the sorted
    /// key index, else every row; the residual predicate runs a granule
    /// at a time as columnar `retain` sweeps, one constraint at a time,
    /// instead of re-dispatching the whole predicate chain per row. A
    /// candidate from the access path's posting list holds that term at
    /// that position, so its constraint is not re-checked — except for
    /// the kind bit at object position, where a URI and a literal share
    /// the list.
    fn scan(&mut self, seed: Option<Seed<'_>>, mut f: impl FnMut(u32)) {
        let Compiled {
            store,
            exact,
            access,
            absent,
            likes,
            vars: _,
            repeats,
            seeded,
            bound,
            buf,
        } = self;
        let store = *store;
        if *absent {
            return;
        }
        let (codes, access): (&[(Position, u64)], Access<'_>) = match seed {
            None => (exact, *access),
            Some(seed) => {
                bound.clear();
                bound.extend_from_slice(exact);
                let mut best = *access;
                for &(pos, col) in seeded.iter() {
                    let code = seed.codes[col];
                    let literal = code & 1;
                    if pos != Position::Object && literal == 1 {
                        return;
                    }
                    let lexical = seed.lexicon.resolve(TermId((code >> 1) as u32));
                    let Some(id) = store.dict.lookup_tagged(seed.tags[col], lexical) else {
                        return;
                    };
                    best = shorter(best, bound.len(), store.posting_parts(pos, id));
                    bound.push((pos, ((id.0 as u64) << 1) | literal));
                }
                (bound, best)
            }
        };
        let prefix = || {
            likes.iter().find_map(|&(pos, like)| match like {
                LikePattern::Prefix(core) if !core.is_empty() => Some((pos, core)),
                _ => None,
            })
        };
        let ranged: Vec<u32>;
        let (mut cursor, candidates) = if let Some((_, head, tail)) = access {
            let len = head.len() + tail.len();
            (RowCursor::posting(store, head, tail), len)
        } else if let Some((pos, core)) = prefix() {
            ranged = store.prefix_row_ids(pos, core);
            (RowCursor::posting(store, &ranged, &[]), ranged.len())
        } else {
            (store.rows(), store.cols.len())
        };
        let via = access.map(|(k, ..)| k);
        // `LIKE` verdicts by (pattern, term id), direct-mapped: a
        // residual `LIKE` meets each distinct term of a scan a few times
        // over, and a verdict costs a pass over the term's bytes. The
        // table has a slot per candidate row, a power of two from 64 to
        // `MAX_VERDICTS`, so a long posting list's terms do not evict
        // each other; a pattern without a `LIKE` allocates none.
        let slots = candidates.next_power_of_two().clamp(64, MAX_VERDICTS);
        let mut verdicts = if likes.is_empty() {
            Vec::new()
        } else {
            vec![u64::MAX; slots]
        };
        let mask = verdicts.len().wrapping_sub(1);
        // The cursor skips tombstones.
        while cursor.next_block(buf) {
            for (k, &(pos, code)) in codes.iter().enumerate() {
                if Some(k) != via {
                    buf.retain(|&id| store.cols.code_at(id, pos) == code);
                } else if pos == Position::Object {
                    buf.retain(|&id| store.cols.code_at(id, pos) & 1 == code & 1);
                }
            }
            for (k, (pos, like)) in likes.iter().enumerate() {
                buf.retain(|&id| {
                    let term = store.cols.id_at(id, *pos);
                    let key = (term.0 as u64) << 2 | k as u64;
                    let slot = &mut verdicts[(term.0 as usize ^ k) & mask];
                    if *slot >> 1 != key {
                        *slot = key << 1 | like.matches(store.dict.resolve(term)) as u64;
                    }
                    *slot & 1 == 1
                });
            }
            for &(a, b) in repeats.iter() {
                buf.retain(|&id| store.cols.code_at(id, a) == store.cols.code_at(id, b));
            }
            buf.iter().for_each(|&id| f(id));
        }
    }

    /// The cost rule of [`TripleStore::match_seeds_into`] for a column
    /// of `seeds` seeds: sweep when the constants' shortest posting list
    /// walks no more rows than the seeds would — for every seeded
    /// position, M ≤ N × rows / terms there, the position's mean posting
    /// length — and the store's codes compare with `lexicon`'s; probe
    /// per seed otherwise, and always for a template without an exact
    /// constant.
    fn path(&self, seeds: usize, lexicon: &TermDict) -> SeedPath {
        let store = self.store;
        let Some((_, head, tail)) = self.access else {
            return SeedPath::Probe;
        };
        let (m, n) = ((head.len() + tail.len()) as u128, seeds as u128);
        let rows = store.cols.len() as u128;
        let cheaper = self
            .seeded
            .iter()
            .all(|&(pos, _)| m * store.index(pos).terms as u128 <= n * rows);
        if cheaper && store.dict.codes_are_over(lexicon) {
            SeedPath::Sweep
        } else {
            SeedPath::Probe
        }
    }

    /// The sweep of [`TripleStore::match_seeds_into`]: one
    /// [`Compiled::scan`] of the template, each row it admits matched to
    /// every seed whose codes at the seeded positions are the ones the
    /// row ships there (duplicate seeds chain in a hash map of the
    /// column), then the rows appended seed by seed — a stable counting
    /// sort, so they stay ascending within a seed — and each seed's
    /// count pushed to `shipped`.
    fn sweep_into(
        &mut self,
        seeds: &SeedColumn,
        cols: &[Position; 3],
        out: &mut BindingBatch,
        shipped: &mut Vec<usize>,
    ) {
        const END: u32 = u32::MAX;
        let store = self.store;
        let seeded = self.seeded.clone();
        // The first seed of each key, and each seed's next of its key.
        let mut first: FxHashMap<[u64; 3], u32> = FxHashMap::default();
        first.reserve(seeds.len());
        let mut next = vec![END; seeds.len()];
        for i in (0..seeds.len()).rev() {
            let codes = seeds.seed(i);
            let mut key = [0; 3];
            for (k, &(_, col)) in seeded.iter().enumerate() {
                key[k] = codes[col];
            }
            if let Some(later) = first.insert(key, i as u32) {
                next[i] = later;
            }
        }
        // (seed, row) in row order; `start[s + 1]` counts seed `s`'s.
        let mut hits: Vec<(u32, u32)> = Vec::new();
        let mut start = vec![0usize; seeds.len() + 1];
        self.scan(None, |id| {
            let mut key = [0; 3];
            for (k, &(pos, _)) in seeded.iter().enumerate() {
                key[k] = store.shipped_code(id, pos);
            }
            let mut seed = first.get(&key).copied().unwrap_or(END);
            while seed != END {
                hits.push((seed, id));
                start[seed as usize + 1] += 1;
                seed = next[seed as usize];
            }
        });
        for s in 1..start.len() {
            start[s] += start[s - 1];
        }
        let mut fill = start.clone();
        let mut rows = vec![0u32; hits.len()];
        for &(seed, id) in &hits {
            rows[fill[seed as usize]] = id;
            fill[seed as usize] += 1;
        }
        let cols = &cols[..out.vars.len()];
        for span in start.windows(2) {
            let rows = &rows[span[0]..span[1]];
            for &id in rows {
                for &pos in cols {
                    out.codes.push(store.shipped_code(id, pos));
                }
            }
            out.rows += rows.len();
            shipped.push(rows.len());
        }
    }

    /// [`Compiled::scan`] into a batch: one row per match, the codes it
    /// ships at the [`Compiled::columns`] of `out`'s header appended to
    /// `out`. Returns how many rows that was.
    fn scan_into(
        &mut self,
        seed: Option<Seed<'_>>,
        cols: &[Position; 3],
        out: &mut BindingBatch,
    ) -> usize {
        let store = self.store;
        let cols = &cols[..out.vars.len()];
        let before = out.rows;
        self.scan(seed, |id| {
            for &pos in cols {
                out.codes.push(store.shipped_code(id, pos));
            }
            out.rows += 1;
        });
        out.rows - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::triple::PatternTerm;

    /// Rows whose `pos` satisfies the LIKE `pattern`, through the scan
    /// operator: a `%` literal constant at `pos`, variables elsewhere.
    pub(super) fn like_count(db: &TripleStore, pos: Position, pattern: &str) -> usize {
        let slot = |p: Position, name: &str| {
            if p == pos {
                PatternTerm::constant(Term::literal(pattern))
            } else {
                PatternTerm::var(name)
            }
        };
        db.match_pattern(&TriplePattern::new(
            slot(Position::Subject, "s"),
            slot(Position::Predicate, "p"),
            slot(Position::Object, "o"),
        ))
        .len()
    }

    /// The row ids the scan kernel admits for `pattern`, in scan order.
    fn matching_rows(db: &TripleStore, pattern: &TriplePattern) -> Vec<u32> {
        let mut ids = Vec::new();
        db.compile(pattern).scan(None, |id| ids.push(id));
        ids
    }

    /// The cost rule on a store of 20 rows, two per subject over ten
    /// subjects, all of one predicate: the template's posting list walks
    /// 20 rows, a seed's subject list 2 on average, so ten seeds sweep
    /// and nine probe. A store fed plain triples beside rebuilt ones,
    /// or one asked in a dictionary it was not loaded through, never
    /// sweeps.
    #[test]
    fn the_cost_rule_sweeps_when_the_seeds_would_walk_as_far() {
        let mut lexicon = TermDict::new();
        let triples: Vec<Triple> = (0..20)
            .map(|i| {
                Triple::new(
                    format!("s{}", i / 2),
                    "p",
                    Term::literal(format!("o{}", i % 2)),
                )
            })
            .collect();
        let mut db = TripleStore::new();
        db.insert_batch(triples.iter().map(|t| lexicon.canonical_triple(t)));
        let mut plain = TripleStore::new();
        plain.insert_batch(triples.iter().cloned());
        let template = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("p")),
            PatternTerm::var("o"),
        );
        let column = |n: usize, lexicon: &mut TermDict| {
            let mut column = SeedColumn::new(["x"]);
            for i in 0..n {
                let code = crate::join::tests::code(lexicon, &Term::uri(format!("s{i}")));
                column.push(&[code]);
            }
            column
        };
        let path = |db: &TripleStore, n: usize, lexicon: &mut TermDict| {
            let seeds = column(n, lexicon);
            db.compile_seeded(&template, &seeds)
                .path(seeds.len(), lexicon)
        };
        assert_eq!(path(&db, 10, &mut lexicon), SeedPath::Sweep);
        assert_eq!(path(&db, 9, &mut lexicon), SeedPath::Probe);
        // Asked in its own dictionary, a plain store sweeps; asked in a
        // lexicon, it cannot compare codes.
        let own = plain.dict().clone();
        let seeds = SeedColumn::new(["x"]);
        let compiled = plain.compile_seeded(&template, &seeds);
        assert_eq!(compiled.path(10, plain.dict()), SeedPath::Sweep);
        assert_eq!(compiled.path(10, &own), SeedPath::Probe);
        assert_eq!(compiled.path(10, &lexicon), SeedPath::Probe);
        // A plain triple with a new term makes the lexicon-fed store
        // mixed: 21 rows over 11 subjects, so 20 seeds would sweep.
        db.insert(Triple::new("t", "p", Term::literal("o0")));
        assert_eq!(path(&db, 20, &mut lexicon), SeedPath::Probe);
        // Compacting re-inserts every row with its lexicon id.
        assert!(db.remove(&triples[0]));
        db.compact();
        assert_eq!(
            path(&db, 20, &mut lexicon),
            SeedPath::Probe,
            "compact keeps it mixed"
        );
    }

    fn sample() -> TripleStore {
        let mut db = TripleStore::new();
        db.insert(Triple::new(
            "embl:A78712",
            "EMBL#Organism",
            Term::literal("Aspergillus niger"),
        ));
        db.insert(Triple::new(
            "embl:A78767",
            "EMBL#Organism",
            Term::literal("Aspergillus nidulans"),
        ));
        db.insert(Triple::new(
            "embl:X00001",
            "EMBL#Organism",
            Term::literal("Penicillium chrysogenum"),
        ));
        db.insert(Triple::new(
            "embl:A78712",
            "EMBL#SequenceLength",
            Term::literal("1042"),
        ));
        db
    }

    #[test]
    fn insert_is_idempotent() {
        let mut db = TripleStore::new();
        let t = Triple::new("s", "p", Term::literal("o"));
        assert!(db.insert(t.clone()));
        assert!(!db.insert(t));
        assert_eq!(db.len(), 1);
    }

    /// Heap bytes a store holds for itself, by capacity, per component:
    /// columns, posting heads, posting tails, and the dictionary's table
    /// and id→string column. String buffers (shared through a lexicon)
    /// and the lazily built key indexes are left out.
    fn footprint(db: &TripleStore) -> [usize; 4] {
        let (heads, tails) = Position::ALL
            .iter()
            .map(|&pos| db.index(pos).heap_bytes())
            .fold((0, 0), |(h, t), (head, tail)| (h + head, t + tail));
        [db.cols.heap_bytes(), heads, tails, db.dict.heap_bytes()]
    }

    /// A store of `rows` rows loaded in batches of `batch`: a subject per
    /// four rows, eight predicates, and an object per 2.5 rows.
    fn load_shape(rows: usize, batch: usize) -> TripleStore {
        let mut db = TripleStore::new();
        let ids: Vec<usize> = (0..rows).collect();
        for chunk in ids.chunks(batch) {
            db.insert_batch(chunk.iter().map(|&i| {
                Triple::new(
                    format!("seq:S{:06}", i / 4),
                    format!("schema#p{}", i % 8),
                    Term::literal(format!("value {}", i % (rows * 2 / 5))),
                )
            }));
        }
        assert_eq!(db.len(), rows);
        assert_eq!(db.dict().len(), rows / 4 + 8 + rows * 2 / 5);
        db
    }

    /// Bytes per row of `db`, in total and by component, printed (run
    /// with `--nocapture` to see them).
    fn bytes_per_row(db: &TripleStore) -> f64 {
        let rows = db.len() as f64;
        let parts = footprint(db).map(|bytes| bytes as f64 / rows);
        let total = parts.iter().sum::<f64>();
        println!(
            "{} rows, csr_end {}: {total:.1} B/row = columns {:.1} + heads {:.1} + tails {:.1} + dictionary {:.1}",
            db.len(),
            db.by_subject.csr_end,
            parts[0],
            parts[1],
            parts[2],
            parts[3],
        );
        total
    }

    #[test]
    fn a_store_pays_per_row_not_per_dictionary_entry() {
        // 100 000 rows over 65 008 terms in 1 000-row batches — the shape
        // of a peer after a bulk load. The heads seal after every batch
        // up to 5 000 rows, then whenever the tail reaches a quarter of
        // the rows they cover: at 7 000, 9 000, 12 000, … 60 000, 75 000
        // and 94 000 rows. The last 6 000 rows are the tail.
        let db = load_shape(100_000, 1_000);
        assert_eq!(db.dict().len(), 65_008);
        assert_eq!(db.by_subject.csr_end, 94_000);
        // 63.8 bytes per row: 16 in the columns, 23 in the postings, 25
        // in the dictionary. A second copy of the rows in a hash set
        // (+19.5), 16-byte dictionary slots (+10.5) or a posting tail
        // indexed by every term id (+35) each cross the bound.
        let per_row = bytes_per_row(&db);
        assert!(per_row < 66.0, "{per_row:.1} bytes per row");
    }

    #[test]
    fn a_small_store_pays_per_row_too() {
        // The two shapes the benchmark's peers are loaded in: ≈ 180 rows
        // in ≈ 50 `Update(t)` calls of 3–4 rows (340 peers), and ≈ 18 400
        // rows in 50 calls of 368 (32 peers). They come to 67.1 and 68.9
        // bytes per row. A fixed 32 768-row seal threshold left both all
        // tail (88.7 and 102.7), and columns that grow by doubling cost
        // 3.0 and 3.4 more: each crosses the bounds.
        for (rows, batch, csr_end, bound) in [(180, 4, 160, 69.0), (18_400, 368, 17_664, 71.0)] {
            let db = load_shape(rows, batch);
            assert_eq!(db.by_subject.csr_end, csr_end, "{rows} rows");
            let per_row = bytes_per_row(&db);
            assert!(per_row < bound, "{rows} rows: {per_row:.1} bytes per row");
        }
    }

    #[test]
    fn large_batch_rebuilds_the_posting_heads() {
        // Past the CSR rebuild threshold: the batch skips the tail fill,
        // and the rebuilt posting heads must agree with the columns.
        let triples: Vec<Triple> = (0..40_000)
            .map(|i| {
                Triple::new(
                    format!("seq:S{:05}", i / 3),
                    format!("schema#p{}", i % 3),
                    Term::literal(format!("value {}", i % 997)),
                )
            })
            .collect();
        let mut db = TripleStore::new();
        // A prefix read first, so the batch finds a sorted key index to
        // invalidate on the rebuild path too.
        assert_eq!(like_count(&db, Position::Subject, "seq:S0000%"), 0);
        assert_eq!(db.insert_batch(triples.iter().cloned()), 40_000);
        assert_eq!(db.len(), 40_000);
        assert_eq!(
            db.by_subject.csr_end, 40_000,
            "batch must have rebuilt the CSR heads"
        );
        assert_eq!(like_count(&db, Position::Subject, "seq:S0000%"), 30);
        // Spot-check the postings against a column scan.
        for value in ["seq:S00000", "schema#p1", "value 42"] {
            let id = db.dict.lookup(value).unwrap();
            for pos in Position::ALL {
                let via_posting: Vec<u32> = db.select_eq_rows(pos, value).collect();
                let via_scan: Vec<u32> =
                    db.rows().filter(|&r| db.cols.id_at(r, pos) == id).collect();
                assert_eq!(via_posting, via_scan, "{pos:?} {value}");
            }
        }
    }

    #[test]
    fn equal_lexical_different_kind_are_distinct_triples() {
        let mut db = TripleStore::new();
        assert!(db.insert(Triple::new("s", "p", Term::literal("x"))));
        assert!(db.insert(Triple::new("s", "p", Term::uri("x"))));
        assert_eq!(db.len(), 2);
        // Lexical selection finds both kinds, like the seed's
        // lexically-keyed object index did.
        assert_eq!(db.select_eq_rows(Position::Object, "x").count(), 2);
        assert!(db.remove(&Triple::new("s", "p", Term::uri("x"))));
        assert!(db.contains(&Triple::new("s", "p", Term::literal("x"))));
        assert_eq!(db.select_eq_rows(Position::Object, "x").count(), 1);
    }

    #[test]
    fn remove_and_contains() {
        let mut db = sample();
        let t = Triple::new(
            "embl:A78712",
            "EMBL#Organism",
            Term::literal("Aspergillus niger"),
        );
        assert!(db.contains(&t));
        assert!(db.remove(&t));
        assert!(!db.contains(&t));
        assert!(!db.remove(&t));
        assert_eq!(db.len(), 3);
        // Index lookups must not resurface the tombstone.
        assert_eq!(
            db.select_eq_rows(Position::Subject, "embl:A78712").count(),
            1
        );
    }

    #[test]
    fn select_eq_uses_each_position() {
        let db = sample();
        let count = |pos, value| db.select_eq_rows(pos, value).count();
        assert_eq!(count(Position::Predicate, "EMBL#Organism"), 3);
        assert_eq!(count(Position::Subject, "embl:A78712"), 2);
        assert_eq!(count(Position::Object, "1042"), 1);
        assert_eq!(count(Position::Subject, "nope"), 0);
    }

    #[test]
    fn cursor_selects_agree_with_full_scan() {
        let mut db = sample();
        db.rebuild_posting_csr();
        db.insert(Triple::new(
            "embl:A78767",
            "EMBL#SequenceLength",
            Term::literal("2210"),
        ));
        for (pos, value) in [
            (Position::Predicate, "EMBL#Organism"),
            (Position::Predicate, "EMBL#SequenceLength"),
            (Position::Subject, "embl:A78712"),
            (Position::Object, "1042"),
            (Position::Object, "never seen"),
        ] {
            let via_scan: Vec<Triple> = db
                .iter()
                .filter(|t| t.get(pos).lexical() == value)
                .collect();
            let via_cursor: Vec<Triple> = db.select_eq_rows(pos, value).triples().collect();
            assert_eq!(via_scan, via_cursor, "{pos:?} {value}");
            let refs: Vec<TripleRef<'_>> = db.select_eq_rows(pos, value).refs().collect();
            assert_eq!(refs.len(), via_scan.len());
        }
    }

    #[test]
    fn cursor_full_scan_lists_live_rows() {
        let mut db = sample();
        db.rebuild_posting_csr();
        db.remove(&Triple::new(
            "embl:X00001",
            "EMBL#Organism",
            Term::literal("Penicillium chrysogenum"),
        ));
        assert_eq!(db.rows().count(), 3);
        assert_eq!(db.iter_refs().count(), 3);
        assert_eq!(db.iter().count(), 3);
    }

    #[test]
    fn select_like_wildcards() {
        let db = sample();
        assert_eq!(like_count(&db, Position::Object, "%Aspergillus%"), 2);
        assert_eq!(like_count(&db, Position::Object, "1042"), 1);
    }

    /// A scan's `LIKE` verdict table has a slot per candidate row, but
    /// term ids run past it: a 100-row posting list's 50 objects sit
    /// among 1 000 other terms, so some two share a slot of the 128, and
    /// a verdict is reused only for the term it was computed for.
    #[test]
    fn like_verdicts_that_share_a_slot_stay_apart() {
        let mut db = TripleStore::new();
        let value = |i: usize| Term::literal(format!("v{i}"));
        db.insert_batch(
            (0..1000).map(|i| Triple::new(format!("f{i}").as_str(), "filler", value(i))),
        );
        // Each object twice, 50 rows apart.
        let objects: Vec<usize> = (0..100).map(|r| (r % 50) * 37 % 1000).collect();
        db.insert_batch(
            objects
                .iter()
                .enumerate()
                .map(|(r, &i)| Triple::new(format!("e{r}").as_str(), "p", value(i))),
        );
        let slot = |i: &usize| db.dict().lookup(&format!("v{i}")).unwrap().index() & 127;
        let slots: FxHashSet<usize> = objects.iter().map(slot).collect();
        assert!(slots.len() < 50, "some two objects share a slot");
        let pattern = TriplePattern::new(
            PatternTerm::var("s"),
            PatternTerm::constant(Term::uri("p")),
            PatternTerm::constant(Term::literal("%1%")),
        );
        let naive: Vec<String> = (0..100)
            .filter(|&r| format!("v{}", objects[r]).contains('1'))
            .map(|r| format!("e{r}"))
            .collect();
        let matched: Vec<String> = db
            .match_pattern(&pattern)
            .iter()
            .map(|b| b.get("s").unwrap().lexical().to_string())
            .collect();
        assert_eq!(matched, naive);
    }

    #[test]
    fn select_like_prefix_range_scans() {
        let db = sample();
        assert_eq!(like_count(&db, Position::Object, "Aspergillus%"), 2);
        assert_eq!(like_count(&db, Position::Subject, "embl:A78%"), 3);
        assert_eq!(like_count(&db, Position::Subject, "zzz%"), 0);
        assert_eq!(like_count(&db, Position::Object, "%nidulans"), 1);
    }

    #[test]
    fn paper_query_resolution() {
        // π_subject σ_predicate=EMBL#Organism ∧ object=%Aspergillus% (DB)
        let db = sample();
        let pattern = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("EMBL#Organism")),
            PatternTerm::constant(Term::literal("%Aspergillus%")),
        );
        let results = db.resolve(&pattern, "x");
        assert_eq!(
            results,
            vec![Term::uri("embl:A78712"), Term::uri("embl:A78767")]
        );
    }

    #[test]
    fn match_pattern_all_variables_returns_everything() {
        let db = sample();
        let pattern = TriplePattern::new(
            PatternTerm::var("s"),
            PatternTerm::var("p"),
            PatternTerm::var("o"),
        );
        assert_eq!(db.match_pattern(&pattern).len(), 4);
    }

    #[test]
    fn match_pattern_repeated_variable_compares_codes() {
        let mut db = TripleStore::new();
        db.insert(Triple::new("a", "p", Term::uri("a")));
        db.insert(Triple::new("a", "p", Term::literal("a")));
        db.insert(Triple::new("a", "p", Term::uri("b")));
        let pattern = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("p")),
            PatternTerm::var("x"),
        );
        // Only the uri-object row matches: the literal "a" differs in
        // kind from the uri subject <a> despite the equal lexical.
        let matches = db.match_pattern(&pattern);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].get("x"), Some(&Term::uri("a")));
    }

    #[test]
    fn multi_constant_pattern_covers_head_and_tail() {
        // Two exact constants: the shortest posting plus the residual
        // sweep must cover the CSR head AND the tail, and agree with a
        // naive scan.
        let mut db = TripleStore::new();
        for i in 0..600 {
            db.insert(Triple::new(
                format!("s{}", i % 40),
                format!("p{}", i % 7),
                Term::literal(format!("o{}", i % 11)),
            ));
        }
        db.rebuild_posting_csr();
        for i in 600..800 {
            db.insert(Triple::new(
                format!("s{}", i % 40),
                format!("p{}", i % 7),
                Term::literal(format!("o{}", i % 11)),
            ));
        }
        // Tombstones must not resurface.
        db.remove(&Triple::new("s3", "p3", Term::literal("o3")));
        for (s, p) in [("s3", "p3"), ("s0", "p0"), ("s12", "p5"), ("s39", "p6")] {
            let pattern = TriplePattern::new(
                PatternTerm::constant(Term::uri(s)),
                PatternTerm::constant(Term::uri(p)),
                PatternTerm::var("o"),
            );
            let fast = matching_rows(&db, &pattern);
            let naive: Vec<u32> = db
                .rows()
                .filter(|&id| {
                    let t = db.ref_of(id);
                    t.subject == s && t.predicate == p
                })
                .collect();
            assert_eq!(fast, naive, "({s}, {p}, ?o)");
        }
        // Three constants, including the object's literal kind check.
        let pattern = TriplePattern::new(
            PatternTerm::constant(Term::uri("s5")),
            PatternTerm::constant(Term::uri("p5")),
            PatternTerm::constant(Term::literal("o5")),
        );
        let hits = matching_rows(&db, &pattern);
        assert!(!hits.is_empty());
        assert!(db
            .match_pattern(&TriplePattern::new(
                PatternTerm::constant(Term::uri("s5")),
                PatternTerm::constant(Term::uri("p5")),
                PatternTerm::constant(Term::uri("o5")), // uri ≠ stored literal
            ))
            .is_empty());
    }

    #[test]
    fn self_join_connects_attributes() {
        // Sequences with an Organism AND a SequenceLength.
        let db = sample();
        let left = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("EMBL#Organism")),
            PatternTerm::var("org"),
        );
        let right = TriplePattern::new(
            PatternTerm::var("x"),
            PatternTerm::constant(Term::uri("EMBL#SequenceLength")),
            PatternTerm::var("len"),
        );
        let joined = db.join(&left, &right);
        assert_eq!(joined.len(), 1);
        assert_eq!(joined[0].get("x"), Some(&Term::uri("embl:A78712")));
        assert_eq!(joined[0].get("len"), Some(&Term::literal("1042")));
    }

    #[test]
    fn compact_preserves_content() {
        let mut db = sample();
        db.remove(&Triple::new(
            "embl:X00001",
            "EMBL#Organism",
            Term::literal("Penicillium chrysogenum"),
        ));
        let before: Vec<Triple> = {
            let mut v: Vec<Triple> = db.iter().collect();
            v.sort();
            v
        };
        db.compact();
        let mut after: Vec<Triple> = db.iter().collect();
        after.sort();
        assert_eq!(before, after);
        assert_eq!(db.len(), 3);
        // The tombstoned row is physically gone (row ids are dense).
        assert_eq!(db.rows().last(), Some(2));
    }

    #[test]
    fn compact_drops_dead_dictionary_entries_and_keeps_queries_working() {
        let mut db = sample();
        let dict_before = db.dict().len();
        db.remove(&Triple::new(
            "embl:X00001",
            "EMBL#Organism",
            Term::literal("Penicillium chrysogenum"),
        ));
        db.compact();
        assert!(
            db.dict().len() < dict_before,
            "terms only the removed triple used must be garbage-collected"
        );
        // Post-compaction queries across all access paths still work.
        let count = |pos, value| db.select_eq_rows(pos, value).count();
        assert_eq!(count(Position::Predicate, "EMBL#Organism"), 2);
        assert_eq!(count(Position::Subject, "embl:X00001"), 0);
        assert_eq!(like_count(&db, Position::Object, "Aspergillus%"), 2);
        assert!(db.insert(Triple::new("s", "p", Term::literal("new"))));
        assert_eq!(db.len(), 4);
    }

    /// Every row of `db`, as the codes it ships for `(?s ?p ?o)`.
    fn shipped(db: &TripleStore) -> Vec<u64> {
        let all = TriplePattern::new(
            PatternTerm::var("s"),
            PatternTerm::var("p"),
            PatternTerm::var("o"),
        );
        let mut batch = BindingBatch::for_pattern(&all);
        db.match_into(&all, &mut batch);
        batch.codes
    }

    #[test]
    fn compact_keeps_the_lexicon_ids() {
        // The lexicon numbers the store's terms in another order than the
        // store does: it saw other terms first.
        let mut lexicon = TermDict::new();
        lexicon.canonical_triple(&Triple::new("z", "y", Term::literal("x")));
        let mut db = TripleStore::new();
        let triples = [
            Triple::new("embl:A78712", "EMBL#Organism", Term::literal("niger")),
            Triple::new("embl:X00001", "EMBL#Organism", Term::literal("chrysogenum")),
            Triple::new("embl:A78712", "EMBL#Length", Term::literal("1042")),
        ];
        db.insert_batch(triples.iter().map(|t| lexicon.canonical_triple(t)));
        db.remove(&triples[1]);
        let before = shipped(&db);
        let dict_before = db.dict().len();
        db.compact();
        assert!(db.dict().len() < dict_before, "the removed row's terms go");
        assert_eq!(shipped(&db), before);
        let decoded = |codes: &[u64]| -> Vec<Term> {
            codes.iter().map(|&c| lexicon.term_of_code(c)).collect()
        };
        assert_eq!(
            decoded(&before),
            [&triples[0], &triples[2]]
                .iter()
                .flat_map(|t| {
                    let t = (*t).clone();
                    [Term::Uri(t.subject), Term::Uri(t.predicate), t.object]
                })
                .collect::<Vec<Term>>()
        );
    }

    #[test]
    fn a_literal_subject_or_predicate_constant_matches_no_row() {
        // "a" and "p" are stored — as a subject and a predicate URI, and
        // as literal objects — so a literal constant finds its id.
        let mut db = TripleStore::new();
        db.insert(Triple::new("a", "p", Term::literal("a")));
        db.insert(Triple::new("a", "p", Term::literal("p")));
        let (var, c) = (PatternTerm::var, PatternTerm::constant);
        for (pattern, rows) in [
            (
                TriplePattern::new(c(Term::literal("a")), var("p"), var("o")),
                0,
            ),
            (
                TriplePattern::new(var("s"), c(Term::literal("p")), var("o")),
                0,
            ),
            (
                TriplePattern::new(c(Term::uri("a")), c(Term::uri("p")), var("o")),
                2,
            ),
            (
                TriplePattern::new(var("s"), var("p"), c(Term::literal("p"))),
                1,
            ),
            (TriplePattern::new(var("s"), var("p"), c(Term::uri("p"))), 0),
        ] {
            assert_eq!(db.match_pattern(&pattern).len(), rows, "{pattern:?}");
            let mut batch = BindingBatch::for_pattern(&pattern);
            assert_eq!(db.match_into(&pattern, &mut batch), rows, "{pattern:?}");
        }
    }

    #[test]
    fn a_lexicon_fed_store_pays_four_bytes_per_term_for_its_ids() {
        // The 18 400-row shape of `a_small_store_pays_per_row_too`, fed
        // through a lexicon: the lexicon-id column is the only addition.
        let (rows, batch) = (18_400, 368);
        let plain = load_shape(rows, batch);
        let mut lexicon = TermDict::new();
        let mut db = TripleStore::new();
        for part in plain.iter().collect::<Vec<Triple>>().chunks(batch) {
            db.insert_batch(part.iter().map(|t| lexicon.canonical_triple(t)));
        }
        let extra = footprint(&db)[3] - footprint(&plain)[3];
        assert_eq!(extra, db.dict().lexicon_id_bytes());
        let terms = db.dict().len();
        let per_row = extra as f64 / rows as f64;
        println!("lexicon ids: {extra} B for {terms} terms, {per_row:.2} B/row");
        // Four bytes per term, growing by half.
        assert!(extra <= terms * 4 * 3 / 2, "{extra} B for {terms} terms");
        assert_eq!(shipped(&db).len(), 3 * rows);
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::like_count;
    use super::*;
    use crate::triple::PatternTerm;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn arb_triple() -> impl Strategy<Value = Triple> {
        ("[a-c]{1,2}", "[p-r]{1,2}", "[x-z]{1,2}")
            .prop_map(|(s, p, o)| Triple::new(s.as_str(), p.as_str(), Term::literal(o)))
    }

    /// Like [`arb_triple`], but the object is a URI or a literal over
    /// the same lexicals — the two kinds share a posting list.
    fn arb_mixed_triple() -> impl Strategy<Value = Triple> {
        ("[a-c]{1,2}", "[p-r]{1,2}", "[x-z]{1,2}", any::<bool>()).prop_map(|(s, p, o, lit)| {
            let object = if lit { Term::literal(o) } else { Term::uri(o) };
            Triple::new(s.as_str(), p.as_str(), object)
        })
    }

    /// Like [`arb_pooled_triple`], over a pool whose lexicals may hold
    /// a `%`.
    fn arb_percent_triple() -> impl Strategy<Value = Triple> {
        ("[a%]{1,2}", "[a%]{1,2}", "[a%]{1,2}", any::<bool>()).prop_map(|(s, p, o, lit)| {
            let object = if lit { Term::literal(o) } else { Term::uri(o) };
            Triple::new(s.as_str(), p.as_str(), object)
        })
    }

    /// Subject, predicate and object over one two-letter pool (objects
    /// of either kind), so repeated-variable patterns find matches.
    fn arb_pooled_triple() -> impl Strategy<Value = Triple> {
        ("[a-b]{1,2}", "[a-b]{1,2}", "[a-b]{1,2}", any::<bool>()).prop_map(|(s, p, o, lit)| {
            let object = if lit { Term::literal(o) } else { Term::uri(o) };
            Triple::new(s.as_str(), p.as_str(), object)
        })
    }

    /// A store built as `first`, an optional CSR rebuild, `removals`
    /// (tombstones under the head when it was rebuilt), then `second`
    /// (the tail) — with its live triples in insertion order.
    fn build(
        first: &[Triple],
        seal: bool,
        removals: &[prop::sample::Index],
        second: &[Triple],
    ) -> (TripleStore, Vec<Triple>) {
        build_through(None, first, seal, removals, second)
    }

    /// [`build`], every triple rebuilt through `lexicon` if there is one.
    fn build_through(
        mut lexicon: Option<&mut TermDict>,
        first: &[Triple],
        seal: bool,
        removals: &[prop::sample::Index],
        second: &[Triple],
    ) -> (TripleStore, Vec<Triple>) {
        let mut db = TripleStore::new();
        let mut insert = |db: &mut TripleStore, t: &Triple| match lexicon.as_deref_mut() {
            Some(lexicon) => db.insert_batch([lexicon.canonical_triple(t)]) == 1,
            None => db.insert(t.clone()),
        };
        let mut reference: Vec<Triple> = Vec::new();
        for t in first {
            if insert(&mut db, t) {
                reference.push(t.clone());
            }
        }
        if seal {
            db.rebuild_posting_csr();
        }
        for idx in removals {
            if reference.is_empty() {
                break;
            }
            let t = reference.remove(idx.index(reference.len()));
            assert!(db.remove(&t));
        }
        for t in second {
            if insert(&mut db, t) {
                reference.push(t.clone());
            }
        }
        (db, reference)
    }

    /// The code of `term` in `lexicon`, interning it on first sight.
    fn lexicon_code(lexicon: &mut TermDict, term: &Term) -> u64 {
        crate::join::tests::code(lexicon, term)
    }

    /// Drain a cursor granule-at-a-time and concatenate the batches.
    fn drain_blocks(mut c: RowCursor<'_>) -> Vec<u32> {
        let mut out = Vec::new();
        let mut buf = Vec::new();
        while c.next_block(&mut buf) {
            out.extend_from_slice(&buf);
        }
        out
    }

    proptest! {
        /// One batch ≡ random chunks ≡ one `insert` per triple: the same
        /// rows under the same row ids and the same "new" counts as a
        /// naive ordered set — with an `abc%` read at every position
        /// between the writes (and sometimes a CSR rebuild), so each
        /// write meets a built sorted key index and drops it exactly
        /// when it brings the position a new term.
        #[test]
        fn insert_batch_matches_sequential_inserts(
            triples in proptest::collection::vec(arb_pooled_triple(), 0..40),
            cuts in proptest::collection::vec(any::<prop::sample::Index>(), 0..6),
            prefix in "[a-b]{1,2}",
            seal in any::<bool>(),
        ) {
            let mut model: Vec<Triple> = Vec::new();
            let prefix_reads_agree = |db: &TripleStore, model: &[Triple]| {
                Position::ALL.into_iter().all(|pos| {
                    let naive = model.iter().filter(|t| t.get(pos).lexical().starts_with(&prefix));
                    like_count(db, pos, &format!("{prefix}%")) == naive.count()
                })
            };
            let mut bounds: Vec<usize> = cuts.iter().map(|c| c.index(triples.len() + 1)).collect();
            bounds.push(triples.len());
            bounds.sort_unstable();

            let mut whole = TripleStore::new();
            let mut chunked = TripleStore::new();
            let mut single = TripleStore::new();
            prop_assert!(prefix_reads_agree(&chunked, &model));
            let mut from = 0;
            for to in bounds {
                let chunk = &triples[from..to];
                from = to;
                let known = model.clone();
                for t in chunk {
                    let fresh = !model.contains(t);
                    prop_assert_eq!(single.insert(t.clone()), fresh);
                    if fresh { model.push(t.clone()); }
                }
                prop_assert_eq!(chunked.insert_batch(chunk.iter().cloned()), model.len() - known.len());
                for pos in Position::ALL {
                    let has = |t: &Triple| known.iter().any(|k| k.get(pos).lexical() == t.get(pos).lexical());
                    let dropped = chunked.index(pos).sorted.get().is_none();
                    prop_assert_eq!(dropped, !chunk.iter().all(has), "{:?}", pos);
                }
                prop_assert!(prefix_reads_agree(&chunked, &model), "chunked, {:?}%", prefix);
                prop_assert!(prefix_reads_agree(&single, &model), "single, {:?}%", prefix);
                if seal { chunked.rebuild_posting_csr(); }
            }
            prop_assert_eq!(whole.insert_batch(triples.iter().cloned()), model.len());
            prop_assert!(prefix_reads_agree(&whole, &model));
            // A second batch over the same data inserts nothing.
            prop_assert_eq!(whole.insert_batch(triples.iter().cloned()), 0);
            for db in [&whole, &chunked, &single] {
                prop_assert_eq!(db.len(), model.len());
                prop_assert_eq!(&db.iter().collect::<Vec<_>>(), &model);
            }
            // Batches interleave with removals: the row comes back once.
            if let Some(t) = model.first() {
                prop_assert!(chunked.remove(t));
                prop_assert_eq!(chunked.insert_batch([t.clone(), t.clone()]), 1);
                prop_assert!(chunked.contains(t));
                for pos in Position::ALL {
                    let value = t.get(pos);
                    let rows = |db: &TripleStore| db.select_eq_rows(pos, value.lexical()).count();
                    prop_assert_eq!(rows(&chunked), rows(&single), "{:?} {}", pos, value);
                }
            }
        }

        /// The three indexes agree with a full scan, for every position.
        #[test]
        fn indexes_agree_with_scan(triples in proptest::collection::vec(arb_triple(), 0..40),
                                   removals in proptest::collection::vec(any::<prop::sample::Index>(), 0..10)) {
            let mut db = TripleStore::new();
            let mut reference: Vec<Triple> = Vec::new();
            for t in &triples {
                if db.insert(t.clone()) {
                    reference.push(t.clone());
                }
            }
            for idx in &removals {
                if reference.is_empty() { break; }
                let i = idx.index(reference.len());
                let t = reference.remove(i);
                prop_assert!(db.remove(&t));
            }
            prop_assert_eq!(db.len(), reference.len());
            for pos in Position::ALL {
                for t in &reference {
                    let value = t.get(pos);
                    let via_index = db.select_eq_rows(pos, value.lexical()).count();
                    let via_scan = reference
                        .iter()
                        .filter(|r| r.get(pos).lexical() == value.lexical())
                        .count();
                    prop_assert_eq!(via_index, via_scan);
                }
            }
        }

        /// Multi-constant patterns — shortest posting plus residual
        /// sweep — yield exactly the naive matcher's bindings, in
        /// insertion order, on stores that straddle a CSR rebuild,
        /// carry tombstones, and hold URIs and literals of equal
        /// lexical (which share a posting list).
        #[test]
        fn multi_constant_intersection_agrees_with_naive(
            first in proptest::collection::vec(arb_mixed_triple(), 0..40),
            removals in proptest::collection::vec(any::<prop::sample::Index>(), 0..10),
            second in proptest::collection::vec(arb_mixed_triple(), 0..20),
            subj in "[a-c]{1,2}",
            pred in "[p-r]{1,2}",
            obj in "[x-z]{1,2}",
            ops in 0usize..16,
        ) {
            let (seal, obj_is_literal) = (ops & 4 != 0, ops & 8 != 0);
            let (db, reference) = build(&first, seal, &removals, &second);
            // Which positions carry a constant: sp, so, po, spo.
            let (cs, cp, co) = [
                (true, true, false),
                (true, false, true),
                (false, true, true),
                (true, true, true),
            ][ops & 3];
            let slot = |on: bool, term: Term, var: &str| {
                if on { PatternTerm::constant(term) } else { PatternTerm::var(var) }
            };
            let object = if obj_is_literal { Term::literal(obj) } else { Term::uri(obj) };
            let pattern = TriplePattern::new(
                slot(cs, Term::uri(subj), "s"),
                slot(cp, Term::uri(pred), "p"),
                slot(co, object, "o"),
            );
            let naive: Vec<Binding> =
                reference.iter().filter_map(|t| pattern.match_triple(t)).collect();
            prop_assert_eq!(db.match_pattern(&pattern), naive, "{:?}", pattern);
        }

        /// match_pattern with one constant — at the predicate, or at the
        /// object in either kind — agrees with the naive matcher across
        /// a CSR rebuild and tombstones.
        #[test]
        fn match_pattern_agrees_with_naive(
            first in proptest::collection::vec(arb_mixed_triple(), 0..30),
            removals in proptest::collection::vec(any::<prop::sample::Index>(), 0..10),
            second in proptest::collection::vec(arb_mixed_triple(), 0..15),
            pred in "[p-r]{1,2}",
            obj in "[x-z]{1,2}",
            seal in any::<bool>(),
            shape in 0usize..3,
        ) {
            let (db, reference) = build(&first, seal, &removals, &second);
            let (p, o) = match shape {
                0 => (PatternTerm::constant(Term::uri(pred)), PatternTerm::var("o")),
                1 => (PatternTerm::var("p"), PatternTerm::constant(Term::uri(obj))),
                _ => (PatternTerm::var("p"), PatternTerm::constant(Term::literal(obj))),
            };
            let pattern = TriplePattern::new(PatternTerm::var("s"), p, o);
            let naive: Vec<Binding> =
                reference.iter().filter_map(|t| pattern.match_triple(t)).collect();
            prop_assert_eq!(db.match_pattern(&pattern), naive, "{:?}", pattern);
        }

        /// The batch kernel, `match_pattern` and the naive matcher agree
        /// on rows *and* order — across a CSR rebuild and tombstones,
        /// over one lexical pool for all three positions so repeated
        /// variables do match — for repeated-variable, all-constant
        /// (zero-width rows that still count) and `%` patterns; and a
        /// second scan appends after the first.
        #[test]
        fn match_into_agrees_with_match_pattern_and_naive(
            first in proptest::collection::vec(arb_pooled_triple(), 0..40),
            removals in proptest::collection::vec(any::<prop::sample::Index>(), 0..10),
            second in proptest::collection::vec(arb_pooled_triple(), 0..20),
            probe in arb_pooled_triple(),
            stored in any::<prop::sample::Index>(),
            core in "[a-b]{0,2}",
            (seal, wide) in (any::<bool>(), any::<bool>()),
            shape in 0usize..9,
        ) {
            // A wide tail: 200 rows over 80 distinct objects, each met
            // two or three times, so the `LIKE` verdict memo answers
            // from its slots within one granule (slots that two terms
            // share: `like_verdicts_that_share_a_slot_stay_apart`).
            let mut second = second;
            if wide {
                second.extend((0..200).map(|i: usize| {
                    let j = i * 37 % 80;
                    let object = format!("{}{j}", ["a", "b", "ab", "ba"][j % 4]);
                    Triple::new(["a", "b", "ab"][i % 3], "ab", Term::literal(object))
                }));
            }
            let (db, reference) = build(&first, seal, &removals, &second);
            let var = PatternTerm::var;
            // Ground patterns take a stored triple when there is one.
            let ground = if reference.is_empty() || shape % 2 == 0 {
                probe
            } else {
                reference[stored.index(reference.len())].clone()
            };
            let pattern = match shape {
                0 => TriplePattern::new(var("x"), var("p"), var("x")),
                1 => TriplePattern::new(var("x"), var("x"), var("o")),
                2 => TriplePattern::new(var("x"), var("x"), var("x")),
                3 | 4 => TriplePattern::new(
                    PatternTerm::constant(Term::Uri(ground.subject)),
                    PatternTerm::constant(Term::Uri(ground.predicate)),
                    PatternTerm::constant(ground.object),
                ),
                5 => TriplePattern::new(
                    var("s"),
                    var("p"),
                    PatternTerm::constant(Term::literal(format!("%{core}%"))),
                ),
                6 => TriplePattern::new(
                    var("s"),
                    var("s"),
                    PatternTerm::constant(Term::literal(format!("{core}%"))),
                ),
                7 => TriplePattern::new(
                    var("s"),
                    PatternTerm::constant(Term::Uri(ground.predicate)),
                    var("o"),
                ),
                _ => TriplePattern::new(var("s"), var("p"), var("o")),
            };
            let naive: Vec<Binding> =
                reference.iter().filter_map(|t| pattern.match_triple(t)).collect();
            prop_assert_eq!(&db.match_pattern(&pattern), &naive, "{:?}", pattern);

            let mut batch = BindingBatch::for_pattern(&pattern);
            prop_assert_eq!(db.match_into(&pattern, &mut batch), naive.len(), "{:?}", pattern);
            prop_assert_eq!(batch.len(), naive.len());
            prop_assert_eq!(&batch.bindings(db.dict()), &naive, "{:?}", pattern);
            // Appending: a second scan lands after the first.
            prop_assert_eq!(db.match_into(&pattern, &mut batch), naive.len());
            prop_assert_eq!(batch.len(), 2 * naive.len());
            let twice: Vec<Binding> = naive.iter().chain(&naive).cloned().collect();
            prop_assert_eq!(batch.bindings(db.dict()), twice, "{:?}", pattern);
        }

        /// The seeded kernel answers a binding column exactly as one
        /// `match_into` per substituted instance would — the same rows in
        /// the same order, the same count per seed — on stores across a
        /// seal, tombstones and a `compact`, for templates with a
        /// repeated variable, a `LIKE` constant or a constant the store
        /// lacks, and for seeds (without `%`) that bind none, some or all
        /// of the template's variables, to stored or unseen terms of
        /// either kind.
        #[test]
        fn match_seeds_into_agrees_with_substituted_instances(
            first in proptest::collection::vec(arb_pooled_triple(), 0..40),
            removals in proptest::collection::vec(any::<prop::sample::Index>(), 0..10),
            second in proptest::collection::vec(arb_pooled_triple(), 0..20),
            values in proptest::collection::vec(("[a-c]{1,2}", any::<bool>()), 0..24),
            mask in 0u8..16,
            core in "[a-b]{0,1}",
            ops in 0u8..4,
            shape in 0usize..6,
        ) {
            let mut lexicon = TermDict::new();
            let (mut db, _) =
                build_through(Some(&mut lexicon), &first, ops & 1 != 0, &removals, &second);
            if ops & 2 != 0 {
                db.compact();
            }
            let (var, uri) = (PatternTerm::var, |u: &str| PatternTerm::constant(Term::uri(u)));
            let template = match shape {
                0 => TriplePattern::new(var("x"), var("p"), var("o")),
                1 => TriplePattern::new(var("x"), var("p"), var("x")),
                2 => TriplePattern::new(var("x"), uri("a"), var("o")),
                3 => TriplePattern::new(var("x"), uri("never stored"), var("o")),
                4 => TriplePattern::new(
                    var("x"),
                    var("p"),
                    PatternTerm::constant(Term::literal(format!("{core}%"))),
                ),
                _ => TriplePattern::new(var("x"), var("x"), var("o")),
            };
            // Every seed binds the variables `mask` picks — `s` is none
            // of the template's — to a term over a pool the store only
            // partly holds (nothing there starts with `c`).
            let names: Vec<&str> = ["x", "p", "o", "s"]
                .into_iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .map(|(_, v)| v)
                .collect();
            let term = |(lexical, lit): &(String, bool)| {
                if *lit { Term::literal(lexical.as_str()) } else { Term::uri(lexical.as_str()) }
            };
            let seeds: Vec<Binding> = values
                .chunks(4)
                .map(|chunk| {
                    let mut seed = Binding::new();
                    for (name, value) in names.iter().zip(chunk.iter().cycle()) {
                        seed.bind(name.to_string(), term(value));
                    }
                    seed
                })
                .collect();
            // The column carries the seeds' codes in the lexicon, which
            // numbers the values the store lacks too.
            let mut column = SeedColumn::new(names.iter().copied());
            for seed in &seeds {
                let codes: Vec<u64> = names
                    .iter()
                    .map(|&v| lexicon_code(&mut lexicon, seed.get(v).expect("bound")))
                    .collect();
                column.push(&codes);
            }
            let instance = |seed: &Binding| template.substitute(seed);
            let header = BindingBatch::for_instances(&template, &column);
            if let Some(first) = seeds.first() {
                prop_assert_eq!(header.vars(), BindingBatch::for_pattern(&instance(first)).vars());
            }

            let mut batch = header.clone();
            let mut shipped = Vec::new();
            db.match_seeds_into(&template, &column, &lexicon, &mut batch, &mut shipped);
            let mut expected = header.clone();
            let counts: Vec<usize> =
                seeds.iter().map(|s| db.match_into(&instance(s), &mut expected)).collect();
            prop_assert_eq!(&shipped, &counts, "{:?} {:?}", template, seeds);
            prop_assert_eq!(&batch.codes, &expected.codes, "{:?}", template);
            prop_assert_eq!(batch.bindings(&lexicon), expected.bindings(&lexicon), "{:?}", template);
        }

        /// The two ways of answering a binding column ship the same
        /// codes in the same order and the same count per seed: one
        /// sweep of the template matched to the seeds by code, and one
        /// bound scan per seed. On stores loaded through a lexicon
        /// across a seal, tombstones and a `compact`, or fed plain
        /// triples and asked in their own dictionary; for templates with
        /// an exact constant, a repeated variable, a `LIKE` constant or a
        /// constant the store lacks; for columns with duplicate seeds,
        /// literals bound at subject position, values the store lacks
        /// and values holding a `%`.
        #[test]
        fn a_swept_column_ships_what_its_probes_ship(
            first in proptest::collection::vec(arb_percent_triple(), 0..40),
            removals in proptest::collection::vec(any::<prop::sample::Index>(), 0..10),
            second in proptest::collection::vec(arb_percent_triple(), 0..20),
            values in proptest::collection::vec(("[ac%]{1,2}", any::<bool>()), 0..24),
            copies in proptest::collection::vec(any::<prop::sample::Index>(), 0..4),
            (mask, shape) in (1u8..8, 0usize..8),
            core in "[a%]{0,1}",
            ops in 0u8..8,
        ) {
            let plain = ops & 4 != 0;
            let mut lexicon = TermDict::new();
            let (mut db, _) = if plain {
                build(&first, ops & 1 != 0, &removals, &second)
            } else {
                build_through(Some(&mut lexicon), &first, ops & 1 != 0, &removals, &second)
            };
            if ops & 2 != 0 {
                db.compact();
            }
            let (var, uri) = (PatternTerm::var, |u: &str| PatternTerm::constant(Term::uri(u)));
            let like = || PatternTerm::constant(Term::literal(format!("{core}%")));
            let template = match shape {
                0 => TriplePattern::new(var("x"), uri("a"), var("o")),
                1 => TriplePattern::new(var("x"), uri("a"), var("x")),
                2 => TriplePattern::new(var("x"), uri("a%"), like()),
                3 => TriplePattern::new(var("x"), uri("never stored"), var("o")),
                4 => TriplePattern::new(var("x"), var("p"), PatternTerm::constant(Term::uri("a"))),
                5 => TriplePattern::new(var("x"), var("p"), like()),
                6 => TriplePattern::new(var("x"), var("x"), var("o")),
                _ => TriplePattern::new(var("x"), var("p"), var("o")),
            };
            let names: Vec<&str> = ["x", "p", "o"]
                .into_iter()
                .enumerate()
                .filter(|&(i, _)| mask & (1 << i) != 0)
                .map(|(_, v)| v)
                .collect();
            let term = |(lexical, lit): &(String, bool)| {
                if *lit { Term::literal(lexical.as_str()) } else { Term::uri(lexical.as_str()) }
            };
            // Seeds over a pool the store partly holds (nothing there
            // holds a `c`), then copies of some of them.
            let mut seeds: Vec<Vec<Term>> = values
                .chunks(3)
                .map(|chunk| names.iter().zip(chunk.iter().cycle()).map(|(_, v)| term(v)).collect())
                .collect();
            for copy in &copies {
                if !seeds.is_empty() {
                    seeds.push(seeds[copy.index(seeds.len())].clone());
                }
            }
            // A plain store is asked in its own dictionary, which can
            // code only the values it holds.
            let mut column = SeedColumn::new(names.iter().copied());
            for seed in &seeds {
                let codes: Option<Vec<u64>> = if plain {
                    seed.iter().map(|t| db.dict().code_of(t)).collect()
                } else {
                    Some(seed.iter().map(|t| lexicon_code(&mut lexicon, t)).collect())
                };
                if let Some(codes) = codes {
                    column.push(&codes);
                }
            }
            let dict = if plain { db.dict() } else { &lexicon };
            prop_assert!(db.dict.codes_are_over(dict));
            let header = BindingBatch::for_instances(&template, &column);
            let answer = |path| {
                let (mut batch, mut shipped) = (header.clone(), Vec::new());
                db.match_seeds_by(path, &template, &column, dict, &mut batch, &mut shipped);
                (batch.codes, shipped)
            };
            let probed = answer(Some(SeedPath::Probe));
            prop_assert_eq!(probed.1.len(), column.len());
            prop_assert_eq!(&answer(Some(SeedPath::Sweep)), &probed, "{:?} {:?}", template, seeds);
            prop_assert_eq!(&answer(None), &probed, "{:?}", template);
        }

        /// Two stores loaded through one lexicon ship one code per term:
        /// equal terms ship equal codes across the stores, a URI and a
        /// literal with one lexical ship distinct ones, and the shipped
        /// batches decode through the lexicon to `match_pattern`'s rows
        /// — unseeded, and seeded with a column of both stores' terms
        /// and a value neither holds — across a seal, tombstones and a
        /// `compact` of the first store.
        #[test]
        fn stores_loaded_through_one_lexicon_ship_one_code_per_term(
            first in proptest::collection::vec(arb_pooled_triple(), 0..40),
            removals in proptest::collection::vec(any::<prop::sample::Index>(), 0..10),
            second in proptest::collection::vec(arb_pooled_triple(), 0..20),
            other in proptest::collection::vec(arb_pooled_triple(), 0..30),
            ops in 0u8..4,
            shape in 0usize..3,
        ) {
            let mut lexicon = TermDict::new();
            // A value no store holds, numbered first.
            let unseen = lexicon_code(&mut lexicon, &Term::uri("c"));
            let (mut a, _) =
                build_through(Some(&mut lexicon), &first, ops & 1 != 0, &removals, &second);
            if ops & 2 != 0 {
                a.compact();
            }
            let mut b = TripleStore::new();
            b.insert_batch(other.iter().map(|t| lexicon.canonical_triple(t)));
            let var = PatternTerm::var;
            let all = TriplePattern::new(var("s"), var("p"), var("o"));
            let mut cells: Vec<(u64, Term)> = Vec::new();
            for db in [&a, &b] {
                let mut batch = BindingBatch::for_pattern(&all);
                db.match_into(&all, &mut batch);
                let rows = db.match_pattern(&all);
                prop_assert_eq!(&batch.bindings(&lexicon), &rows);
                for (codes, row) in batch.rows().zip(&rows) {
                    for (&code, name) in codes.iter().zip(["s", "p", "o"]) {
                        cells.push((code, row.get(name).expect("bound").clone()));
                    }
                }
            }
            for (code, term) in &cells {
                prop_assert_eq!(Some(*code), lexicon.code_of(term), "{}", term);
            }
            for (i, (c1, t1)) in cells.iter().enumerate() {
                for (c2, t2) in &cells[i + 1..] {
                    prop_assert_eq!(c1 == c2, t1 == t2, "{} vs {}", t1, t2);
                }
            }

            // Seeded: a column over the distinct shipped terms and the
            // unseen value, at the variable `shape` picks.
            let name = ["s", "p", "o"][shape];
            let mut column = SeedColumn::new([name]);
            let mut codes: Vec<u64> = cells.iter().map(|(c, _)| *c).collect();
            codes.sort_unstable();
            codes.dedup();
            codes.truncate(12);
            codes.push(unseen);
            for code in &codes {
                column.push(&[*code]);
            }
            for db in [&a, &b] {
                let mut batch = BindingBatch::for_instances(&all, &column);
                let mut shipped = Vec::new();
                db.match_seeds_into(&all, &column, &lexicon, &mut batch, &mut shipped);
                let mut expected = Vec::new();
                for (i, n) in shipped.iter().enumerate() {
                    let instance = all.substitute(&column.binding(i, &lexicon));
                    let rows = db.match_pattern(&instance);
                    prop_assert_eq!(rows.len(), *n, "{:?}", instance);
                    expected.extend(rows);
                }
                prop_assert_eq!(shipped.len(), codes.len());
                prop_assert_eq!(shipped.last(), Some(&0), "the unseen value ships nothing");
                prop_assert_eq!(batch.bindings(&lexicon), expected);
            }
        }

        /// A LIKE constant agrees with a naive scan for every pattern shape
        /// (exact, prefix range scan, suffix, contains).
        #[test]
        fn select_like_agrees_with_scan(triples in proptest::collection::vec(arb_triple(), 0..30),
                                        core in "[x-z]{0,2}",
                                        shape in 0usize..4) {
            let mut db = TripleStore::new();
            for t in &triples { db.insert(t.clone()); }
            let pattern = match shape {
                0 => core.clone(),
                1 => format!("{core}%"),
                2 => format!("%{core}"),
                _ => format!("%{core}%"),
            };
            let fast = like_count(&db, Position::Object, &pattern);
            let naive = db
                .iter()
                .filter(|t| t.get(Position::Object).matches_like(&pattern))
                .count();
            prop_assert_eq!(fast, naive, "pattern {:?}", pattern);
        }

        /// The hash self-join agrees with the naive nested loop over
        /// `Binding::join` on random stores.
        #[test]
        fn join_agrees_with_nested_loop(triples in proptest::collection::vec(arb_triple(), 0..30),
                                        p1 in "[p-r]{1,2}",
                                        p2 in "[p-r]{1,2}") {
            let mut db = TripleStore::new();
            for t in &triples { db.insert(t.clone()); }
            let left = TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri(p1)),
                PatternTerm::var("a"),
            );
            let right = TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::constant(Term::uri(p2)),
                PatternTerm::var("b"),
            );
            let naive: Vec<Binding> = {
                let lhs = db.match_pattern(&left);
                let rhs = db.match_pattern(&right);
                let mut out = Vec::new();
                for l in &lhs {
                    for r in &rhs {
                        if let Some(j) = l.join(r) {
                            out.push(j);
                        }
                    }
                }
                out
            };
            prop_assert_eq!(db.join(&left, &right), naive);
        }

        /// compact preserves contents and queries under random removals.
        #[test]
        fn compact_preserves_under_removals(triples in proptest::collection::vec(arb_triple(), 0..30),
                                            removals in proptest::collection::vec(any::<prop::sample::Index>(), 0..10)) {
            let mut db = TripleStore::new();
            let mut reference: Vec<Triple> = Vec::new();
            for t in &triples {
                if db.insert(t.clone()) {
                    reference.push(t.clone());
                }
            }
            for idx in &removals {
                if reference.is_empty() { break; }
                let t = reference.remove(idx.index(reference.len()));
                db.remove(&t);
            }
            db.compact();
            let mut got: Vec<Triple> = db.iter().collect();
            got.sort();
            reference.sort();
            prop_assert_eq!(got, reference);
        }

        /// Granule batches concatenate to exactly the row-at-a-time
        /// cursor stream — same rows, same order — for both cursor
        /// sources (posting, full scan) under interleaved mutation and
        /// CSR rebuilds, and the posting cursor yields exactly the live
        /// rows a column scan finds.
        #[test]
        fn next_block_concatenates_to_iteration(
            first in proptest::collection::vec(arb_triple(), 0..40),
            removals in proptest::collection::vec(any::<prop::sample::Index>(), 0..12),
            second in proptest::collection::vec(arb_triple(), 0..20),
            seal_points in 0u8..4,
        ) {
            let (mut db, reference) = build(&first, seal_points & 1 != 0, &removals, &second);
            if seal_points & 2 != 0 { db.rebuild_posting_csr(); }
            for pos in Position::ALL {
                for t in first.iter().chain(&second) {
                    let term = t.get(pos);
                    let v = term.lexical();
                    let via_posting: Vec<u32> = db.select_eq_rows(pos, v).collect();
                    prop_assert_eq!(drain_blocks(db.select_eq_rows(pos, v)), &via_posting[..], "posting {:?}", pos);
                    let id = db.dict.lookup(v).unwrap();
                    let via_scan: Vec<u32> = db.rows().filter(|&r| db.cols.id_at(r, pos) == id).collect();
                    prop_assert_eq!(via_posting, via_scan, "column scan {:?}", pos);
                }
            }
            let full: Vec<u32> = db.rows().collect();
            prop_assert_eq!(full.len(), reference.len());
            prop_assert_eq!(drain_blocks(db.rows()), full, "full scan");
        }

        /// Repeated-variable and LIKE-constant patterns run through the
        /// granule-batched residual filter; they agree with the naive
        /// filter under CSR rebuilds and compaction.
        #[test]
        fn granule_residuals_agree_with_naive(
            triples in proptest::collection::vec(arb_triple(), 0..50),
            removals in proptest::collection::vec(any::<prop::sample::Index>(), 0..10),
            core in "[x-z]{0,1}",
            ops in 0u8..4,
        ) {
            let mut db = TripleStore::new();
            let mut reference: Vec<Triple> = Vec::new();
            for t in &triples {
                if db.insert(t.clone()) { reference.push(t.clone()); }
            }
            for idx in &removals {
                if reference.is_empty() { break; }
                let t = reference.remove(idx.index(reference.len()));
                prop_assert!(db.remove(&t));
            }
            if ops & 1 != 0 { db.rebuild_posting_csr(); }
            if ops & 2 != 0 { db.compact(); }
            // Repeated variable: subject must equal predicate.
            let rep = TriplePattern::new(
                PatternTerm::var("x"),
                PatternTerm::var("x"),
                PatternTerm::var("o"),
            );
            let naive_rep = reference
                .iter()
                .filter(|t| t.subject.as_str() == t.predicate.as_str())
                .count();
            prop_assert_eq!(db.match_pattern(&rep).len(), naive_rep);
            // LIKE constant: residual `%core%` filter on the object.
            let like = format!("%{core}%");
            let lp = TriplePattern::new(
                PatternTerm::var("s"),
                PatternTerm::var("p"),
                PatternTerm::constant(Term::literal(like.clone())),
            );
            let naive_like = reference
                .iter()
                .filter(|t| t.get(Position::Object).matches_like(&like))
                .count();
            prop_assert_eq!(db.match_pattern(&lp).len(), naive_like, "like {:?}", like);
        }
    }

    /// One step of a store's history (see
    /// [`csr_postings_agree_with_reference`]).
    #[derive(Debug, Clone)]
    enum Op {
        /// `insert_batch`, with copies of earlier triples of the batch
        /// and a twin of its first triple whose object has the other
        /// kind (one lexical, one posting list, two rows).
        Batch(Vec<Triple>),
        /// `remove` of a live row, picked by its insertion rank.
        RemoveLive(prop::sample::Index),
        /// `remove` of any triple, held or not.
        RemoveAny(Triple),
        /// `insert` of the triple removed last.
        Reinsert,
        Compact,
        /// A CSR rebuild between writes.
        Seal,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        let batch = proptest::collection::vec(arb_mixed_triple(), 0..6);
        (
            0u8..10,
            batch,
            any::<prop::sample::Index>(),
            arb_mixed_triple(),
        )
            .prop_map(|(kind, mut batch, index, any)| match kind {
                0..=3 => {
                    let copies: Vec<Triple> = batch[..index.index(batch.len() + 1)].to_vec();
                    if let Some(t) = batch.first() {
                        let lexical = t.object.lexical();
                        let object = if t.object.is_literal() {
                            Term::uri(lexical)
                        } else {
                            Term::literal(lexical)
                        };
                        let twin = Triple::new(t.subject.clone(), t.predicate.clone(), object);
                        batch.push(twin);
                    }
                    batch.extend(copies);
                    Op::Batch(batch)
                }
                4 | 5 => Op::RemoveLive(index),
                6 => Op::RemoveAny(any),
                7 => Op::Reinsert,
                8 => Op::Compact,
                _ => Op::Seal,
            })
    }

    /// The lexical at `pos`, borrowed ([`Triple::get`] clones a term).
    fn lexical_at(t: &Triple, pos: Position) -> &str {
        match pos {
            Position::Subject => t.subject.as_str(),
            Position::Predicate => t.predicate.as_str(),
            Position::Object => t.object.lexical(),
        }
    }

    /// A borrowed view of a model triple, to compare with
    /// [`TripleStore::iter_refs`] without materializing the store's.
    fn triple_ref(t: &Triple) -> TripleRef<'_> {
        TripleRef {
            subject: t.subject.as_str(),
            predicate: t.predicate.as_str(),
            object: t.object.lexical(),
            object_is_literal: t.object.is_literal(),
        }
    }

    /// `n` distinct triples over terms no generated triple uses.
    fn filler(n: usize) -> Vec<Triple> {
        (0..n)
            .map(|i| {
                let object = Term::literal(format!("f{}", i % 1_000));
                Triple::new(format!("f{}", i / 4), format!("f{}", i % 4), object)
            })
            .collect()
    }

    /// A history that crosses several seal points before the random
    /// ops run: filler batches of the sizes `cuts` gives (the one a
    /// `copies` bit picks repeats its first rows inside it), each
    /// followed by a removal and the re-insert of the removed triple,
    /// and every third by a compaction.
    fn prelude(cuts: &[(usize, prop::sample::Index)], copies: u8) -> Vec<Op> {
        let rows = filler(cuts.iter().map(|&(n, _)| n).sum());
        let mut ops = Vec::new();
        let mut from = 0;
        for (k, &(n, index)) in cuts.iter().enumerate() {
            let mut batch = rows[from..from + n].to_vec();
            from += n;
            if copies & (1 << (k % 8)) != 0 {
                batch.extend_from_slice(&rows[from - n..from - n / 2]);
            }
            ops.extend([Op::Batch(batch), Op::RemoveLive(index), Op::Reinsert]);
            if k % 3 == 2 {
                ops.push(Op::Compact);
            }
        }
        ops
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// A store agrees with a model — the live triples as a `Vec` in
        /// insertion order plus a `BTreeSet` — after every step of a
        /// random history of batches, removals, re-inserts, compactions
        /// and CSR rebuilds: on `len`, on `iter` order, on `contains`,
        /// on `abc%` reads at every position and on `select_eq_rows` for
        /// every probed triple's terms. And its postings — the CSR head
        /// plus the tail — agree with a brute-force per-term row list
        /// and honor the layout invariants: both halves strictly
        /// ascending, every head row below `csr_end`, every tail row at
        /// or above it, the tail under its seal threshold.
        ///
        /// Every write seals iff it takes the tail to the threshold
        /// (a quarter of `csr_end`, at least `SEAL_FLOOR`), and each case
        /// opens with a [`prelude`] that crosses at least three seal
        /// points, with removals, re-inserts, compactions and reads
        /// between them.
        #[test]
        fn csr_postings_agree_with_reference(
            ops in proptest::collection::vec(arb_op(), 0..16),
            cuts in proptest::collection::vec((8usize..64, any::<prop::sample::Index>()), 8..16),
            copies in any::<u8>(),
        ) {
            let mut db = TripleStore::new();
            let mut model: Vec<Triple> = Vec::new();
            let prelude = prelude(&cuts, copies);
            let mut probes: Vec<Triple> = Vec::new();
            for op in &prelude {
                if let Op::Batch(batch) = op {
                    probes.extend([batch[0].clone(), batch[batch.len() - 1].clone()]);
                }
            }
            for op in &ops {
                match op {
                    Op::Batch(batch) => probes.extend(batch.iter().cloned()),
                    Op::RemoveAny(t) => probes.push(t.clone()),
                    _ => {}
                }
            }
            let mut live: BTreeSet<Triple> = BTreeSet::new();
            let mut removed: Option<Triple> = None;
            let mut seals = 0;
            for (step, op) in prelude.iter().chain(&ops).enumerate() {
                let (rows, csr_end) = (db.cols.len(), db.by_subject.csr_end as usize);
                match op {
                    Op::Batch(batch) => {
                        let known = model.len();
                        for t in batch {
                            if live.insert(t.clone()) {
                                model.push(t.clone());
                            }
                        }
                        prop_assert_eq!(db.insert_batch(batch.iter().cloned()), model.len() - known);
                    }
                    Op::RemoveLive(index) => {
                        if model.is_empty() {
                            continue;
                        }
                        let t = model.remove(index.index(model.len()));
                        prop_assert!(db.remove(&t), "{:?}", t);
                        live.remove(&t);
                        removed = Some(t);
                    }
                    Op::RemoveAny(t) => {
                        let held = live.remove(t);
                        prop_assert_eq!(db.remove(t), held, "{:?}", t);
                        if held {
                            model.retain(|m| m != t);
                            removed = Some(t.clone());
                        }
                    }
                    Op::Reinsert => {
                        let Some(t) = &removed else { continue };
                        let fresh = live.insert(t.clone());
                        prop_assert_eq!(db.insert(t.clone()), fresh, "{:?}", t);
                        if fresh {
                            model.push(t.clone());
                        }
                    }
                    Op::Compact => db.compact(),
                    Op::Seal => db.rebuild_posting_csr(),
                }
                if matches!(op, Op::Batch(_) | Op::Reinsert) {
                    // Sealed iff the write took the tail to the threshold.
                    let crossed = db.cols.len() - csr_end >= SEAL_FLOOR.max(csr_end / SEAL_FRACTION);
                    let expected = if crossed { db.cols.len() } else { csr_end };
                    prop_assert_eq!(db.by_subject.csr_end as usize, expected, "sealed iff crossed, after {:?}", op);
                    seals += (crossed && step < prelude.len()) as usize;
                } else if matches!(op, Op::Compact | Op::Seal) {
                    prop_assert_eq!(db.by_subject.csr_end as usize, db.cols.len(), "rebuilt by {:?}", op);
                } else {
                    prop_assert_eq!((db.cols.len(), db.by_subject.csr_end as usize), (rows, csr_end));
                }
                let csr_end = db.by_subject.csr_end;
                let tail = db.cols.len() - csr_end as usize;
                prop_assert!(tail < SEAL_FLOOR.max(csr_end as usize / SEAL_FRACTION), "tail {} over {}", tail, csr_end);

                prop_assert_eq!(db.len(), model.len(), "after {:?}", op);
                prop_assert!(db.iter_refs().eq(model.iter().map(triple_ref)), "iter order after {:?}", op);
                for t in &probes {
                    prop_assert_eq!(db.contains(t), live.contains(t), "{:?} after {:?}", t, op);
                }
                for pos in Position::ALL {
                    prop_assert_eq!(db.index(pos).csr_end, csr_end, "{:?} shares csr_end", pos);
                    let terms: FxHashSet<&TermId> = db.cols.col(pos).iter().collect();
                    prop_assert_eq!(db.index(pos).terms, terms.len(), "{:?} counts its terms", pos);
                    for prefix in ["a", "f1", "x"] {
                        let naive = model.iter().filter(|t| lexical_at(t, pos).starts_with(prefix));
                        prop_assert_eq!(like_count(&db, pos, &format!("{prefix}%")), naive.count(), "{:?} {}% after {:?}", pos, prefix, op);
                    }
                    // The model's rows and the column's row ids of every
                    // probed lexical, each in one pass.
                    let mut expected: FxHashMap<&str, Vec<&Triple>> =
                        probes.iter().map(|t| (lexical_at(t, pos), Vec::new())).collect();
                    for t in &model {
                        if let Some(rows) = expected.get_mut(lexical_at(t, pos)) {
                            rows.push(t);
                        }
                    }
                    let mut brute: FxHashMap<TermId, Vec<u32>> = expected
                        .keys()
                        .filter_map(|lexical| Some((db.dict.lookup(lexical)?, Vec::new())))
                        .collect();
                    for (row, id) in db.cols.col(pos).iter().enumerate() {
                        if let Some(rows) = brute.get_mut(id) {
                            rows.push(row as u32);
                        }
                    }
                    let index = db.index(pos);
                    for (&lexical, rows) in &expected {
                        let selected = db.select_eq_rows(pos, lexical).triples();
                        prop_assert!(selected.eq(rows.iter().copied().cloned()), "{:?} {} after {:?}", pos, lexical, op);
                        let Some(id) = db.dict.lookup(lexical) else { continue };
                        let (head, tail) = index.parts(id);
                        // Postings cover every row of the term, tombstoned
                        // included (liveness is the cursors' job).
                        let merged: Vec<u32> = head.iter().chain(tail).copied().collect();
                        prop_assert_eq!(&merged, &brute[&id], "{:?} {}", pos, lexical);
                        prop_assert!(head.windows(2).all(|w| w[0] < w[1]), "head ascends");
                        prop_assert!(tail.windows(2).all(|w| w[0] < w[1]), "tail ascends");
                        prop_assert!(head.iter().all(|&r| r < index.csr_end), "head under csr_end");
                        prop_assert!(tail.iter().all(|&r| r >= index.csr_end), "tail over csr_end");
                    }
                }
            }
            prop_assert!(seals >= 3, "the prelude crossed {} seal points", seals);
        }
    }
}
