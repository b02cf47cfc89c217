//! Columnar row storage: one `TermId` column per triple position.
//!
//! A stored triple is a *row id* (its insertion index) into three
//! parallel id columns plus two bit-packed flag columns (object kind,
//! tombstone). Row ids are stable for the lifetime of the store — the
//! posting lists and every cursor hand them out — so deletion
//! tombstones instead of compacting in place
//! ([`crate::TripleStore::compact`] rebuilds and renumbers).
//!
//! The columnar split is what makes scans cheap: a residual sweep over
//! one position touches one `u32` column, not 16-byte row tuples, and
//! term materialization is deferred until a consumer dereferences a row
//! id.

use crate::dict::{push_by_half, TermId};
use crate::triple::Position;
use serde::{Deserialize, Serialize};

/// One logical row as a value: the interned ids plus the object's kind
/// (URIs and literals with equal lexical share a [`TermId`]; the flag is
/// what keeps `<x>` and `"x"` distinct triples). Used for encoding,
/// row equality and a batch's set of the rows it appended — storage
/// itself is columnar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Row {
    pub(crate) s: TermId,
    pub(crate) p: TermId,
    pub(crate) o: TermId,
    pub(crate) o_lit: bool,
}

impl std::hash::Hash for Row {
    /// One packed 128-bit write (two mix rounds under
    /// [`crate::fasthash::FxHashSet`]) instead of four field writes —
    /// this hash sits on the ingest path, in the set of the rows a
    /// batch appended.
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        let packed = ((self.s.0 as u128) << 65)
            | ((self.p.0 as u128) << 33)
            | ((self.o.0 as u128) << 1)
            | self.o_lit as u128;
        state.write_u128(packed);
    }
}

/// A bit-packed boolean column (64 flags per word).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct BitColumn {
    words: Vec<u64>,
    len: usize,
}

impl BitColumn {
    #[inline]
    pub(crate) fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(64) {
            self.words.push(0);
        }
        if bit {
            self.words[self.len / 64] |= 1 << (self.len % 64);
        }
        self.len += 1;
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }
}

/// The column set of one store: three `TermId` columns, the object-kind
/// bits and the tombstone bits, all indexed by row id.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct Columns {
    pub(crate) s: Vec<TermId>,
    pub(crate) p: Vec<TermId>,
    pub(crate) o: Vec<TermId>,
    o_lit: BitColumn,
    dead: BitColumn,
    /// Number of set tombstone bits (O(1) liveness answers).
    dead_count: usize,
}

impl Columns {
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.s.len()
    }

    /// Append one live row.
    #[inline]
    pub(crate) fn push(&mut self, row: Row) {
        push_by_half(&mut self.s, row.s);
        push_by_half(&mut self.p, row.p);
        push_by_half(&mut self.o, row.o);
        self.o_lit.push(row.o_lit);
        self.dead.push(false);
    }

    /// The row value at a row id.
    #[inline]
    pub(crate) fn row(&self, id: u32) -> Row {
        let i = id as usize;
        Row {
            s: self.s[i],
            p: self.p[i],
            o: self.o[i],
            o_lit: self.o_lit.get(i),
        }
    }

    /// One position's id column.
    #[inline]
    pub(crate) fn col(&self, pos: Position) -> &[TermId] {
        match pos {
            Position::Subject => &self.s,
            Position::Predicate => &self.p,
            Position::Object => &self.o,
        }
    }

    #[inline]
    pub(crate) fn id_at(&self, id: u32, pos: Position) -> TermId {
        self.col(pos)[id as usize]
    }

    /// Term code of one position of a stored row (id shifted, low bit =
    /// literal kind): touches only the probed column (plus the kind
    /// bits for objects) instead of assembling a full [`Row`] — what
    /// the granule-batch residual filter reads per candidate.
    #[inline]
    pub(crate) fn code_at(&self, id: u32, pos: Position) -> u64 {
        let lit = match pos {
            Position::Object => self.o_lit.get(id as usize),
            _ => false,
        };
        ((self.col(pos)[id as usize].0 as u64) << 1) | lit as u64
    }

    #[inline]
    pub(crate) fn is_dead(&self, id: u32) -> bool {
        self.dead.get(id as usize)
    }

    /// Tombstone a row (the caller maintains the live count).
    #[inline]
    pub(crate) fn kill(&mut self, id: u32) {
        self.dead.set(id as usize);
        self.dead_count += 1;
    }

    /// Whether any row is tombstoned.
    #[inline]
    pub(crate) fn any_dead(&self) -> bool {
        self.dead_count > 0
    }

    /// Heap bytes of the columns, by capacity.
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        let ids = self.s.capacity() + self.p.capacity() + self.o.capacity();
        ids * std::mem::size_of::<TermId>()
            + (self.o_lit.words.capacity() + self.dead.words.capacity()) * 8
    }
}
