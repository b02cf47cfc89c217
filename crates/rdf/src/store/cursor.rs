//! Row cursors: lazy, allocation-free scans over the columnar store.
//!
//! A [`RowCursor`] yields *row ids* in ascending (insertion) order,
//! skipping tombstones, and defers all term materialization until the
//! consumer asks — [`RowCursor::refs`] for borrowed views,
//! [`RowCursor::triples`] for owned terms, or plain `count()` for
//! cardinalities, which touches no string at all.
//!
//! Two sources back a cursor:
//!
//! * **posting** — the probed term's posting rows: the CSR head slice
//!   plus the tail slice ([`crate::TripleStore::select_eq_rows`], and
//!   the pattern scan's constant access path) — both ascending, the
//!   head strictly below the tail, so the concatenation is the
//!   ascending posting list;
//! * **full** — every live row ([`crate::TripleStore::iter`],
//!   [`crate::TripleStore::iter_refs`]).
//!
//! Besides row-at-a-time iteration, a cursor drains in **granule
//! batches**: `next_block` refills a caller buffer with up to 256 live
//! row ids per call — same ids, same order as iteration, but with the
//! per-item iterator state machine amortized over the batch (tight
//! slice loops per source). The pattern scan is built on it.

use super::{TripleRef, TripleStore, GRANULE};
use crate::triple::Triple;

/// A lazy iterator of live row ids (see the module docs).
pub struct RowCursor<'a> {
    store: &'a TripleStore,
    src: Source<'a>,
}

enum Source<'a> {
    Empty,
    /// Two ascending slices, every `head` id below every `tail` id:
    /// the CSR span plus the tail spill of one term's posting.
    Posting {
        head: &'a [u32],
        tail: &'a [u32],
        i: usize,
    },
    Full {
        next: u32,
    },
}

impl<'a> RowCursor<'a> {
    pub(super) fn empty(store: &'a TripleStore) -> RowCursor<'a> {
        RowCursor {
            store,
            src: Source::Empty,
        }
    }

    pub(super) fn posting(
        store: &'a TripleStore,
        head: &'a [u32],
        tail: &'a [u32],
    ) -> RowCursor<'a> {
        RowCursor {
            store,
            src: Source::Posting { head, tail, i: 0 },
        }
    }

    pub(super) fn full(store: &'a TripleStore) -> RowCursor<'a> {
        RowCursor {
            store,
            src: Source::Full { next: 0 },
        }
    }

    /// Refill `out` with the next granule of live row ids — up to
    /// [`GRANULE`] of them, in exactly the order iteration would yield
    /// — returning `false` once the cursor is exhausted and `out` came
    /// back empty. The granule-at-a-time drain: the pattern scan
    /// filters per batch and amortizes the source dispatch over 256
    /// rows.
    pub(super) fn next_block(&mut self, out: &mut Vec<u32>) -> bool {
        out.clear();
        let cols = &self.store.cols;
        match &mut self.src {
            Source::Empty => {}
            Source::Posting { head, tail, i } => {
                while out.len() < GRANULE {
                    let (h, t) = split_posting(head, tail, *i);
                    let part = if !h.is_empty() { h } else { t };
                    if part.is_empty() {
                        break;
                    }
                    let want = (GRANULE - out.len()).min(part.len());
                    let chunk = &part[..want];
                    *i += want;
                    if cols.any_dead() {
                        out.extend(chunk.iter().copied().filter(|&id| !cols.is_dead(id)));
                    } else {
                        out.extend_from_slice(chunk);
                    }
                }
            }
            Source::Full { next } => {
                let end = cols.len() as u32;
                if cols.any_dead() {
                    while *next < end && out.len() < GRANULE {
                        let id = *next;
                        *next += 1;
                        if !cols.is_dead(id) {
                            out.push(id);
                        }
                    }
                } else {
                    let take = (end - *next).min(GRANULE as u32);
                    out.extend(*next..*next + take);
                    *next += take;
                }
            }
        }
        !out.is_empty()
    }

    /// Materialize each row id as a borrowed [`TripleRef`] view.
    pub fn refs(self) -> impl Iterator<Item = TripleRef<'a>> {
        let store = self.store;
        self.map(move |id| store.ref_of(id))
    }

    /// Materialize each row id as an owned [`Triple`] (refcount bumps
    /// on the dictionary buffers, no string copies).
    pub fn triples(self) -> impl Iterator<Item = Triple> + 'a {
        let store = self.store;
        self.map(move |id| store.triple_of(id))
    }
}

/// The unread remainders of a two-slice posting at concatenated
/// offset `i`.
#[inline]
fn split_posting<'a>(head: &'a [u32], tail: &'a [u32], i: usize) -> (&'a [u32], &'a [u32]) {
    if i < head.len() {
        (&head[i..], tail)
    } else {
        (&[], &tail[(i - head.len()).min(tail.len())..])
    }
}

impl Iterator for RowCursor<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        let cols = &self.store.cols;
        match &mut self.src {
            Source::Empty => None,
            Source::Posting { head, tail, i } => loop {
                let n = head.len() + tail.len();
                if *i >= n {
                    return None;
                }
                let id = if *i < head.len() {
                    head[*i]
                } else {
                    tail[*i - head.len()]
                };
                *i += 1;
                if !cols.is_dead(id) {
                    return Some(id);
                }
            },
            Source::Full { next } => {
                let end = cols.len() as u32;
                while *next < end {
                    let id = *next;
                    *next += 1;
                    if !cols.is_dead(id) {
                        return Some(id);
                    }
                }
                None
            }
        }
    }

    /// Specialized counting: tight per-source loops instead of the
    /// general `next()` state machine — counting a selection touches
    /// only row ids and tombstone bits, never a term. With no
    /// tombstones in the store, cardinalities are answered from
    /// lengths alone, O(1) per list.
    #[inline]
    fn count(self) -> usize {
        let cols = &self.store.cols;
        let clean = !cols.any_dead();
        match self.src {
            Source::Empty => 0,
            Source::Posting { head, tail, i } => {
                let (h, t) = split_posting(head, tail, i);
                if clean {
                    h.len() + t.len()
                } else {
                    h.iter().chain(t).filter(|&&id| !cols.is_dead(id)).count()
                }
            }
            Source::Full { next } if clean => cols.len() - next as usize,
            Source::Full { next } => (next..cols.len() as u32)
                .filter(|&id| !cols.is_dead(id))
                .count(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // With no tombstones, posting and full sources yield every
        // remaining id — an exact hint, so `collect()` sizes once.
        let clean = !self.store.cols.any_dead();
        match &self.src {
            Source::Empty => (0, Some(0)),
            Source::Posting { head, tail, i } => {
                let (h, t) = split_posting(head, tail, *i);
                let rem = h.len() + t.len();
                (if clean { rem } else { 0 }, Some(rem))
            }
            Source::Full { next } => {
                let remaining = self.store.cols.len() - *next as usize;
                (if clean { remaining } else { 0 }, Some(remaining))
            }
        }
    }
}
