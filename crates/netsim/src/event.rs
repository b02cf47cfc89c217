//! The discrete-event queue.
//!
//! A classic calendar queue built on [`std::collections::BinaryHeap`].
//! Events scheduled for the same instant are delivered in insertion order
//! (FIFO tie-breaking via a monotone sequence number), which is what makes
//! whole-simulation determinism possible.

use crate::clock::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event queue over payloads of type `E`.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pair is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedule `payload` for delivery at `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Remove and return the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop every pending event (used when a simulation is aborted).
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Keep only the events whose payload satisfies `f`, preserving the
    /// (time, insertion) delivery order of the survivors.
    ///
    /// Used to cancel one session's in-flight replies on a queue shared
    /// by many sessions: sequence numbers are retained, so survivors
    /// keep their original FIFO tie-break positions.
    pub fn retain(&mut self, mut f: impl FnMut(&E) -> bool) {
        let entries: Vec<Entry<E>> = std::mem::take(&mut self.heap)
            .into_iter()
            .filter(|e| f(&e.payload))
            .collect();
        self.heap = entries.into();
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(30), "c");
        q.schedule(SimTime(10), "a");
        q.schedule(SimTime(20), "b");
        assert_eq!(q.pop(), Some((SimTime(10), "a")));
        assert_eq!(q.pop(), Some((SimTime(20), "b")));
        assert_eq!(q.pop(), Some((SimTime(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime(10), 1);
        q.schedule(SimTime(5), 0);
        assert_eq!(q.pop(), Some((SimTime(5), 0)));
        q.schedule(SimTime(7), 2);
        assert_eq!(q.pop(), Some((SimTime(7), 2)));
        assert_eq!(q.pop(), Some((SimTime(10), 1)));
    }

    #[test]
    fn peek_and_counts() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime(42), ());
        q.schedule(SimTime(41), ());
        assert_eq!(q.peek_time(), Some(SimTime(41)));
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn retain_preserves_order_and_ties() {
        let mut q = EventQueue::new();
        for i in 0..10 {
            q.schedule(SimTime(5), i); // all tied: FIFO by insertion
        }
        q.schedule(SimTime(1), 100);
        q.retain(|&e| e % 2 == 0 || e == 100);
        assert_eq!(q.pop(), Some((SimTime(1), 100)));
        for i in [0, 2, 4, 6, 8] {
            assert_eq!(q.pop(), Some((SimTime(5), i)));
        }
        assert_eq!(q.pop(), None);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Popping the whole queue yields times in non-decreasing order,
        /// and equal times come out in insertion order.
        #[test]
        fn pop_order_is_total(times in proptest::collection::vec(0u64..1000, 1..200)) {
            let mut q = EventQueue::new();
            for (i, t) in times.iter().enumerate() {
                q.schedule(SimTime(*t), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some((t, idx)) = q.pop() {
                if let Some((lt, lidx)) = last {
                    prop_assert!(t >= lt);
                    if t == lt {
                        prop_assert!(idx > lidx);
                    }
                }
                last = Some((t, idx));
            }
        }
    }
}
