//! Per-peer key/value storage.
//!
//! Each P-Grid peer maintains the data items whose binary keys fall under
//! its path. The store is a multimap (`BTreeMap<BitString, Vec<V>>`)
//! because GridVine indexes every triple under three different keys and
//! distinct triples may collide on a key.

use crate::bits::BitString;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The `Update(key, value)` operation's verb (§2.2: "inserting, updating
/// or deleting values" share one primitive).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateOp {
    Insert,
    Delete,
}

/// Ordered multimap from overlay keys to values.
#[derive(Debug, Clone)]
pub struct Store<V> {
    map: BTreeMap<BitString, Vec<V>>,
    items: usize,
}

impl<V: Clone + PartialEq> Store<V> {
    pub fn new() -> Store<V> {
        Store {
            map: BTreeMap::new(),
            items: 0,
        }
    }

    /// Number of stored values (not distinct keys).
    pub fn len(&self) -> usize {
        self.items
    }

    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Apply an update. Inserting an identical (key, value) pair twice is
    /// idempotent — replica synchronization re-sends items freely.
    pub fn apply(&mut self, op: UpdateOp, key: BitString, value: V) {
        match op {
            UpdateOp::Insert => self.insert(key, value),
            UpdateOp::Delete => {
                self.remove(&key, &value);
            }
        }
    }

    /// Insert (idempotent on exact duplicates).
    pub fn insert(&mut self, key: BitString, value: V) {
        let bucket = self.map.entry(key).or_default();
        if !bucket.contains(&value) {
            bucket.push(value);
            self.items += 1;
        }
    }

    /// Remove one (key, value) pair; returns whether it was present.
    pub fn remove(&mut self, key: &BitString, value: &V) -> bool {
        let Some(bucket) = self.map.get_mut(key) else {
            return false;
        };
        let Some(pos) = bucket.iter().position(|v| v == value) else {
            return false;
        };
        bucket.remove(pos);
        self.items -= 1;
        if bucket.is_empty() {
            self.map.remove(key);
        }
        true
    }

    /// Values stored under exactly `key`.
    pub fn get(&self, key: &BitString) -> &[V] {
        self.map.get(key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate over everything.
    pub fn iter(&self) -> impl Iterator<Item = (&BitString, &V)> {
        self.map
            .iter()
            .flat_map(|(k, vs)| vs.iter().map(move |v| (k, v)))
    }

    pub fn clear(&mut self) {
        self.map.clear();
        self.items = 0;
    }
}

impl<V: Clone + PartialEq> Default for Store<V> {
    fn default() -> Self {
        Store::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(s: &str) -> BitString {
        BitString::parse(s)
    }

    #[test]
    fn insert_get() {
        let mut s = Store::new();
        s.insert(k("01"), "a");
        s.insert(k("01"), "b");
        s.insert(k("10"), "c");
        assert_eq!(s.get(&k("01")), &["a", "b"]);
        assert_eq!(s.get(&k("10")), &["c"]);
        assert_eq!(s.get(&k("11")), &[] as &[&str]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut s = Store::new();
        s.insert(k("01"), 7);
        s.insert(k("01"), 7);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(&k("01")), &[7]);
    }

    #[test]
    fn remove_single_value() {
        let mut s = Store::new();
        s.insert(k("01"), "a");
        s.insert(k("01"), "b");
        assert!(s.remove(&k("01"), &"a"));
        assert!(!s.remove(&k("01"), &"a"));
        assert_eq!(s.get(&k("01")), &["b"]);
        assert!(s.remove(&k("01"), &"b"));
        assert!(s.is_empty());
    }

    #[test]
    fn apply_matches_insert_delete() {
        let mut s = Store::new();
        s.apply(UpdateOp::Insert, k("0"), 1);
        s.apply(UpdateOp::Insert, k("0"), 2);
        s.apply(UpdateOp::Delete, k("0"), 1);
        assert_eq!(s.get(&k("0")), &[2]);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_key() -> impl Strategy<Value = BitString> {
        "[01]{0,10}".prop_map(|s| BitString::parse(&s))
    }

    proptest! {
        /// len() always equals the number of iterable pairs.
        #[test]
        fn len_consistent(ops in proptest::collection::vec((arb_key(), 0u8..4, any::<bool>()), 0..60)) {
            let mut s = Store::new();
            for (key, val, insert) in ops {
                if insert {
                    s.insert(key, val);
                } else {
                    s.remove(&key, &val);
                }
            }
            prop_assert_eq!(s.len(), s.iter().count());
        }
    }
}
