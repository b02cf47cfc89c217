//! A fast, non-cryptographic hasher for the store's internal maps.
//!
//! The id-keyed posting lists, the dictionary's string map and the join
//! tables all sit on hot paths where SipHash's per-op latency dominates
//! the actual work (a `u32` key hash costs more than the posting-list
//! walk it guards). This is the classic Fx multiply-rotate hash used by
//! rustc: a few cycles per word, quality more than adequate for
//! in-process hash maps keyed by ids or interned strings. Not DoS
//! resistant — do not expose to untrusted keys across a trust boundary.

// The one place std's maps are named: every other crate under
// `crates/` is barred from them (`crates/clippy.toml`) and reaches them
// through these aliases, whose hasher is fixed and unkeyed.
#[allow(clippy::disallowed_types)]
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply-rotate hasher (rustc's `FxHasher`).
#[derive(Default, Clone)]
pub struct FxHasher {
    state: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.state = (self.state.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.state
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Mix the length in so "a" and "a\0" differ.
            self.add(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

pub type FxBuildHasher = BuildHasherDefault<FxHasher>;
#[allow(clippy::disallowed_types)] // std's map with the fixed Fx hasher
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;
#[allow(clippy::disallowed_types)] // std's set with the fixed Fx hasher
pub type FxHashSet<T> = HashSet<T, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn distinguishes_nearby_keys() {
        assert_ne!(hash_of(1u32), hash_of(2u32));
        assert_ne!(hash_of("a"), hash_of("b"));
        assert_ne!(hash_of("a"), hash_of("a\0"));
        assert_eq!(hash_of("same"), hash_of("same"));
    }

    #[test]
    fn map_round_trips() {
        let mut m: FxHashMap<String, u32> = FxHashMap::default();
        for i in 0..1000u32 {
            m.insert(format!("key-{i}"), i);
        }
        for i in 0..1000u32 {
            assert_eq!(m.get(&format!("key-{i}")), Some(&i));
        }
    }
}
