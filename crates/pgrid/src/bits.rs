//! Packed bit strings — the binary key space of P-Grid.
//!
//! P-Grid organizes peers into a virtual binary search tree: every peer is
//! associated with a path π(p) ∈ {0,1}*, every data item with a binary key,
//! and a peer is responsible for the keys that have its path as a prefix.
//! [`BitString`] is the shared representation for both, with the bit-level
//! operations the overlay needs: prefix tests, common-prefix length,
//! child extension, and lexicographic (= numeric) ordering.
//!
//! Bits are packed MSB-first into `u64` words so that comparing packed
//! words agrees with bit-by-bit comparison, and the prefix operations the
//! router leans on run word-wise: `common_prefix_len` is one XOR +
//! `leading_zeros` per 64 bits instead of a per-bit loop.

use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;

const WORD_BITS: usize = 64;

/// An immutable-ish sequence of bits with cheap prefix operations.
///
/// Invariant: bits beyond `len` in the last word are zero, so derived
/// `PartialEq`/`Hash` over the packed words are correct.
#[derive(Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct BitString {
    /// Packed bits, MSB first within each word.
    words: Vec<u64>,
    /// Number of valid bits.
    len: usize,
}

impl BitString {
    /// The empty bit string (the root of the virtual tree).
    pub fn empty() -> BitString {
        BitString::default()
    }

    /// Parse from a `"0101"`-style string.
    ///
    /// # Panics
    /// Panics on characters other than '0'/'1'.
    pub fn parse(s: &str) -> BitString {
        let mut b = BitString::empty();
        for c in s.chars() {
            match c {
                '0' => b.push(false),
                '1' => b.push(true),
                other => panic!("invalid bit character {other:?}"),
            }
        }
        b
    }

    /// Construct from the low `len` bits of `value`, most significant of
    /// those bits first. Used by hash functions emitting fixed-width keys.
    pub fn from_u64(value: u64, len: usize) -> BitString {
        assert!(len <= 64, "at most 64 bits from a u64");
        if len == 0 {
            return BitString::empty();
        }
        // Left-align the low `len` bits into one MSB-first word.
        let masked = if len == 64 {
            value
        } else {
            value & ((1 << len) - 1)
        };
        BitString {
            words: vec![masked << (WORD_BITS - len)],
            len,
        }
    }

    /// Pre-allocate for `bits` bits.
    pub fn with_capacity(bits: usize) -> BitString {
        BitString {
            words: Vec::with_capacity(bits.div_ceil(WORD_BITS)),
            len: 0,
        }
    }

    /// Number of bits.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bit at position `i` (0 = first/most-significant).
    ///
    /// # Panics
    /// Panics if `i >= len`.
    #[inline]
    pub fn bit(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        (self.words[i / WORD_BITS] >> (WORD_BITS - 1 - i % WORD_BITS)) & 1 == 1
    }

    /// Append one bit.
    pub fn push(&mut self, bit: bool) {
        if self.len.is_multiple_of(WORD_BITS) {
            self.words.push(0);
        }
        if bit {
            let last = self.words.len() - 1;
            self.words[last] |= 1 << (WORD_BITS - 1 - self.len % WORD_BITS);
        }
        self.len += 1;
    }

    /// Remove and return the last bit.
    pub fn pop(&mut self) -> Option<bool> {
        if self.len == 0 {
            return None;
        }
        let bit = self.bit(self.len - 1);
        self.len -= 1;
        // Clear the vacated bit so packed equality keeps working.
        if bit {
            let idx = self.len;
            self.words[idx / WORD_BITS] &= !(1 << (WORD_BITS - 1 - idx % WORD_BITS));
        }
        if self.len.div_ceil(WORD_BITS) < self.words.len() {
            self.words.pop();
        }
        Some(bit)
    }

    /// This bit string extended by one bit (functional child step: the
    /// `path·0` / `path·1` split of the P-Grid construction).
    pub fn child(&self, bit: bool) -> BitString {
        let mut c = self.clone();
        c.push(bit);
        c
    }

    /// First `n` bits as a new bit string — a word copy plus one mask.
    ///
    /// # Panics
    /// Panics if `n > len`.
    pub fn prefix(&self, n: usize) -> BitString {
        assert!(n <= self.len, "prefix {n} longer than {}", self.len);
        let mut words: Vec<u64> = self.words[..n.div_ceil(WORD_BITS)].to_vec();
        let tail = n % WORD_BITS;
        if tail != 0 {
            // Zero the bits past `n` to preserve the packing invariant.
            let last = words.len() - 1;
            words[last] &= !0 << (WORD_BITS - tail);
        }
        BitString { words, len: n }
    }

    /// Whether `self` is a prefix of `other` (every key a peer is
    /// responsible for satisfies `peer_path.is_prefix_of(key)`).
    pub fn is_prefix_of(&self, other: &BitString) -> bool {
        self.len <= other.len && self.common_prefix_len(other) == self.len
    }

    /// Length of the longest common prefix with `other`. Prefix routing
    /// forwards at exactly this level. Runs word-wise: one XOR +
    /// `leading_zeros` per 64 bits.
    pub fn common_prefix_len(&self, other: &BitString) -> usize {
        let n = self.len.min(other.len);
        for (w, (a, b)) in self.words.iter().zip(&other.words).enumerate() {
            let diff = a ^ b;
            if diff != 0 {
                return (w * WORD_BITS + diff.leading_zeros() as usize).min(n);
            }
        }
        n
    }

    /// Flip bit `i`, returning a new bit string truncated after that bit.
    /// `sibling_at(l)` is the l-level "other side" a routing reference
    /// points to.
    pub fn sibling_at(&self, i: usize) -> BitString {
        assert!(i < self.len, "sibling level out of range");
        let mut s = self.prefix(i);
        s.push(!self.bit(i));
        s
    }

    /// Iterate over the bits.
    pub fn iter(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.len).map(move |i| self.bit(i))
    }
}

impl PartialOrd for BitString {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BitString {
    /// Lexicographic bit order: `"0" < "01" < "1"`. Combined with the
    /// order-preserving hash this makes key ranges contiguous in the
    /// tree. Compares a word at a time: since trailing bits are zero,
    /// the first differing word decides exactly as the first differing
    /// bit would (a shorter string that is a prefix of the longer one
    /// has equal words throughout, and the length comparison decides).
    fn cmp(&self, other: &Self) -> Ordering {
        for (a, b) in self.words.iter().zip(&other.words) {
            if a != b {
                return a.cmp(b);
            }
        }
        self.len.cmp(&other.len)
    }
}

impl fmt::Debug for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl fmt::Display for BitString {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in self.iter() {
            write!(f, "{}", if b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        for s in ["", "0", "1", "0101", "111000111", "0000000001"] {
            assert_eq!(BitString::parse(s).to_string(), s);
        }
    }

    #[test]
    fn push_pop() {
        let mut b = BitString::parse("10");
        b.push(true);
        assert_eq!(b.to_string(), "101");
        assert_eq!(b.pop(), Some(true));
        assert_eq!(b.pop(), Some(false));
        assert_eq!(b.pop(), Some(true));
        assert_eq!(b.pop(), None);
        assert!(b.is_empty());
    }

    #[test]
    fn pop_clears_storage_so_equality_holds() {
        let mut a = BitString::parse("11111111");
        for _ in 0..8 {
            a.pop();
        }
        assert_eq!(a, BitString::empty());
    }

    #[test]
    fn from_u64_matches_binary() {
        assert_eq!(BitString::from_u64(0b1011, 4).to_string(), "1011");
        assert_eq!(BitString::from_u64(0b1011, 6).to_string(), "001011");
        assert_eq!(BitString::from_u64(u64::MAX, 8).to_string(), "11111111");
    }

    #[test]
    fn prefix_relations() {
        let p = BitString::parse("01");
        assert!(p.is_prefix_of(&BitString::parse("01")));
        assert!(p.is_prefix_of(&BitString::parse("0110")));
        assert!(!p.is_prefix_of(&BitString::parse("0010")));
        assert!(!p.is_prefix_of(&BitString::parse("0")));
        assert!(BitString::empty().is_prefix_of(&p));
    }

    #[test]
    fn common_prefix() {
        let a = BitString::parse("0101");
        assert_eq!(a.common_prefix_len(&BitString::parse("0101")), 4);
        assert_eq!(a.common_prefix_len(&BitString::parse("0100")), 3);
        assert_eq!(a.common_prefix_len(&BitString::parse("1101")), 0);
        assert_eq!(a.common_prefix_len(&BitString::parse("01")), 2);
        assert_eq!(a.common_prefix_len(&BitString::empty()), 0);
    }

    #[test]
    fn sibling() {
        let a = BitString::parse("0101");
        assert_eq!(a.sibling_at(0).to_string(), "1");
        assert_eq!(a.sibling_at(1).to_string(), "00");
        assert_eq!(a.sibling_at(3).to_string(), "0100");
    }

    #[test]
    fn ordering_is_lexicographic_on_bits() {
        let mut v = [
            BitString::parse("1"),
            BitString::parse("01"),
            BitString::parse("0"),
            BitString::parse("011"),
            BitString::empty(),
        ];
        v.sort();
        let strs: Vec<String> = v.iter().map(|b| b.to_string()).collect();
        assert_eq!(strs, vec!["", "0", "01", "011", "1"]);
    }

    #[test]
    fn child_extends() {
        let root = BitString::empty();
        assert_eq!(root.child(false).to_string(), "0");
        assert_eq!(root.child(true).child(false).to_string(), "10");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bit_out_of_range_panics() {
        BitString::parse("01").bit(2);
    }

    #[test]
    fn word_boundary_operations() {
        // Strings spanning multiple u64 words: 64 is the boundary.
        let a: String = "01".repeat(50); // 100 bits
        let b = format!("{}{}", &a[..80], "1111");
        let x = BitString::parse(&a);
        let y = BitString::parse(&b);
        assert_eq!(x.to_string(), a);
        assert_eq!(x.len(), 100);
        assert_eq!(x.common_prefix_len(&x), 100);
        assert_eq!(x.common_prefix_len(&y), 80);
        assert_eq!(x.prefix(80), y.prefix(80));
        assert!(x.prefix(80).is_prefix_of(&x));
        assert!(x.prefix(64).is_prefix_of(&x));
        assert_eq!(x.prefix(64).common_prefix_len(&x), 64);
        assert_eq!(x.cmp(&y), x.to_string().cmp(&y.to_string()));
        // pop back across the word boundary, clearing storage.
        let mut z = BitString::parse(&a);
        for _ in 0..40 {
            z.pop();
        }
        assert_eq!(z, x.prefix(60));
        assert_eq!(z.to_string(), a[..60].to_string());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_bits() -> impl Strategy<Value = BitString> {
        // Cross the u64 word boundary so the word-wise paths are covered.
        proptest::collection::vec(any::<bool>(), 0..100).prop_map(|bits| {
            let mut b = BitString::empty();
            for bit in bits {
                b.push(bit);
            }
            b
        })
    }

    proptest! {
        /// Display → parse is the identity.
        #[test]
        fn display_parse_round_trip(b in arb_bits()) {
            prop_assert_eq!(BitString::parse(&b.to_string()), b);
        }

        /// prefix(n) is always a prefix, and common_prefix_len with the
        /// original is n.
        #[test]
        fn prefix_is_prefix(b in arb_bits(), frac in 0.0f64..=1.0) {
            let n = (frac * b.len() as f64) as usize;
            let p = b.prefix(n);
            prop_assert!(p.is_prefix_of(&b));
            prop_assert_eq!(p.common_prefix_len(&b), n);
        }

        /// Ordering agrees with string ordering of the displayed form
        /// (both are lexicographic with '0' < '1').
        #[test]
        fn ordering_agrees_with_string(a in arb_bits(), b in arb_bits()) {
            prop_assert_eq!(a.cmp(&b), a.to_string().cmp(&b.to_string()));
        }

        /// sibling_at diverges exactly at the requested level.
        #[test]
        fn sibling_diverges_at_level(b in arb_bits()) {
            prop_assume!(!b.is_empty());
            for i in 0..b.len() {
                let s = b.sibling_at(i);
                prop_assert_eq!(s.len(), i + 1);
                prop_assert_eq!(s.common_prefix_len(&b), i);
            }
        }

        /// push/pop round-trips.
        #[test]
        fn push_pop_round_trip(b in arb_bits(), bit in any::<bool>()) {
            let mut c = b.clone();
            c.push(bit);
            prop_assert_eq!(c.len(), b.len() + 1);
            prop_assert_eq!(c.pop(), Some(bit));
            prop_assert_eq!(c, b);
        }
    }
}
