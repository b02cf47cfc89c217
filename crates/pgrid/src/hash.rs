//! Key hashing: the order-preserving hash of §2.2 plus a uniform baseline.
//!
//! GridVine generates binary overlay keys "using an order-preserving hash
//! function Hash() on the data" so that lexicographically close values land
//! on nearby leaves of the virtual binary tree — the property that lets
//! `%Aspergillus%`-style constrained searches and range scans stay local.
//!
//! [`OrderPreservingHash`] interprets a string as a fraction in `[0, 1)`
//! over a 7-bit character alphabet and emits the first `depth` bits of the
//! binary expansion of that fraction. This is exactly order-preserving:
//! `a <= b` (byte-wise, after clamping to the alphabet) implies
//! `hash(a) <= hash(b)` as bit strings of equal length.
//!
//! The fraction is fixed-point over `2^100`: character `i` (from 1)
//! adds its digit times the interval width `w_i = ⌊w_{i-1} / radix⌋`,
//! `w_0 = 2^100`, and characters stop counting once the width reaches
//! 0. Since `⌊⌊a/b⌋/c⌋ = ⌊a/(bc)⌋`, `w_i = ⌊2^100 / radix^i⌋` exactly:
//! the widths depend on the radix alone, so they are divided out once,
//! into a table, when the hasher is built, and a key costs one multiply
//! and add per character. The sum stays below `2^100`, and the key is
//! its top `depth` of 100 bits, taken by a shift; the bits past the
//! 100th are ones (the binary expansion of the last unit, as the long
//! division emitting one bit per halving of the unit produced).
//!
//! [`UniformHash`] (FNV-1a) is the classic DHT choice and serves as the
//! ablation baseline in experiment A1: it balances load perfectly on
//! skewed key sets but destroys locality.

use crate::bits::BitString;
use serde::{Deserialize, Serialize};

/// A function from application-level string keys to overlay bit keys.
pub trait KeyHasher {
    /// Hash `data` to a key of exactly `depth` bits.
    fn hash(&self, data: &str, depth: usize) -> BitString;
}

/// Which hasher a deployment uses (serializable for experiment configs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum HashKind {
    OrderPreserving,
    Uniform,
}

impl HashKind {
    pub fn build(self) -> Box<dyn KeyHasher + Send + Sync> {
        match self {
            HashKind::OrderPreserving => Box::new(OrderPreservingHash::default()),
            HashKind::Uniform => Box::new(UniformHash),
        }
    }
}

/// Fixed-point unit of [`OrderPreservingHash`]'s fraction: `2^FRACTION_BITS`.
const FRACTION_BITS: u32 = 100;

/// Order-preserving hash over the printable-ASCII alphabet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderPreservingHash {
    /// Alphabet size; characters are clamped into `[0, radix)` after
    /// subtracting the offset. 96 covers printable ASCII (0x20..0x7F).
    radix: u32,
    offset: u32,
    /// The non-zero interval widths `⌊2^100 / radix^i⌋`, `i = 1, 2, …`
    /// (see the module docs): character `i` is weighted by entry `i - 1`,
    /// and characters past the table do not count.
    widths: Box<[u128]>,
}

impl Default for OrderPreservingHash {
    fn default() -> Self {
        OrderPreservingHash::new(96, 0x20)
    }
}

impl OrderPreservingHash {
    pub fn new(radix: u32, offset: u32) -> Self {
        assert!(radix >= 2, "radix must be at least 2");
        let r = radix as u128;
        let widths = std::iter::successors(Some((1u128 << FRACTION_BITS) / r), |w| Some(w / r))
            .take_while(|&w| w != 0)
            .collect();
        OrderPreservingHash {
            radix,
            offset,
            widths,
        }
    }

    #[inline]
    fn digit(&self, byte: u8) -> u32 {
        (byte as u32)
            .saturating_sub(self.offset)
            .min(self.radix - 1)
    }
}

impl KeyHasher for OrderPreservingHash {
    fn hash(&self, data: &str, depth: usize) -> BitString {
        // The fraction's numerator over 2^100; exact in u128, so rounding
        // cannot break the order-preserving property.
        let lo: u128 = data
            .as_bytes()
            .iter()
            .zip(self.widths.iter())
            .map(|(&b, &w)| self.digit(b) as u128 * w)
            .sum();
        // Left-align the 100 bits, then ones: the key's first 128 bits.
        let spare = 128 - FRACTION_BITS;
        let head = (lo << spare) | ((1 << spare) - 1);
        BitString::from_words(
            [(head >> 64) as u64, head as u64]
                .into_iter()
                .chain(std::iter::repeat(u64::MAX)),
            depth,
        )
    }
}

/// FNV-1a based uniform hash (ablation baseline; destroys order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UniformHash;

impl KeyHasher for UniformHash {
    fn hash(&self, data: &str, depth: usize) -> BitString {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in data.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        // FNV-1a's high bits avalanche poorly for short suffix changes;
        // finish with a SplitMix64-style mix so every input bit reaches
        // every output bit.
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        // Fold to the requested depth (≤ 64 bits per chunk).
        if depth <= 64 {
            BitString::from_u64(h >> (64 - depth.max(1)).min(63), depth)
        } else {
            let mut key = BitString::with_capacity(depth);
            let mut state = h;
            while key.len() < depth {
                state = state
                    .rotate_left(31)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(0x2545_F491_4F6C_DD1D);
                let take = (depth - key.len()).min(64);
                for i in (64 - take..64).rev() {
                    key.push((state >> i) & 1 == 1);
                }
            }
            key
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_hash_is_order_preserving_on_examples() {
        let h = OrderPreservingHash::default();
        let words = [
            "",
            "A",
            "AB",
            "Aspergillus",
            "B",
            "EMBL#Organism",
            "EMP#SystematicName",
            "a",
            "zzz",
        ];
        for w in words.windows(2) {
            let ka = h.hash(w[0], 32);
            let kb = h.hash(w[1], 32);
            assert!(ka <= kb, "{} -> {ka} should be <= {} -> {kb}", w[0], w[1]);
        }
    }

    #[test]
    fn op_hash_fixed_depth() {
        let h = OrderPreservingHash::default();
        for depth in [1, 8, 17, 32, 64] {
            assert_eq!(h.hash("protein", depth).len(), depth);
        }
    }

    #[test]
    fn op_hash_empty_string_is_all_zeroes() {
        let h = OrderPreservingHash::default();
        assert_eq!(h.hash("", 8).to_string(), "00000000");
    }

    #[test]
    fn op_hash_deterministic() {
        let h = OrderPreservingHash::default();
        assert_eq!(h.hash("EMBL#Organism", 32), h.hash("EMBL#Organism", 32));
    }

    #[test]
    fn op_hash_distinguishes_close_strings() {
        // Each character consumes log2(96) ≈ 6.6 bits of resolution, so a
        // difference at position 9 needs ≥ 60 emitted bits to show up.
        let h = OrderPreservingHash::default();
        assert_ne!(h.hash("protein_a", 64), h.hash("protein_b", 64));
        assert_ne!(h.hash("prot_a", 48), h.hash("prot_b", 48));
    }

    #[test]
    fn op_hash_long_common_prefix_shares_key_prefix() {
        let h = OrderPreservingHash::default();
        let a = h.hash("EMBL#OrganismClassification", 32);
        let b = h.hash("EMBL#OrganismSpecies", 32);
        // Shared 13-char prefix => deep shared key prefix (locality).
        assert!(
            a.common_prefix_len(&b) >= 16,
            "lcp {}",
            a.common_prefix_len(&b)
        );
    }

    #[test]
    fn uniform_hash_fixed_depth_and_deterministic() {
        let h = UniformHash;
        for depth in [1, 16, 32, 64, 80, 150] {
            let k = h.hash("EMBL#Organism", depth);
            assert_eq!(k.len(), depth);
            assert_eq!(k, h.hash("EMBL#Organism", depth));
        }
    }

    #[test]
    fn uniform_hash_scatters_close_strings() {
        let h = UniformHash;
        let a = h.hash("predicate_001", 32);
        let b = h.hash("predicate_002", 32);
        // Overwhelmingly likely to diverge within the first few bits.
        assert!(a.common_prefix_len(&b) < 16);
    }

    #[test]
    fn hash_kind_builds_working_hashers() {
        for kind in [HashKind::OrderPreserving, HashKind::Uniform] {
            let h = kind.build();
            assert_eq!(h.hash("x", 16).len(), 16);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The hash by long division: the interval width divided by the
    /// radix at every character, one key bit per halving of the unit.
    fn long_division(radix: u32, offset: u32, data: &str, depth: usize) -> BitString {
        let h = OrderPreservingHash::new(radix, offset);
        const ONE: u128 = 1 << 100;
        let mut lo: u128 = 0;
        let mut width: u128 = ONE;
        for &b in data.as_bytes() {
            width /= radix as u128;
            if width == 0 {
                break;
            }
            lo += h.digit(b) as u128 * width;
        }
        let mut key = BitString::with_capacity(depth);
        let mut unit = ONE;
        for _ in 0..depth {
            unit /= 2;
            key.push(lo >= unit);
            if lo >= unit {
                lo -= unit;
            }
        }
        key
    }

    proptest! {
        /// The defining property: string order implies key order.
        #[test]
        fn op_hash_monotone(a in "[ -~]{0,24}", b in "[ -~]{0,24}") {
            let h = OrderPreservingHash::default();
            let ka = h.hash(&a, 48);
            let kb = h.hash(&b, 48);
            match a.as_bytes().cmp(b.as_bytes()) {
                std::cmp::Ordering::Less => prop_assert!(ka <= kb),
                std::cmp::Ordering::Greater => prop_assert!(ka >= kb),
                std::cmp::Ordering::Equal => prop_assert_eq!(ka, kb),
            }
        }

        /// Both hashers always emit exactly `depth` bits.
        #[test]
        fn depth_respected(s in "[ -~]{0,40}", depth in 1usize..128) {
            prop_assert_eq!(OrderPreservingHash::default().hash(&s, depth).len(), depth);
            prop_assert_eq!(UniformHash.hash(&s, depth).len(), depth);
        }

        /// Uniform hash spreads mass: over random strings, the first bit
        /// is roughly fair. (Statistical smoke test with fixed corpus size.)
        #[test]
        fn uniform_first_bit_balanced(seed_strings in proptest::collection::hash_set("[a-z]{6,12}", 64)) {
            let h = UniformHash;
            let ones = seed_strings.iter().filter(|s| h.hash(s, 16).bit(0)).count();
            // Binomial(64, 0.5): reject only wildly unbalanced outcomes.
            prop_assert!((12..=52).contains(&ones), "ones = {ones}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// The table-and-shift hash is bit-identical to the long
        /// division, for any bytes (control characters, multi-byte
        /// UTF-8, strings longer than the table), radix and depth.
        #[test]
        fn op_hash_is_the_long_division(
            bytes in proptest::collection::vec(any::<u8>(), 0..120),
            radix in proptest::sample::select(vec![2u32, 3, 96, 255]),
            offset in proptest::sample::select(vec![0u32, 0x20]),
        ) {
            let data: String = bytes.iter().map(|&b| char::from(b)).collect();
            let h = OrderPreservingHash::new(radix, offset);
            for depth in [0, 1, 24, 64, 65, 100, 101, 130] {
                prop_assert_eq!(h.hash(&data, depth), long_division(radix, offset, &data, depth),
                    "{:?} radix {} depth {}", data, radix, depth);
            }
        }
    }
}
