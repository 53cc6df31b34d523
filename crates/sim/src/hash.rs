//! A fast, deterministic hasher for the engine's integer-keyed tables.
//!
//! Every per-event lookup in the engine is keyed by a [`JobId`], a small
//! monotone counter, so the DoS resistance of the standard library's
//! SipHash buys nothing and costs a measurable share of each event. This
//! is the Fx multiply-rotate hash (as used inside rustc): one rotate, one
//! xor and one multiply per word. It is deterministic across processes,
//! which is harmless here — no engine decision iterates a hashed table.
//!
//! [`JobId`]: crate::engine::JobId

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Odd multiplier with well-spread high bits (from rustc's `FxHasher`).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The Fx hasher: folds each word in with a rotate, xor and multiply.
#[derive(Debug, Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    /// Byte input is folded one byte per word; the engine's keys are all
    /// integers and take `write_u64`.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub type FastHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` keyed through [`FxHasher`].
pub type FastHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::JobId;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn is_deterministic_and_separates_consecutive_ids() {
        assert_eq!(hash_of(JobId(7)), hash_of(JobId(7)));
        let hashes: FastHashSet<u64> = (0..10_000u64).map(|i| hash_of(JobId(i))).collect();
        assert_eq!(hashes.len(), 10_000);
    }

    #[test]
    fn byte_writes_fold_every_byte() {
        assert_ne!(hash_of("abcdefgh1"), hash_of("abcdefgh2"));
        assert_ne!(hash_of([1u8, 2, 3]), hash_of([1u8, 2, 4]));
    }
}
