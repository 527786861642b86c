//! Hash maps keyed by small integers.
//!
//! The simulator and the oracle hash addresses, lines, values and core
//! ids several times per simulated access. std's default SipHash is
//! built to resist collision attacks on attacker-chosen keys, which
//! none of these are: a multiplicative (Fx-style) hash does the same job
//! in a few instructions.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A multiplicative (Fx-style) hasher for integer keys. Where keys come
/// from outside (the oracle hashes a trace's addresses and values), a
/// crafted input can make a map slow, never a result wrong.
///
/// # Example
///
/// ```
/// use bulksc_stats::IntMap;
/// let mut m: IntMap<u64, u64> = IntMap::default();
/// m.insert(0x2000, 7);
/// assert_eq!(m.get(&0x2000), Some(&7));
/// ```
#[derive(Clone, Copy, Default)]
pub struct IntHasher(u64);

impl Hasher for IntHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The product's high bits are its best mixed; the table picks
        // buckets with the low ones.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` hashed by [`IntHasher`].
pub type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

/// A `HashSet` hashed by [`IntHasher`].
pub type IntSet<K> = HashSet<K, BuildHasherDefault<IntHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn equal_keys_hash_equal_and_neighbours_differ() {
        let b = BuildHasherDefault::<IntHasher>::default();
        assert_eq!(b.hash_one(42u64), b.hash_one(42u64));
        let hashes: IntSet<u64> = (0..1000u64).map(|k| b.hash_one(k)).collect();
        assert_eq!(hashes.len(), 1000, "consecutive keys collide");
    }

    #[test]
    fn maps_and_sets_behave_like_std() {
        let mut m: IntMap<(u64, u64), u32> = IntMap::default();
        let mut s: IntSet<u32> = IntSet::default();
        for i in 0..500u64 {
            m.insert((i, i * 3), i as u32);
            s.insert(i as u32 * 7);
        }
        assert_eq!(m.len(), 500);
        assert!((0..500u64).all(|i| m[&(i, i * 3)] == i as u32));
        assert!(s.contains(&21) && !s.contains(&22));
    }
}
