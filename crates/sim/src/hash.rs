//! One cheap deterministic hasher for tables keyed by plain integers.

use std::hash::{BuildHasher, Hasher};

/// Build-hasher for tables keyed by plain integers the simulator itself
/// generates: link ids, host-id pairs. The standard library's
/// DoS-resistant SipHash is pure overhead on the dispatch hot path; this
/// splitmix64-finalizer hasher is a fraction of the cost. It is seeded
/// with a constant, so a table's layout is the same on every run; nothing
/// may let its iteration order reach an observable output all the same.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IdHash;

impl BuildHasher for IdHash {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher(0x9E37_79B9_7F4A_7C15)
    }
}

/// Accumulates writes with cheap mixing; [`Hasher::finish`] applies the
/// splitmix64 finalizer for avalanche.
pub struct IdHasher(u64);

impl IdHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(29) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Pairs that differ in either half, or only in their order, hash
    /// apart, and a set keyed by them behaves as a set.
    #[test]
    fn pairs_hash_apart_and_a_set_dedups_them() {
        let hash = |pair: (u32, u32)| IdHash.hash_one(pair);
        assert_ne!(hash((1, 2)), hash((2, 1)));
        assert_ne!(hash((0, 1)), hash((0, 2)));
        assert_eq!(hash((7, 9)), hash((7, 9)));
        let mut set: HashSet<(u32, u32), IdHash> = HashSet::default();
        assert!(set.insert((3, 4)));
        assert!(!set.insert((3, 4)));
        assert!(set.insert((4, 3)));
        assert_eq!(set.len(), 2);
    }
}
