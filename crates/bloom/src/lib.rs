//! Bloom filters for the LazyCtrl G-FIB.
//!
//! Each edge switch summarizes every peer's L-FIB as a Bloom filter: "the
//! G-FIB of each edge switch is comprised of multiple BFs generated from the
//! L-FIBs of all switches in this group" (§III-D.2). The storage cost is
//! independent of the number of addresses, and the false-positive rate is
//! "predictable and controllable by space-time trade-offs" — this crate
//! exposes exactly those controls.
//!
//! Hashing is deterministic (FNV-1a seeds + splitmix64 finalizer, combined
//! with Kirsch–Mitzenmacher double hashing) so that a filter built on one
//! simulated switch and queried on another behaves identically — and so the
//! whole simulation stays reproducible.
//!
//! # Example
//!
//! ```
//! use lazyctrl_bloom::BloomFilter;
//!
//! let mut bf = BloomFilter::with_capacity(1000, 0.001);
//! bf.insert(b"02:00:00:00:00:2a");
//! assert!(bf.contains(b"02:00:00:00:00:2a"));
//! assert!(bf.estimated_fp_rate() < 0.001 + 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hashing;

pub use hashing::base_hashes;

use serde::{Deserialize, Serialize};

/// A classic Bloom filter over byte-slice keys.
///
/// No false negatives, tunable false positives. See the crate docs for the
/// role it plays in the G-FIB.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BloomFilter {
    bits: Vec<u64>,
    /// Number of addressable bits (≤ `bits.len() * 64`).
    m: u64,
    /// Number of hash functions.
    k: u32,
    /// Number of inserted items (for fp estimation).
    items: u64,
}

impl BloomFilter {
    /// Creates a filter with exactly `m_bits` bits and `k` hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `m_bits` or `k` is zero.
    pub fn new(m_bits: u64, k: u32) -> Self {
        assert!(m_bits > 0, "bloom filter must have at least one bit");
        assert!(k > 0, "bloom filter must use at least one hash");
        let words = m_bits.div_ceil(64) as usize;
        BloomFilter {
            bits: vec![0; words],
            m: m_bits,
            k,
            items: 0,
        }
    }

    /// Creates a filter sized for `expected_items` at `target_fp` false
    /// positive rate, using the standard optimal sizing
    /// `m = -n·ln(p)/ln(2)²`, `k = (m/n)·ln(2)`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < target_fp < 1` and `expected_items > 0`.
    pub fn with_capacity(expected_items: u64, target_fp: f64) -> Self {
        assert!(expected_items > 0, "expected_items must be positive");
        assert!(
            target_fp > 0.0 && target_fp < 1.0,
            "target_fp must be in (0, 1)"
        );
        let n = expected_items as f64;
        let ln2 = std::f64::consts::LN_2;
        let m = (-(n * target_fp.ln()) / (ln2 * ln2)).ceil().max(64.0);
        let k = ((m / n) * ln2).round().max(1.0);
        BloomFilter::new(m as u64, k as u32)
    }

    /// Number of bits.
    pub fn num_bits(&self) -> u64 {
        self.m
    }

    /// Number of hash functions.
    pub fn num_hashes(&self) -> u32 {
        self.k
    }

    /// Number of items inserted so far.
    pub fn len(&self) -> u64 {
        self.items
    }

    /// True if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.items == 0
    }

    /// Storage footprint of the bit array in bytes — the quantity the
    /// paper's §V-D storage-overhead analysis counts.
    pub fn storage_bytes(&self) -> usize {
        self.bits.len() * 8
    }

    /// Inserts a key.
    pub fn insert<K: AsRef<[u8]>>(&mut self, key: K) {
        for idx in hashing::indexes(key.as_ref(), self.k, self.m) {
            self.set_bit(idx);
        }
        self.items += 1;
    }

    /// Tests membership: false means *definitely absent*; true means
    /// *probably present*.
    pub fn contains<K: AsRef<[u8]>>(&self, key: K) -> bool {
        self.contains_prehashed(hashing::base_hashes(key.as_ref()))
    }

    /// Membership test from precomputed [`base_hashes`] — callers probing
    /// a bank of filters for one key (the G-FIB hot path) hash the key
    /// once and probe each filter with its own `(k, m)`.
    ///
    /// [`base_hashes`]: hashing::base_hashes
    pub fn contains_prehashed(&self, base: (u64, u64)) -> bool {
        hashing::indexes_from_base(base, self.k, self.m).all(|idx| self.get_bit(idx))
    }

    /// Expected false-positive rate for the current load:
    /// `(1 − e^(−k·n/m))^k`.
    pub fn estimated_fp_rate(&self) -> f64 {
        let exponent = -((self.k as f64) * (self.items as f64)) / self.m as f64;
        (1.0 - exponent.exp()).powi(self.k as i32)
    }

    /// Merges another filter into this one (bitwise or).
    ///
    /// Both filters must have identical geometry; the item count becomes an
    /// upper bound after merging.
    ///
    /// # Panics
    ///
    /// Panics if the two filters differ in `num_bits` or `num_hashes`.
    pub fn union_with(&mut self, other: &BloomFilter) {
        assert_eq!(self.m, other.m, "bloom geometry mismatch (bits)");
        assert_eq!(self.k, other.k, "bloom geometry mismatch (hashes)");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a |= *b;
        }
        self.items += other.items;
    }

    /// Serializes the bit array for transport in a `GfibUpdate` message.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bits.len() * 8);
        for w in &self.bits {
            out.extend_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Reconstructs a filter from transported bits.
    ///
    /// `items` is the sender's item count (for fp estimation only).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is empty or not a multiple of 8 long, is too short
    /// for `m_bits`, or if `k` is zero.
    pub fn from_bytes(bytes: &[u8], m_bits: u64, k: u32, items: u64) -> Self {
        assert!(
            !bytes.is_empty() && bytes.len().is_multiple_of(8),
            "bit array must be whole words"
        );
        assert!(k > 0, "bloom filter must use at least one hash");
        assert!(
            bytes.len() as u64 * 8 >= m_bits,
            "byte array too short for declared bit count"
        );
        let bits: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_be_bytes(c.try_into().expect("chunk of 8")))
            .collect();
        BloomFilter {
            bits,
            m: m_bits,
            k,
            items,
        }
    }

    fn set_bit(&mut self, idx: u64) {
        self.bits[(idx / 64) as usize] |= 1u64 << (idx % 64);
    }

    fn get_bit(&self, idx: u64) -> bool {
        self.bits[(idx / 64) as usize] & (1u64 << (idx % 64)) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives_basic() {
        let mut bf = BloomFilter::with_capacity(100, 0.01);
        for i in 0u32..100 {
            bf.insert(i.to_be_bytes());
        }
        for i in 0u32..100 {
            assert!(bf.contains(i.to_be_bytes()), "lost key {i}");
        }
        assert_eq!(bf.len(), 100);
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let bf = BloomFilter::new(1024, 4);
        assert!(bf.is_empty());
        for i in 0u32..1000 {
            assert!(!bf.contains(i.to_be_bytes()));
        }
        assert_eq!(bf.estimated_fp_rate(), 0.0);
    }

    #[test]
    fn measured_fp_rate_tracks_estimate() {
        let mut bf = BloomFilter::with_capacity(1000, 0.01);
        for i in 0u32..1000 {
            bf.insert(i.to_be_bytes());
        }
        let mut fps = 0u32;
        let probes = 20_000u32;
        for i in 1000..1000 + probes {
            if bf.contains(i.to_be_bytes()) {
                fps += 1;
            }
        }
        let measured = fps as f64 / probes as f64;
        // Within 3x of the 1% design point (generous; statistical test).
        assert!(measured < 0.03, "fp rate {measured} way above design point");
        let est = bf.estimated_fp_rate();
        assert!(est > 0.0 && est < 0.02, "estimate {est} out of range");
    }

    #[test]
    fn sizing_matches_theory() {
        // n=1000, p=0.001 ⇒ m ≈ 14378 bits, k ≈ 10.
        let bf = BloomFilter::with_capacity(1000, 0.001);
        assert!((14_000..15_000).contains(&bf.num_bits()));
        assert_eq!(bf.num_hashes(), 10);
    }

    #[test]
    fn union_covers_both_sets() {
        let mut a = BloomFilter::new(2048, 4);
        let mut b = BloomFilter::new(2048, 4);
        a.insert(b"alpha");
        b.insert(b"beta");
        a.union_with(&b);
        assert!(a.contains(b"alpha"));
        assert!(a.contains(b"beta"));
        assert_eq!(a.len(), 2);
    }

    #[test]
    #[should_panic(expected = "geometry mismatch")]
    fn union_rejects_mismatched_geometry() {
        let mut a = BloomFilter::new(2048, 4);
        let b = BloomFilter::new(1024, 4);
        a.union_with(&b);
    }

    #[test]
    fn byte_round_trip_preserves_membership() {
        let mut bf = BloomFilter::with_capacity(500, 0.01);
        for i in 0u32..500 {
            bf.insert(i.to_be_bytes());
        }
        let bytes = bf.to_bytes();
        let back = BloomFilter::from_bytes(&bytes, bf.num_bits(), bf.num_hashes(), bf.len());
        assert_eq!(back, bf);
        for i in 0u32..500 {
            assert!(back.contains(i.to_be_bytes()));
        }
    }

    #[test]
    #[should_panic(expected = "whole words")]
    fn from_bytes_rejects_ragged_input() {
        let _ = BloomFilter::from_bytes(&[1, 2, 3], 24, 2, 0);
    }

    #[test]
    fn paper_storage_example() {
        // §V-D sizes one per-peer BF at 16 × 128-byte entries = 2048 bytes
        // and claims fp < 0.1%; with ~150 hosts behind a switch that holds.
        let mut bf = BloomFilter::new(2048 * 8, 7);
        assert_eq!(bf.storage_bytes(), 2048);
        for i in 0u32..150 {
            bf.insert(i.to_be_bytes());
        }
        assert!(
            bf.estimated_fp_rate() < 0.001,
            "fp {} ≥ 0.1%",
            bf.estimated_fp_rate()
        );
    }

    #[test]
    fn non_multiple_of_64_bits_work() {
        let mut bf = BloomFilter::new(100, 3);
        for i in 0u32..30 {
            bf.insert(i.to_be_bytes());
        }
        for i in 0u32..30 {
            assert!(bf.contains(i.to_be_bytes()));
        }
    }
}
