//! Deterministic double hashing for the filters.
//!
//! Kirsch–Mitzenmacher: two independent base hashes `h1`, `h2` generate the
//! `k` probe indexes as `h1 + i·h2 (mod m)` with no loss of asymptotic
//! false-positive behaviour. The base hashes are FNV-1a runs with different
//! offsets, finalized with splitmix64 for avalanche.

/// Iterator over the `k` probe indexes for a key.
///
/// The base hashes are reduced into `[0, m)` once (multiply-shift, no
/// division), and subsequent probes step by a fixed non-zero increment
/// with a conditional subtract — so the per-probe cost is an add and a
/// compare, and successive probes are guaranteed distinct (the property
/// the classic `h1 + i·h2 mod m` with odd `h2` provides).
#[derive(Debug, Clone)]
pub(crate) struct IndexIter {
    /// Next probe index, already in `[0, m)`.
    idx: u64,
    /// Probe stride in `[1, m)` (`[0, 1)` collapses to 1 when `m == 1`).
    step: u64,
    m: u64,
    i: u32,
    k: u32,
}

impl Iterator for IndexIter {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        if self.i >= self.k {
            return None;
        }
        let idx = self.idx;
        self.i += 1;
        self.idx += self.step;
        if self.idx >= self.m {
            self.idx -= self.m;
        }
        Some(idx)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.k - self.i) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for IndexIter {}

/// The two Kirsch–Mitzenmacher base hashes for `key`. Depends only on the
/// key — callers probing many filters for one key (the G-FIB's filter
/// bank) compute this once and reuse it per filter.
pub fn base_hashes(key: &[u8]) -> (u64, u64) {
    let h1 = splitmix64(fnv1a(key, 0xcbf2_9ce4_8422_2325));
    let h2 = splitmix64(fnv1a(key, 0x6c62_272e_07bb_0142));
    (h1, h2)
}

/// Multiply-shift range reduction: maps a full-width hash onto `[0, m)`
/// without the integer division a `% m` would cost (Lemire's fast
/// alternative to the modulo reduction).
#[inline]
fn reduce(h: u64, m: u64) -> u64 {
    (((h as u128) * (m as u128)) >> 64) as u64
}

/// Probe indexes from precomputed base hashes, `k` probes over `m` bits.
pub(crate) fn indexes_from_base(base: (u64, u64), k: u32, m: u64) -> IndexIter {
    IndexIter {
        idx: reduce(base.0, m),
        // A stride of zero would collapse every probe onto one bit;
        // clamping to ≥1 restores "successive probes differ" for every
        // key and filter size (m = 1 degenerates harmlessly: all probes
        // hit the only bit there is).
        step: reduce(base.1, m).max(1),
        m,
        i: 0,
        k,
    }
}

/// Produces the probe indexes for `key` with `k` hashes over `m` bits.
pub(crate) fn indexes(key: &[u8], k: u32, m: u64) -> IndexIter {
    indexes_from_base(base_hashes(key), k, m)
}

fn fnv1a(data: &[u8], offset_basis: u64) -> u64 {
    let mut hash = offset_basis;
    for &b in data {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_are_deterministic() {
        let a: Vec<u64> = indexes(b"mac-1", 5, 1024).collect();
        let b: Vec<u64> = indexes(b"mac-1", 5, 1024).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5);
    }

    #[test]
    fn different_keys_probe_differently() {
        let a: Vec<u64> = indexes(b"mac-1", 8, 1 << 20).collect();
        let b: Vec<u64> = indexes(b"mac-2", 8, 1 << 20).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn indexes_stay_in_range() {
        for m in [1u64, 2, 63, 64, 65, 100, 1 << 16] {
            for idx in indexes(b"key", 16, m) {
                assert!(idx < m, "index {idx} out of range for m={m}");
            }
        }
    }

    #[test]
    fn probe_positions_spread_for_small_m() {
        // With h2 forced odd, k=2 probes of a key should usually differ even
        // at tiny m; check the distribution is not degenerate.
        let mut distinct = 0;
        for key in 0u32..100 {
            let v: Vec<u64> = indexes(&key.to_be_bytes(), 2, 8).collect();
            if v[0] != v[1] {
                distinct += 1;
            }
        }
        assert!(
            distinct > 70,
            "only {distinct}/100 keys had distinct probes"
        );
    }

    #[test]
    fn exact_size_iterator() {
        let mut it = indexes(b"x", 4, 100);
        assert_eq!(it.len(), 4);
        it.next();
        assert_eq!(it.len(), 3);
    }

    #[test]
    fn avalanche_of_similar_keys() {
        // One-bit-different keys should produce uncorrelated first probes.
        let mut same = 0;
        for i in 0u64..256 {
            let a: Vec<u64> = indexes(&i.to_be_bytes(), 1, 1 << 30).collect();
            let b: Vec<u64> = indexes(&(i ^ 1).to_be_bytes(), 1, 1 << 30).collect();
            if a == b {
                same += 1;
            }
        }
        assert_eq!(same, 0);
    }
}
