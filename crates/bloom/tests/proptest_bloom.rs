//! Property tests for the Bloom-filter invariants the G-FIB relies on.

use lazyctrl_bloom::BloomFilter;
use proptest::prelude::*;

proptest! {
    /// The invariant everything rests on: a Bloom filter never forgets.
    #[test]
    fn no_false_negatives(
        keys in proptest::collection::hash_set(proptest::collection::vec(any::<u8>(), 1..16), 1..200),
        fp in 0.001f64..0.2,
    ) {
        let mut bf = BloomFilter::with_capacity(keys.len() as u64, fp);
        for k in &keys {
            bf.insert(k);
        }
        for k in &keys {
            prop_assert!(bf.contains(k));
        }
    }

    /// Serialization to wire bytes and back is identity.
    #[test]
    fn wire_round_trip(
        keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..16), 0..100),
        m in 64u64..4096,
        k in 1u32..8,
    ) {
        let mut bf = BloomFilter::new(m, k);
        for key in &keys {
            bf.insert(key);
        }
        let back = BloomFilter::from_bytes(&bf.to_bytes(), m, k, bf.len());
        prop_assert_eq!(back, bf);
    }

    /// Union behaves like inserting both key sets.
    #[test]
    fn union_is_superset(
        a_keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..12), 0..50),
        b_keys in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..12), 0..50),
    ) {
        let mut a = BloomFilter::new(4096, 4);
        let mut b = BloomFilter::new(4096, 4);
        for k in &a_keys {
            a.insert(k);
        }
        for k in &b_keys {
            b.insert(k);
        }
        a.union_with(&b);
        for k in a_keys.iter().chain(&b_keys) {
            prop_assert!(a.contains(k));
        }
    }

    /// Estimated fp rate is monotone in load.
    #[test]
    fn fp_estimate_is_monotone(n in 1u64..2000) {
        let mut bf = BloomFilter::new(8192, 4);
        let mut last = 0.0;
        for i in 0..n {
            bf.insert(i.to_be_bytes());
            let est = bf.estimated_fp_rate();
            prop_assert!(est >= last);
            last = est;
        }
    }
}
