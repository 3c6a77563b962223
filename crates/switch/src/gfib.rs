//! The Group Forwarding Information Base: Bloom-filter replicas of every
//! peer's L-FIB (§III-D.2).
//!
//! "Given an address of a virtual machine, each BF decides whether this
//! address is under the corresponding edge switch. All the BFs together
//! will return a vector of Boolean values indicating the possible location
//! of this address." False positives are possible (handled in Fig. 5 by
//! sending copies to all candidates and dropping at mis-forwarded
//! switches); false negatives are not.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

use lazyctrl_bloom::BloomFilter;
use lazyctrl_net::{MacAddr, SwitchId};
use lazyctrl_proto::GfibUpdateMsg;
use serde::{Deserialize, Serialize};

/// One peer's filter plus the epoch it was built under.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct PeerFilter {
    bloom: BloomFilter,
    epoch: u32,
}

/// The per-peer Bloom filter bank.
///
/// Queries are memoized per destination MAC: flows repeat destinations
/// constantly (the traces' hot pair sets), while the filter bank itself
/// only changes on peer-sync updates — so each (MAC, bank-generation)
/// pair probes the filters once and every repeat is a hash-map hit. The
/// cache is invalidated wholesale by bumping `generation` on any filter
/// mutation, and is transparent: results are identical with or without
/// it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Gfib {
    peers: BTreeMap<SwitchId, PeerFilter>,
    /// Bumped on every mutation of `peers`.
    generation: u64,
    /// `mac → (generation, candidates)`; entries from older generations
    /// are recomputed on access.
    cache: RefCell<HashMap<MacAddr, (u64, Vec<SwitchId>)>>,
}

impl Gfib {
    /// Creates an empty G-FIB.
    pub fn new() -> Self {
        Gfib::default()
    }

    /// Number of peer filters held.
    pub fn num_peers(&self) -> usize {
        self.peers.len()
    }

    /// Installs or replaces the filter for `origin` from a wire update.
    ///
    /// Updates from an older epoch than the one already held are ignored
    /// (regrouping races); same-or-newer epochs replace.
    ///
    /// Returns true if the filter was installed.
    pub fn apply_update(&mut self, msg: &GfibUpdateMsg) -> bool {
        if let Some(existing) = self.peers.get(&msg.origin) {
            if msg.epoch < existing.epoch {
                return false;
            }
        }
        let bloom = BloomFilter::from_bytes(
            &msg.bits,
            msg.m_bits as u64,
            msg.num_hashes.max(1) as u32,
            msg.entries as u64,
        );
        self.peers.insert(
            msg.origin,
            PeerFilter {
                bloom,
                epoch: msg.epoch,
            },
        );
        self.invalidate();
        true
    }

    /// Invalidates memoized query results (any filter-bank mutation).
    fn invalidate(&mut self) {
        self.generation += 1;
        self.cache.get_mut().clear();
    }

    /// Drops every peer not in `keep` (after a regrouping).
    pub(crate) fn retain_peers(&mut self, keep: &[SwitchId]) {
        let before = self.peers.len();
        self.peers.retain(|s, _| keep.contains(s));
        if self.peers.len() != before {
            self.invalidate();
        }
    }

    /// The Fig. 5 query: all peers whose filter claims the address (the
    /// test oracle of [`Gfib::query_into`]).
    #[cfg(test)]
    fn query(&self, mac: MacAddr) -> Vec<SwitchId> {
        let mut out = Vec::new();
        self.query_into(mac, &mut out);
        out
    }

    /// The Fig. 5 query: appends every peer whose filter claims the
    /// address to `out` (a caller-owned scratch buffer). Nothing appended
    /// means "definitely not in this group" — the packet must go to the
    /// controller. A memo-cache hit is a `extend_from_slice`, not a clone —
    /// this is the per-packet path of the forwarding routine.
    pub fn query_into(&self, mac: MacAddr, out: &mut Vec<SwitchId>) {
        {
            let cache = self.cache.borrow();
            if let Some((gen, hit)) = cache.get(&mac) {
                if *gen == self.generation {
                    out.extend_from_slice(hit);
                    return;
                }
            }
        }
        // Hash the key once; probe every peer filter with its own (k, m).
        let base = lazyctrl_bloom::base_hashes(&mac.octets());
        let start = out.len();
        out.extend(
            self.peers
                .iter()
                .filter(|(_, f)| f.bloom.contains_prehashed(base))
                .map(|(&s, _)| s),
        );
        self.cache
            .borrow_mut()
            .insert(mac, (self.generation, out[start..].to_vec()));
    }

    /// Total storage held by the filter bank in bytes (§V-D's quantity).
    pub fn storage_bytes(&self) -> usize {
        self.peers.values().map(|f| f.bloom.storage_bytes()).sum()
    }
}

/// Builds the wire update advertising `macs` as living behind `origin`.
///
/// Geometry follows the paper's §V-D example: the filter is sized for the
/// expected host count at a <0.1% false-positive rate.
pub fn build_update(
    origin: SwitchId,
    epoch: u32,
    macs: impl IntoIterator<Item = MacAddr>,
) -> GfibUpdateMsg {
    let macs: Vec<MacAddr> = macs.into_iter().collect();
    let mut bloom = BloomFilter::with_capacity((macs.len() as u64).max(16), 0.001);
    for m in &macs {
        bloom.insert(m.octets());
    }
    GfibUpdateMsg {
        origin,
        epoch,
        num_hashes: bloom.num_hashes() as u8,
        m_bits: bloom.num_bits() as u32,
        entries: macs.len() as u32,
        bits: bloom.to_bytes(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(n: u64) -> MacAddr {
        MacAddr::for_host(n)
    }

    #[test]
    fn update_and_query() {
        let mut g = Gfib::new();
        let upd = build_update(SwitchId::new(2), 1, vec![mac(10), mac(11)]);
        assert!(g.apply_update(&upd));
        assert_eq!(g.query(mac(10)), vec![SwitchId::new(2)]);
        assert_eq!(g.query(mac(11)), vec![SwitchId::new(2)]);
        assert!(g.query(mac(999)).is_empty());
        assert_eq!(g.num_peers(), 1);
    }

    #[test]
    fn multiple_candidates_possible() {
        let mut g = Gfib::new();
        g.apply_update(&build_update(SwitchId::new(1), 1, vec![mac(5)]));
        g.apply_update(&build_update(SwitchId::new(2), 1, vec![mac(5)]));
        // Host appears under both (e.g. mid-migration): both returned.
        assert_eq!(g.query(mac(5)), vec![SwitchId::new(1), SwitchId::new(2)]);
    }

    #[test]
    fn stale_epoch_rejected() {
        let mut g = Gfib::new();
        assert!(g.apply_update(&build_update(SwitchId::new(3), 5, vec![mac(1)])));
        assert!(!g.apply_update(&build_update(SwitchId::new(3), 4, vec![mac(2)])));
        // Epoch 5 content still in force.
        assert_eq!(g.query(mac(1)), vec![SwitchId::new(3)]);
        assert!(g.query(mac(2)).is_empty());
    }

    #[test]
    fn same_epoch_replaces() {
        let mut g = Gfib::new();
        g.apply_update(&build_update(SwitchId::new(3), 5, vec![mac(1)]));
        g.apply_update(&build_update(SwitchId::new(3), 5, vec![mac(2)]));
        assert!(g.query(mac(1)).is_empty());
        assert_eq!(g.query(mac(2)), vec![SwitchId::new(3)]);
    }

    #[test]
    fn retain_peers_prunes_after_regroup() {
        let mut g = Gfib::new();
        for s in 1..=4u32 {
            g.apply_update(&build_update(SwitchId::new(s), 1, vec![mac(s as u64)]));
        }
        g.retain_peers(&[SwitchId::new(2), SwitchId::new(4)]);
        assert_eq!(g.num_peers(), 2);
        assert!(g.query(mac(1)).is_empty());
        assert_eq!(g.query(mac(2)), vec![SwitchId::new(2)]);
    }

    #[test]
    fn storage_is_linear_in_group_size() {
        // §V-D: "the storage cost of the BF-based G-FIB on each switch is
        // linear with the group size".
        let mut g10 = Gfib::new();
        let mut g20 = Gfib::new();
        for s in 0..10u32 {
            g10.apply_update(&build_update(SwitchId::new(s), 1, (0..24).map(mac)));
        }
        for s in 0..20u32 {
            g20.apply_update(&build_update(SwitchId::new(s), 1, (0..24).map(mac)));
        }
        assert_eq!(g20.storage_bytes(), 2 * g10.storage_bytes());
    }

    #[test]
    fn no_false_negatives_through_wire() {
        let macs: Vec<MacAddr> = (0..500).map(mac).collect();
        let upd = build_update(SwitchId::new(9), 1, macs.clone());
        let mut g = Gfib::new();
        g.apply_update(&upd);
        for m in macs {
            assert_eq!(g.query(m), vec![SwitchId::new(9)], "lost {m}");
        }
    }
}
