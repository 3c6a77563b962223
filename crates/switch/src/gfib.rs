//! The Group Forwarding Information Base: Bloom-filter replicas of every
//! peer's L-FIB (§III-D.2).
//!
//! "Given an address of a virtual machine, each BF decides whether this
//! address is under the corresponding edge switch. All the BFs together
//! will return a vector of Boolean values indicating the possible location
//! of this address." False positives are possible (handled in Fig. 5 by
//! sending copies to all candidates and dropping at mis-forwarded
//! switches); false negatives are not.
//!
//! The bank is one contiguous store: a 16-byte header per peer, ascending
//! by peer id, and one `Vec<u64>` holding every filter's words back to
//! back in header order, decoded straight from each `GfibUpdate`'s bits.
//! A query hashes the address once and walks the headers with a running
//! word offset, probing each filter through [`lazyctrl_bloom::probe`]. An
//! update splices the peer's words into the store: in place when it is as
//! wide as the filter it replaces (a re-advertisement under the same
//! geometry, the common case), moving the later filters' words only when
//! the width changes. Nothing is cached between queries (DESIGN §7.7).

use lazyctrl_bloom::{base_hashes, probe, wire_words, BloomFilter};
use lazyctrl_net::{MacAddr, SwitchId};
use lazyctrl_proto::GfibUpdateMsg;

/// One peer's filter: who, under which epoch, its geometry and how many
/// words of the bank it occupies. Its words start where the previous
/// header's end, so the header carries no offset.
#[derive(Debug, Clone, Copy)]
struct Header {
    peer: SwitchId,
    /// Epoch the filter was built under; an update from an older one is
    /// ignored.
    epoch: u32,
    /// Addressable bits; probe indexes are taken modulo this.
    m: u32,
    /// Words the filter occupies in the bank.
    width: u16,
    /// Number of hash functions.
    k: u8,
}

/// The per-peer Bloom filter bank (see the module docs for its layout).
#[derive(Debug, Clone, Default)]
pub struct Gfib {
    /// One header per peer, ascending by peer id.
    filters: Vec<Header>,
    /// Every filter's words, in `filters` order.
    words: Vec<u64>,
}

impl Gfib {
    /// Creates an empty G-FIB.
    pub fn new() -> Self {
        Gfib::default()
    }

    /// Number of peer filters held.
    pub fn num_peers(&self) -> usize {
        self.filters.len()
    }

    /// Installs or replaces the filter for `origin` from a wire update.
    ///
    /// Updates from an older epoch than the one already held are ignored
    /// (regrouping races); same-or-newer epochs replace.
    ///
    /// Returns true if the filter was installed.
    ///
    /// # Panics
    ///
    /// Panics if the update's bits are not whole words, are too short for
    /// its `m_bits`, or span more than `u16::MAX` words (4 Mbit; the
    /// §V-D sizing reaches that at ≈290 000 hosts behind one switch).
    pub fn apply_update(&mut self, msg: &GfibUpdateMsg) -> bool {
        let slot = self.filters.binary_search_by_key(&msg.origin, |f| f.peer);
        if matches!(slot, Ok(i) if msg.epoch < self.filters[i].epoch) {
            return false;
        }
        let new = wire_words(&msg.bits, msg.m_bits as u64);
        let header = Header {
            peer: msg.origin,
            epoch: msg.epoch,
            m: msg.m_bits,
            width: u16::try_from(new.len()).expect("G-FIB filter wider than u16::MAX words"),
            k: msg.num_hashes.max(1),
        };
        let i = slot.unwrap_or_else(|i| {
            self.filters.insert(i, Header { width: 0, ..header });
            i
        });
        let start: usize = self.filters[..i].iter().map(|f| f.width as usize).sum();
        // In place when the width is unchanged (a re-advertisement under
        // the same geometry, the common case): `splice` moves the later
        // filters' words only when the widths differ, and needs no
        // scratch vector since `new` knows its exact length.
        let held = start..start + self.filters[i].width as usize;
        self.words.splice(held, new);
        self.filters[i] = header;
        true
    }

    /// Drops every peer not in `keep` (after a regrouping), moving the
    /// kept filters' words down over the dropped ones.
    pub(crate) fn retain_peers(&mut self, keep: &[SwitchId]) {
        let (mut read, mut write) = (0, 0);
        let words = &mut self.words;
        self.filters.retain(|f| {
            let width = f.width as usize;
            let kept = keep.contains(&f.peer);
            if kept {
                words.copy_within(read..read + width, write);
                write += width;
            }
            read += width;
            kept
        });
        self.words.truncate(write);
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
    /// address to `out` (a caller-owned scratch buffer), in ascending peer
    /// order. Nothing appended means "definitely not in this group" — the
    /// packet must go to the controller. This is the per-packet path of
    /// the forwarding routine: one hash of the address, one probe per
    /// filter, no allocation once `out` has room.
    pub fn query_into(&self, mac: MacAddr, out: &mut Vec<SwitchId>) {
        let base = base_hashes(&mac.octets());
        let mut start = 0;
        for f in &self.filters {
            let end = start + f.width as usize;
            if probe(&self.words[start..end], f.m as u64, f.k as u32, base) {
                out.push(f.peer);
            }
            start = end;
        }
    }

    /// Total storage held by the filter bank in bytes (§V-D's quantity).
    pub fn storage_bytes(&self) -> usize {
        self.words.len() * 8
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
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn mac(n: u64) -> MacAddr {
        MacAddr::for_host(n)
    }

    #[test]
    fn header_fits_sixteen_bytes() {
        assert!(std::mem::size_of::<Header>() <= 16);
    }

    /// The bank this one replaced: one separately allocated
    /// `BloomFilter` per peer in an ordered map. The contiguous bank must
    /// agree with it after every step.
    #[derive(Default)]
    struct MapBank(BTreeMap<SwitchId, (u32, BloomFilter)>);

    impl MapBank {
        fn apply_update(&mut self, msg: &GfibUpdateMsg) -> bool {
            if matches!(self.0.get(&msg.origin), Some((epoch, _)) if msg.epoch < *epoch) {
                return false;
            }
            let bloom = BloomFilter::from_bytes(
                &msg.bits,
                msg.m_bits as u64,
                msg.num_hashes.max(1) as u32,
                msg.entries as u64,
            );
            self.0.insert(msg.origin, (msg.epoch, bloom));
            true
        }

        fn retain_peers(&mut self, keep: &[SwitchId]) {
            self.0.retain(|s, _| keep.contains(s));
        }

        fn query(&self, mac: MacAddr) -> Vec<SwitchId> {
            self.0
                .iter()
                .filter(|(_, (_, bloom))| bloom.contains(mac.octets()))
                .map(|(&s, _)| s)
                .collect()
        }

        fn storage_bytes(&self) -> usize {
            self.0.values().map(|(_, b)| b.storage_bytes()).sum()
        }
    }

    /// One step of a bank's life.
    #[derive(Debug, Clone)]
    enum BankOp {
        /// Peer, epoch, and the hosts its filter advertises: more than 16
        /// hosts widens the filter, so a replace can change word count.
        Update(u32, u32, Vec<u64>),
        Retain(Vec<u32>),
    }

    fn arb_bank_op() -> impl Strategy<Value = BankOp> {
        let update = || {
            let hosts = prop_oneof![
                proptest::collection::vec(0u64..96, 0..16),
                proptest::collection::vec(0u64..96, 16..90),
            ];
            (0u32..8, 0u32..4, hosts).prop_map(|(p, e, h)| BankOp::Update(p, e, h))
        };
        prop_oneof![
            update(),
            update(),
            update(),
            proptest::collection::vec(0u32..8, 0..8).prop_map(BankOp::Retain),
        ]
    }

    proptest! {
        /// New peers, same-epoch replaces of either width, stale updates
        /// and regroupings leave the bank and the map of filters with the
        /// same candidates, in the same order, for members (hosts 0..96)
        /// and non-members alike, and the same size.
        #[test]
        fn bank_agrees_with_map_of_filters(
            ops in proptest::collection::vec(arb_bank_op(), 1..40),
        ) {
            let mut bank = Gfib::new();
            let mut oracle = MapBank::default();
            for op in &ops {
                match op {
                    BankOp::Update(peer, epoch, hosts) => {
                        let upd = build_update(
                            SwitchId::new(*peer),
                            *epoch,
                            hosts.iter().copied().map(mac),
                        );
                        prop_assert_eq!(bank.apply_update(&upd), oracle.apply_update(&upd));
                    }
                    BankOp::Retain(keep) => {
                        let keep: Vec<SwitchId> = keep.iter().copied().map(SwitchId::new).collect();
                        bank.retain_peers(&keep);
                        oracle.retain_peers(&keep);
                    }
                }
                prop_assert_eq!(bank.num_peers(), oracle.0.len());
                prop_assert_eq!(bank.storage_bytes(), oracle.storage_bytes());
                for host in (0..96).chain(10_000..10_064) {
                    prop_assert_eq!(bank.query(mac(host)), oracle.query(mac(host)), "host {} after {:?}", host, op);
                }
            }
        }
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
