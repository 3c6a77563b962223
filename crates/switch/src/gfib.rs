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
//!
//! A query hashes the address once and probes the filters breadth-first,
//! in chunks of up to 64 headers: the first pass tests every filter's
//! first probe bit without branching on it and records the survivors in
//! a `u64` mask; each later pass tests the next probe of the survivors
//! only, until each has hit a clear bit or passed its own `k` probes. A
//! bank is usually cold when a query starts, and its filters have as
//! many geometries as peers with different L-FIB sizes; probing one
//! filter to its first clear bit, then the next, serves those cache
//! misses one at a time behind a mispredicted branch each, where a pass
//! has all of them in flight at once. The index arithmetic (first probe,
//! stride, wrap) is [`lazyctrl_bloom::first_probe`] and
//! [`lazyctrl_bloom::next_probe`], the definition the filters are built
//! with.
//!
//! An update splices the peer's words into the store: in place when it is
//! as wide as the filter it replaces (a re-advertisement under the same
//! geometry, the common case), moving the later filters' words only when
//! the width changes. Nothing is cached between queries (DESIGN §7.7).

use lazyctrl_bloom::{base_hashes, first_probe, next_probe, wire_words, BloomFilter};
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

/// Filters a query probes together: one bit each of the `u64` masks that
/// track them.
const CHUNK: usize = 64;

/// The longest chunk queried with scratch for no more filters than that.
const SHORT_CHUNK: usize = 16;

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

    /// The Fig. 5 query: all peers whose filter claims the address.
    #[cfg(test)]
    fn query(&self, mac: MacAddr) -> Vec<SwitchId> {
        let mut out = Vec::new();
        self.query_into(mac, &mut out);
        out
    }

    /// The query [`Gfib::query_into`] replaced, kept as its oracle: each
    /// filter probed to its first clear bit, one filter after another.
    #[cfg(test)]
    fn query_scalar(&self, mac: MacAddr) -> Vec<SwitchId> {
        let base = base_hashes(&mac.octets());
        let mut out = Vec::new();
        let mut start = 0;
        for f in &self.filters {
            let end = start + f.width as usize;
            if lazyctrl_bloom::probe(&self.words[start..end], f.m as u64, f.k as u32, base) {
                out.push(f.peer);
            }
            start = end;
        }
        out
    }

    /// The Fig. 5 query: appends every peer whose filter claims the
    /// address to `out` (a caller-owned scratch buffer), in ascending peer
    /// order. Nothing appended means "definitely not in this group" — the
    /// packet must go to the controller. This is the per-packet path of
    /// the forwarding routine: one hash of the address, then the filters
    /// in chunks of up to 64, each chunk probed breadth-first
    /// (see the module docs); no allocation once `out` has room.
    pub fn query_into(&self, mac: MacAddr, out: &mut Vec<SwitchId>) {
        let base = base_hashes(&mac.octets());
        let mut start = 0;
        for chunk in self.filters.chunks(CHUNK) {
            // Scratch sized to the chunk, so a short bank (a handful of
            // peers under dynamic regrouping) zeroes a short one.
            start = if chunk.len() <= SHORT_CHUNK {
                self.query_chunk::<SHORT_CHUNK>(chunk, start, base, out)
            } else {
                self.query_chunk::<CHUNK>(chunk, start, base, out)
            };
        }
    }

    /// Queries the headers `chunk`, whose words start at `start`, for the
    /// key with base hashes `base`, appending the peers that claim it to
    /// `out`; returns where the next chunk's words start.
    ///
    /// Pass 1 tests every filter's first probe without a branch on its
    /// bit, so the loads of all of them are in flight at once; each later
    /// pass tests the next probe of the filters still alive. A filter
    /// drops out at a clear bit and claims the key once it has passed its
    /// own `k` probes. Bit `j` of each mask stands for `chunk[j]`, which
    /// holds at most `N` (at most 64) headers.
    fn query_chunk<const N: usize>(
        &self,
        chunk: &[Header],
        mut start: usize,
        base: (u64, u64),
        out: &mut Vec<SwitchId>,
    ) -> usize {
        // Per filter: where its words start, its next probe and stride.
        let mut at = [0usize; N];
        let mut next = [0u32; N];
        let mut step = [0u32; N];
        let bit = |at: usize, idx: u64| (self.words[at + (idx / 64) as usize] >> (idx % 64)) & 1;
        let (mut alive, mut last) = (0u64, 0u64);
        for (j, f) in chunk.iter().enumerate() {
            let m = u64::from(f.m);
            let (idx, stride) = first_probe(base, m);
            alive |= bit(start, idx) << j;
            last |= u64::from(f.k == 1) << j;
            at[j] = start;
            next[j] = next_probe(idx, stride, m) as u32;
            step[j] = stride as u32;
            start += f.width as usize;
        }
        let mut claimed = alive & last;
        alive &= !last;
        let mut probes = 1;
        while alive != 0 {
            probes += 1;
            let (mut kept, mut last) = (0u64, 0u64);
            let mut rest = alive;
            while rest != 0 {
                let j = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                let f = &chunk[j];
                let idx = u64::from(next[j]);
                kept |= bit(at[j], idx) << j;
                last |= u64::from(u32::from(f.k) == probes) << j;
                next[j] = next_probe(idx, u64::from(step[j]), u64::from(f.m)) as u32;
            }
            claimed |= kept & last;
            alive = kept & !last;
        }
        while claimed != 0 {
            out.push(chunk[claimed.trailing_zeros() as usize].peer);
            claimed &= claimed - 1;
        }
        start
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

    /// The update advertising `hosts` behind `peer`: sized by
    /// [`build_update`] when `geometry` is `None`, else with that `(m,
    /// k)`.
    fn update(peer: u32, epoch: u32, geometry: Option<(u32, u8)>, hosts: &[u64]) -> GfibUpdateMsg {
        let macs = hosts.iter().copied().map(mac);
        let Some((m, k)) = geometry else {
            return build_update(SwitchId::new(peer), epoch, macs);
        };
        let mut bloom = BloomFilter::new(m.into(), k.into());
        for mac in macs {
            bloom.insert(mac.octets());
        }
        GfibUpdateMsg {
            origin: SwitchId::new(peer),
            epoch,
            num_hashes: k,
            m_bits: m,
            entries: hosts.len() as u32,
            bits: bloom.to_bytes(),
        }
    }

    /// One step of a bank's life.
    #[derive(Debug, Clone)]
    enum BankOp {
        /// Peer, epoch, geometry (see [`update`]), and the hosts its
        /// filter advertises: more than 16 hosts widens a sized filter,
        /// so a replace can change word count.
        Update(u32, u32, Option<(u32, u8)>, Vec<u64>),
        Retain(Vec<u32>),
    }

    /// Peer ids the steps name: spread over three chunks of the bank.
    const PEER_IDS: u32 = 160;

    fn arb_bank_op() -> impl Strategy<Value = BankOp> {
        let update = || {
            let hosts = prop_oneof![
                proptest::collection::vec(0u64..96, 0..16),
                proptest::collection::vec(0u64..96, 16..90),
            ];
            // One word with a single hash, a word and a bit, and wider.
            let geometry = prop_oneof![
                Just(None),
                (Just(64u32), 1u8..5).prop_map(Some),
                (65u32..400, 1u8..5).prop_map(Some),
            ];
            let peer = (0u32..8).prop_map(|p| p * (PEER_IDS / 8) + p);
            (peer, 0u32..4, geometry, hosts).prop_map(|(p, e, g, h)| BankOp::Update(p, e, g, h))
        };
        prop_oneof![
            update(),
            update(),
            update(),
            proptest::collection::vec(0u32..PEER_IDS, 0..PEER_IDS as usize)
                .prop_map(BankOp::Retain),
        ]
    }

    /// A bank's starting size: empty, exactly one chunk, one past it,
    /// and past two.
    fn arb_preload() -> impl Strategy<Value = u32> {
        prop_oneof![Just(0u32), Just(64), Just(65), 129u32..PEER_IDS]
    }

    proptest! {
        /// New peers, same-epoch replaces of either width, stale updates
        /// and regroupings leave the bank, the map of filters and the
        /// scalar query with the same candidates, in the same order, and
        /// the bank and the map with the same size. Banks start with up to
        /// three chunks of peers of mixed geometry (one-word and
        /// single-hash filters among them), each advertising two of the
        /// hosts, so many addresses have several candidates.
        #[test]
        fn bank_agrees_with_map_of_filters(
            preload in arb_preload(),
            ops in proptest::collection::vec(arb_bank_op(), 1..40),
        ) {
            let mut bank = Gfib::new();
            let mut oracle = MapBank::default();
            for p in 0..preload {
                let geometry = [None, Some((64, 1 + (p % 4) as u8)), Some((64 + p, 2))];
                let hosts = [(p % 96) as u64, ((p * 7 + 3) % 96) as u64];
                let op = BankOp::Update(p, 0, geometry[p as usize % 3], hosts.to_vec());
                apply(&mut bank, &mut oracle, &op);
            }
            agree(&bank, &oracle, "the preload");
            for op in &ops {
                apply(&mut bank, &mut oracle, op);
                agree(&bank, &oracle, op);
            }
        }
    }

    /// Applies `op` to both banks, which must accept or refuse it alike.
    fn apply(bank: &mut Gfib, oracle: &mut MapBank, op: &BankOp) {
        match op {
            BankOp::Update(peer, epoch, geometry, hosts) => {
                let upd = update(*peer, *epoch, *geometry, hosts);
                assert_eq!(bank.apply_update(&upd), oracle.apply_update(&upd));
            }
            BankOp::Retain(keep) => {
                let keep: Vec<SwitchId> = keep.iter().copied().map(SwitchId::new).collect();
                bank.retain_peers(&keep);
                oracle.retain_peers(&keep);
            }
        }
    }

    /// The bank, the map of filters and the scalar query agree on the
    /// size and on every candidate list for members (hosts 0..96) and
    /// non-members alike.
    fn agree(bank: &Gfib, oracle: &MapBank, after: impl std::fmt::Debug) {
        assert_eq!(bank.num_peers(), oracle.0.len());
        assert_eq!(bank.storage_bytes(), oracle.storage_bytes());
        for host in (0..96).chain(10_000..10_064) {
            let candidates = bank.query(mac(host));
            assert_eq!(
                candidates,
                oracle.query(mac(host)),
                "host {host} after {after:?}"
            );
            assert_eq!(
                candidates,
                bank.query_scalar(mac(host)),
                "host {host} after {after:?}"
            );
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
