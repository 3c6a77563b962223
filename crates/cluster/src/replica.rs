//! Per-controller replica of the other shards' C-LIBs.
//!
//! Each cluster member keeps, besides its authoritative C-LIB shard (the
//! hosts behind switches it owns, inside its `LazyController`), a *replica
//! store* fed by peers' asynchronous
//! [`PeerSyncMsg`](lazyctrl_proto::PeerSyncMsg)s — flooded directly or
//! relayed along the dissemination overlay. Inter-shard flow setups
//! consult the replica first; only a replica miss costs a synchronous peer
//! lookup. The replica is also what makes failover cheap: a controller
//! taking over a dead peer's groups seeds its C-LIB from the replica
//! instead of waiting for every switch to re-sync.
//!
//! # Anti-entropy bookkeeping
//!
//! Relay overlays can drop deltas (a chunk in flight towards a member
//! that dies mid-circulation is simply gone), so the store tracks, per
//! origin, the highest **contiguous** flush sequence it has fully seen
//! ([`ReplicaStore::seen_through`]) — later deltas that arrive over a gap
//! wait in a pending set without advancing it. Digest exchanges compare
//! exactly these values, which is what makes holes *visible*: a member
//! that missed seq 3 but received 4 and 5 still advertises 2 and gets
//! served the gap. Entries are attributed to `(origin, seq)` and
//! withdrawals leave bounded tombstones, so any up-to-date peer can serve
//! exact catch-up — entries *and* removals — for any origin it knows.
//!
//! # The catch-up index
//!
//! Serving a digest must cost the gap, not the shard, so the store keeps
//! per origin a `seq`-ascending list of `(seq, mac)` references to what
//! that origin's syncs wrote ([`ReplicaStore::knowledge_since`] and
//! [`ReplicaStore::pending_delta`] binary-search it). Maintenance is
//! append-only: [`ReplicaStore::apply`] finds the sync's place once and
//! appends one reference per entry or withdrawal it wrote; nothing is
//! unlinked when a MAC is overwritten, re-learned, withdrawn or its
//! tombstone evicted. A reference is therefore only a *hint* — readers
//! keep it when `hosts` / `tombstones` still attribute the MAC to exactly
//! that `(origin, seq)` and drop it otherwise — and the stale ones are
//! swept by rebuilding the index from the maps whenever references
//! outnumber what they could point at by more than three to one (see
//! [`INDEX_STALE_FACTOR`]). The index is derived state: it is left out of
//! the fingerprint and cloned with the store.

use std::collections::{BTreeMap, BTreeSet};

use lazyctrl_net::{MacAddr, SwitchId};
use lazyctrl_proto::{HostEntry, PeerSyncMsg};
use serde::{Deserialize, Serialize};

/// A withdrawal remembered for anti-entropy catch-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Tombstone {
    /// The switch that withdrew the host (needed by the receiving side's
    /// stale-withdrawal guard).
    switch: SwitchId,
    /// The origin controller whose sync carried the withdrawal.
    origin: u32,
    /// That origin's flush sequence at the withdrawal.
    seq: u64,
    /// Store-local insertion stamp; cap eviction drops the smallest, so
    /// the *oldest* withdrawal goes first (a key-ordered eviction would
    /// permanently starve low-sorting MACs of tombstone memory).
    stamp: u64,
}

/// Evicts oldest-stamped values from a capped map. `stamp_of` projects
/// each value's insertion stamp.
pub(crate) fn evict_oldest<K: Ord + Clone, V>(
    map: &mut BTreeMap<K, V>,
    cap: usize,
    stamp_of: impl Fn(&V) -> u64,
) {
    while map.len() > cap {
        let oldest = map
            .iter()
            .min_by_key(|(_, v)| stamp_of(v))
            .map(|(k, _)| k.clone())
            .expect("map is over cap, hence non-empty");
        map.remove(&oldest);
    }
}

/// Per-origin sequence tracking.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct OriginProgress {
    /// Highest contiguous flush sequence fully absorbed.
    seen_through: u64,
    /// Sequences received *beyond* a gap, waiting for it to fill.
    pending: BTreeSet<u64>,
}

impl OriginProgress {
    fn note_delta(&mut self, seq: u64) {
        if seq <= self.seen_through {
            return;
        }
        // The in-order delta advances the head itself; only one that
        // arrives over a gap has to wait in the set.
        if seq == self.seen_through + 1 {
            self.seen_through = seq;
        } else {
            self.pending.insert(seq);
        }
        while self.pending.remove(&(self.seen_through + 1)) {
            self.seen_through += 1;
        }
        // A gap that anti-entropy will fill anyway must not hoard memory.
        while self.pending.len() > PENDING_CAP {
            self.pending.pop_last();
        }
    }

    fn note_summary(&mut self, seq: u64) {
        if seq > self.seen_through {
            self.seen_through = seq;
        }
        let st = self.seen_through;
        self.pending.retain(|&s| s > st);
        while self.pending.remove(&(self.seen_through + 1)) {
            self.seen_through += 1;
        }
    }
}

/// Replicated host locations from peer controllers.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReplicaStore {
    /// Host → (location, asserting origin, that origin's flush seq). The
    /// attribution lets this store answer per-origin catch-up requests.
    hosts: BTreeMap<MacAddr, (HostEntry, u32, u64)>,
    /// Bounded withdrawal memory, newest kept (see [`TOMBSTONE_CAP`]).
    tombstones: BTreeMap<MacAddr, Tombstone>,
    /// Per-origin contiguous-sequence progress.
    progress: BTreeMap<u32, OriginProgress>,
    /// Monotonic tombstone insertion stamp (for oldest-first eviction).
    tomb_stamp: u64,
    syncs_applied: u64,
    /// The catch-up index (module docs): per origin, `(seq, mac)`
    /// references ascending by `seq`. Invariant: every entry of `hosts`
    /// and `tombstones` is referenced under its own `(origin, seq)`;
    /// extra, stale references are allowed and bounded by
    /// [`INDEX_STALE_FACTOR`].
    index: BTreeMap<u32, Vec<(u64, MacAddr)>>,
}

/// Withdrawals retained for catch-up (shared by the replica store and
/// each member's own-shard tombstones in the plane, so the two halves of
/// the withdrawal-replay mechanism stay in step). Beyond this, the
/// oldest tombstones are dropped — a member that slept through *that*
/// many removals falls back to additive convergence (stale entries
/// linger until organically withdrawn or overwritten; correctness is
/// preserved by the synchronous lookup / scoped-ARP fallback, only
/// replica hit-rate suffers).
pub(crate) const TOMBSTONE_CAP: usize = 4096;

/// Out-of-order sequences buffered per origin while a gap waits for
/// anti-entropy. Overflow drops the newest (they will be re-served).
const PENDING_CAP: usize = 1024;

/// Memory bound of the catch-up index: after every
/// [`ReplicaStore::apply`] it holds at most
/// `INDEX_STALE_FACTOR × (hosts + tombstones) + INDEX_SLACK` references
/// of 16 bytes each. A rebuild walks both maps and sorts, so it should
/// be rare: at factor 3 one follows at least two appends per entry it
/// re-indexes (measured on `cluster_storm`: rebuilds take 0.06 % of
/// wall, against 0.25 % at factor 2, for the same peak RSS). The slack
/// keeps a near-empty store from rebuilding on every sync.
const INDEX_STALE_FACTOR: usize = 3;
/// See [`INDEX_STALE_FACTOR`].
const INDEX_SLACK: usize = 64;

impl ReplicaStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        ReplicaStore::default()
    }

    /// Number of replicated host locations.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True when nothing is replicated yet.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    /// Total peer syncs absorbed.
    pub fn syncs_applied(&self) -> u64 {
        self.syncs_applied
    }

    /// Highest contiguous flush sequence fully seen from `origin` — the
    /// digest-exchange basis. Deltas received beyond a gap do not advance
    /// it, which is what keeps holes visible to anti-entropy.
    pub fn seen_through(&self, origin: u32) -> u64 {
        self.progress
            .get(&origin)
            .map(|p| p.seen_through)
            .unwrap_or(0)
    }

    /// All per-origin contiguous heads, ascending by origin — the digest
    /// body.
    pub fn heads(&self) -> Vec<(u32, u64)> {
        self.progress
            .iter()
            .map(|(&o, p)| (o, p.seen_through))
            .collect()
    }

    /// Sequences received from `origin` beyond its contiguous head.
    pub fn pending_seqs(&self, origin: u32) -> Vec<u64> {
        self.progress
            .get(&origin)
            .map(|p| p.pending.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Folds the full replica contents into a state fingerprint: hosts
    /// with their attribution, tombstones, and per-origin progress. All
    /// backing collections are `BTreeMap`/`BTreeSet`, so iteration order
    /// is canonical. The eviction stamp counters are included — they feed
    /// eviction order, which is observable state.
    pub(crate) fn fingerprint_into(&self, h: &mut crate::fingerprint::Fnv64) {
        h.usize(self.hosts.len());
        for (mac, (entry, origin, seq)) in &self.hosts {
            h.bytes(&mac.octets());
            h.u32(entry.switch.0).u16(entry.port.as_u16());
            h.u16(entry.tenant.as_u16());
            h.u32(*origin).u64(*seq);
        }
        h.usize(self.tombstones.len());
        for (mac, t) in &self.tombstones {
            h.bytes(&mac.octets());
            h.u32(t.switch.0).u32(t.origin).u64(t.seq).u64(t.stamp);
        }
        h.u64(self.tomb_stamp);
        for (origin, p) in &self.progress {
            h.u32(*origin).u64(p.seen_through);
            h.usize(p.pending.len());
            for s in &p.pending {
                h.u64(*s);
            }
        }
    }

    /// Absorbs one peer sync: entries overwrite, withdrawals remove only
    /// while the stored location still matches the withdrawing switch —
    /// the same stale-removal rule as the C-LIB: a migration's fresh learn
    /// elsewhere must not be clobbered by the old location's late
    /// withdrawal. A **summary** sync (anti-entropy catch-up carrying all
    /// of an origin's knowledge up to `seq`) advances the contiguous head
    /// directly; a **delta** only advances it when it closes the gap.
    pub fn apply(&mut self, sync: &PeerSyncMsg) {
        let at = (sync.origin, sync.seq);
        let refs = self.index.entry(sync.origin).or_default();
        let before = refs.len();
        for e in &sync.entries {
            let old = self.hosts.insert(e.mac, (*e, sync.origin, sync.seq));
            self.tombstones.remove(&e.mac);
            // A replayed chunk re-asserts what is already referenced.
            if old.is_none_or(|(_, o, s)| (o, s) != at) {
                refs.push((sync.seq, e.mac));
            }
        }
        for (mac, from_switch) in &sync.removed {
            if let Some((existing, _, _)) = self.hosts.get(mac) {
                if existing.switch == *from_switch {
                    self.hosts.remove(mac);
                    self.tomb_stamp += 1;
                    self.tombstones.insert(
                        *mac,
                        Tombstone {
                            switch: *from_switch,
                            origin: sync.origin,
                            seq: sync.seq,
                            stamp: self.tomb_stamp,
                        },
                    );
                    refs.push((sync.seq, *mac));
                }
            }
        }
        // Keep the origin's references ascending by `seq`. Syncs mostly
        // arrive in order, so the new run is usually already in place; a
        // late one (gap fill, catch-up under an older head) is rotated
        // down to where its sequence belongs.
        if refs[..before].last().is_some_and(|&(s, _)| s > sync.seq) {
            let place = refs[..before].partition_point(|&(s, _)| s <= sync.seq);
            refs[place..].rotate_left(before - place);
        }
        evict_oldest(&mut self.tombstones, TOMBSTONE_CAP, |t| t.stamp);
        let live = self.hosts.len() + self.tombstones.len();
        if self.index.values().map(Vec::len).sum::<usize>()
            > INDEX_STALE_FACTOR * live + INDEX_SLACK
        {
            self.rebuild_index();
        }
        let progress = self.progress.entry(sync.origin).or_default();
        if sync.summary {
            progress.note_summary(sync.seq);
        } else {
            progress.note_delta(sync.seq);
        }
        self.syncs_applied += 1;
    }

    /// Replaces the index by exactly one reference per entry and
    /// tombstone, dropping everything stale.
    fn rebuild_index(&mut self) {
        for refs in self.index.values_mut() {
            refs.clear();
        }
        for (mac, (_, origin, seq)) in &self.hosts {
            self.index.entry(*origin).or_default().push((*seq, *mac));
        }
        for (mac, t) in &self.tombstones {
            self.index.entry(t.origin).or_default().push((t.seq, *mac));
        }
        for refs in self.index.values_mut() {
            refs.sort_unstable_by_key(|&(seq, _)| seq);
        }
    }

    /// Test support: checks the catch-up index against the maps it is
    /// derived from — each origin's references ascend by `seq`, following
    /// them finds exactly what following a fresh rebuild's finds, and
    /// their number respects the memory bound.
    #[doc(hidden)]
    pub fn check_index(&self) -> Result<(), String> {
        let mut rebuilt = self.clone();
        rebuilt.index.clear();
        rebuilt.rebuild_index();
        let all = |store: &Self, origin| store.index.get(&origin).cloned().unwrap_or_default();
        for &origin in self.index.keys().chain(rebuilt.index.keys()) {
            let refs = all(self, origin);
            if !refs.is_sorted_by_key(|&(seq, _)| seq) {
                return Err(format!("origin {origin}: not ascending by seq: {refs:?}"));
            }
            let (found, exact) = (
                self.resolve(origin, &refs),
                rebuilt.resolve(origin, &all(&rebuilt, origin)),
            );
            if found != exact {
                return Err(format!(
                    "origin {origin}: index finds {found:?}, the maps hold {exact:?}"
                ));
            }
        }
        let refs: usize = self.index.values().map(Vec::len).sum();
        let bound = INDEX_STALE_FACTOR * (self.hosts.len() + self.tombstones.len()) + INDEX_SLACK;
        if refs > bound {
            return Err(format!("{refs} references, bound {bound}"));
        }
        Ok(())
    }

    /// `origin`'s references with `seq` in `first..=last` (`first ≤ last`).
    fn refs_in(&self, origin: u32, first: u64, last: u64) -> &[(u64, MacAddr)] {
        let refs = self.index.get(&origin).map_or(&[][..], Vec::as_slice);
        let from = refs.partition_point(|&(s, _)| s < first);
        let to = refs.partition_point(|&(s, _)| s <= last);
        &refs[from..to]
    }

    /// Follows `origin`'s references into the maps, keeping those still
    /// attributed to exactly `(origin, seq)`, and returns `(live entries,
    /// withdrawals)` in the maps' own order — ascending by MAC, each MAC
    /// once — which is what a scan of the maps would produce.
    fn resolve(
        &self,
        origin: u32,
        refs: &[(u64, MacAddr)],
    ) -> (Vec<HostEntry>, Vec<(MacAddr, SwitchId)>) {
        let mut entries = Vec::new();
        let mut removed = Vec::new();
        for &(seq, mac) in refs {
            if let Some((e, o, s)) = self.hosts.get(&mac) {
                if (*o, *s) == (origin, seq) {
                    entries.push(*e);
                }
            } else if let Some(t) = self.tombstones.get(&mac) {
                if (t.origin, t.seq) == (origin, seq) {
                    removed.push((mac, t.switch));
                }
            }
        }
        entries.sort_unstable_by_key(|e| e.mac);
        entries.dedup_by_key(|e| e.mac);
        removed.sort_unstable_by_key(|&(mac, _)| mac);
        removed.dedup_by_key(|&mut (mac, _)| mac);
        (entries, removed)
    }

    /// Looks up a replicated host location.
    pub fn lookup(&self, mac: MacAddr) -> Option<HostEntry> {
        self.hosts.get(&mac).map(|(e, _, _)| *e)
    }

    /// Everything this store knows of `origin` up to its contiguous head:
    /// `(live entries, remembered withdrawals)` — the payload of a
    /// *summary* catch-up sync for that origin. Entries beyond the head
    /// (received over a gap) are excluded: summarizing them would claim
    /// completeness the store does not have.
    pub fn knowledge_of(&self, origin: u32) -> (Vec<HostEntry>, Vec<(MacAddr, SwitchId)>) {
        self.knowledge_since(origin, 0)
    }

    /// Like [`knowledge_of`], but only the part a peer that already holds
    /// everything through `since` is missing: entries and withdrawals
    /// attributed to sequences in `(since, head]`. Serving just the gap
    /// keeps steady-state anti-entropy traffic proportional to the lag,
    /// not to the shard size.
    ///
    /// [`knowledge_of`]: ReplicaStore::knowledge_of
    pub fn knowledge_since(
        &self,
        origin: u32,
        since: u64,
    ) -> (Vec<HostEntry>, Vec<(MacAddr, SwitchId)>) {
        let head = self.seen_through(origin);
        if since >= head {
            return (Vec::new(), Vec::new());
        }
        self.resolve(origin, self.refs_in(origin, since + 1, head))
    }

    /// Reconstructs the delta of one pending (beyond-the-gap) sequence of
    /// `origin`, for forwarding to a peer that lacks it.
    pub fn pending_delta(
        &self,
        origin: u32,
        seq: u64,
    ) -> (Vec<HostEntry>, Vec<(MacAddr, SwitchId)>) {
        self.resolve(origin, self.refs_in(origin, seq, seq))
    }

    /// All replicated hosts attached to one of the given switches, grouped
    /// by switch (ascending). Used to seed a C-LIB on ownership takeover.
    pub fn hosts_behind(&self, switches: &[SwitchId]) -> Vec<(SwitchId, Vec<HostEntry>)> {
        let mut by_switch: BTreeMap<SwitchId, Vec<HostEntry>> = BTreeMap::new();
        for (e, _, _) in self.hosts.values() {
            if switches.contains(&e.switch) {
                by_switch.entry(e.switch).or_default().push(*e);
            }
        }
        by_switch.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyctrl_net::{PortNo, TenantId};

    fn entry(h: u64, s: u32) -> HostEntry {
        HostEntry {
            mac: MacAddr::for_host(h),
            switch: SwitchId::new(s),
            port: PortNo::new(1),
            tenant: TenantId::new(3),
        }
    }

    fn sync(
        origin: u32,
        seq: u64,
        entries: Vec<HostEntry>,
        removed: Vec<(u64, u32)>,
    ) -> PeerSyncMsg {
        PeerSyncMsg {
            origin,
            seq,
            chunk: 0,
            summary: false,
            entries,
            removed: removed
                .into_iter()
                .map(|(h, s)| (MacAddr::for_host(h), SwitchId::new(s)))
                .collect(),
        }
    }

    #[test]
    fn syncs_build_the_replica() {
        let mut r = ReplicaStore::new();
        r.apply(&sync(1, 1, vec![entry(10, 3), entry(11, 4)], vec![]));
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.lookup(MacAddr::for_host(10)).unwrap().switch,
            SwitchId::new(3)
        );
        assert!(r.lookup(MacAddr::for_host(99)).is_none());
        assert_eq!(r.seen_through(1), 1);
        assert_eq!(r.heads(), vec![(1, 1)]);
        assert_eq!(r.syncs_applied(), 1);
    }

    #[test]
    fn withdrawals_remove_and_leave_tombstones() {
        let mut r = ReplicaStore::new();
        r.apply(&sync(1, 1, vec![entry(10, 3)], vec![]));
        r.apply(&sync(1, 2, vec![], vec![(10, 3)]));
        assert!(r.is_empty());
        let (entries, removed) = r.knowledge_of(1);
        assert!(entries.is_empty());
        assert_eq!(removed, vec![(MacAddr::for_host(10), SwitchId::new(3))]);
    }

    #[test]
    fn stale_withdrawal_does_not_clobber_fresh_learn() {
        let mut r = ReplicaStore::new();
        // Host 10 migrates: shard B's fresh learn on switch 7 lands first,
        // then shard A's late withdrawal from switch 3 arrives.
        r.apply(&sync(1, 1, vec![entry(10, 3)], vec![]));
        r.apply(&sync(2, 1, vec![entry(10, 7)], vec![]));
        r.apply(&sync(1, 2, vec![], vec![(10, 3)]));
        let loc = r
            .lookup(MacAddr::for_host(10))
            .expect("fresh learn survives");
        assert_eq!(loc.switch, SwitchId::new(7));
    }

    #[test]
    fn a_gap_keeps_the_head_back_until_filled() {
        let mut r = ReplicaStore::new();
        r.apply(&sync(1, 1, vec![entry(10, 3)], vec![]));
        r.apply(&sync(1, 2, vec![entry(11, 3)], vec![]));
        // Seq 3 lost in the overlay; 4 and 5 arrive anyway.
        r.apply(&sync(1, 4, vec![entry(13, 3)], vec![]));
        r.apply(&sync(1, 5, vec![entry(14, 3)], vec![]));
        assert_eq!(r.seen_through(1), 2, "gap at 3 must keep the head at 2");
        assert_eq!(r.pending_seqs(1), vec![4, 5]);
        // Knowledge stops at the head; the pending tail is reconstructable
        // per sequence.
        let (entries, _) = r.knowledge_of(1);
        assert_eq!(entries.len(), 2);
        let (tail, _) = r.pending_delta(1, 4);
        assert_eq!(tail, vec![entry(13, 3)]);
        // The gap fills: head catches up through the pending set.
        r.apply(&sync(1, 3, vec![entry(12, 3)], vec![]));
        assert_eq!(r.seen_through(1), 5);
        assert!(r.pending_seqs(1).is_empty());
    }

    #[test]
    fn a_summary_advances_the_head_directly() {
        let mut r = ReplicaStore::new();
        let mut summary = sync(1, 7, vec![entry(10, 3), entry(11, 4)], vec![]);
        summary.summary = true;
        r.apply(&summary);
        assert_eq!(r.seen_through(1), 7);
        // A later delta over a fresh gap pends again.
        r.apply(&sync(1, 9, vec![entry(12, 4)], vec![]));
        assert_eq!(r.seen_through(1), 7);
        r.apply(&sync(1, 8, vec![entry(13, 4)], vec![]));
        assert_eq!(r.seen_through(1), 9);
    }

    #[test]
    fn knowledge_since_serves_only_the_gap() {
        let mut r = ReplicaStore::new();
        r.apply(&sync(1, 1, vec![entry(10, 3)], vec![]));
        r.apply(&sync(1, 2, vec![entry(11, 3)], vec![]));
        r.apply(&sync(1, 3, vec![entry(12, 3)], vec![(10, 3)]));
        let (entries, removed) = r.knowledge_since(1, 2);
        assert_eq!(entries, vec![entry(12, 3)]);
        assert_eq!(removed, vec![(MacAddr::for_host(10), SwitchId::new(3))]);
        let (all, _) = r.knowledge_since(1, 0);
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn knowledge_is_attributed_to_the_last_asserting_origin() {
        let mut r = ReplicaStore::new();
        r.apply(&sync(1, 1, vec![entry(10, 3), entry(11, 3)], vec![]));
        r.apply(&sync(2, 1, vec![entry(10, 7)], vec![]));
        let (of_1, _) = r.knowledge_of(1);
        let (of_2, _) = r.knowledge_of(2);
        assert_eq!(of_1, vec![entry(11, 3)]);
        assert_eq!(of_2, vec![entry(10, 7)]);
    }

    #[test]
    fn reapplying_a_tombstoned_entry_clears_the_tombstone() {
        let mut r = ReplicaStore::new();
        r.apply(&sync(1, 1, vec![entry(10, 3)], vec![]));
        r.apply(&sync(1, 2, vec![], vec![(10, 3)]));
        r.apply(&sync(1, 3, vec![entry(10, 5)], vec![]));
        let (entries, removed) = r.knowledge_of(1);
        assert_eq!(entries, vec![entry(10, 5)]);
        assert!(removed.is_empty(), "re-learn must clear the tombstone");
    }

    #[test]
    fn tombstone_eviction_drops_the_oldest_not_the_lowest_key() {
        let mut m: BTreeMap<u32, u64> = BTreeMap::new();
        // Key order is the *reverse* of insertion order: key 3 is oldest.
        m.insert(3, 1);
        m.insert(2, 2);
        m.insert(1, 3);
        evict_oldest(&mut m, 2, |&s| s);
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![1, 2]);
        evict_oldest(&mut m, 1, |&s| s);
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn hosts_behind_filters_and_groups() {
        let mut r = ReplicaStore::new();
        r.apply(&sync(
            1,
            1,
            vec![entry(10, 3), entry(11, 3), entry(12, 4), entry(13, 9)],
            vec![],
        ));
        let groups = r.hosts_behind(&[SwitchId::new(3), SwitchId::new(4)]);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, SwitchId::new(3));
        assert_eq!(groups[0].1.len(), 2);
        assert_eq!(groups[1].0, SwitchId::new(4));
        assert_eq!(groups[1].1.len(), 1);
    }
}
