//! Property tests for the replica store's catch-up index.
//!
//! `ReplicaStore::knowledge_since` and `ReplicaStore::pending_delta` used
//! to filter the whole `hosts` and tombstone maps per call; they now walk
//! a per-origin `seq`-ordered index of hints. The scanning store lives on
//! here as [`ScanStore`], the reference: any `apply` sequence — in-order
//! deltas, summaries, gaps and late fills, replays, one MAC overwritten
//! across origins, withdrawal then re-learn, more withdrawals than the
//! tombstone cap holds — is fed to both, and after every step both must
//! return element-for-element the same vectors for every origin and a
//! spread of `since` / `seq`, the index must equal one rebuilt from the
//! maps, and a clone of the store must answer as the store does.

use std::collections::{BTreeMap, BTreeSet};

use lazyctrl_cluster::ReplicaStore;
use lazyctrl_net::{MacAddr, PortNo, SwitchId, TenantId};
use lazyctrl_proto::{HostEntry, PeerSyncMsg};
use proptest::prelude::*;

/// `replica::TOMBSTONE_CAP` (crate-private there). If the two drift
/// apart, `eviction_beyond_the_tombstone_cap` fails.
const TOMBSTONE_CAP: usize = 4096;
const PENDING_CAP: usize = 1024;

type Knowledge = (Vec<HostEntry>, Vec<(MacAddr, SwitchId)>);

/// The replica store as it was before the index: same `apply`, and
/// catch-up answered by scanning both maps.
#[derive(Default)]
struct ScanStore {
    hosts: BTreeMap<MacAddr, (HostEntry, u32, u64)>,
    /// MAC → (withdrawing switch, origin, seq, insertion stamp).
    tombstones: BTreeMap<MacAddr, (SwitchId, u32, u64, u64)>,
    /// Origin → (contiguous head, sequences pending beyond a gap).
    progress: BTreeMap<u32, (u64, BTreeSet<u64>)>,
    tomb_stamp: u64,
}

impl ScanStore {
    fn apply(&mut self, sync: &PeerSyncMsg) {
        for e in &sync.entries {
            self.hosts.insert(e.mac, (*e, sync.origin, sync.seq));
            self.tombstones.remove(&e.mac);
        }
        for (mac, from_switch) in &sync.removed {
            if self
                .hosts
                .get(mac)
                .is_some_and(|(e, _, _)| e.switch == *from_switch)
            {
                self.hosts.remove(mac);
                self.tomb_stamp += 1;
                self.tombstones
                    .insert(*mac, (*from_switch, sync.origin, sync.seq, self.tomb_stamp));
            }
        }
        while self.tombstones.len() > TOMBSTONE_CAP {
            let oldest = *self
                .tombstones
                .iter()
                .min_by_key(|(_, t)| t.3)
                .expect("over cap, hence non-empty")
                .0;
            self.tombstones.remove(&oldest);
        }
        let (head, pending) = self.progress.entry(sync.origin).or_default();
        if sync.summary {
            *head = (*head).max(sync.seq);
            let h = *head;
            pending.retain(|&s| s > h);
        } else if sync.seq > *head {
            pending.insert(sync.seq);
        }
        while pending.remove(&(*head + 1)) {
            *head += 1;
        }
        if !sync.summary {
            while pending.len() > PENDING_CAP {
                pending.pop_last();
            }
        }
    }

    fn heads(&self) -> Vec<(u32, u64)> {
        self.progress.iter().map(|(&o, p)| (o, p.0)).collect()
    }

    fn pending_seqs(&self, origin: u32) -> Vec<u64> {
        self.progress
            .get(&origin)
            .map(|p| p.1.iter().copied().collect())
            .unwrap_or_default()
    }

    fn scan(&self, origin: u32, wanted: impl Fn(u64) -> bool) -> Knowledge {
        let entries = self
            .hosts
            .values()
            .filter(|(_, o, s)| *o == origin && wanted(*s))
            .map(|(e, _, _)| *e)
            .collect();
        let removed = self
            .tombstones
            .iter()
            .filter(|(_, t)| t.1 == origin && wanted(t.2))
            .map(|(mac, t)| (*mac, t.0))
            .collect();
        (entries, removed)
    }

    fn knowledge_since(&self, origin: u32, since: u64) -> Knowledge {
        let head = self.progress.get(&origin).map_or(0, |p| p.0);
        self.scan(origin, |s| s <= head && s > since)
    }

    fn pending_delta(&self, origin: u32, seq: u64) -> Knowledge {
        self.scan(origin, |s| s == seq)
    }
}

fn entry(host: u64, switch: u32) -> HostEntry {
    HostEntry {
        mac: MacAddr::for_host(host),
        switch: SwitchId::new(switch),
        // Varies with the location, so a stale entry cannot pass for the
        // current one.
        port: PortNo::new(1 + switch as u16),
        tenant: TenantId::new(3),
    }
}

/// Everything the two stores can be asked, compared at `origins` and
/// `seqs`; then the index against the maps, and a clone against the
/// store.
fn compare(
    store: &ReplicaStore,
    scan: &ScanStore,
    origins: &[u32],
    seqs: &BTreeSet<u64>,
) -> Result<(), String> {
    if store.heads() != scan.heads() {
        return Err(format!("heads {:?} vs {:?}", store.heads(), scan.heads()));
    }
    if store.len() != scan.hosts.len() {
        return Err(format!("len {} vs {}", store.len(), scan.hosts.len()));
    }
    store.check_index()?;
    let clone = store.clone();
    clone.check_index()?;
    for &origin in origins {
        if store.pending_seqs(origin) != scan.pending_seqs(origin) {
            return Err(format!("pending_seqs({origin})"));
        }
        for &s in seqs {
            let want = scan.knowledge_since(origin, s);
            if store.knowledge_since(origin, s) != want {
                let got = store.knowledge_since(origin, s);
                return Err(format!(
                    "knowledge_since({origin}, {s}): {got:?} vs {want:?}"
                ));
            }
            if clone.knowledge_since(origin, s) != want {
                return Err(format!("clone's knowledge_since({origin}, {s})"));
            }
            let want = scan.pending_delta(origin, s);
            if store.pending_delta(origin, s) != want {
                let got = store.pending_delta(origin, s);
                return Err(format!("pending_delta({origin}, {s}): {got:?} vs {want:?}"));
            }
            if clone.pending_delta(origin, s) != want {
                return Err(format!("clone's pending_delta({origin}, {s})"));
            }
        }
        if store.knowledge_of(origin) != scan.knowledge_since(origin, 0) {
            return Err(format!("knowledge_of({origin})"));
        }
    }
    Ok(())
}

/// One generated sync: `(origin, how its seq is chosen, pick, summary,
/// entries as (host, switch), withdrawals as (host, switch))`.
type RawSync = (u32, u8, u8, bool, Vec<(u64, u32)>, Vec<(u64, u32)>);

fn raw_sync() -> impl Strategy<Value = RawSync> {
    (
        1u32..=3,
        0u8..12,
        any::<u8>(),
        (0u8..6).prop_map(|n| n == 0),
        proptest::collection::vec((0u64..12, 0u32..3), 0..5),
        proptest::collection::vec((0u64..12, 0u32..3), 0..3),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Few MACs, switches and origins, so overwrites across origins,
    /// withdrawals that match (or are stale), re-learns and replays of an
    /// already applied `(origin, seq)` all happen often; sequences run in
    /// order, jump over gaps, come back to fill them, and repeat. Long
    /// enough for the stale references to pass the rebuild threshold.
    #[test]
    fn index_agrees_with_the_scanning_store(
        raw in proptest::collection::vec(raw_sync(), 1..140),
        clone_every in 1usize..5,
    ) {
        let mut store = ReplicaStore::new();
        let mut scan = ScanStore::default();
        // Highest seq sent per origin so far, and every seq worth asking
        // about: each one applied, its neighbours, and the extremes.
        let mut sent: BTreeMap<u32, u64> = BTreeMap::new();
        let mut seqs: BTreeSet<u64> = [0, 1, u64::MAX].into();
        for (step, (origin, how, pick, summary, entries, removed)) in raw.into_iter().enumerate() {
            let last = sent.entry(origin).or_default();
            let seq = match how {
                0..=5 => *last + 1,
                6 | 7 => *last + 2 + u64::from(pick % 3),
                8 | 9 => 1 + u64::from(pick) % (*last).max(1),
                10 => 0,
                _ => *last,
            };
            *last = (*last).max(seq);
            seqs.extend([seq.saturating_sub(1), seq, seq + 1]);
            let sync = PeerSyncMsg {
                origin,
                seq,
                chunk: 0,
                summary,
                entries: entries.into_iter().map(|(h, s)| entry(h, s)).collect(),
                removed: removed
                    .into_iter()
                    .map(|(h, s)| (MacAddr::for_host(h), SwitchId::new(s)))
                    .collect(),
            };
            store.apply(&sync);
            scan.apply(&sync);
            // Origin 0 never sends: the stores must agree on nothing, too.
            if let Err(why) = compare(&store, &scan, &[0, 1, 2, 3], &seqs) {
                prop_assert!(false, "after step {} ({:?}): {}", step, sync, why);
            }
            // Carry on from a clone now and then: the index must survive
            // the copy the plane's copy-on-write members make.
            if step % clone_every == 0 {
                store = store.clone();
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// More withdrawals than the tombstone cap holds, so the oldest
    /// tombstones are evicted under the index's feet, while a second
    /// origin keeps re-learning some of the withdrawn hosts elsewhere.
    #[test]
    fn eviction_beyond_the_tombstone_cap(chunk in 48usize..160, relearn_every in 5u64..12) {
        let hosts = (TOMBSTONE_CAP + 1500) as u64;
        let mut store = ReplicaStore::new();
        let mut scan = ScanStore::default();
        // Origin 1 learns every host, then withdraws every host; origin 2
        // re-learns some behind it. `seq[origin]` is the last one sent.
        let mut seq = [0u64; 3];
        let check = |store: &ReplicaStore, scan: &ScanStore, seq: &[u64; 3]| {
            let spread = [0, seq[1] / 2, seq[1].saturating_sub(1), seq[1], seq[2], u64::MAX];
            compare(store, scan, &[1, 2], &spread.into())
        };
        let delta = |origin, seq, entries, removed| PeerSyncMsg {
            origin,
            seq,
            chunk: 0,
            summary: false,
            entries,
            removed,
        };
        let all: Vec<u64> = (0..hosts).collect();
        for (round, group) in all.chunks(chunk).enumerate() {
            seq[1] += 1;
            let learned = group.iter().map(|&h| entry(h, 1)).collect();
            let sync = delta(1, seq[1], learned, vec![]);
            store.apply(&sync);
            scan.apply(&sync);
            if round % 16 == 0 {
                if let Err(why) = check(&store, &scan, &seq) {
                    prop_assert!(false, "learning, round {}: {}", round, why);
                }
            }
        }
        for (round, group) in all.chunks(chunk).enumerate() {
            seq[1] += 1;
            let withdrawn = group
                .iter()
                .map(|&h| (MacAddr::for_host(h), SwitchId::new(1)))
                .collect();
            seq[2] += 1;
            let relearned = group
                .iter()
                .filter(|&&h| h % relearn_every == 0)
                .map(|&h| entry(h, 2))
                .collect();
            for sync in [
                delta(1, seq[1], vec![], withdrawn),
                delta(2, seq[2], relearned, vec![]),
            ] {
                store.apply(&sync);
                scan.apply(&sync);
            }
            if round % 16 == 0 {
                if let Err(why) = check(&store, &scan, &seq) {
                    prop_assert!(false, "withdrawing, round {}: {}", round, why);
                }
            }
        }
        let evicted = hosts as usize - store.len() - store.knowledge_of(1).1.len();
        prop_assert!(evicted > 0, "the cap was never reached");
        if let Err(why) = check(&store, &scan, &seq) {
            prop_assert!(false, "at the end: {}", why);
        }
    }
}
