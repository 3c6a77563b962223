//! Reachability and loss injection.
//!
//! The failover design (§III-E) infers failures from *where keep-alives
//! stop arriving* (Table I). This module holds the faults a fault plan
//! (`lazyctrl_proto::EventPlan`) can inject into the fabric — crashed
//! nodes, per-class loss and a network partition — so those inference
//! rules can be exercised.

use std::collections::BTreeMap;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::ChannelClass;

/// Side marker for nodes listed in no partition island: they remain
/// reachable from every side.
const UNLISTED_SIDE: u16 = u16::MAX;

/// The active network partition: a side assignment per listed node.
///
/// Nodes listed in different islands cannot exchange messages in either
/// direction; a node listed in no island reaches (and is reached by)
/// everyone. The per-delivery check is an array read for dense node ids
/// and a `BTreeMap` probe only for the reserved high-id range (the
/// cluster's controller pseudo-switches), and it consumes no randomness —
/// partitioned drops are deterministic, unlike probabilistic loss.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct PartitionMap {
    /// Side per dense node id (`UNLISTED_SIDE` = not in any island).
    dense: Vec<u16>,
    /// Sides for node ids ≥ [`DENSE_NODE_LIMIT`].
    high: BTreeMap<u32, u16>,
}

impl PartitionMap {
    fn from_groups(groups: &[Vec<u32>]) -> Self {
        let mut map = PartitionMap::default();
        for (side, group) in groups.iter().enumerate() {
            for &node in group {
                if node < DENSE_NODE_LIMIT {
                    let i = node as usize;
                    if i >= map.dense.len() {
                        map.dense.resize(i + 1, UNLISTED_SIDE);
                    }
                    map.dense[i] = side as u16;
                } else {
                    map.high.insert(node, side as u16);
                }
            }
        }
        map
    }

    #[inline]
    fn side_of(&self, node: u32) -> u16 {
        let i = node as usize;
        if i < self.dense.len() {
            self.dense[i]
        } else if node >= DENSE_NODE_LIMIT {
            self.high.get(&node).copied().unwrap_or(UNLISTED_SIDE)
        } else {
            UNLISTED_SIDE
        }
    }

    #[inline]
    fn reachable(&self, a: u32, b: u32) -> bool {
        let sa = self.side_of(a);
        if sa == UNLISTED_SIDE {
            return true;
        }
        let sb = self.side_of(b);
        sb == UNLISTED_SIDE || sa == sb
    }
}

/// Node ids below this are tracked in dense vectors; ids at or above it
/// are the controller sentinel `u32::MAX` and the cluster's pseudo-switch
/// ids near it. Only switches crash, and topology switch ids are small and
/// dense, so the per-delivery up/down check is an array read, not a hash.
const DENSE_NODE_LIMIT: u32 = 1 << 20;

/// Identifies one directed logical link between two nodes on a channel
/// class. Node ids are the caller's (the core crate uses switch ids, with a
/// reserved id for the controller).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkId {
    /// Sending node.
    pub from: u32,
    /// Receiving node.
    pub to: u32,
    /// Channel class.
    pub class: ChannelClass,
}

impl LinkId {
    /// Creates a link id.
    pub fn new(from: u32, to: u32, class: ChannelClass) -> Self {
        LinkId { from, to, class }
    }
}

/// The fabric's injected faults, as the link gate sees them: which nodes
/// are down, the loss probability of each channel class, and the network
/// partition in force.
///
/// Everything defaults to up, lossless and whole, and the per-delivery
/// check is hash-free: node up/down is a dense vector indexed by id,
/// class loss is a fixed array, and a partition is consulted only while
/// one is in force. These are exactly the faults an `EventPlan` can
/// inject (`CrashSwitch` / `RecoverSwitch`, `LinkLoss`,
/// `PartitionNetwork` / `HealPartition`).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LinkState {
    /// Loss probability applied to *every* link of a channel class (fault
    /// injection: a degraded control network, a lossy underlay).
    /// Indexed by [`ChannelClass::index`]; `0.0` = no loss.
    class_loss: [f64; ChannelClass::COUNT],
    /// Nodes that are down drop everything to/from them (dense, indexed
    /// by node id; grows on demand). Nodes beyond the vector are up.
    node_down: Vec<bool>,
    /// The network partition in force, if any. `None` (the norm) keeps
    /// the delivery fast path to a single branch.
    partition: Option<PartitionMap>,
}

impl LinkState {
    /// Creates an all-up switchboard.
    pub fn new() -> Self {
        LinkState::default()
    }

    /// Takes a node down or up (a down node loses all its links).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a dense topology id (below 2²⁰): only
    /// switches crash.
    pub fn set_node_down(&mut self, node: u32, down: bool) {
        assert!(
            node < DENSE_NODE_LIMIT,
            "node {node} is not a switch id; only switches go down"
        );
        let i = node as usize;
        if i >= self.node_down.len() {
            if !down {
                return; // already up
            }
            self.node_down.resize(i + 1, false);
        }
        self.node_down[i] = down;
    }

    /// Sets the loss probability applied to every link of `class`
    /// (0 clears the override).
    ///
    /// # Panics
    ///
    /// Panics unless `p` is finite and in `[0, 1]` (NaN rejected).
    pub fn set_class_loss(&mut self, class: ChannelClass, p: f64) {
        assert!(
            p.is_finite() && (0.0..=1.0).contains(&p),
            "loss probability {p} out of [0,1]"
        );
        self.class_loss[class.index()] = p;
    }

    /// The class-wide loss probability currently in force for `class`.
    pub fn class_loss(&self, class: ChannelClass) -> f64 {
        self.class_loss[class.index()]
    }

    /// Splits the network into the given islands, replacing any partition
    /// already in force (see [`LinkState::reachable`] for the semantics).
    pub fn set_partition(&mut self, groups: &[Vec<u32>]) {
        self.partition = Some(PartitionMap::from_groups(groups));
    }

    /// Heals the active partition; full reachability returns.
    pub fn heal_partition(&mut self) {
        self.partition = None;
    }

    /// True if a partition is currently in force.
    pub fn partitioned(&self) -> bool {
        self.partition.is_some()
    }

    /// True if nodes `a` and `b` can currently exchange messages as far
    /// as the partition state is concerned: no partition active, the two
    /// nodes sit in the same island, or at least one of them is listed in
    /// no island. Orthogonal to node up/down and loss.
    #[inline]
    pub fn reachable(&self, a: u32, b: u32) -> bool {
        match &self.partition {
            None => true,
            Some(p) => p.reachable(a, b),
        }
    }

    /// True if both endpoints are up and no partition separates them.
    pub fn is_up(&self, link: LinkId) -> bool {
        self.is_node_up(link.from) && self.is_node_up(link.to) && self.reachable(link.from, link.to)
    }

    /// True if the node is up.
    #[inline]
    pub fn is_node_up(&self, node: u32) -> bool {
        self.node_down.get(node as usize).is_none_or(|&down| !down)
    }

    /// Decides whether one message on `link` is delivered: checks
    /// reachability, then samples the class loss.
    ///
    /// RNG discipline: a loss probability is sampled if and only if it is
    /// non-zero, so configurations without loss consume no randomness —
    /// runs stay bit-identical when loss injection is merely absent
    /// rather than disabled.
    #[inline]
    pub fn delivers<R: Rng>(&self, link: LinkId, rng: &mut R) -> bool {
        if !self.is_up(link) {
            return false;
        }
        let p = self.class_loss[link.class.index()];
        p == 0.0 || !rng.gen_bool(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn l(a: u32, b: u32) -> LinkId {
        LinkId::new(a, b, ChannelClass::Peer)
    }

    #[test]
    fn links_default_up() {
        let s = LinkState::new();
        assert!(s.is_up(l(1, 2)));
        let mut rng = StdRng::seed_from_u64(1);
        assert!(s.delivers(l(1, 2), &mut rng));
    }

    #[test]
    fn node_down_kills_all_its_links() {
        let mut s = LinkState::new();
        s.set_node_down(7, true);
        assert!(!s.is_up(l(7, 1)));
        assert!(!s.is_up(l(1, 7)));
        assert!(s.is_up(l(1, 2)));
        assert!(!s.is_node_up(7));
        s.set_node_down(7, false);
        assert!(s.is_up(l(7, 1)));
    }

    #[test]
    fn partial_loss_is_roughly_proportional() {
        let mut s = LinkState::new();
        s.set_class_loss(ChannelClass::Peer, 0.3);
        let mut rng = StdRng::seed_from_u64(4);
        let delivered = (0..10_000)
            .filter(|i| s.delivers(l(i % 7, 7 + i % 5), &mut rng))
            .count();
        assert!(
            (6300..7700).contains(&delivered),
            "delivered {delivered}/10000"
        );
        let control = LinkId::new(1, 2, ChannelClass::Control);
        assert!((0..1000).all(|_| s.delivers(control, &mut rng)));
    }

    #[test]
    fn class_loss_hits_every_link_of_the_class() {
        let mut s = LinkState::new();
        s.set_class_loss(ChannelClass::Peer, 1.0);
        let mut rng = StdRng::seed_from_u64(9);
        assert!(!s.delivers(l(1, 2), &mut rng));
        assert!(!s.delivers(l(5, 6), &mut rng));
        assert!(s.delivers(LinkId::new(1, 2, ChannelClass::Control), &mut rng));
        assert_eq!(s.class_loss(ChannelClass::Peer), 1.0);
        s.set_class_loss(ChannelClass::Peer, 0.0);
        assert!(s.delivers(l(1, 2), &mut rng));
        assert_eq!(s.class_loss(ChannelClass::Peer), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn negative_loss_panics() {
        let mut s = LinkState::new();
        s.set_class_loss(ChannelClass::Peer, -0.1);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn nan_class_loss_panics() {
        let mut s = LinkState::new();
        s.set_class_loss(ChannelClass::Control, f64::NAN);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn out_of_range_class_loss_panics() {
        let mut s = LinkState::new();
        s.set_class_loss(ChannelClass::Control, 2.0);
    }

    #[test]
    fn partition_severs_cross_island_pairs_only() {
        let mut s = LinkState::new();
        let ctrl = 0xC000_0001u32; // high-range pseudo id
        s.set_partition(&[vec![1, 2], vec![3, ctrl]]);
        assert!(s.partitioned());
        // Same island: fine, both directions.
        assert!(s.is_up(l(1, 2)));
        assert!(s.is_up(LinkId::new(3, ctrl, ChannelClass::Control)));
        // Cross island: severed, both directions, every class.
        assert!(!s.is_up(l(1, 3)));
        assert!(!s.is_up(l(3, 1)));
        assert!(!s.is_up(LinkId::new(1, ctrl, ChannelClass::Control)));
        // Unlisted nodes reach everyone.
        assert!(s.is_up(l(1, 9)));
        assert!(s.is_up(l(9, 3)));
        assert!(s.is_up(LinkId::new(9, ctrl, ChannelClass::Control)));
        // Partition drops consume no randomness.
        let mut rng = StdRng::seed_from_u64(5);
        assert!(!s.delivers(l(1, 3), &mut rng));
        let mut fresh = StdRng::seed_from_u64(5);
        assert_eq!(rng.gen::<u64>(), fresh.gen::<u64>());
        s.heal_partition();
        assert!(!s.partitioned());
        assert!(s.is_up(l(1, 3)));
    }

    #[test]
    fn new_partition_replaces_old() {
        let mut s = LinkState::new();
        s.set_partition(&[vec![1], vec![2]]);
        assert!(!s.is_up(l(1, 2)));
        s.set_partition(&[vec![1, 2], vec![3]]);
        assert!(s.is_up(l(1, 2)));
        assert!(!s.is_up(l(2, 3)));
    }

    #[test]
    fn partition_composes_with_node_down_and_loss() {
        let mut s = LinkState::new();
        s.set_partition(&[vec![1, 2], vec![3]]);
        s.set_node_down(2, true);
        assert!(!s.is_up(l(1, 2)), "down node loses intra-island links too");
        s.set_class_loss(ChannelClass::Peer, 1.0);
        let mut rng = StdRng::seed_from_u64(6);
        assert!(!s.delivers(l(1, 9), &mut rng), "loss still applies");
    }
}
