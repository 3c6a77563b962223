//! The group-ownership map: which controller runs each local control
//! group.
//!
//! The cluster's unit of sharding is the switch *group* (LCG), not the
//! individual switch: groups already minimize inter-partition traffic
//! (§III-C), so group boundaries are also the natural control-plane shard
//! boundaries — the same insight behind the devolved-controller designs of
//! Tam et al. The map is versioned by an epoch; every
//! [`OwnershipTransferMsg`](lazyctrl_proto::OwnershipTransferMsg) carries
//! the epoch after which it applies, so stale transfers are recognizable.

use std::collections::BTreeMap;

use lazyctrl_net::GroupId;
use lazyctrl_proto::{OwnershipTransferMsg, TransferReason};
use serde::{Deserialize, Serialize};

/// Versioned group → controller assignment.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OwnershipMap {
    epoch: u32,
    owner: BTreeMap<usize, u32>,
}

impl OwnershipMap {
    /// Creates an empty map (epoch 0).
    pub(crate) fn new() -> Self {
        OwnershipMap::default()
    }

    /// Assigns `num_groups` groups round-robin across `controllers`
    /// (in the given order), bumping the epoch once.
    pub(crate) fn assign_round_robin(&mut self, num_groups: usize, controllers: &[u32]) {
        assert!(!controllers.is_empty(), "no controllers to assign to");
        self.owner = (0..num_groups)
            .map(|g| (g, controllers[g % controllers.len()]))
            .collect();
        self.epoch += 1;
    }

    /// The current epoch.
    pub(crate) fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The controller owning `group`.
    pub fn owner_of(&self, group: usize) -> Option<u32> {
        self.owner.get(&group).copied()
    }

    /// All groups owned by `controller`, ascending.
    pub fn groups_of(&self, controller: u32) -> Vec<usize> {
        self.owner
            .iter()
            .filter(|(_, &c)| c == controller)
            .map(|(&g, _)| g)
            .collect()
    }

    /// Number of mapped groups.
    pub fn len(&self) -> usize {
        self.owner.len()
    }

    /// True when no groups are mapped.
    pub fn is_empty(&self) -> bool {
        self.owner.is_empty()
    }

    /// Moves `group` to `to`, bumping the epoch. Returns the wire message
    /// describing the transfer, stamped with the announcing leader's
    /// election `term` so receivers can discard announcements from a
    /// deposed leader.
    ///
    /// # Panics
    ///
    /// Panics if the group is unmapped.
    pub(crate) fn transfer(
        &mut self,
        group: usize,
        to: u32,
        reason: TransferReason,
        term: u64,
    ) -> OwnershipTransferMsg {
        let from = *self.owner.get(&group).expect("transfer of unmapped group");
        self.owner.insert(group, to);
        self.epoch += 1;
        OwnershipTransferMsg {
            epoch: self.epoch,
            group: GroupId::new(group as u32),
            from,
            to,
            reason,
            term,
        }
    }

    /// Iterates `(group, owner)` pairs, ascending by group.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.owner.iter().map(|(&g, &c)| (g, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_covers_all_groups() {
        let mut m = OwnershipMap::new();
        m.assign_round_robin(5, &[0, 1]);
        assert_eq!(m.len(), 5);
        assert_eq!(m.groups_of(0), vec![0, 2, 4]);
        assert_eq!(m.groups_of(1), vec![1, 3]);
        assert_eq!(m.owner_of(4), Some(0));
        assert_eq!(m.owner_of(9), None);
        assert_eq!(m.epoch(), 1);
    }

    #[test]
    fn transfer_moves_and_bumps_epoch() {
        let mut m = OwnershipMap::new();
        m.assign_round_robin(4, &[0, 1]);
        let msg = m.transfer(2, 1, TransferReason::Rebalance, 1);
        assert_eq!(msg.from, 0);
        assert_eq!(msg.to, 1);
        assert_eq!(msg.epoch, 2);
        assert_eq!(m.owner_of(2), Some(1));
        assert_eq!(m.groups_of(1), vec![1, 2, 3]);
    }
}
