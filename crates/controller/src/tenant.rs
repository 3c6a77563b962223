//! Tenant information management (§IV-B): which tenants exist, where their
//! hosts sit, and whose ARP traffic can be confined to a single group.

use std::collections::{BTreeMap, BTreeSet};

use lazyctrl_net::{SwitchId, TenantId};
use serde::{Deserialize, Serialize};

use crate::Clib;

/// Tenant directory derived from the C-LIB plus the current grouping.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub(crate) struct TenantDirectory {
    /// Tenant → groups currently hosting it.
    groups_of: BTreeMap<TenantId, BTreeSet<usize>>,
    /// Tenants whose ARP is currently blocked from reaching the controller.
    blocked: BTreeSet<TenantId>,
}

impl TenantDirectory {
    /// Creates an empty directory.
    pub(crate) fn new() -> Self {
        TenantDirectory::default()
    }

    /// Rebuilds the tenant → group map from the C-LIB and a switch → group
    /// assignment.
    pub(crate) fn rebuild(
        &mut self,
        clib: &Clib,
        group_of_switch: impl Fn(SwitchId) -> Option<usize>,
    ) {
        self.groups_of.clear();
        for (_, loc) in clib.iter() {
            if let Some(g) = group_of_switch(loc.switch) {
                self.groups_of.entry(loc.tenant).or_default().insert(g);
            }
        }
    }

    /// Groups hosting the tenant.
    pub(crate) fn groups_of(&self, tenant: TenantId) -> Vec<usize> {
        self.groups_of
            .get(&tenant)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Tenants whose blocked-state must change: returns `(to_block,
    /// to_unblock)` given the current confinement facts.
    pub(crate) fn block_delta(&mut self) -> (Vec<TenantId>, Vec<TenantId>) {
        let mut to_block = Vec::new();
        let mut to_unblock = Vec::new();
        for (&tenant, groups) in &self.groups_of {
            let confined = groups.len() == 1;
            if confined && !self.blocked.contains(&tenant) {
                to_block.push(tenant);
            } else if !confined && self.blocked.contains(&tenant) {
                to_unblock.push(tenant);
            }
        }
        for t in &to_block {
            self.blocked.insert(*t);
        }
        for t in &to_unblock {
            self.blocked.remove(t);
        }
        (to_block, to_unblock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HostLocation;
    use lazyctrl_net::{MacAddr, PortNo};

    fn clib_with(placements: &[(u64, u16, u32)]) -> Clib {
        let mut clib = Clib::new();
        for &(host, tenant, switch) in placements {
            clib.learn(
                MacAddr::for_host(host),
                HostLocation {
                    switch: SwitchId::new(switch),
                    port: PortNo::new(1),
                    tenant: TenantId::new(tenant),
                },
            );
        }
        clib
    }

    #[test]
    fn rebuild_maps_tenants_to_groups() {
        // Switches 0,1 in group 0; switches 2,3 in group 1.
        let clib = clib_with(&[(1, 7, 0), (2, 7, 1), (3, 8, 2), (4, 9, 1), (5, 9, 3)]);
        let mut dir = TenantDirectory::new();
        dir.rebuild(&clib, |s| Some((s.0 / 2) as usize));
        assert_eq!(dir.groups_of(TenantId::new(7)), vec![0]);
        assert_eq!(dir.groups_of(TenantId::new(8)), vec![1]);
        assert_eq!(dir.groups_of(TenantId::new(9)), vec![0, 1]);
        assert!(dir.groups_of(TenantId::new(99)).is_empty());
    }

    #[test]
    fn block_delta_tracks_confinement_changes() {
        let clib = clib_with(&[(1, 7, 0), (2, 7, 1)]);
        let mut dir = TenantDirectory::new();
        // Both switches in one group: tenant 7 confined.
        dir.rebuild(&clib, |_| Some(0));
        let (block, unblock) = dir.block_delta();
        assert_eq!(block, vec![TenantId::new(7)]);
        assert!(unblock.is_empty());
        // Repeat: no change.
        let (block, unblock) = dir.block_delta();
        assert!(block.is_empty() && unblock.is_empty());
        // Regroup splits the tenant: unblock.
        dir.rebuild(&clib, |s| Some(s.index()));
        let (block, unblock) = dir.block_delta();
        assert!(block.is_empty());
        assert_eq!(unblock, vec![TenantId::new(7)]);
        assert!(dir.blocked.is_empty());
    }

    #[test]
    fn ungrouped_switches_are_ignored() {
        let clib = clib_with(&[(1, 7, 0)]);
        let mut dir = TenantDirectory::new();
        dir.rebuild(&clib, |_| None);
        assert!(dir.groups_of(TenantId::new(7)).is_empty());
    }
}
