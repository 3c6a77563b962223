//! The Central Location Information Base (C-LIB): global host-to-switch
//! mapping (§III-D.2, Fig. 4).

use std::collections::BTreeMap;

use lazyctrl_net::{MacAddr, PortNo, SwitchId, TenantId};
use lazyctrl_proto::LfibSyncMsg;
use serde::{Deserialize, Serialize};

/// Where a host lives, according to the C-LIB.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HostLocation {
    /// The edge switch the host is attached to.
    pub switch: SwitchId,
    /// The port on that switch.
    pub port: PortNo,
    /// The owning tenant.
    pub tenant: TenantId,
}

/// The controller's replica of every switch's L-FIB.
///
/// Alongside the host map it maintains a `(tenant, switch) → host count`
/// index, so the ARP-relay hot path's "which switches host this tenant"
/// query is a range scan over the (few) hosting switches instead of a
/// walk over every known host.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Clib {
    hosts: BTreeMap<MacAddr, HostLocation>,
    tenant_switches: BTreeMap<(TenantId, SwitchId), u32>,
}

impl Clib {
    /// Creates an empty C-LIB.
    pub fn new() -> Self {
        Clib::default()
    }

    /// Number of known hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// True when no hosts are known.
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }

    fn index_add(&mut self, tenant: TenantId, switch: SwitchId) {
        *self.tenant_switches.entry((tenant, switch)).or_insert(0) += 1;
    }

    fn index_sub(&mut self, tenant: TenantId, switch: SwitchId) {
        if let Some(n) = self.tenant_switches.get_mut(&(tenant, switch)) {
            *n -= 1;
            if *n == 0 {
                self.tenant_switches.remove(&(tenant, switch));
            }
        }
    }

    fn insert_host(&mut self, mac: MacAddr, location: HostLocation) {
        let old = self.hosts.insert(mac, location);
        if old == Some(location) {
            // A re-learn of what is already known: the index is current.
            return;
        }
        if let Some(old) = old {
            self.index_sub(old.tenant, old.switch);
        }
        self.index_add(location.tenant, location.switch);
    }

    /// Absorbs an L-FIB sync relayed up a state link.
    pub fn apply_sync(&mut self, sync: &LfibSyncMsg) {
        for e in &sync.entries {
            self.insert_host(
                e.mac,
                HostLocation {
                    switch: sync.origin,
                    port: e.port,
                    tenant: e.tenant,
                },
            );
        }
        for mac in &sync.removed {
            // Only the owning switch may withdraw (a stale removal from a
            // previous location must not clobber a fresh learn elsewhere).
            if let Some(loc) = self.hosts.get(mac).copied() {
                if loc.switch == sync.origin {
                    self.hosts.remove(mac);
                    self.index_sub(loc.tenant, loc.switch);
                }
            }
        }
    }

    /// Records a single host directly (bootstrap / PacketIn learning).
    pub fn learn(&mut self, mac: MacAddr, location: HostLocation) {
        self.insert_host(mac, location);
    }

    /// Looks up a host.
    pub fn locate(&self, mac: MacAddr) -> Option<HostLocation> {
        self.hosts.get(&mac).copied()
    }

    /// Every known host grouped by the switch it is attached to, in MAC
    /// order within a switch: one pass for a caller that asks about many
    /// switches at once (the regrouping preload).
    pub fn hosts_by_switch(&self) -> BTreeMap<SwitchId, Vec<MacAddr>> {
        let mut by_switch: BTreeMap<SwitchId, Vec<MacAddr>> = BTreeMap::new();
        for (&mac, loc) in &self.hosts {
            by_switch.entry(loc.switch).or_default().push(mac);
        }
        by_switch
    }

    /// All switches hosting at least one VM of `tenant` (sorted).
    pub fn switches_of_tenant(&self, tenant: TenantId) -> Vec<SwitchId> {
        self.tenant_switches
            .range((tenant, SwitchId::new(0))..=(tenant, SwitchId::new(u32::MAX)))
            .map(|(&(_, s), _)| s)
            .collect()
    }

    /// Iterates over all known hosts.
    pub fn iter(&self) -> impl Iterator<Item = (MacAddr, HostLocation)> + '_ {
        self.hosts.iter().map(|(&m, &l)| (m, l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyctrl_proto::LfibEntry;

    fn sync(origin: u32, entries: Vec<(u64, u16)>, removed: Vec<u64>) -> LfibSyncMsg {
        LfibSyncMsg {
            origin: SwitchId::new(origin),
            epoch: 1,
            entries: entries
                .into_iter()
                .map(|(h, t)| LfibEntry {
                    mac: MacAddr::for_host(h),
                    tenant: TenantId::new(t),
                    port: PortNo::new(1),
                })
                .collect(),
            removed: removed.into_iter().map(MacAddr::for_host).collect(),
        }
    }

    #[test]
    fn sync_builds_the_map() {
        let mut clib = Clib::new();
        clib.apply_sync(&sync(3, vec![(10, 1), (11, 2)], vec![]));
        assert_eq!(clib.len(), 2);
        let loc = clib.locate(MacAddr::for_host(10)).unwrap();
        assert_eq!(loc.switch, SwitchId::new(3));
        assert_eq!(loc.tenant, TenantId::new(1));
        assert!(clib.locate(MacAddr::for_host(99)).is_none());
    }

    #[test]
    fn migration_moves_ownership() {
        let mut clib = Clib::new();
        clib.apply_sync(&sync(3, vec![(10, 1)], vec![]));
        // Host migrates to switch 5 (new learn arrives first)...
        clib.apply_sync(&sync(5, vec![(10, 1)], vec![]));
        // ...then the old switch's stale withdrawal must NOT remove it.
        clib.apply_sync(&sync(3, vec![], vec![10]));
        let loc = clib.locate(MacAddr::for_host(10)).unwrap();
        assert_eq!(loc.switch, SwitchId::new(5));
    }

    #[test]
    fn owner_withdrawal_removes() {
        let mut clib = Clib::new();
        clib.apply_sync(&sync(3, vec![(10, 1)], vec![]));
        clib.apply_sync(&sync(3, vec![], vec![10]));
        assert!(clib.locate(MacAddr::for_host(10)).is_none());
        assert!(clib.is_empty());
    }

    #[test]
    fn tenant_and_switch_queries() {
        let mut clib = Clib::new();
        clib.apply_sync(&sync(1, vec![(10, 7), (11, 7)], vec![]));
        clib.apply_sync(&sync(2, vec![(12, 7), (13, 8)], vec![]));
        assert_eq!(
            clib.switches_of_tenant(TenantId::new(7)),
            vec![SwitchId::new(1), SwitchId::new(2)]
        );
        assert_eq!(
            clib.switches_of_tenant(TenantId::new(8)),
            vec![SwitchId::new(2)]
        );
        assert!(clib.switches_of_tenant(TenantId::new(9)).is_empty());
        assert_eq!(
            clib.hosts_by_switch(),
            BTreeMap::from([
                (
                    SwitchId::new(1),
                    vec![MacAddr::for_host(10), MacAddr::for_host(11)]
                ),
                (
                    SwitchId::new(2),
                    vec![MacAddr::for_host(12), MacAddr::for_host(13)]
                ),
            ])
        );
    }
}
