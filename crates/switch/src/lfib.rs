//! The Local Forwarding Information Base: which hosts live behind which
//! local ports.
//!
//! "The L-FIB of each edge switch is implemented with a conventional lookup
//! mechanism similar to the MAC/ARP table in ordinary layer two switches"
//! (§III-D.2). Learning happens from ARP traffic and first packets; aging
//! and explicit removal (VM migration/teardown) withdraw entries. Delta
//! tracking feeds the state advertisement module.

use std::collections::BTreeMap;

use lazyctrl_net::{MacAddr, PortNo, TenantId};
use lazyctrl_proto::LfibEntry;
use serde::{Deserialize, Serialize};

/// One learned binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
struct Binding {
    port: PortNo,
    tenant: TenantId,
    learned_at_ns: u64,
    refreshed_at_ns: u64,
}

/// Changes accumulated since the last [`Lfib::take_delta`] call.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub(crate) struct LfibDelta {
    /// Entries added or re-learned on a different port.
    pub(crate) added: Vec<LfibEntry>,
    /// Addresses withdrawn.
    pub(crate) removed: Vec<MacAddr>,
}

impl LfibDelta {
    /// True when nothing changed.
    pub(crate) fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// The learning table.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Lfib {
    entries: BTreeMap<MacAddr, Binding>,
    pending_added: BTreeMap<MacAddr, LfibEntry>,
    pending_removed: BTreeMap<MacAddr, ()>,
}

impl Lfib {
    /// Creates an empty table.
    pub fn new() -> Self {
        Lfib::default()
    }

    /// True when nothing has been learned.
    pub(crate) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Learns (or refreshes) a host binding. Returns true if this changed
    /// the table (new host or moved port).
    pub fn learn(&mut self, mac: MacAddr, tenant: TenantId, port: PortNo, now_ns: u64) -> bool {
        match self.entries.get_mut(&mac) {
            Some(b) if b.port == port && b.tenant == tenant => {
                b.refreshed_at_ns = now_ns;
                false
            }
            _ => {
                self.entries.insert(
                    mac,
                    Binding {
                        port,
                        tenant,
                        learned_at_ns: now_ns,
                        refreshed_at_ns: now_ns,
                    },
                );
                self.pending_removed.remove(&mac);
                self.pending_added
                    .insert(mac, LfibEntry { mac, tenant, port });
                true
            }
        }
    }

    /// Looks up the local port for a destination.
    pub(crate) fn lookup(&self, mac: MacAddr) -> Option<PortNo> {
        self.entries.get(&mac).map(|b| b.port)
    }

    /// Withdraws a host (VM migrated away or torn down). Returns true if
    /// it was present.
    pub(crate) fn remove(&mut self, mac: MacAddr) -> bool {
        if self.entries.remove(&mac).is_some() {
            self.pending_added.remove(&mac);
            self.pending_removed.insert(mac, ());
            true
        } else {
            false
        }
    }

    /// Ages out entries not refreshed within `max_idle_ns`. Returns the
    /// withdrawn addresses.
    pub(crate) fn age(&mut self, now_ns: u64, max_idle_ns: u64) -> Vec<MacAddr> {
        let dead: Vec<MacAddr> = self
            .entries
            .iter()
            .filter(|(_, b)| now_ns.saturating_sub(b.refreshed_at_ns) > max_idle_ns)
            .map(|(&m, _)| m)
            .collect();
        for mac in &dead {
            self.remove(*mac);
        }
        dead
    }

    /// Drains the changes since the previous call.
    pub(crate) fn take_delta(&mut self) -> LfibDelta {
        let added = std::mem::take(&mut self.pending_added)
            .into_values()
            .collect();
        let removed = std::mem::take(&mut self.pending_removed)
            .into_keys()
            .collect();
        LfibDelta { added, removed }
    }

    /// Iterates over all learned MACs.
    pub(crate) fn macs(&self) -> impl Iterator<Item = MacAddr> + '_ {
        self.entries.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mac(n: u64) -> MacAddr {
        MacAddr::for_host(n)
    }
    const T1: TenantId = TenantId::NONE;

    #[test]
    fn learn_and_lookup() {
        let mut l = Lfib::new();
        assert!(l.learn(mac(1), T1, PortNo::new(3), 0));
        assert_eq!(l.lookup(mac(1)), Some(PortNo::new(3)));
        assert_eq!(l.lookup(mac(2)), None);
    }

    #[test]
    fn refresh_is_not_a_change() {
        let mut l = Lfib::new();
        assert!(l.learn(mac(1), T1, PortNo::new(3), 0));
        assert!(!l.learn(mac(1), T1, PortNo::new(3), 100));
        // Port move is a change.
        assert!(l.learn(mac(1), T1, PortNo::new(4), 200));
        assert_eq!(l.lookup(mac(1)), Some(PortNo::new(4)));
    }

    #[test]
    fn delta_tracks_adds_and_removes() {
        let mut l = Lfib::new();
        l.learn(mac(1), T1, PortNo::new(1), 0);
        l.learn(mac(2), T1, PortNo::new(2), 0);
        let d = l.take_delta();
        assert_eq!(d.added.len(), 2);
        assert!(d.removed.is_empty());
        // Nothing pending after drain.
        assert!(l.take_delta().is_empty());
        l.remove(mac(1));
        let d = l.take_delta();
        assert_eq!(d.removed, vec![mac(1)]);
        assert!(d.added.is_empty());
    }

    #[test]
    fn add_then_remove_collapses() {
        let mut l = Lfib::new();
        l.learn(mac(5), T1, PortNo::new(1), 0);
        l.remove(mac(5));
        let d = l.take_delta();
        assert!(
            d.added.is_empty(),
            "added then removed should not re-announce"
        );
        assert_eq!(d.removed, vec![mac(5)]);
    }

    #[test]
    fn aging_withdraws_idle_hosts() {
        let mut l = Lfib::new();
        l.learn(mac(1), T1, PortNo::new(1), 0);
        l.learn(mac(2), T1, PortNo::new(2), 0);
        l.learn(mac(2), T1, PortNo::new(2), 5_000_000_000); // refresh
        let dead = l.age(6_000_000_000, 2_000_000_000);
        assert_eq!(dead, vec![mac(1)]);
        assert!(l.lookup(mac(1)).is_none());
        assert!(l.lookup(mac(2)).is_some());
    }
}
