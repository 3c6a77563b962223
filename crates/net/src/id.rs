//! Identity vocabulary shared across the LazyCtrl stack.
//!
//! Every crate above this one refers to switches, hosts, local control
//! groups and switch ports by these dense integer newtypes. Keeping them in
//! the bottom-most crate avoids a diamond of incompatible id types.

use std::fmt;
use std::net::Ipv4Addr;

use serde::{Deserialize, Serialize};

/// Identifier of an edge switch (dense, assigned by the topology builder).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct SwitchId(pub u32);

impl SwitchId {
    /// Creates a switch id.
    pub const fn new(id: u32) -> Self {
        SwitchId(id)
    }

    /// Raw index, useful for dense arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Deterministic underlay IPv4 address of this switch's tunnel endpoint.
    ///
    /// The network core in LazyCtrl is "any simple and scalable network
    /// (e.g., an IP unicast network)" (§III-B.1); we give every edge switch a
    /// unique address in `10.0.0.0/8`.
    pub fn underlay_ip(self) -> Ipv4Addr {
        let v = self.0;
        Ipv4Addr::new(10, (v >> 16) as u8, (v >> 8) as u8, v as u8)
    }

    /// Recovers a switch id from its underlay address (inverse of
    /// [`SwitchId::underlay_ip`]).
    pub fn from_underlay_ip(ip: Ipv4Addr) -> Option<SwitchId> {
        let [a, b, c, d] = ip.octets();
        if a != 10 {
            return None;
        }
        Some(SwitchId(((b as u32) << 16) | ((c as u32) << 8) | d as u32))
    }

    /// The sentinel id the control plane uses for the controller itself in
    /// contexts that are keyed by switch id (keep-alives, link ids).
    pub const CONTROLLER: SwitchId = SwitchId(u32::MAX);
}

impl fmt::Debug for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl fmt::Display for SwitchId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

impl From<u32> for SwitchId {
    fn from(v: u32) -> Self {
        SwitchId(v)
    }
}

/// Identifier of a host (virtual machine) in the data center.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct HostId(pub u32);

impl HostId {
    /// Creates a host id.
    pub const fn new(id: u32) -> Self {
        HostId(id)
    }

    /// Raw index, useful for dense arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The MAC address minted for this host by the simulator.
    pub fn mac(self) -> crate::MacAddr {
        crate::MacAddr::for_host(self.0 as u64)
    }

    /// Deterministic IPv4 address for this host in `172.16.0.0/12`-ish space
    /// (purely cosmetic; forwarding is MAC-based).
    pub fn ip(self) -> Ipv4Addr {
        let v = self.0;
        Ipv4Addr::new(172, 16 + ((v >> 16) & 0x0f) as u8, (v >> 8) as u8, v as u8)
    }

    /// Recovers a host id from its address (inverse of [`HostId::ip`]); the
    /// simulated switches use this to resolve ARP target IPs to the MACs
    /// their tables are keyed by.
    pub fn from_ip(ip: Ipv4Addr) -> Option<HostId> {
        let [a, b, c, d] = ip.octets();
        if a != 172 || !(16..32).contains(&b) {
            return None;
        }
        Some(HostId(
            (((b - 16) as u32) << 16) | ((c as u32) << 8) | d as u32,
        ))
    }
}

impl fmt::Debug for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H{}", self.0)
    }
}

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "H{}", self.0)
    }
}

impl From<u32> for HostId {
    fn from(v: u32) -> Self {
        HostId(v)
    }
}

/// Identifier of a local control group (LCG).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct GroupId(pub u32);

impl GroupId {
    /// Creates a group id.
    pub const fn new(id: u32) -> Self {
        GroupId(id)
    }

    /// Raw index, useful for dense arrays.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "G{}", self.0)
    }
}

impl From<u32> for GroupId {
    fn from(v: u32) -> Self {
        GroupId(v)
    }
}

/// A switch port number, following OpenFlow 1.0's reserved-value scheme.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct PortNo(pub u16);

impl PortNo {
    /// Flood to all physical ports except the ingress port (`0xfffb`).
    pub const FLOOD: PortNo = PortNo(0xfffb);
    /// All physical ports (`0xfffc`).
    pub const ALL: PortNo = PortNo(0xfffc);
    /// Send to the controller over the control link (`0xfffd`).
    pub const CONTROLLER: PortNo = PortNo(0xfffd);
    /// The switch's local networking stack (`0xfffe`).
    pub(crate) const LOCAL: PortNo = PortNo(0xfffe);
    /// Not a port (`0xffff`).
    pub const NONE: PortNo = PortNo(0xffff);

    /// Creates a physical port number.
    pub const fn new(n: u16) -> Self {
        PortNo(n)
    }

    /// Raw value.
    pub const fn as_u16(self) -> u16 {
        self.0
    }

    /// True for a real (non-reserved) port.
    pub const fn is_physical(self) -> bool {
        self.0 < 0xff00
    }
}

impl fmt::Debug for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            PortNo::FLOOD => write!(f, "PortNo::FLOOD"),
            PortNo::ALL => write!(f, "PortNo::ALL"),
            PortNo::CONTROLLER => write!(f, "PortNo::CONTROLLER"),
            PortNo::LOCAL => write!(f, "PortNo::LOCAL"),
            PortNo::NONE => write!(f, "PortNo::NONE"),
            PortNo(n) => write!(f, "PortNo({n})"),
        }
    }
}

impl fmt::Display for PortNo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port-{}", self.0)
    }
}

impl From<u16> for PortNo {
    fn from(v: u16) -> Self {
        PortNo(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn switch_underlay_ips_are_unique() {
        let a = SwitchId::new(1).underlay_ip();
        let b = SwitchId::new(2).underlay_ip();
        let c = SwitchId::new(257).underlay_ip();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(a, Ipv4Addr::new(10, 0, 0, 1));
        assert_eq!(c, Ipv4Addr::new(10, 0, 1, 1));
    }

    #[test]
    fn host_mac_matches_for_host() {
        assert_eq!(HostId::new(42).mac(), crate::MacAddr::for_host(42));
        assert_eq!(HostId::new(42).mac().host_id(), Some(42));
    }

    #[test]
    fn port_classification() {
        assert!(PortNo::new(1).is_physical());
        assert!(!PortNo::FLOOD.is_physical());
        assert!(!PortNo::CONTROLLER.is_physical());
        assert_eq!(format!("{:?}", PortNo::new(3)), "PortNo(3)");
        assert_eq!(format!("{:?}", PortNo::FLOOD), "PortNo::FLOOD");
    }

    #[test]
    fn display_forms() {
        assert_eq!(SwitchId::new(7).to_string(), "S7");
        assert_eq!(HostId::new(7).to_string(), "H7");
        assert_eq!(GroupId::new(7).to_string(), "G7");
        assert_eq!(PortNo::new(7).to_string(), "port-7");
    }

    #[test]
    fn ids_are_ordered_and_indexable() {
        assert!(SwitchId::new(1) < SwitchId::new(2));
        assert_eq!(SwitchId::new(9).index(), 9);
        assert_eq!(HostId::new(9).index(), 9);
        assert_eq!(GroupId::new(9).index(), 9);
    }
}
