//! OpenFlow 1.0-style match structure (the subset LazyCtrl needs).

use bytes::BufMut;
use lazyctrl_net::{EtherType, MacAddr, PortNo, TenantId};
use serde::{Deserialize, Serialize};

use crate::wire::Reader;
use crate::Result;

/// Wildcard bits: a set bit means "this field is wildcarded".
const W_IN_PORT: u8 = 1 << 0;
const W_DL_SRC: u8 = 1 << 1;
const W_DL_DST: u8 = 1 << 2;
const W_DL_VLAN: u8 = 1 << 3;
const W_DL_TYPE: u8 = 1 << 4;

/// A flow match over the fields the LazyCtrl data plane uses: ingress port,
/// source/destination MAC, tenant VLAN and EtherType.
///
/// Unset (`None`) fields are wildcards, as in OpenFlow 1.0. The default
/// match (`FlowMatch::default()`) matches everything.
///
/// # Example
///
/// ```
/// use lazyctrl_net::MacAddr;
/// use lazyctrl_proto::FlowMatch;
///
/// let m = FlowMatch::to_dst(MacAddr::for_host(9));
/// assert!(m.matches(None, None, Some(MacAddr::for_host(9)), None, None));
/// assert!(!m.matches(None, None, Some(MacAddr::for_host(8)), None, None));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub struct FlowMatch {
    /// Ingress port, if matched.
    pub in_port: Option<PortNo>,
    /// Source MAC, if matched.
    pub dl_src: Option<MacAddr>,
    /// Destination MAC, if matched.
    pub dl_dst: Option<MacAddr>,
    /// Tenant VLAN id, if matched.
    pub dl_vlan: Option<TenantId>,
    /// EtherType, if matched.
    pub dl_type: Option<EtherType>,
}

impl FlowMatch {
    /// A match on destination MAC only — the shape of rule the LazyCtrl
    /// controller installs for inter-group unicast flows.
    pub fn to_dst(dst: MacAddr) -> Self {
        FlowMatch {
            dl_dst: Some(dst),
            ..FlowMatch::default()
        }
    }

    /// A match on (src, dst) MAC pair — fine-grained flow rules.
    pub fn for_pair(src: MacAddr, dst: MacAddr) -> Self {
        FlowMatch {
            dl_src: Some(src),
            dl_dst: Some(dst),
            ..FlowMatch::default()
        }
    }

    /// True if every specified field equals the packet's value.
    pub fn matches(
        &self,
        in_port: Option<PortNo>,
        dl_src: Option<MacAddr>,
        dl_dst: Option<MacAddr>,
        dl_vlan: Option<TenantId>,
        dl_type: Option<EtherType>,
    ) -> bool {
        fn field_ok<T: PartialEq>(want: Option<T>, got: Option<T>) -> bool {
            match want {
                None => true,
                Some(w) => got.map(|g| g == w).unwrap_or(false),
            }
        }
        field_ok(self.in_port, in_port)
            && field_ok(self.dl_src, dl_src)
            && field_ok(self.dl_dst, dl_dst)
            && field_ok(self.dl_vlan, dl_vlan)
            && field_ok(self.dl_type, dl_type)
    }

    /// Wire length of the encoded match (the encoder's test oracle).
    #[cfg(test)]
    pub(crate) const WIRE_LEN: usize = 1 + 2 + 6 + 6 + 2 + 2;

    pub(crate) fn encode_into<B: BufMut>(&self, buf: &mut B) {
        let mut wildcards = 0u8;
        if self.in_port.is_none() {
            wildcards |= W_IN_PORT;
        }
        if self.dl_src.is_none() {
            wildcards |= W_DL_SRC;
        }
        if self.dl_dst.is_none() {
            wildcards |= W_DL_DST;
        }
        if self.dl_vlan.is_none() {
            wildcards |= W_DL_VLAN;
        }
        if self.dl_type.is_none() {
            wildcards |= W_DL_TYPE;
        }
        buf.put_u8(wildcards);
        buf.put_u16(self.in_port.map(PortNo::as_u16).unwrap_or(0));
        buf.put_slice(&self.dl_src.unwrap_or(MacAddr::ZERO).octets());
        buf.put_slice(&self.dl_dst.unwrap_or(MacAddr::ZERO).octets());
        buf.put_u16(self.dl_vlan.map(TenantId::as_u16).unwrap_or(0));
        buf.put_u16(self.dl_type.map(EtherType::as_u16).unwrap_or(0));
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let wildcards = r.u8()?;
        let in_port = PortNo::new(r.u16()?);
        let dl_src = MacAddr::new(r.array()?);
        let dl_dst = MacAddr::new(r.array()?);
        let vlan_raw = r.u16()? & 0x0fff;
        let dl_type = EtherType(r.u16()?);
        Ok(FlowMatch {
            in_port: (wildcards & W_IN_PORT == 0).then_some(in_port),
            dl_src: (wildcards & W_DL_SRC == 0).then_some(dl_src),
            dl_dst: (wildcards & W_DL_DST == 0).then_some(dl_dst),
            dl_vlan: (wildcards & W_DL_VLAN == 0).then_some(TenantId::new(vlan_raw)),
            dl_type: (wildcards & W_DL_TYPE == 0).then_some(dl_type),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(m: FlowMatch) -> FlowMatch {
        let mut buf = Vec::new();
        m.encode_into(&mut buf);
        assert_eq!(buf.len(), FlowMatch::WIRE_LEN);
        FlowMatch::decode(&mut Reader::new(&buf, "match")).unwrap()
    }

    #[test]
    fn wildcard_all_round_trips() {
        let m = FlowMatch::default();
        assert_eq!(round_trip(m), m);
        assert!(m.matches(None, None, None, None, None));
        assert!(m.matches(
            Some(PortNo::new(3)),
            Some(MacAddr::for_host(1)),
            Some(MacAddr::for_host(2)),
            Some(TenantId::new(9)),
            Some(EtherType::IPV4)
        ));
    }

    #[test]
    fn fully_specified_round_trips() {
        let m = FlowMatch {
            in_port: Some(PortNo::new(7)),
            dl_src: Some(MacAddr::for_host(1)),
            dl_dst: Some(MacAddr::for_host(2)),
            dl_vlan: Some(TenantId::new(42)),
            dl_type: Some(EtherType::ARP),
        };
        assert_eq!(round_trip(m), m);
    }

    #[test]
    fn matching_semantics() {
        let m = FlowMatch::for_pair(MacAddr::for_host(1), MacAddr::for_host(2));
        assert!(m.matches(
            Some(PortNo::new(9)),
            Some(MacAddr::for_host(1)),
            Some(MacAddr::for_host(2)),
            None,
            None
        ));
        // wrong src
        assert!(!m.matches(
            None,
            Some(MacAddr::for_host(3)),
            Some(MacAddr::for_host(2)),
            None,
            None
        ));
        // specified field but packet lacks it
        assert!(!m.matches(None, None, Some(MacAddr::for_host(2)), None, None));
    }

    #[test]
    fn to_dst_matches_only_dst() {
        let m = FlowMatch::to_dst(MacAddr::for_host(5));
        assert!(m.matches(
            None,
            Some(MacAddr::for_host(9)),
            Some(MacAddr::for_host(5)),
            None,
            None
        ));
    }
}
