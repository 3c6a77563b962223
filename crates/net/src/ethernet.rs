use std::fmt;

use bytes::{Buf, BufMut, Bytes};
use serde::{Deserialize, Serialize};

use crate::{ArpPacket, MacAddr, NetError, Result, VlanTag, VLAN_TAG_LEN};

/// Length of an untagged Ethernet header (dst + src + ethertype).
pub const ETHERNET_HEADER_LEN: usize = 14;

/// Maximum frame length accepted by the simulated switches (standard MTU
/// payload plus headers plus one VLAN tag plus the LazyCtrl encap header).
pub const MAX_FRAME_LEN: usize = 1600;

/// An EtherType value.
///
/// Only the handful of types the LazyCtrl data plane cares about have named
/// constants; any other value round-trips untouched.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EtherType(pub u16);

impl EtherType {
    /// IPv4, `0x0800`.
    pub const IPV4: EtherType = EtherType(0x0800);
    /// ARP, `0x0806`.
    pub const ARP: EtherType = EtherType(0x0806);
    /// 802.1Q VLAN tag, `0x8100`.
    pub const VLAN: EtherType = EtherType(0x8100);
    /// LazyCtrl GRE-like encapsulation (local experimental ethertype,
    /// `0x88B5` per IEEE 802 local experimental 1).
    pub const LAZYCTRL_ENCAP: EtherType = EtherType(0x88b5);

    /// Raw 16-bit value.
    pub const fn as_u16(self) -> u16 {
        self.0
    }
}

impl fmt::Debug for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EtherType::IPV4 => write!(f, "EtherType::IPV4"),
            EtherType::ARP => write!(f, "EtherType::ARP"),
            EtherType::VLAN => write!(f, "EtherType::VLAN"),
            EtherType::LAZYCTRL_ENCAP => write!(f, "EtherType::LAZYCTRL_ENCAP"),
            EtherType(v) => write!(f, "EtherType({v:#06x})"),
        }
    }
}

impl fmt::Display for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#06x}", self.0)
    }
}

impl fmt::LowerHex for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for EtherType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        EtherType(v)
    }
}

impl From<EtherType> for u16 {
    fn from(t: EtherType) -> Self {
        t.0
    }
}

/// An Ethernet II frame, optionally carrying a single 802.1Q VLAN tag.
///
/// The VLAN tag is how tenant identity travels with a packet in the LazyCtrl
/// prototype (§IV-B, tenant information management), so the frame model keeps
/// it as a first-class field rather than burying it in the payload.
///
/// The payload is a shared [`Bytes`] view: cloning a frame — which the
/// simulator does on every broadcast fan-out, tunnel candidate and relay
/// hop — bumps a refcount instead of copying the payload, and a frame
/// decoded out of a message shows that message's bytes.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EthernetFrame {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// Optional 802.1Q tag (tenant id in this system).
    pub vlan: Option<VlanTag>,
    /// EtherType of the payload.
    pub ethertype: EtherType,
    /// Payload bytes (shared, immutable).
    pub payload: Bytes,
}

impl EthernetFrame {
    /// Creates an untagged frame.
    pub fn new(
        src: MacAddr,
        dst: MacAddr,
        ethertype: EtherType,
        payload: impl Into<Bytes>,
    ) -> Self {
        EthernetFrame {
            dst,
            src,
            vlan: None,
            ethertype,
            payload: payload.into(),
        }
    }

    /// Creates a frame carrying an 802.1Q tenant tag.
    pub fn tagged(
        src: MacAddr,
        dst: MacAddr,
        vlan: VlanTag,
        ethertype: EtherType,
        payload: impl Into<Bytes>,
    ) -> Self {
        EthernetFrame {
            dst,
            src,
            vlan: Some(vlan),
            ethertype,
            payload: payload.into(),
        }
    }

    /// If this is an ARP frame, decodes and returns the ARP body
    /// (borrowing — no frame clone needed to inspect ARP traffic).
    pub fn as_arp(&self) -> Option<ArpPacket> {
        if self.ethertype == EtherType::ARP {
            ArpPacket::decode(&self.payload).ok()
        } else {
            None
        }
    }

    /// Encoded length in bytes.
    pub fn wire_len(&self) -> usize {
        ETHERNET_HEADER_LEN
            + if self.vlan.is_some() { VLAN_TAG_LEN } else { 0 }
            + self.payload.len()
    }

    /// Serializes the frame to its binary wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(self.wire_len());
        self.encode_into(&mut buf);
        buf
    }

    /// Serializes the frame into an existing buffer.
    pub fn encode_into<B: BufMut>(&self, buf: &mut B) {
        buf.put_slice(&self.dst.octets());
        buf.put_slice(&self.src.octets());
        if let Some(tag) = self.vlan {
            buf.put_u16(EtherType::VLAN.as_u16());
            buf.put_u16(tag.tci());
        }
        buf.put_u16(self.ethertype.as_u16());
        buf.put_slice(&self.payload);
    }

    /// Parses a frame from its binary wire format. The payload is a view
    /// into `bytes` — decoding copies only the header fields. A caller
    /// holding a plain slice wraps it first (`&Bytes::copy_from_slice(..)`).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] if the buffer is shorter than the
    /// (possibly VLAN-tagged) header, and [`NetError::Oversized`] if it
    /// exceeds [`MAX_FRAME_LEN`].
    pub fn decode(bytes: &Bytes) -> Result<Self> {
        let mut buf: &[u8] = bytes;
        let total = buf.len();
        if total > MAX_FRAME_LEN {
            return Err(NetError::Oversized {
                len: total,
                max: MAX_FRAME_LEN,
            });
        }
        if total < ETHERNET_HEADER_LEN {
            return Err(NetError::Truncated {
                what: "ethernet header",
                needed: ETHERNET_HEADER_LEN,
                available: total,
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        buf.copy_to_slice(&mut dst);
        buf.copy_to_slice(&mut src);
        let mut ethertype = EtherType(buf.get_u16());
        let mut vlan = None;
        if ethertype == EtherType::VLAN {
            if buf.remaining() < 4 {
                return Err(NetError::Truncated {
                    what: "vlan tag",
                    needed: 4,
                    available: buf.remaining(),
                });
            }
            vlan = Some(VlanTag::from_tci(buf.get_u16()));
            ethertype = EtherType(buf.get_u16());
        }
        Ok(EthernetFrame {
            dst: MacAddr::new(dst),
            src: MacAddr::new(src),
            vlan,
            ethertype,
            payload: bytes.slice(total - buf.remaining()..),
        })
    }

    /// True if the destination is broadcast or multicast.
    pub fn is_flood(&self) -> bool {
        self.dst.is_broadcast() || self.dst.is_multicast()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TenantId;

    fn mac(n: u8) -> MacAddr {
        MacAddr::new([0x02, 0, 0, 0, 0, n])
    }

    /// Layout tripwire: a frame rides inline in local-frame and tunnel
    /// events, so its size is a per-event constant.
    #[test]
    fn frame_stays_compact() {
        assert!(
            std::mem::size_of::<EthernetFrame>() <= 40,
            "EthernetFrame grew to {} bytes",
            std::mem::size_of::<EthernetFrame>()
        );
    }

    #[test]
    fn untagged_round_trip() {
        let f = EthernetFrame::new(mac(1), mac(2), EtherType::IPV4, vec![1, 2, 3]);
        let wire = f.encode();
        assert_eq!(wire.len(), 17);
        assert_eq!(EthernetFrame::decode(&wire.into()).unwrap(), f);
    }

    #[test]
    fn tagged_round_trip() {
        let tag = VlanTag::new(TenantId::new(42), 3);
        let f = EthernetFrame::tagged(mac(1), mac(2), tag, EtherType::ARP, vec![9; 28]);
        let wire = f.encode();
        assert_eq!(wire.len(), ETHERNET_HEADER_LEN + VLAN_TAG_LEN + 28);
        let back = EthernetFrame::decode(&wire.into()).unwrap();
        assert_eq!(back, f);
        assert_eq!(back.vlan.unwrap().vid().as_u16(), 42);
        assert_eq!(back.vlan.unwrap().pcp(), 3);
    }

    #[test]
    fn decoded_payload_is_a_view_of_the_wire_bytes() {
        let tag = VlanTag::new(TenantId::new(7), 0);
        let f = EthernetFrame::tagged(mac(1), mac(2), tag, EtherType::IPV4, vec![5; 8]);
        let wire = Bytes::from(f.encode());
        let back = EthernetFrame::decode(&wire).unwrap();
        assert_eq!(back, f);
        let header = ETHERNET_HEADER_LEN + VLAN_TAG_LEN;
        assert!(std::ptr::eq(&back.payload[0], &wire[header]));
    }

    #[test]
    fn decode_rejects_short_buffers() {
        let err = EthernetFrame::decode(&[0; 13].into()).unwrap_err();
        assert!(matches!(err, NetError::Truncated { needed: 14, .. }));
    }

    #[test]
    fn decode_rejects_truncated_vlan() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&[0; 12]);
        wire.extend_from_slice(&0x8100u16.to_be_bytes());
        wire.push(0); // only 1 of 4 tag bytes
        let err = EthernetFrame::decode(&wire.into()).unwrap_err();
        assert!(matches!(
            err,
            NetError::Truncated {
                what: "vlan tag",
                ..
            }
        ));
    }

    #[test]
    fn decode_rejects_oversized() {
        let wire = vec![0u8; MAX_FRAME_LEN + 1];
        assert!(matches!(
            EthernetFrame::decode(&wire.into()).unwrap_err(),
            NetError::Oversized { .. }
        ));
    }

    #[test]
    fn empty_payload_is_fine() {
        let f = EthernetFrame::new(mac(1), mac(2), EtherType(0x1234), vec![]);
        assert_eq!(EthernetFrame::decode(&f.encode().into()).unwrap(), f);
    }

    #[test]
    fn flood_detection() {
        let b = EthernetFrame::new(mac(1), MacAddr::BROADCAST, EtherType::ARP, vec![]);
        assert!(b.is_flood());
        let u = EthernetFrame::new(mac(1), mac(2), EtherType::IPV4, vec![]);
        assert!(!u.is_flood());
    }

    #[test]
    fn ethertype_formatting() {
        assert_eq!(format!("{}", EtherType::IPV4), "0x0800");
        assert_eq!(format!("{:x}", EtherType::ARP), "806");
        assert_eq!(format!("{:X}", EtherType::ARP), "806");
        assert_eq!(format!("{:?}", EtherType(0x9999)), "EtherType(0x9999)");
        assert_eq!(format!("{:?}", EtherType::VLAN), "EtherType::VLAN");
    }
}
