use std::net::Ipv4Addr;

use bytes::{Buf, BufMut};
use serde::{Deserialize, Serialize};

use crate::{EthernetFrame, NetError, Result, TenantId};

/// Wire length of the LazyCtrl encapsulation header.
///
/// Layout (GRE-like, §IV-B "Encap action ... GRE-like encapsulation"):
///
/// ```text
///  0       4       8       12   14   16
///  +-------+-------+-------+----+----+------------------+
///  | magic | srcIP | dstIP | tenant | key (group epoch) |
///  +-------+-------+-------+----+----+------------------+
///   4 bytes 4 bytes 4 bytes 2 bytes  4 bytes  = 18 bytes
/// ```
pub(crate) const ENCAP_HEADER_LEN: usize = 18;

const ENCAP_MAGIC: u32 = 0x4c5a_4354; // "LZCT"

/// The outer header a LazyCtrl edge switch prepends when tunnelling a frame
/// across the IP underlay to another edge switch.
///
/// The underlay only ever routes on `src`/`dst` (the edge switches' underlay
/// IPs); `tenant` and `key` ride along so the egress switch can validate the
/// mapping epoch that produced the forwarding decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EncapHeader {
    /// Underlay IPv4 address of the ingress (encapsulating) edge switch.
    pub src: Ipv4Addr,
    /// Underlay IPv4 address of the egress edge switch.
    pub dst: Ipv4Addr,
    /// Tenant owning the inner frame.
    pub(crate) tenant: TenantId,
    /// Grouping epoch under which the forwarding decision was made; the
    /// egress switch drops frames from stale epochs during regrouping unless
    /// preload rules are installed.
    pub key: u32,
}

impl EncapHeader {
    /// Creates a header.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, tenant: TenantId, key: u32) -> Self {
        EncapHeader {
            src,
            dst,
            tenant,
            key,
        }
    }

    /// Serializes into an existing buffer.
    pub(crate) fn encode_into<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32(ENCAP_MAGIC);
        buf.put_slice(&self.src.octets());
        buf.put_slice(&self.dst.octets());
        buf.put_u16(self.tenant.as_u16());
        buf.put_u32(self.key);
    }

    /// Parses from a buffer, returning the header and the number of bytes
    /// consumed.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] for short buffers and
    /// [`NetError::InvalidField`] if the magic does not match.
    pub(crate) fn decode(mut buf: &[u8]) -> Result<(Self, usize)> {
        if buf.len() < ENCAP_HEADER_LEN {
            return Err(NetError::Truncated {
                what: "encap header",
                needed: ENCAP_HEADER_LEN,
                available: buf.len(),
            });
        }
        let magic = buf.get_u32();
        if magic != ENCAP_MAGIC {
            return Err(NetError::InvalidField {
                field: "encap.magic",
                value: magic as u64,
            });
        }
        let mut src = [0u8; 4];
        buf.copy_to_slice(&mut src);
        let mut dst = [0u8; 4];
        buf.copy_to_slice(&mut dst);
        let tenant_raw = buf.get_u16();
        if tenant_raw > 0x0fff {
            return Err(NetError::InvalidField {
                field: "encap.tenant",
                value: tenant_raw as u64,
            });
        }
        let key = buf.get_u32();
        Ok((
            EncapHeader {
                src: Ipv4Addr::from(src),
                dst: Ipv4Addr::from(dst),
                tenant: TenantId::new(tenant_raw),
                key,
            },
            ENCAP_HEADER_LEN,
        ))
    }
}

/// A full encapsulated packet: outer LazyCtrl header plus inner Ethernet
/// frame.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EncapsulatedFrame {
    /// The outer tunnel header.
    pub header: EncapHeader,
    /// The tunnelled Ethernet frame.
    pub inner: EthernetFrame,
}

impl EncapsulatedFrame {
    /// Wraps `inner` for transit from `header.src` to `header.dst`.
    pub fn new(header: EncapHeader, inner: EthernetFrame) -> Self {
        EncapsulatedFrame { header, inner }
    }

    /// Exact serialized size: outer header plus inner frame. What the
    /// bandwidth model charges for a tunnelled packet, without encoding.
    pub fn wire_len(&self) -> usize {
        ENCAP_HEADER_LEN + self.inner.wire_len()
    }

    /// Serializes outer header followed by the inner frame.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(ENCAP_HEADER_LEN + self.inner.wire_len());
        self.header.encode_into(&mut buf);
        self.inner.encode_into(&mut buf);
        buf
    }

    /// Parses an encapsulated packet.
    ///
    /// # Errors
    ///
    /// Propagates header and inner-frame parse errors.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        let (header, consumed) = EncapHeader::decode(buf)?;
        let inner = EthernetFrame::decode(&bytes::Bytes::copy_from_slice(&buf[consumed..]))?;
        Ok(EncapsulatedFrame { header, inner })
    }

    /// Removes the tunnel header, yielding the inner frame.
    pub fn into_inner(self) -> EthernetFrame {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EtherType, MacAddr};

    fn inner() -> EthernetFrame {
        EthernetFrame::new(
            MacAddr::for_host(1),
            MacAddr::for_host(2),
            EtherType::IPV4,
            vec![0xab; 64],
        )
    }

    fn header() -> EncapHeader {
        EncapHeader::new(
            Ipv4Addr::new(192, 168, 0, 1),
            Ipv4Addr::new(192, 168, 0, 2),
            TenantId::new(17),
            0xdead_beef,
        )
    }

    #[test]
    fn round_trip() {
        let pkt = EncapsulatedFrame::new(header(), inner());
        let wire = pkt.encode();
        assert_eq!(wire.len(), pkt.wire_len());
        assert_eq!(EncapsulatedFrame::decode(&wire).unwrap(), pkt);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut wire = EncapsulatedFrame::new(header(), inner()).encode();
        wire[0] = 0;
        assert!(matches!(
            EncapsulatedFrame::decode(&wire).unwrap_err(),
            NetError::InvalidField {
                field: "encap.magic",
                ..
            }
        ));
    }

    #[test]
    fn truncated_header_rejected() {
        assert!(matches!(
            EncapHeader::decode(&[0; 5]).unwrap_err(),
            NetError::Truncated {
                what: "encap header",
                ..
            }
        ));
    }

    #[test]
    fn wide_tenant_rejected() {
        let mut wire = EncapsulatedFrame::new(header(), inner()).encode();
        // tenant field sits at offset 12..14
        wire[12] = 0xff;
        assert!(matches!(
            EncapsulatedFrame::decode(&wire).unwrap_err(),
            NetError::InvalidField {
                field: "encap.tenant",
                ..
            }
        ));
    }

    #[test]
    fn into_inner_strips_tunnel() {
        let pkt = EncapsulatedFrame::new(header(), inner());
        assert_eq!(pkt.into_inner(), inner());
    }

    #[test]
    fn header_len_constant_matches_encoding() {
        let mut buf = Vec::new();
        header().encode_into(&mut buf);
        assert_eq!(buf.len(), ENCAP_HEADER_LEN);
    }
}
