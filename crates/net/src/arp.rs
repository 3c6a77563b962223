use std::fmt;
use std::net::Ipv4Addr;

use bytes::{Buf, BufMut};
use serde::{Deserialize, Serialize};

use crate::{MacAddr, NetError, Result};

/// Wire length of an Ethernet/IPv4 ARP packet body.
const ARP_LEN: usize = 28;

/// ARP operation code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArpOp {
    /// Who-has request (opcode 1).
    Request,
    /// Is-at reply (opcode 2).
    Reply,
}

impl ArpOp {
    fn to_u16(self) -> u16 {
        match self {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
        }
    }

    fn from_u16(v: u16) -> Result<Self> {
        match v {
            1 => Ok(ArpOp::Request),
            2 => Ok(ArpOp::Reply),
            other => Err(NetError::InvalidField {
                field: "arp.oper",
                value: other as u64,
            }),
        }
    }
}

impl fmt::Display for ArpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArpOp::Request => write!(f, "request"),
            ArpOp::Reply => write!(f, "reply"),
        }
    }
}

/// An ARP packet for Ethernet/IPv4.
///
/// ARP is the workload driver of LazyCtrl's *live state dissemination*
/// (§III-D.3): a broadcast request first teaches the ingress switch the
/// sender's location (L-FIB insert), then cascades group-wide via the
/// designated switch, and only reaches the controller when the whole group
/// cannot answer.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArpPacket {
    /// Operation: request or reply.
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol (IPv4) address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol (IPv4) address.
    pub target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// Builds a who-has broadcast request.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Self {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// Builds the is-at reply answering `request`.
    ///
    /// # Panics
    ///
    /// Panics if `request` is not an [`ArpOp::Request`].
    pub fn reply_to(request: &ArpPacket, replier_mac: MacAddr) -> Self {
        assert_eq!(request.op, ArpOp::Request, "can only reply to a request");
        ArpPacket {
            op: ArpOp::Reply,
            sender_mac: replier_mac,
            sender_ip: request.target_ip,
            target_mac: request.sender_mac,
            target_ip: request.sender_ip,
        }
    }

    /// Serializes to the 28-byte wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(ARP_LEN);
        self.encode_into(&mut buf);
        buf
    }

    /// Serializes into an existing buffer.
    pub(crate) fn encode_into<B: BufMut>(&self, buf: &mut B) {
        buf.put_u16(1); // htype: Ethernet
        buf.put_u16(0x0800); // ptype: IPv4
        buf.put_u8(6); // hlen
        buf.put_u8(4); // plen
        buf.put_u16(self.op.to_u16());
        buf.put_slice(&self.sender_mac.octets());
        buf.put_slice(&self.sender_ip.octets());
        buf.put_slice(&self.target_mac.octets());
        buf.put_slice(&self.target_ip.octets());
    }

    /// Parses from the wire format.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Truncated`] for short buffers and
    /// [`NetError::InvalidField`] for non-Ethernet/IPv4 hardware/protocol
    /// types or unknown opcodes.
    pub fn decode(mut buf: &[u8]) -> Result<Self> {
        if buf.len() < ARP_LEN {
            return Err(NetError::Truncated {
                what: "arp packet",
                needed: ARP_LEN,
                available: buf.len(),
            });
        }
        let htype = buf.get_u16();
        if htype != 1 {
            return Err(NetError::InvalidField {
                field: "arp.htype",
                value: htype as u64,
            });
        }
        let ptype = buf.get_u16();
        if ptype != 0x0800 {
            return Err(NetError::InvalidField {
                field: "arp.ptype",
                value: ptype as u64,
            });
        }
        let hlen = buf.get_u8();
        let plen = buf.get_u8();
        if hlen != 6 || plen != 4 {
            return Err(NetError::InvalidField {
                field: "arp.hlen/plen",
                value: ((hlen as u64) << 8) | plen as u64,
            });
        }
        let op = ArpOp::from_u16(buf.get_u16())?;
        let mut smac = [0u8; 6];
        buf.copy_to_slice(&mut smac);
        let mut sip = [0u8; 4];
        buf.copy_to_slice(&mut sip);
        let mut tmac = [0u8; 6];
        buf.copy_to_slice(&mut tmac);
        let mut tip = [0u8; 4];
        buf.copy_to_slice(&mut tip);
        Ok(ArpPacket {
            op,
            sender_mac: MacAddr::new(smac),
            sender_ip: Ipv4Addr::from(sip),
            target_mac: MacAddr::new(tmac),
            target_ip: Ipv4Addr::from(tip),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> ArpPacket {
        ArpPacket::request(
            MacAddr::for_host(7),
            Ipv4Addr::new(10, 0, 0, 7),
            Ipv4Addr::new(10, 0, 0, 9),
        )
    }

    #[test]
    fn request_round_trip() {
        let req = sample_request();
        let wire = req.encode();
        assert_eq!(wire.len(), ARP_LEN);
        assert_eq!(ArpPacket::decode(&wire).unwrap(), req);
    }

    #[test]
    fn reply_swaps_endpoints() {
        let req = sample_request();
        let reply = ArpPacket::reply_to(&req, MacAddr::for_host(9));
        assert_eq!(reply.op, ArpOp::Reply);
        assert_eq!(reply.sender_ip, req.target_ip);
        assert_eq!(reply.target_ip, req.sender_ip);
        assert_eq!(reply.target_mac, req.sender_mac);
        assert_eq!(reply.sender_mac, MacAddr::for_host(9));
        let wire = reply.encode();
        assert_eq!(ArpPacket::decode(&wire).unwrap(), reply);
    }

    #[test]
    #[should_panic(expected = "can only reply to a request")]
    fn reply_to_reply_panics() {
        let req = sample_request();
        let reply = ArpPacket::reply_to(&req, MacAddr::for_host(9));
        let _ = ArpPacket::reply_to(&reply, MacAddr::for_host(1));
    }

    #[test]
    fn decode_rejects_bad_fields() {
        let mut wire = sample_request().encode();
        wire[0] = 9; // htype
        assert!(matches!(
            ArpPacket::decode(&wire).unwrap_err(),
            NetError::InvalidField {
                field: "arp.htype",
                ..
            }
        ));

        let mut wire = sample_request().encode();
        wire[3] = 0x33; // ptype low byte
        assert!(matches!(
            ArpPacket::decode(&wire).unwrap_err(),
            NetError::InvalidField {
                field: "arp.ptype",
                ..
            }
        ));

        let mut wire = sample_request().encode();
        wire[7] = 3; // opcode
        assert!(matches!(
            ArpPacket::decode(&wire).unwrap_err(),
            NetError::InvalidField {
                field: "arp.oper",
                value: 3
            }
        ));

        assert!(matches!(
            ArpPacket::decode(&[0; 10]).unwrap_err(),
            NetError::Truncated {
                what: "arp packet",
                ..
            }
        ));
    }

    #[test]
    fn request_has_zero_target_mac() {
        assert_eq!(sample_request().target_mac, MacAddr::ZERO);
    }
}
