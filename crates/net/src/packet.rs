use serde::{Deserialize, Serialize};

use crate::{EncapsulatedFrame, EthernetFrame, NetError, Result};

/// What kind of traffic a decoded packet turned out to be.
///
/// This mirrors the first branch of the paper's forwarding routine (Fig. 5):
/// a packet arriving at an edge switch is either *plain* (from a local host)
/// or *encapsulated* (tunnelled from a peer edge switch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PacketKind {
    /// A plain frame originating from a directly-attached host.
    Plain,
    /// A tunnelled frame from another edge switch.
    Encapsulated,
}

/// A packet as seen by an edge switch port: either a plain Ethernet frame or
/// a LazyCtrl-encapsulated frame.
///
/// # Example
///
/// ```
/// # use std::error::Error;
/// # fn main() -> Result<(), Box<dyn Error>> {
/// use lazyctrl_net::{EtherType, EthernetFrame, MacAddr, Packet};
///
/// let frame = EthernetFrame::new(
///     MacAddr::for_host(1),
///     MacAddr::for_host(2),
///     EtherType::IPV4,
///     vec![1, 2, 3],
/// );
/// let wire = Packet::Plain(frame.clone()).encode();
/// match Packet::decode(&wire)? {
///     Packet::Plain(f) => assert_eq!(f, frame),
///     Packet::Encapsulated(_) => unreachable!(),
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Packet {
    /// A plain frame from a local host.
    Plain(EthernetFrame),
    /// A tunnelled frame from a peer edge switch.
    Encapsulated(EncapsulatedFrame),
}

impl Packet {
    /// Which kind of packet this is.
    pub fn kind(&self) -> PacketKind {
        match self {
            Packet::Plain(_) => PacketKind::Plain,
            Packet::Encapsulated(_) => PacketKind::Encapsulated,
        }
    }

    /// Serializes the packet; encapsulated packets start with the LazyCtrl
    /// magic so the two variants are distinguishable on the wire.
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Packet::Plain(f) => f.encode(),
            Packet::Encapsulated(e) => e.encode(),
        }
    }

    /// Parses a packet from a port buffer.
    ///
    /// A buffer beginning with the LazyCtrl encapsulation magic is decoded as
    /// [`Packet::Encapsulated`]; anything else as a plain frame.
    ///
    /// # Errors
    ///
    /// Propagates frame/header parse errors.
    pub fn decode(buf: &[u8]) -> Result<Self> {
        if buf.len() >= 4 && buf[0..4] == [0x4c, 0x5a, 0x43, 0x54] {
            Ok(Packet::Encapsulated(EncapsulatedFrame::decode(buf)?))
        } else if buf.len() >= 4 {
            Ok(Packet::Plain(EthernetFrame::decode(&buf.into())?))
        } else {
            Err(NetError::Truncated {
                what: "packet",
                needed: 4,
                available: buf.len(),
            })
        }
    }
}

impl From<EthernetFrame> for Packet {
    fn from(f: EthernetFrame) -> Self {
        Packet::Plain(f)
    }
}

impl From<EncapsulatedFrame> for Packet {
    fn from(e: EncapsulatedFrame) -> Self {
        Packet::Encapsulated(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EncapHeader, EtherType, MacAddr, TenantId};
    use std::net::Ipv4Addr;

    fn frame() -> EthernetFrame {
        EthernetFrame::new(
            MacAddr::for_host(5),
            MacAddr::for_host(6),
            EtherType::IPV4,
            vec![0x55; 32],
        )
    }

    #[test]
    fn plain_round_trip() {
        let pkt = Packet::Plain(frame());
        let back = Packet::decode(&pkt.encode()).unwrap();
        assert_eq!(back, pkt);
        assert_eq!(back.kind(), PacketKind::Plain);
    }

    #[test]
    fn encapsulated_round_trip() {
        let hdr = EncapHeader::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            TenantId::new(3),
            7,
        );
        let pkt = Packet::Encapsulated(EncapsulatedFrame::new(hdr, frame()));
        let back = Packet::decode(&pkt.encode()).unwrap();
        assert_eq!(back, pkt);
        assert_eq!(back.kind(), PacketKind::Encapsulated);
    }

    #[test]
    fn tiny_buffer_rejected() {
        assert!(matches!(
            Packet::decode(&[1, 2, 3]).unwrap_err(),
            NetError::Truncated { what: "packet", .. }
        ));
    }

    #[test]
    fn from_impls() {
        let p: Packet = frame().into();
        assert_eq!(p.kind(), PacketKind::Plain);
    }
}
