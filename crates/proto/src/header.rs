use bytes::BufMut;
use serde::{Deserialize, Serialize};

use crate::wire::Reader;
use crate::{ProtoError, Result};

/// Protocol version byte. OpenFlow 1.0 uses `0x01`; the LazyCtrl extension
/// keeps that version and adds vendor messages, exactly as the paper's
/// prototype extends OpenFlow v1.0 (§IV-B).
pub(crate) const PROTO_VERSION: u8 = 0x01;

/// Length of the fixed message header: version, type, length, xid.
pub(crate) const OFP_HEADER_LEN: usize = 8;

/// Message type discriminants, following OpenFlow 1.0 numbering for the
/// standard subset and reserving `0xf0` for the LazyCtrl extension envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub(crate) enum MsgType {
    /// Connection handshake.
    Hello = 0,
    /// Error report.
    Error = 1,
    /// Liveness probe.
    EchoRequest = 2,
    /// Liveness probe response.
    EchoReply = 3,
    /// Controller asks for datapath features.
    FeaturesRequest = 5,
    /// Switch feature description.
    FeaturesReply = 6,
    /// Switch-to-controller: packet missed all tables.
    PacketIn = 10,
    /// Controller-to-switch: emit this packet.
    PacketOut = 13,
    /// Controller-to-switch: modify the flow table.
    FlowMod = 14,
    /// Statistics request.
    StatsRequest = 16,
    /// Statistics reply.
    StatsReply = 17,
    /// LazyCtrl vendor extension envelope (grouping, state sync, keep-alive,
    /// bargaining). Subtype lives in the body.
    Lazy = 0xf0,
    /// Controller-cluster envelope (C-LIB replication, ownership transfer,
    /// controller heartbeats, host lookups). Subtype lives in the body.
    Cluster = 0xf1,
}

impl MsgType {
    /// Parses a raw type byte.
    pub(crate) fn from_u8(v: u8) -> Result<Self> {
        Ok(match v {
            0 => MsgType::Hello,
            1 => MsgType::Error,
            2 => MsgType::EchoRequest,
            3 => MsgType::EchoReply,
            5 => MsgType::FeaturesRequest,
            6 => MsgType::FeaturesReply,
            10 => MsgType::PacketIn,
            13 => MsgType::PacketOut,
            14 => MsgType::FlowMod,
            16 => MsgType::StatsRequest,
            17 => MsgType::StatsReply,
            0xf0 => MsgType::Lazy,
            0xf1 => MsgType::Cluster,
            other => return Err(ProtoError::UnknownMsgType(other)),
        })
    }
}

/// The fixed 8-byte header preceding every message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Header {
    pub(crate) version: u8,
    pub(crate) msg_type: MsgType,
    /// Total message length including this header.
    pub(crate) length: u16,
    /// Transaction id, echoed in replies.
    pub(crate) xid: u32,
}

impl Header {
    pub(crate) fn encode_into<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(self.version);
        buf.put_u8(self.msg_type as u8);
        buf.put_u16(self.length);
        buf.put_u32(self.xid);
    }

    pub(crate) fn decode(r: &mut Reader<'_>) -> Result<Self> {
        let version = r.u8()?;
        if version != PROTO_VERSION {
            return Err(ProtoError::BadVersion(version));
        }
        let msg_type = MsgType::from_u8(r.u8()?)?;
        let length = r.u16()?;
        let xid = r.u32()?;
        if (length as usize) < OFP_HEADER_LEN {
            return Err(ProtoError::LengthMismatch {
                declared: length as usize,
                actual: OFP_HEADER_LEN,
            });
        }
        Ok(Header {
            version,
            msg_type,
            length,
            xid,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_round_trip() {
        let h = Header {
            version: PROTO_VERSION,
            msg_type: MsgType::PacketIn,
            length: 64,
            xid: 0xdead_beef,
        };
        let mut buf = Vec::new();
        h.encode_into(&mut buf);
        assert_eq!(buf.len(), OFP_HEADER_LEN);
        let mut r = Reader::new(&buf, "header");
        assert_eq!(Header::decode(&mut r).unwrap(), h);
    }

    #[test]
    fn rejects_wrong_version() {
        let buf = [0x04, 0, 0, 8, 0, 0, 0, 0];
        let mut r = Reader::new(&buf, "header");
        assert!(matches!(
            Header::decode(&mut r),
            Err(ProtoError::BadVersion(0x04))
        ));
    }

    #[test]
    fn rejects_unknown_type() {
        let buf = [PROTO_VERSION, 0x99, 0, 8, 0, 0, 0, 0];
        let mut r = Reader::new(&buf, "header");
        assert!(matches!(
            Header::decode(&mut r),
            Err(ProtoError::UnknownMsgType(0x99))
        ));
    }

    #[test]
    fn rejects_undersized_length() {
        let buf = [PROTO_VERSION, 0, 0, 4, 0, 0, 0, 0];
        let mut r = Reader::new(&buf, "header");
        assert!(matches!(
            Header::decode(&mut r),
            Err(ProtoError::LengthMismatch { declared: 4, .. })
        ));
    }

    #[test]
    fn all_known_types_round_trip() {
        for t in [
            MsgType::Hello,
            MsgType::Error,
            MsgType::EchoRequest,
            MsgType::EchoReply,
            MsgType::FeaturesRequest,
            MsgType::FeaturesReply,
            MsgType::PacketIn,
            MsgType::PacketOut,
            MsgType::FlowMod,
            MsgType::StatsRequest,
            MsgType::StatsReply,
            MsgType::Lazy,
            MsgType::Cluster,
        ] {
            assert_eq!(MsgType::from_u8(t as u8).unwrap(), t);
        }
    }
}
