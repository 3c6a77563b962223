//! Packet model for the LazyCtrl data plane.
//!
//! This crate implements the layer-2/layer-3 packet formats that the LazyCtrl
//! edge switches operate on: Ethernet framing, ARP, 802.1Q VLAN tags (used by
//! the paper to carry tenant identity), and the GRE-like encapsulation header
//! that LazyCtrl edge switches prepend when tunnelling a frame across the IP
//! underlay towards another edge switch.
//!
//! Everything round-trips through an exact binary wire format built on
//! [`bytes`], so higher layers (the OpenFlow-like protocol in
//! `lazyctrl-proto`, the switch datapath in `lazyctrl-switch`) can move real
//! byte buffers around rather than ad-hoc structs.
//!
//! # Example
//!
//! ```
//! # use std::error::Error;
//! # fn main() -> Result<(), Box<dyn Error>> {
//! use lazyctrl_net::{EthernetFrame, EtherType, MacAddr};
//!
//! let frame = EthernetFrame::new(
//!     MacAddr::new([0x02, 0, 0, 0, 0, 0x01]),
//!     MacAddr::new([0x02, 0, 0, 0, 0, 0x02]),
//!     EtherType::IPV4,
//!     vec![0xde, 0xad, 0xbe, 0xef],
//! );
//! let wire = frame.encode();
//! let decoded = EthernetFrame::decode(&wire.into())?;
//! assert_eq!(decoded, frame);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arp;
mod encap;
mod error;
mod ethernet;
mod id;
mod mac;
mod packet;
mod vlan;

pub use arp::{ArpOp, ArpPacket};
pub use encap::{EncapHeader, EncapsulatedFrame};
pub use error::NetError;
pub use ethernet::{EtherType, EthernetFrame};
pub use id::{GroupId, HostId, PortNo, SwitchId};
pub use mac::MacAddr;
pub use packet::{Packet, PacketKind};
use vlan::VLAN_TAG_LEN;
pub use vlan::{TenantId, VlanTag};

/// Result alias used across the packet model.
type Result<T> = std::result::Result<T, NetError>;
