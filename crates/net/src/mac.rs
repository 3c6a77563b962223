use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::NetError;

/// A 48-bit IEEE 802 MAC address.
///
/// The LazyCtrl control plane identifies virtual machines by their MAC
/// address: the L-FIB, G-FIB bloom filters and the controller's C-LIB are all
/// keyed by `MacAddr`. Host addresses in the simulated data center are
/// locally-administered unicast addresses minted by
/// [`MacAddr::for_host`].
///
/// # Example
///
/// ```
/// use lazyctrl_net::MacAddr;
///
/// let mac: MacAddr = "02:00:00:00:12:34".parse().unwrap();
/// assert!(mac.is_unicast());
/// assert!(mac.is_locally_administered());
/// assert_eq!(mac.to_string(), "02:00:00:00:12:34");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct MacAddr([u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// The all-zero address, used as a "not yet learned" placeholder.
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Creates an address from its six octets.
    pub const fn new(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }

    /// Mints a deterministic locally-administered unicast address for a
    /// simulated host, from its dense integer id.
    ///
    /// The top octet is `0x02` (locally administered, unicast) and the
    /// remaining 40 bits carry the host id, so up to 2^40 hosts receive
    /// distinct addresses.
    ///
    /// # Example
    ///
    /// ```
    /// use lazyctrl_net::MacAddr;
    /// let a = MacAddr::for_host(1);
    /// let b = MacAddr::for_host(2);
    /// assert_ne!(a, b);
    /// assert_eq!(MacAddr::for_host(1), a);
    /// ```
    pub const fn for_host(host_id: u64) -> Self {
        let id = host_id & 0xff_ffff_ffff;
        MacAddr([
            0x02,
            (id >> 32) as u8,
            (id >> 24) as u8,
            (id >> 16) as u8,
            (id >> 8) as u8,
            id as u8,
        ])
    }

    /// Recovers the host id encoded by [`MacAddr::for_host`], if this looks
    /// like a simulator-minted address.
    pub fn host_id(&self) -> Option<u64> {
        if self.0[0] != 0x02 {
            return None;
        }
        Some(
            ((self.0[1] as u64) << 32)
                | ((self.0[2] as u64) << 24)
                | ((self.0[3] as u64) << 16)
                | ((self.0[4] as u64) << 8)
                | self.0[5] as u64,
        )
    }

    /// Returns the six octets.
    pub const fn octets(&self) -> [u8; 6] {
        self.0
    }

    /// True if this is the broadcast address.
    pub(crate) fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// True if the group bit (I/G) is set and the address is not broadcast.
    pub(crate) fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0 && !self.is_broadcast()
    }

    /// True if the group bit is clear (an individual address).
    pub fn is_unicast(&self) -> bool {
        self.0[0] & 0x01 == 0
    }

    /// True if the locally-administered (U/L) bit is set.
    pub fn is_locally_administered(&self) -> bool {
        self.0[0] & 0x02 != 0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            self.0[0], self.0[1], self.0[2], self.0[3], self.0[4], self.0[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MacAddr({self})")
    }
}

impl From<[u8; 6]> for MacAddr {
    fn from(octets: [u8; 6]) -> Self {
        MacAddr(octets)
    }
}

impl From<MacAddr> for [u8; 6] {
    fn from(mac: MacAddr) -> Self {
        mac.0
    }
}

impl AsRef<[u8]> for MacAddr {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl FromStr for MacAddr {
    type Err = NetError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut octets = [0u8; 6];
        let mut parts = s.split(':');
        for octet in octets.iter_mut() {
            let part = parts
                .next()
                .ok_or_else(|| NetError::InvalidAddress(s.to_owned()))?;
            if part.len() != 2 {
                return Err(NetError::InvalidAddress(s.to_owned()));
            }
            *octet =
                u8::from_str_radix(part, 16).map_err(|_| NetError::InvalidAddress(s.to_owned()))?;
        }
        if parts.next().is_some() {
            return Err(NetError::InvalidAddress(s.to_owned()));
        }
        Ok(MacAddr(octets))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_round_trips_through_from_str() {
        let mac = MacAddr::new([0xde, 0xad, 0xbe, 0xef, 0x00, 0x42]);
        let parsed: MacAddr = mac.to_string().parse().unwrap();
        assert_eq!(parsed, mac);
    }

    #[test]
    fn from_str_rejects_malformed_addresses() {
        assert!("".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44".parse::<MacAddr>().is_err());
        assert!("00:11:22:33:44:55:66".parse::<MacAddr>().is_err());
        assert!("0:11:22:33:44:55".parse::<MacAddr>().is_err());
        assert!("gg:11:22:33:44:55".parse::<MacAddr>().is_err());
        assert!("001122334455".parse::<MacAddr>().is_err());
    }

    #[test]
    fn host_addresses_are_unique_and_recoverable() {
        for id in [0u64, 1, 255, 256, 65_535, 1 << 30, (1 << 40) - 1] {
            let mac = MacAddr::for_host(id);
            assert!(mac.is_unicast(), "{mac}");
            assert!(mac.is_locally_administered(), "{mac}");
            assert_eq!(mac.host_id(), Some(id));
        }
    }

    #[test]
    fn classification_flags() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(!MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::BROADCAST.is_unicast());

        let mcast = MacAddr::new([0x01, 0x00, 0x5e, 0, 0, 1]);
        assert!(mcast.is_multicast());
        assert!(!mcast.is_unicast());

        let ucast = MacAddr::new([0x00, 0x1b, 0x21, 0, 0, 1]);
        assert!(ucast.is_unicast());
        assert!(!ucast.is_locally_administered());
    }

    #[test]
    fn host_id_rejects_foreign_prefix() {
        let mac = MacAddr::new([0x00, 0, 0, 0, 0, 7]);
        assert_eq!(mac.host_id(), None);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(MacAddr::default(), MacAddr::ZERO);
        assert_eq!(format!("{:?}", MacAddr::ZERO), "MacAddr(00:00:00:00:00:00)");
    }
}
