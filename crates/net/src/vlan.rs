use std::fmt;

use serde::{Deserialize, Serialize};

/// Length in bytes of an 802.1Q tag on the wire (TPID + TCI).
pub(crate) const VLAN_TAG_LEN: usize = 4;

/// A tenant identifier.
///
/// The LazyCtrl prototype maps tenants onto VLAN IDs (§IV-B, "tenant
/// information management module is used to manage tenant information such as
/// VLAN IDs"), so tenant ids are 12-bit values like VLAN ids. The value `0`
/// is reserved to mean "untenanted / infrastructure".
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct TenantId(u16);

impl TenantId {
    /// The reserved "no tenant" id.
    pub const NONE: TenantId = TenantId(0);

    /// Creates a tenant id.
    ///
    /// # Panics
    ///
    /// Panics if `id` exceeds 12 bits (4095).
    pub fn new(id: u16) -> Self {
        assert!(id <= 0x0fff, "tenant id {id} exceeds 12 bits");
        TenantId(id)
    }

    /// Raw numeric id.
    pub const fn as_u16(self) -> u16 {
        self.0
    }

    /// True for the reserved "no tenant" value.
    pub const fn is_none(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TenantId({})", self.0)
    }
}

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

impl From<TenantId> for u16 {
    fn from(t: TenantId) -> u16 {
        t.0
    }
}

/// An 802.1Q tag control information field: priority code point plus VLAN id.
///
/// In this system the VLAN id carries the [`TenantId`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VlanTag {
    vid: TenantId,
    pcp: u8,
}

impl VlanTag {
    /// Creates a tag for the given tenant with a priority code point.
    ///
    /// # Panics
    ///
    /// Panics if `pcp` exceeds 3 bits (7).
    pub fn new(vid: TenantId, pcp: u8) -> Self {
        assert!(pcp <= 7, "priority code point {pcp} exceeds 3 bits");
        VlanTag { vid, pcp }
    }

    /// Creates a tag with priority 0 for the given tenant.
    pub fn for_tenant(vid: TenantId) -> Self {
        VlanTag { vid, pcp: 0 }
    }

    /// Parses a tag from a raw 16-bit TCI field.
    pub(crate) fn from_tci(tci: u16) -> Self {
        VlanTag {
            vid: TenantId(tci & 0x0fff),
            pcp: (tci >> 13) as u8,
        }
    }

    /// Encodes the tag into a raw 16-bit TCI field.
    pub(crate) fn tci(&self) -> u16 {
        ((self.pcp as u16) << 13) | self.vid.0
    }

    /// The VLAN id (the tenant id in this system).
    pub fn vid(&self) -> TenantId {
        self.vid
    }
}

impl fmt::Debug for VlanTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VlanTag(vid={}, pcp={})", self.vid.0, self.pcp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tci_round_trip() {
        for vid in [0u16, 1, 42, 4095] {
            for pcp in [0u8, 1, 7] {
                let tag = VlanTag::new(TenantId::new(vid), pcp);
                let back = VlanTag::from_tci(tag.tci());
                assert_eq!(back, tag);
                assert_eq!(back.vid().as_u16(), vid);
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds 12 bits")]
    fn tenant_id_rejects_wide_values() {
        TenantId::new(0x1000);
    }

    #[test]
    #[should_panic(expected = "exceeds 3 bits")]
    fn pcp_rejects_wide_values() {
        VlanTag::new(TenantId::new(1), 8);
    }

    #[test]
    fn none_tenant() {
        assert!(TenantId::NONE.is_none());
        assert!(!TenantId::new(7).is_none());
        assert_eq!(TenantId::default(), TenantId::NONE);
    }

    #[test]
    fn from_tci_ignores_cfi_bit() {
        let tag = VlanTag::from_tci(0x1000 | 42); // CFI bit set
        assert_eq!(tag, VlanTag::for_tenant(TenantId::new(42)));
    }

    #[test]
    fn display_formats() {
        assert_eq!(TenantId::new(9).to_string(), "tenant-9");
        assert_eq!(
            format!("{:?}", VlanTag::for_tenant(TenantId::new(5))),
            "VlanTag(vid=5, pcp=0)"
        );
    }
}
