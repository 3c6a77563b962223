//! Canonical state fingerprinting for the cluster plane.
//!
//! The model checker dedups explored states by a 64-bit hash, and the
//! determinism tests compare fingerprints across runs — both need a hash
//! that is (a) stable across processes (no `std::hash::RandomState`),
//! (b) computed over a *canonical* traversal of the state (every
//! collection in the plane is a `BTreeMap`/`BTreeSet`, so iteration
//! order is the canonical order for free), and (c) blind to
//! identity-only counters (`xid`, heartbeat sequence numbers) that
//! differ between observably identical states.
//!
//! FNV-1a is used deliberately: it is tiny, allocation-free, and has no
//! seed to go wrong. It is *not* collision-resistant against adversarial
//! input — fine here, because a fingerprint collision merely prunes one
//! interleaving from an exploration that is bounded anyway, and the
//! deterministic regression tests compare full reports as the backstop.
//!
//! The hasher is byte-at-a-time and stays that way: its value for a given
//! byte sequence is a published constant (`fnv_matches_reference_vector`),
//! and every *published* fingerprint in the repository — the plane's
//! state fingerprint, report fingerprints, the golden scenario table —
//! is defined in terms of it. Fingerprinting is made cheap one level up
//! instead, by hashing less: the plane's fingerprint is a hash of
//! per-member sub-fingerprints that are cached until the member is next
//! written (see
//! [`ClusterControlPlane::state_fingerprint`](crate::ClusterControlPlane::state_fingerprint)),
//! and the checker hashes an in-flight message once, when it is sent.
//! The checker's private dedup key takes its in-flight and armed-timer
//! multisets as kept sums of element hashes spread by the splitmix64
//! mixer, not through this hasher: a sum is order-free and can be
//! updated as elements come and go.

/// Streaming 64-bit FNV-1a hasher.
///
/// # Example
///
/// ```
/// use lazyctrl_cluster::Fnv64;
///
/// let mut a = Fnv64::new();
/// a.u32(7).u64(9);
/// let mut b = Fnv64::new();
/// b.u32(7).u64(9);
/// assert_eq!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64(u64);

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64(FNV_OFFSET)
    }

    /// Absorbs raw bytes.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.bytes(&[v])
    }

    /// Absorbs a `u16` (little-endian).
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Absorbs a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Absorbs a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Absorbs a `usize` widened to 64 bits, so fingerprints agree across
    /// pointer widths.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Absorbs an optional `u32` with a presence tag (so `None` and
    /// `Some(0)` hash differently).
    pub fn opt_u32(&mut self, v: Option<u32>) -> &mut Self {
        match v {
            None => self.u8(0),
            Some(x) => self.u8(1).u32(x),
        }
    }

    /// The accumulated hash.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Hashes an encoded wire message with its `xid` header bytes zeroed.
///
/// Transaction ids are identity, not state: two interleavings that leave
/// every node and every in-flight message observably identical can still
/// disagree on which xid each message carries (xids are drawn from a
/// per-node counter whose consumption order depends on the schedule).
/// The checker's pending-message hash therefore blanks bytes 4..8 of the
/// OpenFlow-style header — exactly the xid field — before absorbing. The
/// checker calls this once per message, as it enters the in-flight set.
pub fn hash_wire_ignoring_xid(h: &mut Fnv64, wire: &[u8]) {
    if wire.len() >= 8 {
        h.bytes(&wire[..4]);
        h.bytes(&[0, 0, 0, 0]);
        h.bytes(&wire[8..]);
    } else {
        h.bytes(wire);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lazyctrl_net::MacAddr;
    use lazyctrl_proto::{ClusterMsg, LookupRequestMsg, Message};

    #[test]
    fn fnv_matches_reference_vector() {
        // FNV-1a("hello") — standard published vector.
        let mut h = Fnv64::new();
        h.bytes(b"hello");
        assert_eq!(h.finish(), 0xa430_d846_80aa_bd0b);
    }

    #[test]
    fn option_tagging_disambiguates() {
        let mut none = Fnv64::new();
        none.opt_u32(None).u32(0);
        let mut some = Fnv64::new();
        some.opt_u32(Some(0));
        assert_ne!(none.finish(), some.finish());
    }

    #[test]
    fn xid_is_invisible_to_the_wire_hash() {
        let msg = |xid| {
            Message::cluster(
                xid,
                ClusterMsg::LookupRequest(LookupRequestMsg {
                    from: 1,
                    mac: MacAddr::for_host(7),
                }),
            )
            .encode()
        };
        let mut a = Fnv64::new();
        hash_wire_ignoring_xid(&mut a, &msg(1));
        let mut b = Fnv64::new();
        hash_wire_ignoring_xid(&mut b, &msg(0xdead_beef));
        assert_eq!(a.finish(), b.finish());

        let mut c = Fnv64::new();
        hash_wire_ignoring_xid(
            &mut c,
            &Message::cluster(
                1,
                ClusterMsg::LookupRequest(LookupRequestMsg {
                    from: 2,
                    mac: MacAddr::for_host(7),
                }),
            )
            .encode(),
        );
        assert_ne!(a.finish(), c.finish(), "payload differences still show");
    }
}
