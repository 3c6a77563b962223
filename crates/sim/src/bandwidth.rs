//! Deterministic fair-share bandwidth model: serialization + queueing
//! delay per directed link, computed closed-form from message size and
//! the link's in-flight backlog.
//!
//! The latency model ([`crate::LatencyModel`]) prices *distance*; this
//! module prices *load*. Each [`ChannelClass`] may carry a capacity in
//! bytes per second of virtual time; a message of `n` bytes sent on a
//! link of that class pays
//!
//! * **serialization delay** — `⌈n · 1e9 / capacity⌉` ns, and
//! * **queueing delay** — the time until the link's transmit queue
//!   drains, tracked as a per-link `busy_until` watermark in virtual
//!   time.
//!
//! The watermark advances by exactly the serialization time of each
//! message and decays implicitly (an idle link's watermark falls behind
//! `now`, so the next message pays serialization only). Everything is
//! integer arithmetic on virtual time — **no RNG draws** — so the
//! replicated-RNG lockstep of the sharded engine and bit-identical
//! reports across worker counts hold by construction. Classes without a
//! configured capacity cost a single array read and return zero, keeping
//! the off-path overhead negligible.
//!
//! Sharded runs clone the model into every partition at `split`. That is
//! sound because a directed link's delays are computed where its *sender*
//! dispatches: a switch's uplinks live on the switch's shard, and every
//! controller-originated link dispatches on the hub — so each per-link
//! watermark is only ever touched by one partition.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use serde::{Deserialize, Serialize};

use crate::{ChannelClass, LinkId, SimDuration, SimTime};

/// Build-hasher for the watermark table. [`LinkId`] keys are 9 bytes of
/// plain integers, so the standard library's DoS-resistant SipHash is
/// pure overhead on the dispatch hot path; this splitmix64-finalizer
/// hasher is a fraction of the cost. Hash order never reaches any
/// observable output, so determinism is unaffected.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct LinkTableHash;

impl BuildHasher for LinkTableHash {
    type Hasher = LinkHasher;

    fn build_hasher(&self) -> LinkHasher {
        LinkHasher(0x9E37_79B9_7F4A_7C15)
    }
}

/// Accumulates writes with cheap mixing; [`Hasher::finish`] applies the
/// splitmix64 finalizer for avalanche.
pub(crate) struct LinkHasher(u64);

impl LinkHasher {
    #[inline]
    fn mix(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(29) ^ v).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for LinkHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.mix(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.mix(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.mix(v as u64);
    }
}

/// Per-class link capacities plus per-link transmit-queue watermarks.
///
/// `Default` models nothing: every class is uncapacitated and every
/// delay is zero, which reproduces the pre-bandwidth behaviour exactly.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BandwidthModel {
    /// Capacity in bytes per second of virtual time, per
    /// [`ChannelClass::index`]. `None` = unmodeled (zero cost).
    capacity: [Option<u64>; ChannelClass::COUNT],
    /// Cached `(1e9 / cap, 1e9 % cap)` per class — the serialization
    /// constants, precomputed at capacity-set time so the per-message
    /// path pays one division instead of two. Zeros for unmodeled
    /// classes (never read: the capacity gate short-circuits first).
    ser_consts: [(u64, u64); ChannelClass::COUNT],
    /// Virtual-time instant each directed link's transmit queue drains.
    /// Only links that carried traffic on a capacitated class appear.
    busy_until_ns: HashMap<LinkId, u64, LinkTableHash>,
}

impl BandwidthModel {
    /// A model with no capacitated classes (every delay is zero).
    pub fn unmodeled() -> Self {
        BandwidthModel::default()
    }

    /// Sets (or clears, with `None`) the capacity of one channel class.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity — an unmodeled class is `None`, not 0.
    pub fn set_capacity(&mut self, class: ChannelClass, bytes_per_sec: Option<u64>) {
        if let Some(cap) = bytes_per_sec {
            assert!(cap > 0, "bandwidth capacity must be positive, got 0");
        }
        self.capacity[class.index()] = bytes_per_sec;
        self.ser_consts[class.index()] = bytes_per_sec
            .map(|cap| (1_000_000_000 / cap, 1_000_000_000 % cap))
            .unwrap_or((0, 0));
    }

    /// Builder form of [`set_capacity`](BandwidthModel::set_capacity).
    pub fn with_capacity(mut self, class: ChannelClass, bytes_per_sec: u64) -> Self {
        self.set_capacity(class, Some(bytes_per_sec));
        self
    }

    /// True if `class` carries a capacity — the one-array-read gate the
    /// hot path checks before paying for a message-size computation.
    #[inline]
    pub fn class_enabled(&self, class: ChannelClass) -> bool {
        self.capacity[class.index()].is_some()
    }

    /// True if no class is capacitated (the model is pure pass-through).
    pub fn is_unmodeled(&self) -> bool {
        self.capacity.iter().all(|c| c.is_none())
    }

    /// The serialization + queueing delay for one message of `bytes` on
    /// `link` at virtual time `now`, and advances the link's watermark.
    /// Zero (with no state touched) when the class is uncapacitated.
    #[inline]
    pub fn delay(&mut self, link: LinkId, bytes: u64, now: SimTime) -> SimDuration {
        let Some(cap) = self.capacity[link.class.index()] else {
            return SimDuration::ZERO;
        };
        let now_ns = now.as_nanos();
        let ser_ns = self.serialization_ns(link.class, bytes, cap);
        let entry = self.busy_until_ns.entry(link).or_insert(0);
        let start = (*entry).max(now_ns);
        *entry = start.saturating_add(ser_ns);
        SimDuration::from_nanos((start - now_ns).saturating_add(ser_ns))
    }

    /// Closed-form serialization time: `⌈bytes · 1e9 / cap⌉` ns.
    #[inline]
    fn serialization_ns(&self, class: ChannelClass, bytes: u64, cap: u64) -> u64 {
        // Messages are wire-format-bounded (64 kB frames), so the common
        // case fits comfortably in u64: with `q = 1e9 / cap` and
        // `r = 1e9 % cap` (cached per class), `⌈b·1e9/cap⌉ = b·q +
        // ⌈b·r/cap⌉` exactly, and both products stay under 2^62 for
        // `b < 2^32` (q, r ≤ 1e9). This keeps the hot path at a single
        // 64-bit division and avoids the 128-bit libcall entirely.
        if bytes < (1 << 32) {
            let (q, r) = self.ser_consts[class.index()];
            bytes * q + (bytes * r).div_ceil(cap)
        } else {
            let num = (bytes as u128) * 1_000_000_000u128;
            let cap = cap as u128;
            (num.div_ceil(cap)).min(u64::MAX as u128) as u64
        }
    }

    /// The backlog (ns of queued transmission) on `link` at `now` — how
    /// far its watermark runs ahead of the clock. Diagnostic only.
    pub fn backlog_ns(&self, link: LinkId, now: SimTime) -> u64 {
        self.busy_until_ns
            .get(&link)
            .map(|&b| b.saturating_sub(now.as_nanos()))
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(from: u32, to: u32) -> LinkId {
        LinkId::new(from, to, ChannelClass::Control)
    }

    #[test]
    fn unmodeled_class_costs_zero_and_stores_nothing() {
        let mut m = BandwidthModel::unmodeled();
        assert!(m.is_unmodeled());
        assert!(!m.class_enabled(ChannelClass::Control));
        let d = m.delay(link(1, 2), 1_000_000, SimTime::ZERO);
        assert_eq!(d, SimDuration::ZERO);
        assert_eq!(m.busy_until_ns.len(), 0, "no watermark for free classes");
    }

    #[test]
    fn serialization_delay_is_bytes_over_capacity() {
        // 1 MB/s: one byte serializes in 1 µs.
        let mut m = BandwidthModel::unmodeled().with_capacity(ChannelClass::Control, 1_000_000);
        assert!(m.class_enabled(ChannelClass::Control));
        assert!(!m.is_unmodeled());
        let d = m.delay(link(1, 2), 500, SimTime::ZERO);
        assert_eq!(d, SimDuration::from_micros(500));
    }

    #[test]
    fn back_to_back_messages_queue_behind_each_other() {
        let mut m = BandwidthModel::unmodeled().with_capacity(ChannelClass::Control, 1_000_000);
        let t = SimTime::from_secs(1);
        let first = m.delay(link(1, 2), 1000, t);
        let second = m.delay(link(1, 2), 1000, t);
        assert_eq!(first, SimDuration::from_millis(1));
        assert_eq!(
            second,
            SimDuration::from_millis(2),
            "second message waits out the first, then serializes"
        );
        assert_eq!(m.backlog_ns(link(1, 2), t), 2_000_000);
    }

    #[test]
    fn idle_gap_drains_the_queue() {
        let mut m = BandwidthModel::unmodeled().with_capacity(ChannelClass::Control, 1_000_000);
        m.delay(link(1, 2), 1000, SimTime::ZERO);
        // Well past the 1 ms serialization: queue empty again.
        let later = SimTime::from_secs(5);
        assert_eq!(m.backlog_ns(link(1, 2), later), 0);
        let d = m.delay(link(1, 2), 1000, later);
        assert_eq!(d, SimDuration::from_millis(1), "no residual queueing");
    }

    #[test]
    fn links_are_independent() {
        let mut m = BandwidthModel::unmodeled().with_capacity(ChannelClass::Control, 1_000_000);
        m.delay(link(1, 2), 10_000, SimTime::ZERO);
        let other = m.delay(link(3, 2), 1000, SimTime::ZERO);
        assert_eq!(
            other,
            SimDuration::from_millis(1),
            "a busy neighbour link adds no delay"
        );
        // Direction matters too.
        let reverse = m.delay(link(2, 1), 1000, SimTime::ZERO);
        assert_eq!(reverse, SimDuration::from_millis(1));
    }

    #[test]
    fn classes_are_independent() {
        let mut m = BandwidthModel::unmodeled().with_capacity(ChannelClass::Control, 1_000_000);
        let peer = LinkId::new(1, 2, ChannelClass::Peer);
        assert_eq!(m.delay(peer, 1_000_000, SimTime::ZERO), SimDuration::ZERO);
    }

    #[test]
    fn delays_are_deterministic() {
        let run = || {
            let mut m = BandwidthModel::unmodeled().with_capacity(ChannelClass::Control, 1_234_567);
            (0..100)
                .map(|i| {
                    m.delay(
                        link(i % 7, 99),
                        64 + i as u64 * 13,
                        SimTime::from_nanos(i as u64 * 37_000),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn serialization_rounds_up() {
        // 3 bytes at 1 GB/s = 3 ns exactly; 1 byte at 3 GB/s = ceil(1/3 ns) = 1 ns.
        let even = BandwidthModel::unmodeled().with_capacity(ChannelClass::Control, 1_000_000_000);
        assert_eq!(
            even.serialization_ns(ChannelClass::Control, 3, 1_000_000_000),
            3
        );
        assert_eq!(
            even.serialization_ns(ChannelClass::Control, 0, 1_000_000_000),
            0
        );
        let fast = BandwidthModel::unmodeled().with_capacity(ChannelClass::Control, 3_000_000_000);
        assert_eq!(
            fast.serialization_ns(ChannelClass::Control, 1, 3_000_000_000),
            1
        );
    }

    /// The u64 fast path and the u128 slow path must agree wherever both
    /// apply — the cached `(q, r)` decomposition is exact, not an
    /// approximation.
    #[test]
    fn fast_and_slow_serialization_paths_agree() {
        for cap in [1u64, 7, 999, 1_000_000, 999_999_937, 20_000_000_000] {
            let m = BandwidthModel::unmodeled().with_capacity(ChannelClass::Control, cap);
            for bytes in [0u64, 1, 17, 64, 1500, 65_535, u32::MAX as u64] {
                let fast = m.serialization_ns(ChannelClass::Control, bytes, cap);
                let slow = ((bytes as u128) * 1_000_000_000u128).div_ceil(cap as u128) as u64;
                assert_eq!(fast, slow, "bytes={bytes} cap={cap}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        BandwidthModel::unmodeled().set_capacity(ChannelClass::Control, Some(0));
    }
}
