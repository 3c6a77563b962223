//! Peer-sync dissemination: how a member's C-LIB deltas reach the other
//! cluster members.
//!
//! The original cluster replicated by **full flood**: every member sent
//! every delta chunk to every peer, so one flush round of an `n`-member
//! cluster cost `n·(n-1)` control messages — O(n²), the wall the ROADMAP's
//! "scale the repro" item hits at 16 controllers. The devolved-controller
//! line of work (Tam et al.; Yazıcı et al.) argues the inter-controller
//! fabric must scale sub-quadratically for the devolved design to pay off,
//! which is what the ring overlay buys:
//!
//! * [`DisseminationStrategy::Flood`] — the ablation baseline: the origin
//!   sends each delta chunk directly to every believed-alive peer. O(n²)
//!   messages per flush round, one-hop latency.
//! * [`DisseminationStrategy::Ring`] — each member forwards, at its own
//!   flush tick, one [`SyncRelayMsg`](lazyctrl_proto::SyncRelayMsg) bundle
//!   to its ring successor: its own fresh chunks plus every foreign chunk
//!   it received since the last tick. A chunk is dropped from circulation
//!   when the next hop would be its origin, and the `(origin, seq, chunk)`
//!   dedup key stops re-circulation when the ring membership shifts
//!   mid-flight. O(n) messages per round; worst-case propagation is one
//!   full ring circumference of flush ticks.
//!
//! A member that was dark while a delta circulated (crashed, partitioned,
//! or just unlucky on the overlay) reconverges through the plane's
//! anti-entropy digests, not through the strategy — see
//! `ClusterControlPlane` and [`SyncDigestMsg`](lazyctrl_proto::SyncDigestMsg).
//!
//! Both strategies are pure functions of the believed-alive member list,
//! which keeps them deterministic and self-healing on membership change;
//! the plane owns all the state (outboxes, dedup sets, logs).

use serde::{Deserialize, Serialize};

/// The configured choice of dissemination strategy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DisseminationStrategy {
    /// Direct flood to every peer (O(n²) per round; ablation baseline).
    /// The default, for drop-in compatibility with pre-overlay configs.
    #[default]
    Flood,
    /// Ring circulation with per-tick bundling (O(n) per round).
    Ring,
}

impl DisseminationStrategy {
    /// Short label for reports and benches.
    pub fn label(&self) -> &'static str {
        match self {
            DisseminationStrategy::Flood => "flood",
            DisseminationStrategy::Ring => "ring",
        }
    }
}

/// Ring neighbours `(prev, next)` of `id` on `ring` (member ids
/// ascending, cyclic) — the one ring both the heartbeat protocol and the
/// ring overlay walk. `None` when `id` is not on the ring or has nobody
/// to neighbour.
pub(crate) fn ring_neighbours(id: u32, ring: &[u32]) -> Option<(u32, u32)> {
    if ring.len() < 2 {
        return None;
    }
    let i = ring.iter().position(|&m| m == id)?;
    let n = ring.len();
    Some((ring[(i + n - 1) % n], ring[(i + 1) % n]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        ClusterConfig, ClusterControlPlane, ClusterOutput, ClusterTimer, ClusterTimerKind,
    };
    use lazyctrl_net::{MacAddr, PortNo, SwitchId, TenantId};
    use lazyctrl_proto::{ClusterMsg, HostEntry, Message, MessageBody, OutputSink, SyncRelayMsg};

    fn alive(n: u32) -> Vec<u32> {
        (0..n).collect()
    }

    fn successor(id: u32, ring: &[u32]) -> Option<u32> {
        ring_neighbours(id, ring).map(|(_, next)| next)
    }

    #[test]
    fn labels_round_trip_through_config() {
        assert_eq!(DisseminationStrategy::Flood.label(), "flood");
        assert_eq!(DisseminationStrategy::Ring.label(), "ring");
        for s in [DisseminationStrategy::Flood, DisseminationStrategy::Ring] {
            let cfg = ClusterConfig {
                dissemination: s,
                ..ClusterConfig::default()
            };
            assert_eq!(
                ClusterControlPlane::new(3, cfg)
                    .config()
                    .dissemination
                    .label(),
                s.label()
            );
        }
    }

    /// Flood sends a flushed chunk straight to every peer, and a relay
    /// bundle that reaches a flood member is applied but never forwarded.
    #[test]
    fn flood_targets_every_peer_and_never_relays() {
        let mut plane = ClusterControlPlane::new(4, ClusterConfig::with_controllers(4));
        let host = HostEntry {
            mac: MacAddr::for_host(1),
            switch: SwitchId::new(1),
            port: PortNo::new(1),
            tenant: TenantId::new(1),
        };
        plane.enqueue_delta(1, vec![host], vec![]);
        let flush = |node| ClusterTimer {
            node,
            kind: ClusterTimerKind::ReplicaFlush,
            gen: 0,
        };
        let mut out = OutputSink::new();
        plane.handle_timer(0, flush(1), &mut out);
        let mut sent = Vec::new();
        let mut bundle = None;
        for o in out.drain() {
            if let ClusterOutput::ToCtrl { to, msg, .. } = o {
                let MessageBody::Cluster(ClusterMsg::PeerSync(sync)) = &msg.body else {
                    panic!("flood sends direct syncs only");
                };
                sent.push(to);
                bundle = Some(SyncRelayMsg {
                    from: 1,
                    syncs: vec![(**sync).clone()],
                });
            }
        }
        assert_eq!(sent, vec![0, 2, 3]);
        let bundle = Message::cluster(0, ClusterMsg::sync_relay(bundle.expect("a sync was sent")));
        plane.handle_ctrl_message(0, 1, 2, &bundle, &mut out);
        assert_eq!(plane.view_of(2, host.mac), Some(host));
        plane.handle_timer(0, flush(2), &mut out);
        assert!(
            out.drain()
                .all(|o| matches!(o, ClusterOutput::SetTimer(..))),
            "flood queued a relayed chunk"
        );
    }

    #[test]
    fn ring_follows_successor_and_stops_at_origin() {
        assert_eq!(successor(1, &alive(4)), Some(2));
        assert_eq!(ring_neighbours(0, &alive(4)), Some((3, 1)));
        // Member 3's successor is 0: a chunk originated by 0 stops there,
        // while member 1 passes it on to 2.
        assert_eq!(successor(3, &alive(4)), Some(0));
        assert_eq!(successor(0, &[0]), None);
        assert_eq!(successor(4, &alive(4)), None, "not on the ring");
    }

    #[test]
    fn ring_heals_around_a_dead_member() {
        // Member 2 confirmed dead: 1's successor becomes 3.
        assert_eq!(successor(1, &[0, 1, 3]), Some(3));
    }

    #[test]
    fn every_member_is_reached_per_round() {
        // Structural coverage check: starting from any origin, walking
        // ring successors visits every alive member.
        for n in 2u32..10 {
            let members = alive(n);
            for origin in 0..n {
                let mut visited = vec![origin];
                let mut at = origin;
                while let Some(next) = successor(at, &members) {
                    if next == origin {
                        break;
                    }
                    visited.push(next);
                    at = next;
                }
                assert_eq!(visited.len(), n as usize, "ring misses members");
            }
        }
    }
}
