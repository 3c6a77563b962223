//! The invariant predicates and the ghost ledgers that power them.
//!
//! Safety invariants (`check_safety`, plus the output-observing ledger
//! in [`Ghost`]) must hold in *every* reachable state. Terminal
//! invariants (`check_terminal`) are liveness-shaped: they are checked
//! on a deterministically settled copy of a state (see
//! [`crate::settle`]), where the network has calmed down and every
//! repair cadence has had time to run.

use std::collections::BTreeMap;

use lazyctrl_cluster::{ClusterOutput, ElectionRole, MemberCounter};
use lazyctrl_proto::{ClusterMsg, MessageBody};

use crate::state::McState;

/// A violated invariant: which one, and what was observed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Short invariant name (stable, used by tests and the repro binary).
    pub invariant: &'static str,
    /// Human-readable account of the violating observation.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.invariant, self.detail)
    }
}

/// History-dependent bookkeeping carried along one exploration path.
/// Cloned with the path, never part of the state fingerprint: it records
/// what *happened*, not what *is*.
#[derive(Debug, Clone, Default)]
pub struct Ghost {
    /// `term -> the one member seen leading it`. A second member leading
    /// the same term — even at a different point of the schedule — is a
    /// split brain.
    pub leaders_by_term: BTreeMap<u64, u32>,
    /// `(forwarder, dest, origin, seq, chunk) -> times forwarded` on the
    /// relay overlay. The dedup window must hold every count at one.
    pub relay_forwards: BTreeMap<(u32, u32, u32, u64, u32), u32>,
}

impl Ghost {
    /// Observes one step's outputs, updating the relay-forwarding ledger
    /// and reporting an at-most-once violation immediately.
    pub fn note_outputs(&mut self, outs: &[ClusterOutput]) -> Option<Violation> {
        for out in outs {
            let ClusterOutput::ToCtrl { from, to, msg } = out else {
                continue;
            };
            let MessageBody::Cluster(ClusterMsg::SyncRelay(bundle)) = &msg.body else {
                continue;
            };
            for sync in &bundle.syncs {
                let key = (*from, *to, sync.origin, sync.seq, sync.chunk);
                let count = self.relay_forwards.entry(key).or_insert(0);
                *count += 1;
                if *count > 1 {
                    return Some(Violation {
                        invariant: "at-most-once-forward",
                        detail: format!(
                            "member {from} forwarded chunk (origin {}, seq {}, chunk {}) \
                             to member {to} {count} times",
                            sync.origin, sync.seq, sync.chunk
                        ),
                    });
                }
            }
        }
        None
    }
}

/// Checks the always-invariants in `state`, updating the ghost's
/// leadership ledger.
pub fn check_safety(state: &McState, ghost: &mut Ghost) -> Option<Violation> {
    let plane = &state.plane;
    let n = plane.num_controllers() as u32;

    // (1) No double apply: no member may have absorbed more foreign
    // chunks than its peers ever created — counts applied twice show up
    // here no matter which path smuggled the duplicate in.
    let chunks: Vec<u64> = (0..n)
        .map(|i| plane.counter(i, MemberCounter::ChunksCreated))
        .collect();
    let total: u64 = chunks.iter().sum();
    for m in 0..n {
        let foreign = total - chunks[m as usize];
        let applied = plane.counter(m, MemberCounter::RelayApplies)
            + plane.counter(m, MemberCounter::DirectApplies);
        if applied > foreign {
            return Some(Violation {
                invariant: "no-double-apply",
                detail: format!(
                    "member {m} applied {applied} foreign chunks but only {foreign} exist"
                ),
            });
        }
    }

    // (4) Ownership integrity: every group has exactly one owner and the
    // group count never changes. (Liveness of ownership — the owner being
    // functioning — is a terminal invariant: right after a crash the dead
    // member legitimately still owns its shard.)
    let groups = plane.ownership().len();
    for g in 0..groups {
        if plane.ownership().owner_of(g).is_none() {
            return Some(Violation {
                invariant: "ownership-integrity",
                detail: format!("group {g} has no owner"),
            });
        }
    }

    // (5) Single leader per term, across both space (two functioning
    // leaders now) and time (the ghost remembers every leader ever seen
    // in each term).
    for id in 0..n {
        if plane.is_crashed(id) || plane.election_role(id) != ElectionRole::Leader {
            continue;
        }
        let term = plane.election_term(id);
        let prev = *ghost.leaders_by_term.entry(term).or_insert(id);
        if prev != id {
            return Some(Violation {
                invariant: "single-leader-per-term",
                detail: format!("term {term} was led by both member {prev} and member {id}"),
            });
        }
    }
    None
}

/// Checks the terminal invariants on a settled state: replica
/// convergence, live ownership, and an elected leader. Call this on the
/// output of [`crate::settle::settle`], not on a raw exploration state.
pub fn check_terminal(state: &McState) -> Option<Violation> {
    let plane = &state.plane;
    let functioning = state.functioning();
    if functioning.len() < 2 {
        return None; // convergence needs someone to converge with
    }

    // (2) Convergence: for every origin, every functioning member other
    // than the origin itself holds the same per-origin head as the most
    // advanced functioning member. Anti-entropy had the whole settling
    // horizon to close any gap.
    let heads: BTreeMap<u32, Vec<(u32, u64)>> = functioning
        .iter()
        .map(|&m| (m, plane.replica_heads(m)))
        .collect();
    for origin in 0..plane.num_controllers() as u32 {
        let head_of = |m: u32| -> u64 {
            heads[&m]
                .iter()
                .find(|&&(o, _)| o == origin)
                .map(|&(_, s)| s)
                .unwrap_or(0)
        };
        let observers: Vec<u32> = functioning
            .iter()
            .copied()
            .filter(|&m| m != origin)
            .collect();
        let best = observers.iter().map(|&m| head_of(m)).max().unwrap_or(0);
        for &m in &observers {
            let h = head_of(m);
            if h < best {
                return Some(Violation {
                    invariant: "convergence",
                    detail: format!(
                        "member {m} settled at head {h} for origin {origin}, \
                         but a peer reached {best}"
                    ),
                });
            }
        }
    }

    // (4, liveness half) Every group's owner is functioning: takeover has
    // had time to move a dead member's shard.
    for g in 0..plane.ownership().len() {
        match plane.ownership().owner_of(g) {
            None => {
                return Some(Violation {
                    invariant: "ownership-integrity",
                    detail: format!("group {g} lost its owner during settling"),
                })
            }
            Some(owner) if plane.is_crashed(owner) => {
                return Some(Violation {
                    invariant: "ownership-liveness",
                    detail: format!("group {g} is still owned by crashed member {owner}"),
                })
            }
            Some(_) => {}
        }
    }

    // (5, liveness half) Somebody leads: the election must have filled
    // any leadership hole the faults tore open.
    if plane.leader().is_none() {
        return Some(Violation {
            invariant: "leader-liveness",
            detail: "no functioning leader after settling".to_owned(),
        });
    }
    None
}
