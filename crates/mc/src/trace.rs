//! Counterexample traces: the schedule that broke an invariant,
//! replayable step-for-step and exportable to the full simulator.

use lazyctrl_proto::{ClusterMsg, EventPlan, InjectedEvent, Message, MessageBody};
use lazyctrl_sim::SimTime;

use crate::event::McEvent;
use crate::invariants::{check_safety, check_terminal, Ghost, Violation};
use crate::state::McState;

/// One step of a counterexample schedule.
#[derive(Debug, Clone)]
pub(crate) struct TraceStep {
    /// The adversarial choice taken.
    pub(crate) event: McEvent,
    /// Readable rendering ("deliver 0→1 heartbeat", "crash member 2").
    pub(crate) label: String,
    /// The clock after the step (ns).
    pub(crate) now_ns: u64,
    /// The state fingerprint after the step.
    pub(crate) fingerprint: u64,
}

/// A schedule that violates an invariant, with enough provenance to
/// replay it deterministically from the same initial state.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The adversarial schedule, in order.
    pub(crate) steps: Vec<TraceStep>,
    /// What broke.
    pub violation: Violation,
    /// Nonzero when the violation is a *terminal* invariant, observed
    /// after settling the final state for this many virtual ns; zero for
    /// safety violations, which reproduce from the steps alone.
    pub(crate) settle_horizon_ns: u64,
}

/// Renders the event for trace display, peeking at the in-flight message
/// it refers to (must be called *before* the event is applied).
fn label_event(state: &McState, ev: McEvent) -> String {
    let named = |i: usize| {
        let p = &state.pending()[i];
        format!("{}→{} {}", p.from(), p.to(), kind_of(p.msg()))
    };
    match ev {
        McEvent::Deliver(i) => format!("deliver {}", named(i)),
        McEvent::Drop(i) => format!("drop {}", named(i)),
        McEvent::Duplicate(i) => format!("duplicate {}", named(i)),
        McEvent::FireTimer => match state.min_timer() {
            Some(i) => {
                let (due, t) = state.timers()[i];
                format!(
                    "fire timer {:?} of member {} at t={:.3}s",
                    t.kind,
                    t.node,
                    due as f64 / 1e9
                )
            }
            None => "fire timer".to_owned(),
        },
        McEvent::Crash(id) => format!("crash member {id}"),
        McEvent::Recover(id) => format!("recover member {id}"),
        McEvent::Partition(id) => format!("partition: isolate member {id}"),
        McEvent::Heal => "heal partition".to_owned(),
    }
}

fn kind_of(msg: &Message) -> &'static str {
    match &msg.body {
        MessageBody::Cluster(c) => match c {
            ClusterMsg::PeerSync(_) => "peer_sync",
            ClusterMsg::SyncRelay(_) => "sync_relay",
            ClusterMsg::SyncDigest(_) => "sync_digest",
            ClusterMsg::Heartbeat(_) => "heartbeat",
            ClusterMsg::OwnershipTransfer(_) => "ownership_transfer",
            ClusterMsg::TransferAck(_) => "transfer_ack",
            ClusterMsg::LookupRequest(_) => "lookup_request",
            ClusterMsg::LookupReply(_) => "lookup_reply",
            ClusterMsg::VoteRequest(_) => "vote_request",
            ClusterMsg::VoteReply(_) => "vote_reply",
            ClusterMsg::LeaderClaim(_) => "leader_claim",
        },
        MessageBody::Lazy(_) => "lazy",
        MessageBody::Of(_) => "of",
    }
}

impl Counterexample {
    /// Builds the report for `violation`, found after `events` from
    /// `initial`. The checker carries only the events along a path; the
    /// labels, clocks and fingerprints a reader wants are reproduced
    /// here, by replay, for the one schedule that gets reported.
    pub(crate) fn reconstruct(
        initial: &McState,
        events: impl IntoIterator<Item = McEvent>,
        violation: Violation,
        settle_horizon_ns: u64,
    ) -> Counterexample {
        let mut state = initial.clone();
        let steps = events
            .into_iter()
            .map(|event| {
                let label = label_event(&state, event);
                state.apply(event);
                TraceStep {
                    event,
                    label,
                    now_ns: state.now_ns,
                    fingerprint: state.fingerprint(),
                }
            })
            .collect();
        Counterexample {
            steps,
            violation,
            settle_horizon_ns,
        }
    }

    /// Re-executes the schedule from `initial` (which must be the same
    /// state the checker started from) and returns the violation the
    /// replay reproduces. `None` means the replay did NOT reproduce —
    /// a checker bug, or a different initial state.
    pub fn replay(&self, initial: &McState) -> Option<Violation> {
        let mut state = initial.clone();
        let mut ghost = Ghost::default();
        for step in &self.steps {
            let outs = state.apply(step.event);
            if let Some(v) = ghost.note_outputs(&outs) {
                return Some(v);
            }
            if let Some(v) = check_safety(&state, &mut ghost) {
                return Some(v);
            }
        }
        if self.settle_horizon_ns > 0 {
            return check_terminal(&crate::settle::settle(&state, self.settle_horizon_ns));
        }
        None
    }

    /// Exports the schedule's fault skeleton — crashes, recoveries,
    /// partitions, heals — as an [`EventPlan`], so the counterexample's
    /// fault pattern can be re-driven through the full discrete-event
    /// simulator (message reorderings are the simulator's own to make).
    /// `members` is the cluster size, needed to render an isolate-one
    /// partition as the simulator's explicit two-island cut over
    /// controller pseudo-node ids.
    pub fn fault_plan(&self, members: usize) -> EventPlan {
        let ctrl = |m: u32| lazyctrl_cluster::ctrl_pseudo_switch(m).0;
        let mut plan = EventPlan::new();
        for step in &self.steps {
            let injected = match step.event {
                McEvent::Crash(id) => InjectedEvent::CrashController(id),
                McEvent::Recover(id) => InjectedEvent::RecoverController(id),
                McEvent::Partition(id) => InjectedEvent::PartitionNetwork {
                    groups: vec![
                        vec![ctrl(id)],
                        (0..members as u32).filter(|&m| m != id).map(ctrl).collect(),
                    ],
                },
                McEvent::Heal => InjectedEvent::HealPartition,
                _ => continue,
            };
            plan.schedule(SimTime::from_nanos(step.now_ns), injected);
        }
        plan
    }
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "counterexample ({} steps):", self.steps.len())?;
        for (i, step) in self.steps.iter().enumerate() {
            writeln!(
                f,
                "  {i:>3}. [t={:>9.3}s] {}  (state {:#018x})",
                step.now_ns as f64 / 1e9,
                step.label,
                step.fingerprint
            )?;
        }
        write!(f, "  violated: {}", self.violation)
    }
}
