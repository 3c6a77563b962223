//! The exploration engines: exhaustive DFS with fingerprint
//! deduplication, and seeded random walks for state spaces too large to
//! exhaust.

use std::collections::HashSet;

use crate::event::{enabled_events, spend, FaultBudget, McEvent};
use crate::invariants::{check_safety, check_terminal, Ghost};
use crate::settle::settle;
use crate::state::McState;
use crate::trace::Counterexample;

/// How to explore.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Iterative-deepening DFS over every enabled event, deduplicating
    /// on state fingerprints within each deepening round: complete up to
    /// the depth/state bounds, and — because shallow frontiers are
    /// exhausted before deep ones — guaranteed to report a *minimal*
    /// violating schedule even when the state cap truncates the run.
    Exhaustive,
    /// `walks` independent schedules of `depth` uniformly random enabled
    /// events each, from a deterministic seed: incomplete, but reaches
    /// depths DFS cannot, and scales to bigger clusters.
    RandomWalk {
        /// Number of independent walks.
        walks: u64,
        /// Events per walk.
        depth: usize,
        /// PRNG seed (same seed, same walks — bit for bit).
        seed: u64,
    },
}

/// Exploration bounds and fault model.
#[derive(Debug, Clone, Copy)]
pub struct CheckerConfig {
    /// The exploration engine.
    pub mode: Mode,
    /// DFS depth bound (events per schedule).
    pub max_depth: usize,
    /// Cap on distinct states before the run reports itself truncated.
    pub max_states: u64,
    /// Adversary budget per schedule.
    pub budget: FaultBudget,
    /// In-flight message cap (duplication stops at this backlog).
    pub max_pending: usize,
    /// Virtual settling horizon before terminal invariants are checked.
    pub settle_horizon_ns: u64,
    /// Settle-and-check every k-th leaf (and every k-th walk); settling
    /// runs hundreds of steps, so checking a sample of leaves buys most
    /// of the coverage at a fraction of the cost. 0 disables terminal
    /// checks entirely.
    pub settle_every: u64,
}

impl Default for CheckerConfig {
    fn default() -> Self {
        CheckerConfig {
            mode: Mode::Exhaustive,
            max_depth: 12,
            max_states: 500_000,
            budget: FaultBudget::none(),
            max_pending: 12,
            settle_horizon_ns: 45_000_000_000,
            settle_every: 64,
        }
    }
}

/// What an exploration did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Transitions executed.
    pub explored: u64,
    /// Distinct state fingerprints reached.
    pub distinct: u64,
    /// Revisits pruned by fingerprint deduplication.
    pub deduped: u64,
    /// Depth-bound leaves reached (deepest round only, for exhaustive
    /// mode).
    pub leaves: u64,
    /// Frontier states settled and terminally checked.
    pub settled: u64,
    /// True if the distinct-state cap stopped the exploration early.
    pub truncated: bool,
}

/// An exploration's verdict.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// Counters.
    pub stats: CheckStats,
    /// The first violating schedule found, if any.
    pub violation: Option<Counterexample>,
}

impl CheckOutcome {
    /// True if no invariant was violated.
    pub fn passed(&self) -> bool {
        self.violation.is_none()
    }
}

/// One DFS stack entry: a reached state, what remains to try from it,
/// and the path bookkeeping that got us here.
struct Frame {
    state: McState,
    ghost: Ghost,
    budget: FaultBudget,
    events: Vec<McEvent>,
    next: usize,
    /// The event that led here (`None` at the root).
    via: Option<McEvent>,
}

/// Explores `initial` under `cfg` and reports the outcome.
pub fn check(initial: &McState, cfg: &CheckerConfig) -> CheckOutcome {
    match cfg.mode {
        Mode::Exhaustive => check_exhaustive(initial, cfg),
        Mode::RandomWalk { walks, depth, seed } => check_walks(initial, cfg, walks, depth, seed),
    }
}

/// The schedule from the root through the stack to `last`.
fn schedule_of(stack: &[Frame], last: McEvent) -> impl Iterator<Item = McEvent> + '_ {
    stack.iter().filter_map(|f| f.via).chain([last])
}

fn check_exhaustive(initial: &McState, cfg: &CheckerConfig) -> CheckOutcome {
    let mut stats = CheckStats::default();
    let mut distinct: HashSet<u64> = HashSet::new();
    distinct.insert(initial.fingerprint());

    let mut root_ghost = Ghost::default();
    if let Some(v) = check_safety(initial, &mut root_ghost) {
        stats.distinct = distinct.len() as u64;
        return CheckOutcome {
            stats,
            violation: Some(Counterexample::reconstruct(initial, [], v, 0)),
        };
    }

    // Iterative deepening: a plain DFS commits its entire state budget to
    // the first child's subtree before ever trying the second event at
    // the root, so a two-step bug can hide behind a million-state cap.
    // Re-exploring the shallow prefixes costs a constant factor and buys
    // completeness-in-order: the first violation reported is a shortest
    // one.
    let mut violation = None;
    let mut cutoffs: u64 = 0;
    'deepening: for depth_limit in 1..=cfg.max_depth {
        let last_round = depth_limit == cfg.max_depth;
        // Dedup is per round: a state first reached at depth d must be
        // re-expandable in later rounds, where more depth remains below
        // it.
        let mut visited: HashSet<u64> = HashSet::new();
        visited.insert(initial.fingerprint());

        let mut stack = vec![Frame {
            state: initial.clone(),
            ghost: root_ghost.clone(),
            budget: cfg.budget,
            events: enabled_events(initial, cfg.budget, cfg.max_pending),
            next: 0,
            via: None,
        }];

        while let Some(top) = stack.last_mut() {
            if top.next >= top.events.len() || stats.truncated {
                stack.pop();
                continue;
            }
            let ev = top.events[top.next];
            top.next += 1;

            let mut child = top.state.clone();
            let mut ghost = top.ghost.clone();
            let mut budget = top.budget;
            spend(&mut budget, ev);
            let outs = child.apply(ev);
            stats.explored += 1;

            let bad = ghost
                .note_outputs(&outs)
                .or_else(|| check_safety(&child, &mut ghost));
            if let Some(v) = bad {
                let schedule = schedule_of(&stack, ev);
                violation = Some(Counterexample::reconstruct(initial, schedule, v, 0));
                break 'deepening;
            }
            let fp = child.fingerprint();
            if !visited.insert(fp) {
                stats.deduped += 1;
                continue;
            }
            if distinct.insert(fp) && distinct.len() as u64 >= cfg.max_states {
                stats.truncated = true;
            }

            if stack.len() >= depth_limit {
                // Only the deepest round's frontier counts as leaves —
                // earlier rounds' cut-offs are interior states it will
                // expand — but every round's cut-offs feed the sampled
                // terminal check, so a run truncated before its last
                // round still exercises the liveness invariants.
                cutoffs += 1;
                if last_round {
                    stats.leaves += 1;
                }
                if cfg.settle_every > 0 && cutoffs % cfg.settle_every == 1 {
                    stats.settled += 1;
                    let settled = settle(&child, cfg.settle_horizon_ns);
                    if let Some(v) = check_terminal(&settled) {
                        violation = Some(Counterexample::reconstruct(
                            initial,
                            schedule_of(&stack, ev),
                            v,
                            cfg.settle_horizon_ns,
                        ));
                        break 'deepening;
                    }
                }
                continue;
            }
            let events = enabled_events(&child, budget, cfg.max_pending);
            stack.push(Frame {
                state: child,
                ghost,
                budget,
                events,
                next: 0,
                via: Some(ev),
            });
        }
        if stats.truncated {
            break;
        }
    }
    stats.distinct = distinct.len() as u64;
    CheckOutcome { stats, violation }
}

fn check_walks(
    initial: &McState,
    cfg: &CheckerConfig,
    walks: u64,
    depth: usize,
    seed: u64,
) -> CheckOutcome {
    let mut stats = CheckStats::default();
    let mut visited: HashSet<u64> = HashSet::new();
    visited.insert(initial.fingerprint());
    stats.distinct = 1;
    let mut rng = seed ^ 0x5DEECE66D;

    for walk in 0..walks {
        let mut state = initial.clone();
        let mut ghost = Ghost::default();
        let mut budget = cfg.budget;
        let mut schedule: Vec<McEvent> = Vec::new();
        for _ in 0..depth {
            let events = enabled_events(&state, budget, cfg.max_pending);
            if events.is_empty() {
                break;
            }
            let ev = events[(splitmix64(&mut rng) % events.len() as u64) as usize];
            spend(&mut budget, ev);
            let outs = state.apply(ev);
            stats.explored += 1;
            if visited.insert(state.fingerprint()) {
                stats.distinct += 1;
            } else {
                stats.deduped += 1;
            }
            schedule.push(ev);
            let violation = ghost
                .note_outputs(&outs)
                .or_else(|| check_safety(&state, &mut ghost));
            if let Some(v) = violation {
                return CheckOutcome {
                    stats,
                    violation: Some(Counterexample::reconstruct(initial, schedule, v, 0)),
                };
            }
        }
        stats.leaves += 1;
        if cfg.settle_every > 0 && walk % cfg.settle_every == 0 {
            stats.settled += 1;
            let settled = settle(&state, cfg.settle_horizon_ns);
            if let Some(v) = check_terminal(&settled) {
                return CheckOutcome {
                    stats,
                    violation: Some(Counterexample::reconstruct(
                        initial,
                        schedule,
                        v,
                        cfg.settle_horizon_ns,
                    )),
                };
            }
        }
    }
    CheckOutcome {
        stats,
        violation: None,
    }
}

/// SplitMix64: a tiny, deterministic, well-mixed PRNG — the checker
/// cannot use `rand` (wall-clock seeding would break replay). Its output
/// function is also the mixer behind [`McState`]'s multiset sums.
pub(crate) fn splitmix64(s: &mut u64) -> u64 {
    *s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *s;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
