//! Group-size negotiation via a modified Rubinstein bargaining model
//! (Appendix C).
//!
//! The controller prefers *large* groups (fewer groups ⇒ less inter-group
//! traffic ⇒ less load); switches prefer *small* groups (smaller L-FIB/G-FIB
//! state and less peer-sync overhead). The paper resolves the tension with
//! an alternating-offers game: "the switches are allowed to dynamically
//! bargain the group size limit with the controller according to their
//! real-time monitored and self-evaluated data."
//!
//! We implement the standard Rubinstein solution over the feasible interval
//! `[min_limit, max_limit]` with per-round discount factors, plus a
//! round-by-round transcript of the concession process so the controller
//! can exchange real `Bargain` protocol messages.

use serde::{Deserialize, Serialize};

/// Parameters of one negotiation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BargainConfig {
    /// Smallest group size the controller would accept (from capacity
    /// planning; going lower overloads the controller).
    pub(crate) min_limit: u32,
    /// Largest group size the switches can hold state for (TCAM budget).
    pub(crate) max_limit: u32,
    /// Controller's per-round discount factor `δ_c ∈ (0, 1)`; higher means
    /// more patient (an idle controller can wait out the switches).
    pub(crate) controller_discount: f64,
    /// Switches' per-round discount factor `δ_s ∈ (0, 1)`.
    pub(crate) switch_discount: f64,
    /// Hard cap on rounds before the analytic agreement is imposed.
    pub(crate) max_rounds: u32,
}

impl BargainConfig {
    /// A negotiation over `[min_limit, max_limit]` with symmetric patience.
    ///
    /// # Panics
    ///
    /// Panics if `min_limit > max_limit` or either limit is zero.
    pub fn new(min_limit: u32, max_limit: u32) -> Self {
        assert!(min_limit > 0, "limits must be positive");
        assert!(min_limit <= max_limit, "min_limit above max_limit");
        BargainConfig {
            min_limit,
            max_limit,
            controller_discount: 0.9,
            switch_discount: 0.9,
            max_rounds: 16,
        }
    }
}

/// One offer in the transcript.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Offer {
    /// Round number (0-based).
    pub(crate) round: u32,
    /// True when the controller made the offer.
    pub(crate) from_controller: bool,
    /// The proposed group size limit.
    pub(crate) proposed_limit: u32,
    /// True when this offer closes the deal.
    pub(crate) accept: bool,
}

/// The result of a negotiation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BargainOutcome {
    /// The agreed group size limit.
    pub agreed_limit: u32,
    /// Rounds taken until acceptance.
    pub(crate) rounds: u32,
    /// Full offer transcript.
    pub transcript: Vec<Offer>,
}

/// The analytic Rubinstein split: the controller (first mover) captures the
/// share `x* = (1 − δ_s) / (1 − δ_c·δ_s)` of the surplus.
pub(crate) fn rubinstein_share(controller_discount: f64, switch_discount: f64) -> f64 {
    (1.0 - switch_discount) / (1.0 - controller_discount * switch_discount)
}

/// Runs the negotiation, producing the agreed limit and the transcript.
///
/// The controller opens at `max_limit`, switches counter at `min_limit`;
/// each side concedes geometrically towards the Rubinstein point at a rate
/// set by its own discount factor, and a side accepts as soon as the
/// standing offer is at least as good as its own planned next proposal.
/// If `max_rounds` elapses, the analytic agreement is imposed (a "modified"
/// finite-horizon Rubinstein game).
pub fn negotiate(cfg: &BargainConfig) -> BargainOutcome {
    let lo = cfg.min_limit as f64;
    let hi = cfg.max_limit as f64;
    let surplus = hi - lo;
    let share = rubinstein_share(cfg.controller_discount, cfg.switch_discount);
    let equilibrium = lo + share * surplus;

    let mut transcript = Vec::new();
    if cfg.min_limit == cfg.max_limit {
        transcript.push(Offer {
            round: 0,
            from_controller: true,
            proposed_limit: cfg.min_limit,
            accept: true,
        });
        return BargainOutcome {
            agreed_limit: cfg.min_limit,
            rounds: 1,
            transcript,
        };
    }

    // Controller's standing demand and switches' standing offer.
    let mut controller_demand = hi;
    let mut switch_offer = lo;
    for round in 0..cfg.max_rounds {
        let controller_turn = round % 2 == 0;
        if controller_turn {
            // Concede towards equilibrium at rate (1 - δ_c).
            controller_demand =
                equilibrium + (controller_demand - equilibrium) * cfg.controller_discount;
            let proposal = controller_demand.round().clamp(lo, hi) as u32;
            // Switches accept when the demand is no worse than what they'd
            // propose next round (discounted waiting costs them).
            let switches_next = equilibrium + (switch_offer - equilibrium) * cfg.switch_discount;
            let accept = (proposal as f64) <= switches_next.max(equilibrium) + 0.5;
            transcript.push(Offer {
                round,
                from_controller: true,
                proposed_limit: proposal,
                accept,
            });
            if accept {
                return BargainOutcome {
                    agreed_limit: proposal,
                    rounds: round + 1,
                    transcript,
                };
            }
        } else {
            switch_offer = equilibrium + (switch_offer - equilibrium) * cfg.switch_discount;
            let proposal = switch_offer.round().clamp(lo, hi) as u32;
            let controller_next =
                equilibrium + (controller_demand - equilibrium) * cfg.controller_discount;
            let accept = (proposal as f64) >= controller_next.min(equilibrium) - 0.5;
            transcript.push(Offer {
                round,
                from_controller: false,
                proposed_limit: proposal,
                accept,
            });
            if accept {
                return BargainOutcome {
                    agreed_limit: proposal,
                    rounds: round + 1,
                    transcript,
                };
            }
        }
    }
    // Horizon reached: impose the analytic agreement.
    let agreed = equilibrium.round().clamp(lo, hi) as u32;
    transcript.push(Offer {
        round: cfg.max_rounds,
        from_controller: true,
        proposed_limit: agreed,
        accept: true,
    });
    BargainOutcome {
        agreed_limit: agreed,
        rounds: cfg.max_rounds + 1,
        transcript,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn discounted(cfg: BargainConfig, controller: f64, switch: f64) -> BargainConfig {
        BargainConfig {
            controller_discount: controller,
            switch_discount: switch,
            ..cfg
        }
    }

    #[test]
    fn symmetric_patience_lands_near_midpoint_or_above() {
        // With δ_c = δ_s = δ, the first mover's share is 1/(1+δ) > 1/2.
        let cfg = discounted(BargainConfig::new(20, 100), 0.9, 0.9);
        let out = negotiate(&cfg);
        assert!(out.agreed_limit >= 55, "limit {} too low", out.agreed_limit);
        assert!(out.agreed_limit <= 100);
        assert!(out.rounds >= 1);
    }

    #[test]
    fn patient_controller_extracts_larger_groups() {
        let patient = negotiate(&discounted(BargainConfig::new(20, 100), 0.99, 0.5));
        let impatient = negotiate(&discounted(BargainConfig::new(20, 100), 0.5, 0.99));
        assert!(
            patient.agreed_limit > impatient.agreed_limit,
            "patient {} <= impatient {}",
            patient.agreed_limit,
            impatient.agreed_limit
        );
    }

    #[test]
    fn agreement_is_within_bounds() {
        for (dc, ds) in [(0.1, 0.1), (0.9, 0.1), (0.1, 0.9), (0.99, 0.99)] {
            let out = negotiate(&discounted(BargainConfig::new(30, 600), dc, ds));
            assert!(
                (30..=600).contains(&out.agreed_limit),
                "limit {} out of bounds for ({dc},{ds})",
                out.agreed_limit
            );
            // Transcript ends with the accepted offer.
            let last = out.transcript.last().unwrap();
            assert!(last.accept);
            assert_eq!(last.proposed_limit, out.agreed_limit);
        }
    }

    #[test]
    fn degenerate_interval_agrees_immediately() {
        let out = negotiate(&BargainConfig::new(46, 46));
        assert_eq!(out.agreed_limit, 46);
        assert_eq!(out.rounds, 1);
    }

    #[test]
    fn rubinstein_share_formula() {
        // δ_s → 0: first mover takes everything.
        assert!((rubinstein_share(0.9, 1e-9) - 1.0).abs() < 1e-6);
        // Symmetric δ: share = 1/(1+δ).
        let s = rubinstein_share(0.8, 0.8);
        assert!((s - 1.0 / 1.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "min_limit above max_limit")]
    fn inverted_interval_panics() {
        let _ = BargainConfig::new(10, 5);
    }

    #[test]
    fn transcript_alternates() {
        let out = negotiate(&discounted(BargainConfig::new(10, 1000), 0.95, 0.95));
        for (i, offer) in out.transcript.iter().enumerate() {
            assert_eq!(offer.round as usize, i.min(out.transcript.len() - 1));
        }
        for pair in out.transcript.windows(2) {
            if pair[1].round < out.transcript.last().unwrap().round {
                assert_ne!(pair[0].from_controller, pair[1].from_controller);
            }
        }
    }
}
