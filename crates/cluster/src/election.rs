//! Term-based leader election for the controller cluster.
//!
//! Historically the plane derived its leader as "lowest live member id" —
//! a rule that two members can transiently disagree on during the window
//! between a crash and its confirmation, which is exactly the kind of gap
//! a model checker turns into a counterexample. This module replaces it
//! with a small Raft-style election over the plane's existing peer links:
//!
//! * Every state transition is keyed by a monotonically increasing
//!   **term**. A member grants at most one vote per term, and a candidate
//!   becomes leader only with a strict majority of the *static* cluster
//!   size — so two leaders can never coexist in one term.
//! * Leadership is advertised by piggybacking `(term, leader)` on the
//!   existing heartbeats; followers stand for election only after
//!   [`ELECTION_TIMEOUT_MS`](crate::plane::ELECTION_TIMEOUT_MS)
//!   without hearing a *leader* heartbeat, with a per-member stagger so
//!   concurrent timeouts don't split votes forever.
//!
//! The struct here is pure bookkeeping — message emission and timer
//! plumbing live in [`plane`](crate::plane), which keeps this half
//! trivially unit-testable and lets the model checker reuse the exact
//! same transition code.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

/// A member's current role in the election protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ElectionRole {
    /// Passive: applies transfers and claims from the current leader.
    Follower,
    /// Standing for election in the current term.
    Candidate,
    /// Won a majority in the current term.
    Leader,
}

/// Per-member election bookkeeping (term, role, votes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElectionState {
    /// Highest term this member has seen.
    pub term: u64,
    /// Current role within [`term`](Self::term).
    pub role: ElectionRole,
    /// Who received this member's vote in the current term, if anyone.
    pub voted_for: Option<u32>,
    /// Members that granted us a vote this term (candidates only).
    pub votes: BTreeSet<u32>,
    /// The leader this member currently believes in, if any.
    pub known_leader: Option<u32>,
    /// When a heartbeat (or claim) from a *leader* was last heard (ns).
    /// Follower heartbeats do not refresh this — only evidence that a
    /// leader is actually alive suppresses candidacy.
    pub last_leader_hb_ns: u64,
}

impl ElectionState {
    /// The agreed bootstrap state: every member starts term 1 believing
    /// member 0 leads (bootstrap is a synchronous, fault-free step, so
    /// assuming consensus there is sound — the checker starts after it).
    pub fn bootstrap_consensus(id: u32, now_ns: u64) -> Self {
        ElectionState {
            term: 1,
            role: if id == 0 {
                ElectionRole::Leader
            } else {
                ElectionRole::Follower
            },
            voted_for: Some(0),
            votes: BTreeSet::new(),
            known_leader: Some(0),
            last_leader_hb_ns: now_ns,
        }
    }

    /// Adopts a newer term, stepping down to follower. Returns true if the
    /// term advanced (the caller's per-term state is then stale).
    pub fn observe_term(&mut self, term: u64) -> bool {
        if term <= self.term {
            return false;
        }
        self.term = term;
        self.role = ElectionRole::Follower;
        self.voted_for = None;
        self.votes.clear();
        self.known_leader = None;
        true
    }

    /// Opens a new term with this member as candidate (votes for itself).
    pub fn start_candidacy(&mut self, id: u32) {
        self.term += 1;
        self.role = ElectionRole::Candidate;
        self.voted_for = Some(id);
        self.votes = BTreeSet::from([id]);
        self.known_leader = None;
    }

    /// Whether to grant `candidate` a vote in `term` (at most one grant
    /// per term; repeat requests from the same candidate re-grant, so a
    /// duplicated or retried request cannot deadlock an election).
    pub fn grant_vote(&mut self, term: u64, candidate: u32) -> bool {
        self.observe_term(term);
        if term < self.term {
            return false;
        }
        match self.voted_for {
            None => {
                self.voted_for = Some(candidate);
                true
            }
            Some(v) => v == candidate,
        }
    }

    /// Records a granted vote from `from` in the current term.
    pub fn record_grant(&mut self, from: u32) {
        if self.role == ElectionRole::Candidate {
            self.votes.insert(from);
        }
    }

    /// Strict majority of the static cluster size.
    pub fn has_majority(&self, cluster_size: usize) -> bool {
        self.votes.len() * 2 > cluster_size
    }

    /// Assumes leadership of the current term.
    pub fn become_leader(&mut self, id: u32) {
        self.role = ElectionRole::Leader;
        self.known_leader = Some(id);
    }

    /// Accepts `leader` as the leader of `term` if the claim is at least
    /// as recent as our term. Returns true if accepted. An equal-term
    /// claim is ignored while we are leader ourselves: with majority
    /// elections that situation is unreachable, and silently deferring
    /// would mask the very violation the model checker watches for.
    pub fn accept_leader(&mut self, term: u64, leader: u32, now_ns: u64) -> bool {
        if term < self.term || (term == self.term && self.role == ElectionRole::Leader) {
            return false;
        }
        self.observe_term(term);
        self.role = ElectionRole::Follower;
        self.known_leader = Some(leader);
        self.last_leader_hb_ns = now_ns;
        true
    }

    /// Lease-loss demotion: a leader that can no longer prove contact
    /// with a voting majority relinquishes the role without touching the
    /// term or the per-term vote (granting twice in one term would break
    /// safety). `last_leader_hb_ns` stays stale, so once majority
    /// contact resumes the ordinary election machinery takes over.
    pub fn relinquish_leadership(&mut self) {
        self.role = ElectionRole::Follower;
        self.votes.clear();
        self.known_leader = None;
    }

    /// Post-restart demotion: a recovered member must re-earn leadership
    /// through an election rather than resume a stale claim. The per-term
    /// vote is kept (granting twice in one term would break safety), and
    /// `last_leader_hb_ns` is kept stale so the election timer fires if no
    /// live leader is heard.
    pub fn step_down_after_restart(&mut self) {
        self.role = ElectionRole::Follower;
        self.votes.clear();
        self.known_leader = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bootstrap_agrees_on_member_zero() {
        let a = ElectionState::bootstrap_consensus(0, 5);
        let b = ElectionState::bootstrap_consensus(3, 5);
        assert_eq!(a.role, ElectionRole::Leader);
        assert_eq!(b.role, ElectionRole::Follower);
        assert_eq!((a.term, b.term), (1, 1));
        assert_eq!(b.known_leader, Some(0));
    }

    #[test]
    fn one_vote_per_term() {
        let mut s = ElectionState::bootstrap_consensus(2, 0);
        assert!(
            s.grant_vote(2, 1),
            "first request in a new term wins the vote"
        );
        assert!(
            !s.grant_vote(2, 3),
            "second candidate in the same term is refused"
        );
        assert!(
            s.grant_vote(2, 1),
            "retry from the granted candidate re-grants"
        );
        assert!(!s.grant_vote(1, 3), "stale-term request is refused");
    }

    #[test]
    fn majority_is_strict() {
        let mut s = ElectionState::bootstrap_consensus(1, 0);
        s.start_candidacy(1);
        assert!(!s.has_majority(3), "own vote alone is not a majority of 3");
        s.record_grant(2);
        assert!(s.has_majority(3));
        assert!(!s.has_majority(4), "2 of 4 is a split, not a majority");
    }

    #[test]
    fn newer_term_steps_a_leader_down() {
        let mut s = ElectionState::bootstrap_consensus(0, 0);
        assert_eq!(s.role, ElectionRole::Leader);
        assert!(s.observe_term(2));
        assert_eq!(s.role, ElectionRole::Follower);
        assert_eq!(s.known_leader, None);
        assert!(!s.observe_term(2), "same term is not an advance");
    }

    #[test]
    fn equal_term_claim_does_not_demote_a_leader() {
        let mut s = ElectionState::bootstrap_consensus(1, 0);
        s.start_candidacy(1); // term 2
        s.record_grant(0);
        s.become_leader(1);
        assert!(!s.accept_leader(2, 0, 9));
        assert_eq!(s.role, ElectionRole::Leader);
        assert!(s.accept_leader(3, 0, 9), "a newer-term claim always wins");
        assert_eq!(s.known_leader, Some(0));
    }

    #[test]
    fn lease_loss_demotes_within_the_same_term() {
        let mut s = ElectionState::bootstrap_consensus(0, 0);
        assert_eq!(s.role, ElectionRole::Leader);
        s.relinquish_leadership();
        assert_eq!(s.role, ElectionRole::Follower);
        assert_eq!(s.term, 1, "relinquishing must not open a new term");
        assert_eq!(s.voted_for, Some(0), "per-term vote survives");
        assert!(!s.grant_vote(1, 2), "so a same-term rival is still refused");
    }

    #[test]
    fn restart_demotes_but_keeps_the_term_vote() {
        let mut s = ElectionState::bootstrap_consensus(0, 0);
        s.step_down_after_restart();
        assert_eq!(s.role, ElectionRole::Follower);
        assert_eq!(s.voted_for, Some(0), "per-term vote survives the restart");
        assert!(!s.grant_vote(1, 2), "so a same-term rival is still refused");
    }
}
