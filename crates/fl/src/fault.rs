//! Fault-tolerance policy for the threaded transport.
//!
//! The paper's cross-silo protocol (§2.1) assumes every selected client
//! returns an update each round; real deployments do not get that luxury.
//! This module defines how the threaded engine degrades when clients fail:
//!
//! * a per-round **deadline** ([`RoundPolicy::deadline`]) bounds how long
//!   the server waits for stragglers, budgeted by the injectable
//!   [`Clock`](crate::clock::Clock) so replay tests stay deterministic;
//! * a **quorum** ([`Quorum`]) decides whether the updates that *did*
//!   arrive are enough to aggregate — FedAvg is sample-weighted, so a
//!   partial aggregate renormalizes gracefully over the arrived subset;
//! * a **retry policy** ([`RetryPolicy`]) re-dispatches transiently failed
//!   clients a bounded number of times, extending the round deadline by a
//!   backoff per retry;
//! * a **fault plan** ([`FaultPlan`], shared with `dinar-consensus`)
//!   injects deterministic crash / drop / delay / stall / fail-then-recover
//!   faults so every failure path is testable bit-for-bit.
//!
//! The default policy ([`RoundPolicy::default`]) is the faithful §2.1
//! protocol: no deadline, full quorum, no retries, no faults — with the one
//! crucial difference that a dead client now surfaces as
//! [`FlError::ClientFailure`](crate::FlError::ClientFailure) instead of
//! hanging the server forever.

pub use dinar_consensus::fault::{FaultKind, FaultPlan};
use std::time::Duration;

/// Minimum number of client updates a round must collect to aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Quorum {
    /// Every client must report (the paper's full-participation protocol).
    All,
    /// At least this many updates (clamped to ≥ 1).
    AtLeast(usize),
    /// At least `⌈fraction · clients⌉` updates (clamped to `[1, clients]`).
    Fraction(f64),
}

impl Quorum {
    /// The number of updates required out of `clients` total.
    pub fn required(&self, clients: usize) -> usize {
        match *self {
            Quorum::All => clients,
            Quorum::AtLeast(q) => q.max(1),
            Quorum::Fraction(f) => {
                let need = (f.clamp(0.0, 1.0) * clients as f64).ceil();
                (need as usize).clamp(1, clients.max(1))
            }
        }
    }
}

impl Default for Quorum {
    fn default() -> Self {
        Quorum::All
    }
}

/// Bounded retry with deadline-extending backoff for transient client
/// failures.
///
/// When a client reports a transient failure, the server re-dispatches the
/// round to it up to `max_retries` times and extends the round deadline by
/// `backoff` per retry (the simulation's analogue of waiting out an
/// exponential backoff — the collection loop keeps serving other clients
/// instead of sleeping).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryPolicy {
    /// Maximum retry attempts per client per round (0 = fail fast).
    pub max_retries: u32,
    /// Deadline extension granted per retry.
    pub backoff: Duration,
}

impl RetryPolicy {
    /// A policy of `max_retries` immediate retries (zero backoff).
    pub fn retries(max_retries: u32) -> Self {
        RetryPolicy {
            max_retries,
            backoff: Duration::ZERO,
        }
    }
}

/// The complete fault-tolerance configuration of a threaded run.
#[derive(Debug, Clone, Default)]
pub struct RoundPolicy {
    /// Per-round collection deadline, measured on the run's [`Clock`]
    /// from the round's first broadcast. `None` waits until every
    /// outstanding client is *accounted for* (update, fault notice, or
    /// detected death) — it never spins on a silent stall, which is why
    /// [`FaultKind::Stall`] plans require a deadline.
    ///
    /// [`Clock`]: crate::clock::Clock
    pub deadline: Option<Duration>,
    /// Minimum updates required to aggregate the round.
    pub quorum: Quorum,
    /// Retry policy for transient client failures.
    pub retry: RetryPolicy,
    /// Injected fault schedule (empty = healthy run).
    pub faults: FaultPlan,
}

impl RoundPolicy {
    /// The strict full-participation policy (no deadline, full quorum,
    /// no retries, no faults) — behaviourally identical to the in-process
    /// engine on a healthy system.
    pub fn strict() -> Self {
        RoundPolicy::default()
    }

    /// A lenient policy: aggregate whatever arrived as long as `quorum`
    /// clients reported, with `deadline` bounding the wait.
    pub fn with_quorum(quorum: Quorum, deadline: Option<Duration>) -> Self {
        RoundPolicy {
            deadline,
            quorum,
            ..RoundPolicy::default()
        }
    }

    /// Replaces the fault plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }
}

/// Per-round fault accounting reported by the resilient transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundFaultStats {
    /// Round number (1-based, absolute).
    pub round: usize,
    /// Updates actually aggregated this round.
    pub participants: usize,
    /// Clients that contributed nothing this round (crashed, dropped,
    /// delayed, stalled past the deadline, or exhausted their retries).
    pub clients_dropped: usize,
    /// Retry dispatches issued for transient failures.
    pub clients_retried: usize,
    /// Stale (wrong-round) updates discarded by the tag check.
    pub stale_discarded: usize,
    /// Whether the collection deadline expired with clients outstanding.
    pub deadline_expired: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quorum_required_math() {
        assert_eq!(Quorum::All.required(5), 5);
        assert_eq!(Quorum::AtLeast(3).required(5), 3);
        assert_eq!(Quorum::AtLeast(0).required(5), 1);
        assert_eq!(Quorum::Fraction(0.5).required(5), 3); // ceil(2.5)
        assert_eq!(Quorum::Fraction(0.0).required(5), 1);
        assert_eq!(Quorum::Fraction(1.0).required(5), 5);
        assert_eq!(Quorum::Fraction(2.0).required(5), 5); // clamped
    }

    #[test]
    fn default_policy_is_strict_full_participation() {
        let p = RoundPolicy::default();
        assert_eq!(p.deadline, None);
        assert_eq!(p.quorum, Quorum::All);
        assert_eq!(p.retry.max_retries, 0);
        assert!(p.faults.is_empty());
    }

    #[test]
    fn builders_compose() {
        let p = RoundPolicy::with_quorum(Quorum::AtLeast(2), Some(Duration::from_secs(1)))
            .with_retry(RetryPolicy::retries(3))
            .with_faults(FaultPlan::new().crash(0, 1));
        assert_eq!(p.quorum, Quorum::AtLeast(2));
        assert_eq!(p.deadline, Some(Duration::from_secs(1)));
        assert_eq!(p.retry.max_retries, 3);
        assert_eq!(p.faults.len(), 1);
    }
}
