//! Deterministic, seeded fault injection for distributed simulations.
//!
//! Real federated deployments lose participants constantly: processes crash,
//! uploads vanish in the network, stragglers miss their deadline, flaky
//! nodes fail and come back. The threaded FL transport in `dinar-fl`
//! reproduces those conditions through a [`FaultPlan`]: a pure, seedable map from
//! *(node, round)* to a [`FaultKind`], consulted by the runtime at the
//! moment the node would act. Because the plan is data — not timing — the
//! same plan and seed reproduce the same failure schedule on every run and
//! at every worker-pool width, which is what lets the integration tests
//! assert bit-identical models *under* injected faults.
//!
//! The plan lives in this crate, the lowest layer that knows about
//! distributed nodes, so any node simulation shares one fault vocabulary.

use std::collections::BTreeMap;

/// Deterministic 64-bit mixer (splitmix64), shared by the seeded fault
/// generator and the Byzantine vote draws in [`crate::network`].
pub(crate) fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What happens to a node at its scheduled fault point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The node dies silently at the start of the round and never returns:
    /// no farewell message, no further participation. This is the
    /// "client thread died mid-round" condition that used to hang the
    /// threaded FL server.
    Crash,
    /// The node does its round work but its outbound message is lost (a
    /// dropped upload). The node itself stays healthy.
    DropUpdate,
    /// The node does its round work but the result arrives *after* the
    /// round it belongs to (a straggler): the runtime delivers it during
    /// the next round, where tag-checking discards it as stale.
    Delay,
    /// The node goes silent for the round without dying: it neither works
    /// nor reports. Only a round deadline can resolve a stall, so runtimes
    /// reject stall plans when no deadline is configured.
    Stall,
    /// The node fails transiently: the first `failures` attempts of the
    /// round report a retryable error, after which the node recovers and
    /// completes the round normally (if the runtime retries that often).
    Transient {
        /// Number of failed attempts before the node recovers.
        failures: u32,
    },
}

/// A deterministic schedule of injected faults, keyed by `(node, round)`.
///
/// Rounds are 1-based, matching the FL engine's round numbering. At most
/// one fault per `(node, round)` cell; inserting twice keeps the latest.
///
/// # Example
///
/// ```
/// use dinar_consensus::fault::{FaultKind, FaultPlan};
///
/// let plan = FaultPlan::new().crash(2, 3).delay(0, 1);
/// assert_eq!(plan.action(2, 3), Some(FaultKind::Crash));
/// assert_eq!(plan.action(2, 4), None);
/// assert_eq!(plan.len(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: BTreeMap<(usize, usize), FaultKind>,
    /// The seed behind a generated plan ([`FaultPlan::seeded_dropout`]);
    /// `None` for hand-built plans. Carried so benchmark rows and audit
    /// artifacts can name the exact schedule that produced them.
    seed: Option<u64>,
}

impl FaultPlan {
    /// The empty plan: no injected faults (the healthy baseline).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Schedules `kind` for `node` at `round` (replacing any previous fault
    /// in that cell).
    pub fn with_fault(mut self, node: usize, round: usize, kind: FaultKind) -> Self {
        self.faults.insert((node, round), kind);
        self
    }

    /// Schedules a silent [`FaultKind::Crash`].
    pub fn crash(self, node: usize, round: usize) -> Self {
        self.with_fault(node, round, FaultKind::Crash)
    }

    /// Schedules a lost upload ([`FaultKind::DropUpdate`]).
    pub fn drop_update(self, node: usize, round: usize) -> Self {
        self.with_fault(node, round, FaultKind::DropUpdate)
    }

    /// Schedules a straggler round ([`FaultKind::Delay`]).
    pub fn delay(self, node: usize, round: usize) -> Self {
        self.with_fault(node, round, FaultKind::Delay)
    }

    /// Schedules a silent stall ([`FaultKind::Stall`]).
    pub fn stall(self, node: usize, round: usize) -> Self {
        self.with_fault(node, round, FaultKind::Stall)
    }

    /// Schedules a fail-then-recover round ([`FaultKind::Transient`]).
    pub fn transient(self, node: usize, round: usize, failures: u32) -> Self {
        self.with_fault(node, round, FaultKind::Transient { failures })
    }

    /// The fault scheduled for `node` at `round`, if any.
    pub fn action(&self, node: usize, round: usize) -> Option<FaultKind> {
        self.faults.get(&(node, round)).copied()
    }

    /// The seed this plan was generated from, when it came from a seeded
    /// generator like [`FaultPlan::seeded_dropout`] — `None` for hand-built
    /// plans. Lets telemetry make fault-injected runs self-describing.
    pub fn seed(&self) -> Option<u64> {
        self.seed
    }

    /// `true` if no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Iterates the schedule in `(node, round)` order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, FaultKind)> + '_ {
        self.faults.iter().map(|(&(n, r), &k)| (n, r, k))
    }

    /// `true` if any scheduled fault is of `kind` (ignoring payloads for
    /// [`FaultKind::Transient`]).
    pub fn contains_kind(&self, kind: FaultKind) -> bool {
        self.faults.values().any(|&k| {
            std::mem::discriminant(&k) == std::mem::discriminant(&kind)
        })
    }

    /// A seeded independent-dropout schedule: each of `nodes × rounds`
    /// cells receives a [`FaultKind::DropUpdate`] with probability `rate`,
    /// decided by a splitmix64 stream — the same `(seed, nodes, rounds,
    /// rate)` always yields the same plan. `rate` is clamped to `[0, 1]`.
    ///
    /// This models the uniform per-round client dropout studied by the
    /// partial-participation FL literature; the dropout bench sweeps `rate`
    /// against accuracy and rounds-to-converge.
    pub fn seeded_dropout(seed: u64, nodes: usize, rounds: usize, rate: f64) -> Self {
        let rate = rate.clamp(0.0, 1.0);
        // Map the top 53 bits to [0, 1), the standard uniform construction.
        let scale = 1.0 / (1u64 << 53) as f64;
        let mut state = seed ^ 0xD0_5E_ED;
        let mut plan = FaultPlan::new();
        for round in 1..=rounds {
            for node in 0..nodes {
                let u = (splitmix(&mut state) >> 11) as f64 * scale;
                if u < rate {
                    plan.faults.insert((node, round), FaultKind::DropUpdate);
                }
            }
        }
        plan.seed = Some(seed);
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_schedules_and_queries() {
        let plan = FaultPlan::new()
            .crash(1, 2)
            .drop_update(0, 1)
            .delay(2, 2)
            .stall(3, 1)
            .transient(4, 5, 2);
        assert_eq!(plan.len(), 5);
        assert_eq!(plan.action(1, 2), Some(FaultKind::Crash));
        assert_eq!(plan.action(0, 1), Some(FaultKind::DropUpdate));
        assert_eq!(plan.action(2, 2), Some(FaultKind::Delay));
        assert_eq!(plan.action(3, 1), Some(FaultKind::Stall));
        assert_eq!(plan.action(4, 5), Some(FaultKind::Transient { failures: 2 }));
        assert_eq!(plan.action(4, 4), None);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn later_insert_replaces_earlier() {
        let plan = FaultPlan::new().crash(0, 1).delay(0, 1);
        assert_eq!(plan.action(0, 1), Some(FaultKind::Delay));
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn contains_kind_ignores_payload() {
        let plan = FaultPlan::new().transient(0, 1, 3);
        assert!(plan.contains_kind(FaultKind::Transient { failures: 99 }));
        assert!(!plan.contains_kind(FaultKind::Stall));
    }

    #[test]
    fn seeded_dropout_is_deterministic() {
        let a = FaultPlan::seeded_dropout(7, 10, 20, 0.3);
        let b = FaultPlan::seeded_dropout(7, 10, 20, 0.3);
        assert_eq!(a, b);
        let c = FaultPlan::seeded_dropout(8, 10, 20, 0.3);
        assert_ne!(a, c, "different seeds should differ at rate 0.3");
    }

    #[test]
    fn seeded_plans_carry_their_seed_and_built_plans_do_not() {
        assert_eq!(FaultPlan::seeded_dropout(7, 10, 20, 0.3).seed(), Some(7));
        assert_eq!(FaultPlan::new().crash(0, 1).seed(), None);
    }

    #[test]
    fn seeded_dropout_rate_extremes() {
        assert!(FaultPlan::seeded_dropout(1, 5, 5, 0.0).is_empty());
        let all = FaultPlan::seeded_dropout(1, 5, 5, 1.0);
        assert_eq!(all.len(), 25);
        assert!(all
            .iter()
            .all(|(_, _, k)| k == FaultKind::DropUpdate));
    }

    #[test]
    fn seeded_dropout_rate_is_approximately_respected() {
        let plan = FaultPlan::seeded_dropout(42, 50, 100, 0.2);
        let frac = plan.len() as f64 / 5000.0;
        assert!((frac - 0.2).abs() < 0.03, "empirical rate {frac}");
    }

    #[test]
    fn iter_is_sorted_by_node_then_round() {
        let plan = FaultPlan::new().crash(2, 1).crash(0, 5).crash(0, 2);
        let cells: Vec<(usize, usize)> = plan.iter().map(|(n, r, _)| (n, r)).collect();
        assert_eq!(cells, vec![(0, 2), (0, 5), (2, 1)]);
    }
}
