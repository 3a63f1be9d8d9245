//! Deterministic fault injection for the serving stack.
//!
//! A [`FaultPlan`] is a time-sorted list of [`FaultEvent`]s that
//! [`run_policy_faulted`](crate::scheduler::run_policy_faulted) (and
//! therefore [`ServingEngine::serve_online`](crate::engine::ServingEngine::serve_online)
//! when a plan is attached via
//! [`EngineBuilder::fault_plan`](crate::engine::EngineBuilder::fault_plan))
//! consumes mid-run:
//!
//! * **Rank failure / repair** — a dead rank loses its slice of every
//!   sequence's KV, so every in-flight request is re-queued for
//!   recompute-prefill under the bounded [`RetryPolicy`] and the prefix
//!   cache is emptied; capacity is re-planned around the survivors and
//!   best-effort traffic is shed (SLO-aware brownout) until repair;
//! * **Link degradation** — tensor/pipeline communication slows by a
//!   factor for a window: the step's communication share is multiplied by
//!   it (transfer time is linear in inverse bandwidth);
//! * **KV page-out stall** — the engine blocks on a host-memory transfer;
//! * **Corrupted decode frame** — a compressed weight frame fails its
//!   checksum (see the `zipserv_entropy` codecs) and is re-fetched from
//!   the host copy.
//!
//! Plans are plain data and deterministic: the same plan over the same
//! arrivals yields bit-identical reports, and the *empty* plan leaves
//! every fault book at its identity, so it changes no report (pinned by
//! the `fault_recovery` suite).

use crate::scheduler::UniformStream;
use std::collections::BTreeSet;

/// One kind of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// A rank (GPU) dies: its KV shard is lost and its compute capacity is
    /// re-planned away until a matching [`FaultKind::RankRepair`].
    RankFail {
        /// Flat rank index into the `tp × pp` grid (`stage * tp + lane`).
        rank: usize,
    },
    /// A previously failed rank comes back with an empty KV shard.
    RankRepair {
        /// Flat rank index of the rank being repaired.
        rank: usize,
    },
    /// Inter-GPU communication (all-reduce and pipeline hops) slows down
    /// by `factor` for `duration_s` simulated seconds.
    LinkDegrade {
        /// Multiplier on communication time (clamped to at least 1.0).
        factor: f64,
        /// How long the degradation lasts, in simulated seconds.
        duration_s: f64,
    },
    /// The engine stalls on a KV host-memory transfer (e.g. page-out
    /// contention) for `stall_s` simulated seconds.
    KvStall {
        /// Stall length in simulated seconds.
        stall_s: f64,
    },
    /// `frames` compressed weight frames fail their decode checksum and
    /// must be re-fetched from the host copy (each costs
    /// [`ServingEngine::frame_refetch_s`](crate::engine::ServingEngine::frame_refetch_s)).
    CorruptFrame {
        /// Number of corrupted frames detected.
        frames: u32,
    },
}

/// A [`FaultKind`] scheduled at a point in simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault strikes, in simulated seconds.
    pub at_s: f64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, time-sorted schedule of faults for one serving run.
///
/// The default (empty) plan injects nothing and is bit-compatible with the
/// fault-free scheduler. Build plans with the chainable helpers
/// ([`FaultPlan::rank_fail`] etc.) or generate a random-but-reproducible
/// one with [`FaultPlan::seeded`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan: no faults, bit-identical reports.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The events, sorted by time (stable for ties).
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Inserts an event, keeping the schedule time-sorted (ties keep
    /// insertion order).
    ///
    /// # Panics
    ///
    /// Panics if `at_s` is negative or not finite, or if the kind carries
    /// an invalid parameter (non-finite or negative duration/stall, a
    /// degradation factor below 1.0, zero corrupted frames).
    pub fn push(&mut self, at_s: f64, kind: FaultKind) {
        assert!(
            at_s.is_finite() && at_s >= 0.0,
            "fault time must be finite and non-negative"
        );
        match kind {
            FaultKind::LinkDegrade { factor, duration_s } => {
                assert!(
                    factor.is_finite() && factor >= 1.0,
                    "link factor must be >= 1"
                );
                assert!(
                    duration_s.is_finite() && duration_s > 0.0,
                    "degrade window must be positive"
                );
            }
            FaultKind::KvStall { stall_s } => {
                assert!(
                    stall_s.is_finite() && stall_s >= 0.0,
                    "stall must be finite and non-negative"
                );
            }
            FaultKind::CorruptFrame { frames } => {
                assert!(frames > 0, "a corruption event needs at least one frame");
            }
            FaultKind::RankFail { .. } | FaultKind::RankRepair { .. } => {}
        }
        let pos = self.events.partition_point(|e| e.at_s <= at_s);
        self.events.insert(pos, FaultEvent { at_s, kind });
    }

    /// Chainable [`FaultKind::RankFail`] at `at_s`.
    pub fn rank_fail(mut self, at_s: f64, rank: usize) -> Self {
        self.push(at_s, FaultKind::RankFail { rank });
        self
    }

    /// Chainable [`FaultKind::RankRepair`] at `at_s`.
    pub fn rank_repair(mut self, at_s: f64, rank: usize) -> Self {
        self.push(at_s, FaultKind::RankRepair { rank });
        self
    }

    /// Chainable [`FaultKind::LinkDegrade`] at `at_s`.
    pub fn link_degrade(mut self, at_s: f64, factor: f64, duration_s: f64) -> Self {
        self.push(at_s, FaultKind::LinkDegrade { factor, duration_s });
        self
    }

    /// Chainable [`FaultKind::KvStall`] at `at_s`.
    pub fn kv_stall(mut self, at_s: f64, stall_s: f64) -> Self {
        self.push(at_s, FaultKind::KvStall { stall_s });
        self
    }

    /// Chainable [`FaultKind::CorruptFrame`] at `at_s`.
    pub fn corrupt_frame(mut self, at_s: f64, frames: u32) -> Self {
        self.push(at_s, FaultKind::CorruptFrame { frames });
        self
    }

    /// A reproducible random plan over a run of roughly `horizon_s`
    /// simulated seconds on a deployment of `ranks` ranks: one rank
    /// failure in the middle of the horizon with a repair later, plus —
    /// depending on the seed — a link-degradation window, a KV stall, and
    /// a burst of corrupted frames. The same seed always produces the
    /// same plan (xorshift64, the crate-wide generator).
    ///
    /// # Panics
    ///
    /// Panics if `horizon_s` is not strictly positive or `ranks` is zero.
    pub fn seeded(seed: u64, horizon_s: f64, ranks: usize) -> Self {
        assert!(horizon_s > 0.0, "horizon must be positive");
        assert!(ranks > 0, "deployment needs at least one rank");
        // Splitmix64 finalizer: the raw stream seeds with `seed | 1`, which
        // would collide adjacent even/odd seeds; mixing first keeps every
        // seed distinct without touching the shared generator.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let mut u = UniformStream::new(z);
        let rank = (u.next() * ranks as f64) as usize % ranks;
        let fail_at = (0.2 + 0.4 * u.next()) * horizon_s;
        let repair_at = fail_at + (0.1 + 0.2 * u.next()) * horizon_s;
        let mut plan = FaultPlan::new()
            .rank_fail(fail_at, rank)
            .rank_repair(repair_at, rank);
        if u.next() < 0.5 {
            let at = (0.1 + 0.5 * u.next()) * horizon_s;
            plan = plan.link_degrade(at, 1.5 + 2.0 * u.next(), 0.1 * horizon_s);
        }
        if u.next() < 0.5 {
            plan = plan.kv_stall((0.1 + 0.8 * u.next()) * horizon_s, 0.02 * horizon_s);
        }
        if u.next() < 0.5 {
            let frames = 1 + (u.next() * 4.0) as u32;
            plan = plan.corrupt_frame((0.1 + 0.8 * u.next()) * horizon_s, frames);
        }
        plan
    }
}

/// Bounded retry-with-backoff applied to fault victims: a request killed
/// by a rank failure is re-queued at most `max_retries` times, each time
/// waiting out an exponentially growing backoff before it becomes
/// eligible for re-admission; past the cap it is rejected with
/// [`RejectReason::RetriesExhausted`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Times a request may be re-queued by faults before rejection.
    pub max_retries: u32,
    /// Backoff before the first re-admission attempt, in simulated seconds.
    pub base_backoff_s: f64,
    /// Multiplier applied to the backoff per additional retry.
    pub multiplier: f64,
}

impl Default for RetryPolicy {
    /// Three retries, 50 ms base backoff, doubling per retry.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff_s: 0.05,
            multiplier: 2.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff before retry number `attempt` (1-based): `base ×
    /// multiplier^(attempt−1)`; zero for `attempt == 0` (a fresh request
    /// waits for nothing).
    pub fn delay_s(&self, attempt: u32) -> f64 {
        if attempt == 0 {
            return 0.0;
        }
        self.base_backoff_s * self.multiplier.powi(attempt as i32 - 1)
    }
}

/// Why a request was rejected instead of served.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RejectReason {
    /// Lifetime KV demand exceeds the deployment's capacity even alone.
    Oversized,
    /// A fault victim exhausted its [`RetryPolicy`] budget.
    RetriesExhausted,
    /// Best-effort (Batch-class) traffic shed while a rank is down.
    BrownoutShed,
    /// Degraded capacity can no longer hold the request and no repair is
    /// scheduled.
    CapacityLost,
    /// The policy held admission on an idle engine with nothing left to
    /// wake it (previously a panic; now a typed rejection).
    PolicyHold,
}

impl RejectReason {
    /// Short machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            RejectReason::Oversized => "oversized",
            RejectReason::RetriesExhausted => "retries-exhausted",
            RejectReason::BrownoutShed => "brownout-shed",
            RejectReason::CapacityLost => "capacity-lost",
            RejectReason::PolicyHold => "policy-hold",
        }
    }
}

impl core::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A rejected request with its reason — the typed face of
/// [`ScheduleReport::rejected`](crate::scheduler::ScheduleReport::rejected).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// Request id.
    pub id: u64,
    /// Why it was rejected.
    pub reason: RejectReason,
}

/// Mutable fault state threaded through the scheduler loop. Its times
/// are on the scheduler's nanosecond clock.
#[derive(Debug, Clone)]
pub(crate) struct FaultState {
    /// Ranks in the deployment.
    pub total_ranks: usize,
    /// Currently dead ranks.
    pub dead: BTreeSet<usize>,
    /// Current communication slowdown (1.0 when links are healthy).
    pub link_factor: f64,
    /// When the current link degradation expires (ns).
    pub link_until: i64,
    /// When the deployment last transitioned from healthy to degraded (ns).
    pub degraded_since: i64,
}

impl FaultState {
    pub(crate) fn new(total_ranks: usize) -> Self {
        FaultState {
            total_ranks: total_ranks.max(1),
            dead: BTreeSet::new(),
            link_factor: 1.0,
            link_until: 0,
            degraded_since: 0,
        }
    }

    /// Ranks currently alive.
    pub(crate) fn alive(&self) -> usize {
        self.total_ranks - self.dead.len()
    }

    /// No dead ranks and no degraded link.
    pub(crate) fn is_clean(&self) -> bool {
        self.dead.is_empty() && self.link_factor == 1.0
    }

    /// Compute slowdown when survivors absorb the dead ranks' work.
    ///
    /// Callers must not invoke this with every rank dead (nothing can be
    /// scheduled then, so the loop never does).
    pub(crate) fn compute_slowdown(&self) -> f64 {
        self.total_ranks as f64 / self.alive().max(1) as f64
    }

    /// KV capacity re-planned around the dead ranks (integer scaling, so
    /// the clean path stays exact).
    pub(crate) fn scaled_capacity(&self, capacity: u64) -> u64 {
        capacity * self.alive() as u64 / self.total_ranks as u64
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    #[test]
    fn plan_keeps_events_time_sorted() {
        let plan = FaultPlan::new()
            .kv_stall(5.0, 0.1)
            .rank_fail(1.0, 0)
            .rank_repair(3.0, 0)
            .corrupt_frame(1.0, 2);
        let times: Vec<f64> = plan.events().iter().map(|e| e.at_s).collect();
        assert_eq!(times, vec![1.0, 1.0, 3.0, 5.0]);
        // Ties keep insertion order: the fail precedes the corruption.
        assert!(matches!(plan.events()[0].kind, FaultKind::RankFail { .. }));
        assert!(matches!(
            plan.events()[1].kind,
            FaultKind::CorruptFrame { .. }
        ));
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
        assert!(FaultPlan::new().is_empty());
    }

    #[test]
    fn seeded_plans_are_deterministic_and_bounded() {
        let a = FaultPlan::seeded(42, 10.0, 4);
        let b = FaultPlan::seeded(42, 10.0, 4);
        assert_eq!(a, b, "same seed, same plan");
        assert_ne!(a, FaultPlan::seeded(43, 10.0, 4), "different seed differs");
        // Always at least the fail/repair pair, always in range and order.
        let fails: Vec<&FaultEvent> = a
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::RankFail { .. }))
            .collect();
        assert_eq!(fails.len(), 1);
        let FaultKind::RankFail { rank } = fails[0].kind else {
            unreachable!()
        };
        assert!(rank < 4);
        let repair = a
            .events()
            .iter()
            .find(|e| matches!(e.kind, FaultKind::RankRepair { .. }))
            .unwrap();
        assert!(repair.at_s > fails[0].at_s, "repair strictly after failure");
        for e in a.events() {
            assert!(e.at_s >= 0.0 && e.at_s < 20.0);
        }
    }

    #[test]
    fn retry_backoff_grows_exponentially() {
        let r = RetryPolicy::default();
        assert_eq!(r.delay_s(0), 0.0);
        assert!((r.delay_s(1) - 0.05).abs() < 1e-12);
        assert!((r.delay_s(2) - 0.10).abs() < 1e-12);
        assert!((r.delay_s(3) - 0.20).abs() < 1e-12);
        let flat = RetryPolicy {
            max_retries: 2,
            base_backoff_s: 1.0,
            multiplier: 1.0,
        };
        assert_eq!(flat.delay_s(1), flat.delay_s(2));
    }

    #[test]
    fn fault_state_accounting() {
        let mut s = FaultState::new(4);
        assert!(s.is_clean());
        assert_eq!(s.scaled_capacity(1000), 1000);
        s.dead.insert(2);
        assert!(!s.is_clean());
        assert_eq!(s.alive(), 3);
        assert_eq!(s.scaled_capacity(1000), 750);
        assert!((s.compute_slowdown() - 4.0 / 3.0).abs() < 1e-12);
        s.dead.clear();
        s.link_factor = 2.0;
        assert!(!s.is_clean(), "a degraded link is not clean");
    }

    #[test]
    fn reject_reasons_name_themselves() {
        assert_eq!(RejectReason::Oversized.to_string(), "oversized");
        assert_eq!(RejectReason::RetriesExhausted.name(), "retries-exhausted");
        assert_eq!(RejectReason::BrownoutShed.name(), "brownout-shed");
        assert_eq!(RejectReason::CapacityLost.name(), "capacity-lost");
        assert_eq!(RejectReason::PolicyHold.name(), "policy-hold");
    }

    #[test]
    #[should_panic(expected = "link factor")]
    fn speedup_factor_rejected() {
        let _ = FaultPlan::new().link_degrade(1.0, 0.5, 1.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_time_rejected() {
        let _ = FaultPlan::new().rank_fail(-1.0, 0);
    }
}
