//! Serving metrics: the latency/throughput reports of Figure 16, the
//! per-step breakdown of Figure 17, and the per-class scheduling summaries
//! behind [`crate::scheduler::ScheduleReport`].

use crate::policy::PriorityClass;
use crate::scheduler::Completion;

/// Percentile (`q` in `[0, 1]`) of a finite sample, nearest-rank (ceil
/// convention) on the sorted values: the smallest value with at least
/// `q · n` of the sample at or below it. Returns `None` for an empty sample
/// instead of panicking — the scheduler's report methods all route through
/// here.
///
/// The previous implementation `round()`ed the rank, which biased small
/// samples upward: the p50 of two elements picked the *upper* one, and p90
/// over a handful of requests collapsed onto the max one sample earlier
/// than nearest-rank prescribes. The ceil convention is the standard
/// nearest-rank definition (and what NumPy's `method="inverted_cdf"`
/// computes).
///
/// # Panics
///
/// Panics if `q` is out of range or a value is not finite.
pub fn percentile(values: impl IntoIterator<Item = f64>, q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q), "percentile in [0,1]");
    let mut v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    // 1-based nearest rank, clamped to [1, n] so q = 0 reads the minimum.
    let rank = (q * v.len() as f64).ceil() as usize;
    Some(v[rank.clamp(1, v.len()) - 1])
}

/// Fraction of SLO-carrying completions that met their SLO, or `None` when
/// none carried one — the single definition behind both the aggregate
/// [`ScheduleReport::slo_attainment`](crate::scheduler::ScheduleReport::slo_attainment)
/// and the per-class [`ClassStats`] figure.
pub fn slo_attainment<'a>(completions: impl IntoIterator<Item = &'a Completion>) -> Option<f64> {
    let judged: Vec<bool> = completions.into_iter().filter_map(|c| c.slo_met).collect();
    if judged.is_empty() {
        return None;
    }
    Some(judged.iter().filter(|&&m| m).count() as f64 / judged.len() as f64)
}

/// Scheduling outcomes for one priority class within a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClassStats {
    /// The priority class summarized.
    pub class: PriorityClass,
    /// Completions in this class.
    pub count: usize,
    /// Median end-to-end latency (s).
    pub p50_latency_s: f64,
    /// 99th-percentile end-to-end latency (s).
    pub p99_latency_s: f64,
    /// Median time-to-first-token (s).
    pub p50_ttft_s: f64,
    /// 99th-percentile time-to-first-token (s).
    pub p99_ttft_s: f64,
    /// Mean queueing delay before first admission (s).
    pub mean_queue_s: f64,
    /// Total preemptions suffered by this class.
    pub preemptions: u64,
    /// SLO attainment within the class (`None` if no request carried one).
    pub slo_attainment: Option<f64>,
}

impl ClassStats {
    /// Summarizes the completions of one class; `None` when empty.
    pub fn from_completions<'a>(
        class: PriorityClass,
        completions: impl IntoIterator<Item = &'a Completion>,
    ) -> Option<ClassStats> {
        let cs: Vec<&Completion> = completions.into_iter().collect();
        if cs.is_empty() {
            return None;
        }
        let lat = |q| percentile(cs.iter().map(|c| c.latency_s), q).expect("non-empty");
        let ttft = |q| percentile(cs.iter().map(|c| c.ttft_s), q).expect("non-empty");
        Some(ClassStats {
            class,
            count: cs.len(),
            p50_latency_s: lat(0.5),
            p99_latency_s: lat(0.99),
            p50_ttft_s: ttft(0.5),
            p99_ttft_s: ttft(0.99),
            mean_queue_s: cs.iter().map(|c| c.queue_s).sum::<f64>() / cs.len() as f64,
            preemptions: cs.iter().map(|c| c.preemptions as u64).sum(),
            slo_attainment: slo_attainment(cs.iter().copied()),
        })
    }
}

/// One decode step's time breakdown in milliseconds (Figure 17, left).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StepBreakdown {
    /// Linear layers (fused ZipGEMM + residual dense GEMMs, or all dense).
    pub linear_ms: f64,
    /// Attention over the KV cache.
    pub attention_ms: f64,
    /// Per-step weight decompression (DFloat11-style engines only).
    pub decompression_ms: f64,
    /// Tensor-parallel all-reduces.
    pub allreduce_ms: f64,
    /// Inter-stage activation hops (pipeline-parallel deployments only).
    pub p2p_ms: f64,
    /// Everything else (sampling, scheduling, kernel glue).
    pub other_ms: f64,
    /// Diagnostic: pipeline idle time already folded into the scaled
    /// compute/communication components above — the fill/drain (GPipe) or
    /// amortized-interleave (1F1B) bubble. **Not** added by
    /// [`StepBreakdown::total_ms`]; it reports how much of the step is
    /// schedule overhead rather than work.
    pub bubble_ms: f64,
}

impl StepBreakdown {
    /// Total step latency.
    pub fn total_ms(&self) -> f64 {
        self.linear_ms
            + self.attention_ms
            + self.decompression_ms
            + self.allreduce_ms
            + self.p2p_ms
            + self.other_ms
    }

    /// Communication share of the step (all-reduce plus pipeline hops) —
    /// the time the scheduler charges that a single-GPU deployment would
    /// not pay.
    pub fn comm_ms(&self) -> f64 {
        self.allreduce_ms + self.p2p_ms
    }

    /// Fraction of the step spent in linear layers (paper: 83.6% for vLLM).
    pub fn linear_fraction(&self) -> f64 {
        if self.total_ms() == 0.0 {
            0.0
        } else {
            self.linear_ms / self.total_ms()
        }
    }
}

/// Robustness accounting for one scheduled run under fault injection
/// (all-zero — the `Default` — for clean runs, preserving bit-compatible
/// reports when the [`FaultPlan`](crate::fault::FaultPlan) is empty).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct RobustnessStats {
    /// Fault events applied during the run.
    pub faults_injected: u64,
    /// Rank failures applied (repeat failures of a dead rank excluded).
    pub rank_failures: u64,
    /// Link-degradation windows applied.
    pub link_degrades: u64,
    /// Fault-driven re-queues of in-flight requests (distinct from
    /// scheduler preemptions).
    pub retries: u64,
    /// Tokens recomputed by recompute-prefill on fault-victim re-admission.
    pub recomputed_tokens: u64,
    /// Best-effort requests shed by the SLO-aware brownout while degraded.
    pub shed: u64,
    /// Corrupted compressed frames detected by decode checksums.
    pub frame_corruptions: u64,
    /// Simulated seconds stalled on KV host-memory transfers.
    pub stall_s: f64,
    /// Simulated seconds spent re-fetching corrupted frames over PCIe.
    pub refetch_s: f64,
    /// Simulated seconds during which at least one rank was dead.
    pub downtime_s: f64,
    /// Times the victim queue fully drained after a failure (each closes
    /// one time-to-recover window).
    pub recoveries: u64,
    /// Total time from each failure to its victims' full resolution.
    pub time_to_recover_s: f64,
}

impl RobustnessStats {
    /// Mean time from a rank failure to every victim being re-served or
    /// rejected; `None` when no recovery window closed.
    pub fn mean_time_to_recover_s(&self) -> Option<f64> {
        if self.recoveries == 0 {
            None
        } else {
            Some(self.time_to_recover_s / self.recoveries as f64)
        }
    }
}

/// The end-to-end result of serving one workload (one Figure 16 point).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Prefill latency in seconds.
    pub prefill_s: f64,
    /// Total decode time in seconds.
    pub decode_s: f64,
    /// End-to-end request latency in seconds.
    pub latency_s: f64,
    /// Output tokens per second across the batch.
    pub throughput_tps: f64,
    /// The steady-state decode step at the final context length.
    pub final_step: StepBreakdown,
    /// KV demand / KV capacity at peak (>1 means thrashing).
    pub kv_pressure: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_totals() {
        let b = StepBreakdown {
            linear_ms: 24.99,
            attention_ms: 3.02,
            decompression_ms: 0.0,
            allreduce_ms: 0.0,
            p2p_ms: 0.0,
            other_ms: 1.88,
            bubble_ms: 0.0,
        };
        assert!((b.total_ms() - 29.89).abs() < 1e-9);
        // The paper's 83.6% GEMM share.
        assert!((b.linear_fraction() - 0.836).abs() < 0.01);
    }

    #[test]
    fn comm_share_sums_collectives_and_hops() {
        let b = StepBreakdown {
            linear_ms: 10.0,
            attention_ms: 2.0,
            decompression_ms: 0.0,
            allreduce_ms: 1.5,
            p2p_ms: 0.5,
            other_ms: 1.0,
            // Diagnostic only: must not inflate total_ms().
            bubble_ms: 4.0,
        };
        assert!((b.comm_ms() - 2.0).abs() < 1e-12);
        assert!((b.total_ms() - 15.0).abs() < 1e-12);
    }

    #[test]
    fn empty_breakdown_is_zero() {
        let b = StepBreakdown::default();
        assert_eq!(b.total_ms(), 0.0);
        assert_eq!(b.linear_fraction(), 0.0);
        assert_eq!(b.comm_ms(), 0.0);
    }

    #[test]
    fn robustness_defaults_are_zero_and_ttr_guards_empty() {
        let z = RobustnessStats::default();
        assert_eq!(
            z,
            RobustnessStats {
                faults_injected: 0,
                ..z
            }
        );
        assert_eq!(z.mean_time_to_recover_s(), None);
        let r = RobustnessStats {
            recoveries: 2,
            time_to_recover_s: 3.0,
            ..RobustnessStats::default()
        };
        assert_eq!(r.mean_time_to_recover_s(), Some(1.5));
    }

    #[test]
    fn percentile_uses_nearest_rank_ceil() {
        // Small-N pins for the rank convention (the `.round()` regression):
        // p50 of two elements is the LOWER one, not the upper.
        assert_eq!(percentile([1.0, 2.0], 0.5), Some(1.0));
        // Odd N: the true median.
        assert_eq!(percentile([3.0, 1.0, 2.0], 0.5), Some(2.0));
        // Four elements: p50 = 2nd, p90 = 4th (ceil(3.6) = 4).
        assert_eq!(percentile([1.0, 2.0, 3.0, 4.0], 0.5), Some(2.0));
        assert_eq!(percentile([1.0, 2.0, 3.0, 4.0], 0.9), Some(4.0));
        // Ten elements: p90 = 9th (ceil(9.0) = 9), p99 = max.
        let ten: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(percentile(ten.iter().copied(), 0.9), Some(9.0));
        assert_eq!(percentile(ten.iter().copied(), 0.99), Some(10.0));
        // Ranks whose fraction is below one half, where `.round()` would
        // read one element low: p30 of four is the 2nd (ceil(1.2) = 2),
        // p91 of ten the 10th (ceil(9.1) = 10).
        assert_eq!(percentile([1.0, 2.0, 3.0, 4.0], 0.3), Some(2.0));
        assert_eq!(percentile(ten.iter().copied(), 0.91), Some(10.0));
        // 200 elements: p99 = 198th, no longer the max.
        let big: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        assert_eq!(percentile(big.iter().copied(), 0.99), Some(198.0));
        // Edges: q = 0 is the min, q = 1 the max; singleton is itself.
        assert_eq!(percentile([5.0, 7.0], 0.0), Some(5.0));
        assert_eq!(percentile([5.0, 7.0], 1.0), Some(7.0));
        assert_eq!(percentile([42.0], 0.99), Some(42.0));
        assert_eq!(percentile(std::iter::empty(), 0.5), None);
    }
}
