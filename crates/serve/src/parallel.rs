//! Tensor- and pipeline-parallel execution modeling.
//!
//! Megatron-style tensor sharding: column-parallel QKV/GateUp (shard `M`),
//! row-parallel O/Down (shard `K`), followed by one all-reduce of the
//! activation after attention and one after the FFN. Pipeline
//! parallelism: layers are split into stages, batches into micro-batches,
//! and [`PipelineSchedule`] accounts the schedule-dependent bubble
//! ([`PipelineKind`]: GPipe fill/drain vs. interleaved 1F1B steady state)
//! plus the per-hop activation transfers between stages.

use crate::cluster::GpuCluster;
use zipserv_gpu_sim::roofline::GemmShape;
use zipserv_kernels::shapes::LayerKind;

/// Shards a layer's GEMM across the cluster's tensor-parallel ranks.
///
/// Returns the per-GPU problem shape.
///
/// # Panics
///
/// Panics if the layer dimension is not divisible by the TP degree.
pub fn shard_layer(layer: LayerKind, shape: GemmShape, tp: u64) -> GemmShape {
    assert!(tp >= 1, "tp must be >= 1");
    match layer {
        // Column parallel: output rows split.
        LayerKind::QkvProj | LayerKind::GateUpProj | LayerKind::LmHead => {
            assert_eq!(shape.m % tp, 0, "M not divisible by tp");
            GemmShape::new(shape.m / tp, shape.k, shape.n)
        }
        // Row parallel: reduction dim split.
        LayerKind::OProj | LayerKind::DownProj => {
            assert_eq!(shape.k % tp, 0, "K not divisible by tp");
            GemmShape::new(shape.m, shape.k / tp, shape.n)
        }
    }
}

/// Ring all-reduce time in microseconds for `bytes` per rank.
///
/// `2·(tp−1)/tp` traversals of the payload per direction plus a fixed
/// per-hop latency.
pub fn allreduce_us(cluster: &GpuCluster, bytes: u64) -> f64 {
    let tp = cluster.tp() as f64;
    if tp <= 1.0 {
        return 0.0;
    }
    let volume = 2.0 * (tp - 1.0) / tp * bytes as f64;
    let bw_bytes_per_us = cluster.link_gbps * 1e3;
    volume / bw_bytes_per_us + 2.0 * (tp - 1.0) * 5.0
}

/// All-reduce traffic per transformer block per step: two reductions of the
/// `batch × hidden` BF16 activation.
pub fn block_allreduce_bytes(hidden: u64, tokens: u64) -> u64 {
    2 * 2 * hidden * tokens
}

/// Point-to-point transfer time in microseconds for one activation hop
/// between adjacent pipeline stages (`bytes` over the inter-stage fabric,
/// plus a fixed per-message latency). Zero when the deployment has a
/// single stage.
pub fn p2p_us(cluster: &GpuCluster, bytes: u64) -> f64 {
    if cluster.pp() <= 1 {
        return 0.0;
    }
    let bw_bytes_per_us = cluster.pp_link_gbps * 1e3;
    bytes as f64 / bw_bytes_per_us + 5.0
}

/// BF16 activation bytes handed from one pipeline stage to the next for
/// `tokens` tokens of hidden size `hidden`.
pub fn stage_activation_bytes(hidden: u64, tokens: u64) -> u64 {
    2 * hidden * tokens
}

/// Which pipeline execution schedule a deployment runs.
///
/// The schedule decides how much idle time (*bubble*) each step pays on
/// top of the `micro_batches` busy slots of real work:
///
/// * [`PipelineKind::GPipe`] — fill/drain: every step starts from an empty
///   pipeline and drains it completely, so each stage idles
///   `stages − 1` whole slots per step.
/// * [`PipelineKind::OneFOneB`] — interleaved 1F1B-style steady state:
///   consecutive steps overlap (stage `s` starts step `k+1`'s first
///   micro-batch while later stages finish step `k`), so the fill/drain
///   cost is amortized over the `micro_batches` in-flight positions and
///   each step pays only `(stages − 1) / micro_batches` idle slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PipelineKind {
    /// GPipe fill/drain: the historical (PR 5) model, bubble
    /// `(stages − 1) / (stages + micro_batches − 1)` of the makespan.
    #[default]
    GPipe,
    /// Interleaved one-forward-one-backward steady state: bubble shrinks
    /// to `(stages − 1) / micro_batches` idle slots per step.
    OneFOneB,
}

impl PipelineKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            PipelineKind::GPipe => "gpipe",
            PipelineKind::OneFOneB => "1f1b",
        }
    }
}

impl core::fmt::Display for PipelineKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A pipeline schedule: `stages` pipeline stages processing
/// `micro_batches` micro-batches under a [`PipelineKind`].
///
/// With per-micro-batch stage time `t` and per-hop transfer `h`, the
/// makespan is `slots_f() · (t + h)` where `slots_f()` counts the
/// `micro_batches` busy slots plus the schedule's idle slots
/// ([`PipelineSchedule::steady_idle_slots`]): `stages − 1` under GPipe
/// (fill + drain every step) and `(stages − 1) / micro_batches` under
/// 1F1B (fill/drain amortized across overlapping steps). The idle
/// fraction — the pipeline *bubble* — is `steady_idle_slots / slots_f`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineSchedule {
    /// Pipeline stages (`pp`).
    pub stages: u32,
    /// Micro-batches per step.
    pub micro_batches: u32,
    /// Execution schedule (default [`PipelineKind::GPipe`]).
    pub kind: PipelineKind,
}

impl PipelineSchedule {
    /// Creates a GPipe schedule (the historical constructor).
    ///
    /// # Panics
    ///
    /// Panics if either degree is zero — use
    /// [`PipelineSchedule::try_new`] for a typed error instead.
    pub fn new(stages: u32, micro_batches: u32) -> Self {
        match Self::try_new(PipelineKind::GPipe, stages, micro_batches) {
            Ok(s) => s,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible constructor with an explicit [`PipelineKind`]: returns a
    /// typed [`EngineError`](crate::engine::EngineError) instead of
    /// panicking on a zero degree, so deployment probes (and
    /// `EngineBuilder::try_build`) can reject bad configurations without
    /// unwinding.
    ///
    /// # Errors
    ///
    /// [`EngineError::InvalidParallelism`](crate::engine::EngineError) when
    /// `stages` or `micro_batches` is zero.
    pub fn try_new(
        kind: PipelineKind,
        stages: u32,
        micro_batches: u32,
    ) -> Result<Self, crate::engine::EngineError> {
        use crate::engine::EngineError;
        if stages == 0 {
            return Err(EngineError::InvalidParallelism("stages"));
        }
        if micro_batches == 0 {
            return Err(EngineError::InvalidParallelism("micro_batches"));
        }
        Ok(PipelineSchedule {
            stages,
            micro_batches,
            kind,
        })
    }

    /// Switches the schedule kind (builder style).
    pub fn with_kind(mut self, kind: PipelineKind) -> Self {
        self.kind = kind;
        self
    }

    /// Occupied time slots of one isolated fill/drain pass — a property of
    /// the `(stages, micro_batches)` grid, independent of the schedule
    /// kind. This is what a one-shot pass (cold prefill) costs; steady-state
    /// per-step accounting is [`PipelineSchedule::slots_f`].
    pub fn slots(&self) -> u32 {
        self.stages + self.micro_batches - 1
    }

    /// Idle slots each stage pays per step under this schedule: the
    /// closed-form bubble terms — `stages − 1` for GPipe fill/drain,
    /// `(stages − 1) / micro_batches` for the interleaved 1F1B steady
    /// state (the fill/drain amortizes over the in-flight micro-batch
    /// positions of consecutive overlapping steps).
    pub fn steady_idle_slots(&self) -> f64 {
        let fill = (self.stages - 1) as f64;
        match self.kind {
            PipelineKind::GPipe => fill,
            PipelineKind::OneFOneB => fill / self.micro_batches as f64,
        }
    }

    /// Effective slots charged per step: `micro_batches` busy slots plus
    /// the schedule's idle slots. Equals [`PipelineSchedule::slots`] under
    /// GPipe; strictly smaller under 1F1B whenever `stages > 1` and
    /// `micro_batches > 1`.
    pub fn slots_f(&self) -> f64 {
        self.micro_batches as f64 + self.steady_idle_slots()
    }

    /// Fraction of the makespan each stage sits idle waiting for the
    /// pipeline to fill or drain: `(stages − 1) / (stages +
    /// micro_batches − 1)` under GPipe, `(stages − 1) / (micro_batches² +
    /// stages − 1)` under 1F1B — strictly smaller for `micro_batches ≥ 2`,
    /// identical at a single micro-batch (nothing to interleave).
    pub fn bubble_fraction(&self) -> f64 {
        self.steady_idle_slots() / self.slots_f()
    }

    /// Makespan in the unit of `stage_time` for per-micro-batch stage time
    /// `stage_time` and per-hop transfer `hop_time`.
    pub fn makespan(&self, stage_time: f64, hop_time: f64) -> f64 {
        self.slots_f() * (stage_time + hop_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zipserv_gpu_sim::device::Gpu;

    #[test]
    fn column_parallel_shards_m() {
        let s = shard_layer(LayerKind::GateUpProj, GemmShape::new(65536, 5120, 32), 2);
        assert_eq!((s.m, s.k, s.n), (32768, 5120, 32));
    }

    #[test]
    fn row_parallel_shards_k() {
        let s = shard_layer(LayerKind::DownProj, GemmShape::new(5120, 32768, 32), 4);
        assert_eq!((s.m, s.k, s.n), (5120, 8192, 32));
    }

    #[test]
    fn tp1_is_identity() {
        let shape = GemmShape::new(4096, 4096, 8);
        for layer in LayerKind::ALL {
            assert_eq!(shard_layer(layer, shape, 1), shape);
        }
    }

    #[test]
    fn allreduce_zero_on_single_gpu() {
        let c = GpuCluster::single(Gpu::Rtx4090);
        assert_eq!(allreduce_us(&c, 1 << 20), 0.0);
    }

    #[test]
    fn allreduce_scales_with_bytes_and_ranks() {
        let c2 = GpuCluster::tensor_parallel(Gpu::L40s, 2);
        let c4 = GpuCluster::tensor_parallel(Gpu::L40s, 4);
        let t2 = allreduce_us(&c2, 1 << 20);
        let t4 = allreduce_us(&c4, 1 << 20);
        assert!(t4 > t2, "more ranks move more relative volume");
        assert!(allreduce_us(&c2, 2 << 20) > t2);
    }

    #[test]
    fn block_traffic() {
        // batch 32 × hidden 5120 × 2 bytes × 2 reductions = 655 KB.
        assert_eq!(block_allreduce_bytes(5120, 32), 655_360);
    }

    #[test]
    fn p2p_zero_without_pipeline() {
        let c = GpuCluster::tensor_parallel(Gpu::L40s, 4);
        assert_eq!(p2p_us(&c, 1 << 20), 0.0);
    }

    #[test]
    fn p2p_scales_with_bytes() {
        let c = GpuCluster::pipeline_parallel(Gpu::L40s, 4, 2);
        let one = p2p_us(&c, 1 << 20);
        assert!(one > 0.0);
        assert!(p2p_us(&c, 4 << 20) > 2.0 * one);
        // batch 32 × hidden 4096 × 2 bytes.
        assert_eq!(stage_activation_bytes(4096, 32), 262_144);
    }

    #[test]
    fn bubble_shrinks_with_more_micro_batches() {
        let two = PipelineSchedule::new(4, 2);
        let eight = PipelineSchedule::new(4, 8);
        assert!(eight.bubble_fraction() < two.bubble_fraction());
        assert_eq!(two.slots(), 5);
        // Degenerate single stage: no bubble, makespan = m × stage time.
        let flat = PipelineSchedule::new(1, 4);
        assert_eq!(flat.bubble_fraction(), 0.0);
        assert_eq!(flat.makespan(2.0, 0.0), 8.0);
    }

    #[test]
    fn makespan_matches_gpipe_closed_form() {
        // 4 stages, 8 micro-batches, 3 ms/stage + 1 ms/hop:
        // (4 + 8 − 1) × 4 = 44 ms.
        let s = PipelineSchedule::new(4, 8);
        assert_eq!(s.makespan(3.0, 1.0), 44.0);
    }

    #[test]
    fn one_f_one_b_amortizes_the_fill_drain() {
        // 4 stages, 8 micro-batches: GPipe idles 3 whole slots per step,
        // 1F1B amortizes that to 3/8 of a slot.
        let gpipe = PipelineSchedule::new(4, 8);
        let ifib = gpipe.with_kind(PipelineKind::OneFOneB);
        assert_eq!(gpipe.steady_idle_slots(), 3.0);
        assert_eq!(ifib.steady_idle_slots(), 3.0 / 8.0);
        // slots_f: GPipe keeps the integer slot count; 1F1B is strictly
        // shorter per step.
        assert_eq!(gpipe.slots_f(), gpipe.slots() as f64);
        assert!(ifib.slots_f() < gpipe.slots_f());
        assert!(ifib.bubble_fraction() < gpipe.bubble_fraction());
        assert!(ifib.makespan(3.0, 1.0) < gpipe.makespan(3.0, 1.0));
        // The grid-shape slot count is schedule independent.
        assert_eq!(ifib.slots(), gpipe.slots());
    }

    #[test]
    fn schedules_coincide_with_one_micro_batch_or_one_stage() {
        // m = 1: nothing to interleave, both pay the full fill/drain.
        let g = PipelineSchedule::new(4, 1);
        let i = g.with_kind(PipelineKind::OneFOneB);
        assert_eq!(i.bubble_fraction(), g.bubble_fraction());
        assert_eq!(i.makespan(2.0, 0.5), g.makespan(2.0, 0.5));
        // pp = 1: no pipeline, no bubble under either schedule.
        let flat = PipelineSchedule::new(1, 4).with_kind(PipelineKind::OneFOneB);
        assert_eq!(flat.bubble_fraction(), 0.0);
        assert_eq!(flat.makespan(2.0, 0.0), 8.0);
    }

    #[test]
    fn try_new_rejects_zero_degrees() {
        assert!(PipelineSchedule::try_new(PipelineKind::GPipe, 0, 4).is_err());
        assert!(PipelineSchedule::try_new(PipelineKind::OneFOneB, 4, 0).is_err());
        let ok =
            PipelineSchedule::try_new(PipelineKind::OneFOneB, 4, 8).expect("non-zero degrees plan");
        assert_eq!(ok.kind, PipelineKind::OneFOneB);
        assert_eq!(ok.kind.name(), "1f1b");
        assert_eq!(PipelineKind::default(), PipelineKind::GPipe);
    }
}
