//! Device memory planning: weights vs KV cache vs runtime overhead.
//!
//! Figure 17's memory breakdown: on a 24 GB RTX4090 serving LLaMA3.1-8B,
//! vLLM holds 14.96 GB of weights and 5.07 GB of KV cache; ZipServ shrinks
//! weights to ~11.2 GB (compressed arrays plus one decompression scratch
//! buffer for the prefill path) and the allocator automatically grows the
//! KV cache to ~8.6 GB.

use crate::cluster::GpuCluster;
use zipserv_kernels::shapes::{LayerKind, LlmModel};

/// Fixed runtime overhead per GPU (CUDA context, activations, workspace).
pub const RUNTIME_OVERHEAD_BYTES: u64 = 3_900_000_000;

/// Why a memory plan cannot be built: some stage's weight slice plus the
/// fixed runtime overhead exceeds device capacity. The typed face of the
/// panic in [`MemoryPlan::plan`], for callers that want to degrade
/// gracefully (see `EngineBuilder::try_build` in [`crate::engine`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanError {
    /// Weight bytes resident on the offending stage's ranks.
    pub weight_bytes: u64,
    /// Per-GPU capacity in bytes.
    pub capacity_bytes: u64,
    /// The pipeline stage that overflowed.
    pub stage: usize,
    /// Total pipeline stages in the deployment.
    pub stages: usize,
}

impl core::fmt::Display for PlanError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "model does not fit: {} weights on {} capacity (stage {} of {})",
            self.weight_bytes, self.capacity_bytes, self.stage, self.stages
        )
    }
}

impl std::error::Error for PlanError {}

/// How the engine stores weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightFormat {
    /// Dense BF16.
    Dense,
    /// TCA-TBE compressed at a given fraction of raw (plus prefill scratch).
    Compressed {
        /// Compressed bytes / raw bytes (≈0.71 for the paper's models).
        fraction: f64,
    },
}

/// The per-GPU memory plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryPlan {
    /// Weight bytes resident per GPU.
    pub weight_bytes: u64,
    /// KV-cache bytes per GPU.
    pub kv_bytes: u64,
    /// Runtime overhead bytes per GPU.
    pub runtime_bytes: u64,
    /// Per-GPU capacity.
    pub capacity_bytes: u64,
}

impl MemoryPlan {
    /// Plans memory for `model` on `cluster` with the given weight format:
    /// the plan of the *bottleneck rank* — the pipeline stage whose weight
    /// slice leaves the least KV headroom. With `pp == 1` (every deployment
    /// before pipeline parallelism existed) this is exactly the historical
    /// single-plan computation, byte for byte.
    ///
    /// # Panics
    ///
    /// Panics if any rank's weights alone exceed device capacity.
    pub fn plan(model: LlmModel, cluster: &GpuCluster, format: WeightFormat) -> MemoryPlan {
        Self::plan_stages(model, cluster, format)
            .into_iter()
            .min_by_key(|p| p.kv_bytes)
            .expect("at least one stage")
    }

    /// Fallible [`MemoryPlan::plan`]: returns [`PlanError`] instead of
    /// panicking when some rank's weights alone exceed device capacity.
    pub fn try_plan(
        model: LlmModel,
        cluster: &GpuCluster,
        format: WeightFormat,
    ) -> Result<MemoryPlan, PlanError> {
        Ok(Self::try_plan_stages(model, cluster, format)?
            .into_iter()
            .min_by_key(|p| p.kv_bytes)
            .expect("at least one stage"))
    }

    /// Plans memory for every pipeline stage of the deployment, in stage
    /// order. Each stage's `tp` ranks are identical (weights shard evenly),
    /// so one plan per stage describes all of its ranks. Stage 0 holds the
    /// embedding table, the last stage the LM head; transformer blocks
    /// follow [`GpuCluster::stage_layers`].
    ///
    /// # Panics
    ///
    /// Panics if any stage's weights alone exceed device capacity.
    pub fn plan_stages(
        model: LlmModel,
        cluster: &GpuCluster,
        format: WeightFormat,
    ) -> Vec<MemoryPlan> {
        Self::try_plan_stages(model, cluster, format).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`MemoryPlan::plan_stages`]: returns [`PlanError`] for the
    /// first overflowing stage instead of panicking.
    pub fn try_plan_stages(
        model: LlmModel,
        cluster: &GpuCluster,
        format: WeightFormat,
    ) -> Result<Vec<MemoryPlan>, PlanError> {
        let dims = model.dims();
        let tp = cluster.tp() as u64;
        let stages = cluster.stage_layers(dims.layers);
        let last = stages.len() - 1;
        stages
            .iter()
            .enumerate()
            .map(|(s, &stage_layers)| {
                // Embedding on the first stage, LM head on the last (both on
                // the sole stage when pp == 1, reproducing the old plan).
                let mut raw = 2 * stage_layers * dims.block_linear_elements();
                if s == 0 {
                    raw += 2 * dims.vocab * dims.hidden;
                }
                if s == last {
                    raw += 2 * dims.vocab * dims.hidden;
                }
                let raw_per_rank = raw / tp;
                let weight_bytes = match format {
                    WeightFormat::Dense => raw_per_rank,
                    WeightFormat::Compressed { fraction } => {
                        // Compressed arrays plus one dense scratch buffer
                        // sized for the largest layer resident on this stage
                        // (the prefill decoupled path, §4.4).
                        let largest_layer = LayerKind::ALL
                            .iter()
                            .filter(|l| !matches!(l, LayerKind::LmHead) || s == last)
                            .map(|l| {
                                let (m, k) = l.weight_dims(&dims);
                                2 * m * k / tp
                            })
                            .max()
                            .expect("layers exist");
                        (raw_per_rank as f64 * fraction) as u64 + largest_layer
                    }
                };
                let capacity = cluster.dram_bytes_per_gpu();
                if weight_bytes + RUNTIME_OVERHEAD_BYTES >= capacity {
                    return Err(PlanError {
                        weight_bytes,
                        capacity_bytes: capacity,
                        stage: s,
                        stages: stages.len(),
                    });
                }
                Ok(MemoryPlan {
                    weight_bytes,
                    kv_bytes: capacity - weight_bytes - RUNTIME_OVERHEAD_BYTES,
                    runtime_bytes: RUNTIME_OVERHEAD_BYTES,
                    capacity_bytes: capacity,
                })
            })
            .collect()
    }

    /// KV capacity in tokens for `model` (per GPU shard of the cache).
    pub fn kv_capacity_tokens(&self, model: LlmModel, tp: u32) -> u64 {
        let per_token = model.dims().kv_bytes_per_token() / tp as u64;
        self.kv_bytes / per_token.max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zipserv_gpu_sim::device::Gpu;

    #[test]
    fn figure17_weight_and_kv_breakdown() {
        let cluster = GpuCluster::single(Gpu::Rtx4090);
        let dense = MemoryPlan::plan(LlmModel::Llama31_8b, &cluster, WeightFormat::Dense);
        let zip = MemoryPlan::plan(
            LlmModel::Llama31_8b,
            &cluster,
            WeightFormat::Compressed { fraction: 0.715 },
        );
        // Paper: weights 14.96 -> 11.18 GB; KV 5.07 -> 8.60 GB (1.70x).
        let gb = 1e9;
        assert!((dense.weight_bytes as f64 / gb - 14.96).abs() < 1.5);
        assert!((zip.weight_bytes as f64 / gb - 11.18).abs() < 1.5);
        let kv_ratio = zip.kv_bytes as f64 / dense.kv_bytes as f64;
        assert!(kv_ratio > 1.4 && kv_ratio < 2.0, "KV growth {kv_ratio}");
    }

    #[test]
    fn compressed_weights_always_smaller() {
        for model in [LlmModel::Llama31_8b, LlmModel::Mistral24b] {
            let cluster = match model {
                LlmModel::Llama31_8b => GpuCluster::single(Gpu::Rtx4090),
                _ => GpuCluster::tensor_parallel(Gpu::L40s, 2),
            };
            let dense = MemoryPlan::plan(model, &cluster, WeightFormat::Dense);
            let zip = MemoryPlan::plan(
                model,
                &cluster,
                WeightFormat::Compressed { fraction: 0.715 },
            );
            assert!(zip.weight_bytes < dense.weight_bytes);
            assert!(zip.kv_bytes > dense.kv_bytes);
        }
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_model_panics() {
        let cluster = GpuCluster::single(Gpu::Rtx4090);
        let _ = MemoryPlan::plan(LlmModel::Llama31_70b, &cluster, WeightFormat::Dense);
    }

    #[test]
    fn try_plan_surfaces_typed_error() {
        let cluster = GpuCluster::single(Gpu::Rtx4090);
        let err = MemoryPlan::try_plan(LlmModel::Llama31_70b, &cluster, WeightFormat::Dense)
            .expect_err("70B dense cannot fit a 4090");
        assert_eq!((err.stage, err.stages), (0, 1));
        assert!(err.weight_bytes + RUNTIME_OVERHEAD_BYTES >= err.capacity_bytes);
        assert!(err.to_string().contains("does not fit"));
    }

    #[test]
    fn tp_shards_weights() {
        let c2 = GpuCluster::tensor_parallel(Gpu::L40s, 2);
        let plan = MemoryPlan::plan(LlmModel::Mistral24b, &c2, WeightFormat::Dense);
        let full = LlmModel::Mistral24b.dims().weight_bytes_bf16();
        assert_eq!(plan.weight_bytes, full / 2);
    }

    #[test]
    fn single_stage_plan_matches_legacy_formula() {
        // pp=1 must reproduce the historical computation byte for byte:
        // raw weights / tp, compressed fraction plus one scratch layer.
        for tp in [1u32, 2] {
            let cluster = GpuCluster::tensor_parallel(Gpu::L40s, tp);
            for format in [
                WeightFormat::Dense,
                WeightFormat::Compressed { fraction: 0.715 },
            ] {
                let plan = MemoryPlan::plan(LlmModel::Mistral24b, &cluster, format);
                let raw = LlmModel::Mistral24b.dims().weight_bytes_bf16() / tp as u64;
                match format {
                    WeightFormat::Dense => assert_eq!(plan.weight_bytes, raw),
                    WeightFormat::Compressed { fraction } => {
                        assert!(plan.weight_bytes > (raw as f64 * fraction) as u64);
                        assert!(plan.weight_bytes < raw);
                    }
                }
            }
        }
    }

    #[test]
    fn pipeline_stages_split_weights_and_grow_kv() {
        // LLaMA3.1-70B on a 4×2 TP×PP grid: each stage holds half the
        // layers, so each rank carries less weight than pure TP=4 and the
        // freed bytes become KV headroom.
        let tp4 = GpuCluster::tensor_parallel(Gpu::L40s, 4);
        let grid = GpuCluster::pipeline_parallel(Gpu::L40s, 4, 2);
        let stages = MemoryPlan::plan_stages(LlmModel::Llama31_70b, &grid, WeightFormat::Dense);
        assert_eq!(stages.len(), 2);
        let tp_plan = MemoryPlan::plan(LlmModel::Llama31_70b, &tp4, WeightFormat::Dense);
        for s in &stages {
            assert!(
                s.weight_bytes < tp_plan.weight_bytes,
                "stage slice is smaller"
            );
            assert!(s.kv_bytes > tp_plan.kv_bytes, "freed weights become KV");
        }
        // The bottleneck plan is the min-KV stage.
        let plan = MemoryPlan::plan(LlmModel::Llama31_70b, &grid, WeightFormat::Dense);
        assert_eq!(
            plan.kv_bytes,
            stages.iter().map(|s| s.kv_bytes).min().expect("stages")
        );
    }

    #[test]
    fn uneven_layer_split_loads_early_stages() {
        // 32 layers over 3 stages: 11/11/10 — stage 0 (extra layer plus the
        // embedding table) is the weight bottleneck, and the middle stage
        // (no embedding, no LM head) is the lightest.
        let grid = GpuCluster::pipeline_parallel(Gpu::Rtx4090, 1, 3);
        let stages = MemoryPlan::plan_stages(LlmModel::Llama31_8b, &grid, WeightFormat::Dense);
        assert_eq!(stages.len(), 3);
        let max = stages.iter().map(|s| s.weight_bytes).max().expect("stages");
        let min = stages.iter().map(|s| s.weight_bytes).min().expect("stages");
        assert_eq!(stages[0].weight_bytes, max);
        assert_eq!(stages[1].weight_bytes, min);
    }

    #[test]
    fn kv_token_capacity() {
        let cluster = GpuCluster::single(Gpu::Rtx4090);
        let plan = MemoryPlan::plan(LlmModel::Llama31_8b, &cluster, WeightFormat::Dense);
        let tokens = plan.kv_capacity_tokens(LlmModel::Llama31_8b, 1);
        // ~5 GB / 131072 B/token ≈ 39K tokens.
        assert!(tokens > 25_000 && tokens < 60_000, "tokens {tokens}");
    }
}
