//! The four serving engines of Figure 16.
//!
//! All engines share the same substrate (kernel cost models, paged KV
//! allocator, attention and all-reduce models); they differ exactly where
//! the real systems differ:
//!
//! | engine | weights | decode linear | attention | scheduling overhead |
//! |---|---|---|---|---|
//! | **ZipServ** | TCA-TBE (≈71%) | fused ZipGEMM (falls back to dense when faster) | paged, fused | low |
//! | **vLLM** | dense BF16 | autotuned dense GEMM | paged, fused | low |
//! | **Transformers** | dense BF16 | eager dense GEMM (unfused epilogues) | eager | high |
//! | **DFloat11** | Huffman (≈70%) | eager dense GEMM after per-step block decompression | eager | high |

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::attention::{decode_attention_us, prefill_attention_us};
use crate::cluster::GpuCluster;
use crate::fault::{FaultPlan, RetryPolicy};
use crate::kvcache::{KvShards, PagedKvCache};
use crate::memory::{MemoryPlan, PlanError, WeightFormat};
use crate::metrics::{RunReport, StepBreakdown};
use crate::parallel::{
    allreduce_us, block_allreduce_bytes, p2p_us, shard_layer, stage_activation_bytes, PipelineKind,
    PipelineSchedule,
};
use crate::policy::{Fcfs, PriorityClass, SchedulePolicy};
use crate::scheduler::{run_policy_faulted, Request, ScheduleReport};
use crate::workload::Workload;
use zipserv_gpu_sim::device::Gpu;
use zipserv_gpu_sim::roofline::GemmShape;
use zipserv_kernels::cublas_model::CublasTc;
use zipserv_kernels::decoupled::BaselineCodec;
use zipserv_kernels::fused::{FusedZipGemm, WeightStats, TYPICAL_COVERAGE};
use zipserv_kernels::shapes::{LayerKind, LlmModel};

/// Compressed-weight fraction ZipServ achieves on the evaluated models.
pub const ZIPSERV_WEIGHT_FRACTION: f64 = 0.715;
/// Compressed-weight fraction of the DFloat11 baseline.
pub const DFLOAT11_WEIGHT_FRACTION: f64 = 0.70;

/// The serving engines compared in §6.5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// This paper's system.
    ZipServ,
    /// The vLLM baseline.
    Vllm,
    /// The HuggingFace Transformers baseline.
    Transformers,
    /// The DFloat11 lossless-compression baseline.
    DFloat11,
}

impl EngineKind {
    /// All engines in the paper's order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::ZipServ,
        EngineKind::Vllm,
        EngineKind::Transformers,
        EngineKind::DFloat11,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::ZipServ => "ZipServ",
            EngineKind::Vllm => "vLLM",
            EngineKind::Transformers => "Transformers",
            EngineKind::DFloat11 => "DFloat11",
        }
    }

    /// How the engine stores weights.
    pub fn weight_format(self) -> WeightFormat {
        match self {
            EngineKind::ZipServ => WeightFormat::Compressed {
                fraction: ZIPSERV_WEIGHT_FRACTION,
            },
            EngineKind::DFloat11 => WeightFormat::Compressed {
                fraction: DFLOAT11_WEIGHT_FRACTION,
            },
            _ => WeightFormat::Dense,
        }
    }

    /// Eager-mode inefficiency multiplier on linear kernels (unfused
    /// epilogues, per-op dispatch).
    fn linear_inefficiency(self) -> f64 {
        match self {
            EngineKind::ZipServ | EngineKind::Vllm => 1.0,
            EngineKind::Transformers | EngineKind::DFloat11 => 1.55,
        }
    }

    /// Attention bandwidth efficiency (paged + fused vs eager).
    fn attention_efficiency(self) -> f64 {
        match self {
            EngineKind::ZipServ | EngineKind::Vllm => 0.80,
            EngineKind::Transformers | EngineKind::DFloat11 => 0.25,
        }
    }

    /// Per-step non-kernel overhead in ms, normalized to a 32-layer model.
    fn other_ms(self, layers: u64) -> f64 {
        let per32 = match self {
            EngineKind::ZipServ | EngineKind::Vllm => 1.88,
            EngineKind::Transformers => 15.0,
            EngineKind::DFloat11 => 17.0,
        };
        per32 * layers as f64 / 32.0
    }

    /// Does the engine use a paged KV cache?
    fn paged_kv(self) -> bool {
        matches!(self, EngineKind::ZipServ | EngineKind::Vllm)
    }
}

impl core::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// Fluent constructor for [`ServingEngine`]: deployment axes plus the
/// online-serving configuration (scheduling policy, batch cap) in one place.
///
/// ```
/// use zipserv_serve::engine::{EngineKind, ServingEngine};
/// use zipserv_serve::cluster::GpuCluster;
/// use zipserv_serve::policy::SloEdf;
/// use zipserv_gpu_sim::device::Gpu;
/// use zipserv_kernels::shapes::LlmModel;
///
/// let engine = ServingEngine::builder()
///     .kind(EngineKind::ZipServ)
///     .model(LlmModel::Llama31_8b)
///     .cluster(GpuCluster::single(Gpu::Rtx4090))
///     .policy(SloEdf::default())
///     .build();
/// assert_eq!(engine.kind(), EngineKind::ZipServ);
/// ```
#[derive(Debug, Clone)]
pub struct EngineBuilder {
    kind: EngineKind,
    model: LlmModel,
    cluster: GpuCluster,
    policy: Box<dyn SchedulePolicy>,
    max_batch: usize,
    tp: Option<u32>,
    pp: Option<u32>,
    micro_batches: Option<u32>,
    pipeline_kind: PipelineKind,
    chunked_prefill: Option<bool>,
    whole_prefill_classes: Vec<PriorityClass>,
    prefix_caching: bool,
    fault_plan: FaultPlan,
    retry: RetryPolicy,
}

/// Why [`EngineBuilder::try_build`] refused to build an engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// Some pipeline stage's weights plus runtime overhead exceed device
    /// capacity (the typed face of [`MemoryPlan::plan`]'s panic).
    DoesNotFit(PlanError),
    /// A parallelism override (`tp`/`pp`) was zero.
    InvalidParallelism(&'static str),
}

impl core::fmt::Display for EngineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            EngineError::DoesNotFit(e) => e.fmt(f),
            EngineError::InvalidParallelism(axis) => {
                write!(f, "invalid parallelism: {axis} must be nonzero")
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl Default for EngineBuilder {
    /// The paper's reference deployment: ZipServ serving LLaMA3.1-8B on a
    /// single RTX 4090 under FCFS with a 64-sequence batch cap.
    fn default() -> Self {
        EngineBuilder {
            kind: EngineKind::ZipServ,
            model: LlmModel::Llama31_8b,
            cluster: GpuCluster::single(Gpu::Rtx4090),
            policy: Box::new(Fcfs),
            max_batch: 64,
            tp: None,
            pp: None,
            micro_batches: None,
            pipeline_kind: PipelineKind::GPipe,
            chunked_prefill: None,
            whole_prefill_classes: Vec::new(),
            prefix_caching: false,
            fault_plan: FaultPlan::default(),
            retry: RetryPolicy::default(),
        }
    }
}

impl EngineBuilder {
    /// Sets the engine kind (default [`EngineKind::ZipServ`]).
    pub fn kind(mut self, kind: EngineKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the model (default [`LlmModel::Llama31_8b`]).
    pub fn model(mut self, model: LlmModel) -> Self {
        self.model = model;
        self
    }

    /// Sets the cluster (default a single RTX 4090).
    pub fn cluster(mut self, cluster: GpuCluster) -> Self {
        self.cluster = cluster;
        self
    }

    /// Sets the tensor-parallel degree, overriding the cluster's GPU count
    /// per stage (the intra-stage link is re-derived from the GPU tier).
    /// `tp(1)`/`pp(1)` are exact no-ops relative to a single-device
    /// cluster, pinned by the `parallel_serving` suite.
    ///
    /// # Panics
    ///
    /// Panics (at [`EngineBuilder::build`]) if `tp == 0`.
    pub fn tp(mut self, tp: u32) -> Self {
        self.tp = Some(tp);
        self
    }

    /// Sets the pipeline-parallel degree (stages), overriding the
    /// cluster's. Stages talk over an inter-node fabric; see
    /// [`GpuCluster::pipeline_parallel`].
    ///
    /// # Panics
    ///
    /// Panics (at [`EngineBuilder::build`]) if `pp == 0`.
    pub fn pp(mut self, pp: u32) -> Self {
        self.pp = Some(pp);
        self
    }

    /// Sets the pipeline micro-batch count per step (default `2 × pp`,
    /// the usual GPipe fill ratio; ignored when `pp == 1`). Zero is
    /// rejected at [`EngineBuilder::try_build`] with a typed
    /// [`EngineError::InvalidParallelism`] (or the corresponding panic at
    /// [`EngineBuilder::build`]) rather than panicking here, so runtime
    /// deployment probes can round-trip bad configurations.
    pub fn micro_batches(mut self, micro_batches: u32) -> Self {
        self.micro_batches = Some(micro_batches);
        self
    }

    /// Sets the pipeline execution schedule (default
    /// [`PipelineKind::GPipe`], the historical fill/drain model; ignored
    /// when `pp == 1`). [`PipelineKind::OneFOneB`] interleaves consecutive
    /// steps 1F1B-style, cutting the steady-state decode bubble from
    /// `pp − 1` idle slots per step to `(pp − 1) / m`.
    pub fn pipeline_kind(mut self, kind: PipelineKind) -> Self {
        self.pipeline_kind = kind;
        self
    }

    /// Overrides chunked-prefill streaming admission (default: enabled
    /// exactly when the resolved deployment has `pp ≥ 2`).
    ///
    /// When enabled, the schedulers admit prefills as `pp` per-stage
    /// chunks advanced between decode steps (new arrivals reach their
    /// first token without waiting behind whole serialized prefills) and
    /// consult the per-rank [`KvShards`] live inside the scheduling loop.
    /// Disabling it pins the legacy whole-prefill chain-admission
    /// semantics — the bit-compat path the fixture suites diff against.
    pub fn chunked_prefill(mut self, enabled: bool) -> Self {
        self.chunked_prefill = Some(enabled);
        self
    }

    /// Opts one traffic class out of chunked prefill (chainable; default:
    /// no class opts out). When streaming admission is active, fresh
    /// prompts of an opted-out class serialize their whole prefill at
    /// admission — the legacy semantics — while other classes keep
    /// chunking. Batch-class traffic has no TTFT SLO to protect, so a
    /// fleet can run Batch whole-prefill (fewer scheduler rounds) next to
    /// chunked Interactive on the same replicas. A no-op when chunked
    /// prefill is off entirely, so the bit-compat paths are untouched.
    pub fn whole_prefill_for(mut self, class: PriorityClass) -> Self {
        if !self.whole_prefill_classes.contains(&class) {
            self.whole_prefill_classes.push(class);
        }
        self
    }

    /// Enables prefix caching (default off): admission consults a
    /// [`PrefixRegistry`](crate::kvcache::PrefixRegistry) that interns
    /// shared-prefix hashes, forks the cached pages CoW-style on a hit,
    /// and charges prefill for the suffix tokens only. The victim axis on
    /// eviction is chosen by the scheduling policy (see
    /// [`SchedulePolicy::prefix_victim`]). Off is the bit-compat path: no
    /// registry is built and the schedulers run exactly the legacy
    /// admission sequence, pinned by the prefix-caching suite.
    pub fn prefix_caching(mut self, enabled: bool) -> Self {
        self.prefix_caching = enabled;
        self
    }

    /// Sets the online scheduling policy (default [`Fcfs`]).
    pub fn policy(mut self, policy: impl SchedulePolicy + 'static) -> Self {
        self.policy = Box::new(policy);
        self
    }

    /// Sets an already-boxed scheduling policy (for policies chosen at
    /// runtime, e.g. when iterating over a policy zoo).
    pub fn policy_box(mut self, policy: Box<dyn SchedulePolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the hard cap on concurrent sequences (default 64).
    ///
    /// # Panics
    ///
    /// Panics if `max_batch` is zero.
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        assert!(max_batch > 0, "batch cap must be nonzero");
        self.max_batch = max_batch;
        self
    }

    /// Attaches a deterministic [`FaultPlan`] consumed by
    /// [`ServingEngine::serve_online`] (default empty — the empty plan is
    /// bit-compatible with the fault-free scheduler, pinned by the chaos
    /// suite).
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Sets the bounded retry-with-backoff policy applied to requests
    /// displaced by injected faults (default [`RetryPolicy::default`]).
    pub fn retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builds the engine, resolving the parallelism axes and computing its
    /// (bottleneck-rank) memory plan.
    ///
    /// # Panics
    ///
    /// Panics if the model does not fit the cluster (see
    /// [`MemoryPlan::plan`]), or if a `tp`/`pp` override is zero.
    pub fn build(self) -> ServingEngine {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`EngineBuilder::build`]: returns a typed [`EngineError`]
    /// instead of panicking when the model does not fit the cluster or a
    /// parallelism override is zero, so capacity re-planning after a fault
    /// can probe candidate deployments without unwinding.
    pub fn try_build(self) -> Result<ServingEngine, EngineError> {
        if self.tp == Some(0) {
            return Err(EngineError::InvalidParallelism("tp"));
        }
        if self.pp == Some(0) {
            return Err(EngineError::InvalidParallelism("pp"));
        }
        if self.micro_batches == Some(0) {
            return Err(EngineError::InvalidParallelism("micro_batches"));
        }
        let mut cluster = self.cluster;
        if let Some(tp) = self.tp {
            cluster = cluster.with_tp(tp);
        }
        if let Some(pp) = self.pp {
            cluster = cluster.with_pp(pp);
        }
        let micro_batches = self.micro_batches.unwrap_or(2 * cluster.pp()).max(1);
        let chunked_prefill = self.chunked_prefill.unwrap_or(cluster.pp() >= 2);
        let plan = MemoryPlan::try_plan(self.model, &cluster, self.kind.weight_format())
            .map_err(EngineError::DoesNotFit)?;
        let mut engine = ServingEngine {
            kind: self.kind,
            model: self.model,
            cluster,
            plan,
            policy: self.policy,
            max_batch: self.max_batch,
            micro_batches,
            pipeline_kind: self.pipeline_kind,
            chunked_prefill,
            whole_prefill_classes: self.whole_prefill_classes,
            prefix_caching: self.prefix_caching,
            fault_plan: self.fault_plan,
            retry: self.retry,
            kv_capacity: 0,
            // Placeholder, replaced right below once the engine's model and
            // cluster can size the real allocators.
            kv_shards_proto: Arc::new(KvShards::new(vec![PagedKvCache::new(0, 1)])),
            step_memo: Arc::new(Mutex::new(HashMap::new())),
        };
        // Capacity and the pristine allocators are pure functions of the
        // deployment, but deriving them means constructing every per-rank
        // page allocator — O(pages) work that once ran on each
        // `kv_capacity_tokens` call, dominating multi-rank scheduler runs.
        // Compute both once here.
        engine.kv_shards_proto = Arc::new(engine.build_kv_shards());
        engine.kv_capacity = engine.compute_kv_capacity_tokens();
        Ok(engine)
    }
}

/// A model deployed on a cluster under one engine.
#[derive(Debug)]
pub struct ServingEngine {
    kind: EngineKind,
    model: LlmModel,
    cluster: GpuCluster,
    plan: MemoryPlan,
    policy: Box<dyn SchedulePolicy>,
    max_batch: usize,
    micro_batches: u32,
    pipeline_kind: PipelineKind,
    /// Resolved streaming-admission mode (default `pp >= 2`): chunked
    /// prefill plus live per-rank KV admission in the schedulers.
    chunked_prefill: bool,
    /// Traffic classes that serialize their whole prefill at admission
    /// even while streaming admission is active (default none).
    whole_prefill_classes: Vec<PriorityClass>,
    /// Whether admission consults a shared-prefix registry (default off —
    /// the bit-compat legacy path).
    prefix_caching: bool,
    fault_plan: FaultPlan,
    retry: RetryPolicy,
    /// KV capacity in tokens, derived once at build time (see
    /// [`ServingEngine::kv_capacity_tokens`]).
    kv_capacity: u64,
    /// Pristine per-rank KV allocators, built once; [`ServingEngine::kv_shards`]
    /// clones them instead of re-running the O(pages)-per-rank construction.
    kv_shards_proto: Arc<KvShards>,
    /// Cross-run decode-step price memo, keyed like the schedulers' local
    /// step caches (`(step_cache_key, context bucket)` → `(total ms, comm
    /// ms)`). Step costs are pure functions of the frozen deployment, so
    /// pricing a shape once per engine — not once per scheduler run — is
    /// sound; clones share the memo. Chunked prefill made this matter: the
    /// decode-ready batch ramps through many micro-batch shapes per run,
    /// and re-pricing the ramp every run dominated multi-rank simulations.
    step_memo: StepMemo,
}

/// `(step_cache_key, context bucket)` → `(total ms, comm ms)`, shared
/// across engine clones.
type StepMemo = Arc<Mutex<HashMap<(u64, u64), (f64, f64)>>>;

impl Clone for ServingEngine {
    fn clone(&self) -> Self {
        ServingEngine {
            kind: self.kind,
            model: self.model,
            cluster: self.cluster,
            plan: self.plan,
            policy: self.policy.clone_box(),
            max_batch: self.max_batch,
            micro_batches: self.micro_batches,
            pipeline_kind: self.pipeline_kind,
            chunked_prefill: self.chunked_prefill,
            whole_prefill_classes: self.whole_prefill_classes.clone(),
            prefix_caching: self.prefix_caching,
            fault_plan: self.fault_plan.clone(),
            retry: self.retry,
            kv_capacity: self.kv_capacity,
            kv_shards_proto: Arc::clone(&self.kv_shards_proto),
            step_memo: Arc::clone(&self.step_memo),
        }
    }
}

impl ServingEngine {
    /// Starts a fluent [`EngineBuilder`] — the preferred constructor, and
    /// the only way to attach a non-FCFS [`SchedulePolicy`].
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Deploys `model` on `cluster` under `kind` with the default FCFS
    /// policy.
    ///
    /// Superseded by [`ServingEngine::builder`], which also configures the
    /// scheduling policy and batch cap; this positional form is kept as a
    /// thin shim for existing callers.
    ///
    /// # Panics
    ///
    /// Panics if the model does not fit the cluster (see
    /// [`MemoryPlan::plan`]).
    pub fn new(kind: EngineKind, model: LlmModel, cluster: GpuCluster) -> Self {
        ServingEngine::builder()
            .kind(kind)
            .model(model)
            .cluster(cluster)
            .build()
    }

    /// The engine kind.
    pub fn kind(&self) -> EngineKind {
        self.kind
    }

    /// The deployment this engine runs on.
    pub fn cluster(&self) -> &GpuCluster {
        &self.cluster
    }

    /// The model being served.
    pub fn model(&self) -> LlmModel {
        self.model
    }

    /// Pipeline micro-batches per step (1-effective when `pp == 1`).
    pub fn micro_batches(&self) -> u32 {
        self.micro_batches
    }

    /// The pipeline execution schedule this deployment runs
    /// (default [`PipelineKind::GPipe`]; irrelevant when `pp == 1`).
    pub fn pipeline_kind(&self) -> PipelineKind {
        self.pipeline_kind
    }

    /// Whether the schedulers run in streaming-admission mode: prefills
    /// admitted as per-stage chunks advanced between decode steps, with
    /// live per-rank [`KvShards`] admission. Resolved at build time
    /// (default `pp >= 2`, overridable via
    /// [`EngineBuilder::chunked_prefill`]).
    pub fn chunked_prefill(&self) -> bool {
        self.chunked_prefill
    }

    /// Whether fresh prompts of `class` serialize their whole prefill at
    /// admission even under streaming admission (see
    /// [`EngineBuilder::whole_prefill_for`]; always effectively true when
    /// [`ServingEngine::chunked_prefill`] is off).
    pub fn whole_prefill_for(&self, class: PriorityClass) -> bool {
        self.whole_prefill_classes.contains(&class)
    }

    /// Whether the schedulers consult a shared-prefix registry at
    /// admission (see [`EngineBuilder::prefix_caching`]; default off).
    pub fn prefix_caching(&self) -> bool {
        self.prefix_caching
    }

    /// The scheduling policy [`ServingEngine::serve_online`] runs under.
    pub fn policy(&self) -> &dyn SchedulePolicy {
        self.policy.as_ref()
    }

    /// The hard cap on concurrent sequences.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// The fault plan [`ServingEngine::serve_online`] injects (empty by
    /// default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// The retry-with-backoff policy applied to fault victims.
    pub fn retry_policy(&self) -> &RetryPolicy {
        &self.retry
    }

    /// Runs an online arrival trace to completion under this engine's
    /// scheduling policy — the builder-era replacement for
    /// `ContinuousBatcher::new(&engine).run(arrivals)`. Consumes the
    /// engine's [`FaultPlan`] (a no-op when empty: bit-identical reports).
    pub fn serve_online(&self, arrivals: Vec<Request>) -> ScheduleReport {
        run_policy_faulted(
            self,
            self.policy.as_ref(),
            self.max_batch,
            arrivals,
            &self.fault_plan,
            &self.retry,
        )
    }

    /// KV bytes per token held by TP rank `rank` of a pipeline stage with
    /// `layers` resident layers: the rank's share of the GQA KV heads
    /// (ceil-split across `tp`; at least one head — replication — when
    /// `tp > kv_heads`) times its stage's layer slice. Rank 0 always
    /// carries the ceil share, so it is the fattest. The single source of
    /// truth for both [`ServingEngine::kv_shards`] and
    /// [`ServingEngine::kv_swap_s`].
    fn rank_kv_bytes_per_token(&self, rank: u64, layers: u64) -> u64 {
        let dims = self.model.dims();
        let tp = self.cluster.tp() as u64;
        let heads = (dims.kv_heads / tp + u64::from(rank < dims.kv_heads % tp)).max(1);
        2 * 2 * heads * dims.head_dim * layers
    }

    /// Time for one host-link transfer of `tokens` worth of the
    /// *bottleneck rank's* KV slice (PCIe 4.0 x16, ~32 GB/s sustained), in
    /// seconds. Ranks page in parallel, so the slowest (most-loaded) rank
    /// — rank 0 of the fattest stage — sets the transfer time. Page-out
    /// preemption pays this once at eviction and once at resume.
    pub fn kv_swap_s(&self, tokens: u64) -> f64 {
        const PCIE_BYTES_PER_S: f64 = 32.0e9;
        let layers = self
            .cluster
            .bottleneck_stage_layers(self.model.dims().layers);
        let bytes = tokens * self.rank_kv_bytes_per_token(0, layers);
        bytes as f64 / PCIE_BYTES_PER_S
    }

    /// The memory plan (Figure 17's right panel).
    pub fn memory_plan(&self) -> &MemoryPlan {
        &self.plan
    }

    /// Time to re-fetch one layer's compressed weight frame over the host
    /// link (PCIe 4.0 x16, ~32 GB/s sustained), in seconds — the recovery
    /// charge when a [`FaultKind::CorruptFrame`](crate::fault::FaultKind)
    /// event invalidates resident frames and they must be re-read from
    /// host memory.
    pub fn frame_refetch_s(&self) -> f64 {
        const PCIE_BYTES_PER_S: f64 = 32.0e9;
        let layers = self.model.dims().layers.max(1);
        (self.plan.weight_bytes / layers) as f64 / PCIE_BYTES_PER_S
    }

    /// Per-GPU sharded GEMM shape for one block layer at `n` tokens.
    fn sharded(&self, layer: LayerKind, n: u64) -> GemmShape {
        shard_layer(
            layer,
            layer.gemm_shape(self.model, n),
            self.cluster.tp() as u64,
        )
    }

    /// One decode step's linear-layer time in ms across all layers.
    fn decode_linear_ms(&self, batch: u64) -> f64 {
        let dims = self.model.dims();
        let spec = self.cluster.spec();
        let mut us = 0.0;
        for layer in LayerKind::BLOCK {
            let shape = self.sharded(layer, batch);
            let dense = CublasTc::time(shape, &spec).total_us;
            let t = match self.kind {
                EngineKind::ZipServ => {
                    // Dispatch like the real system: fused where it wins.
                    let stats = WeightStats::synthetic(shape.m, shape.k, TYPICAL_COVERAGE);
                    let fused = FusedZipGemm::time(&stats, batch, &spec).total_us;
                    fused.min(dense)
                }
                _ => dense * self.kind.linear_inefficiency(),
            };
            us += t * dims.layers as f64;
        }
        // LM head, column-sharded; ZipServ compresses it like any linear.
        let lm = self.sharded(LayerKind::LmHead, batch);
        let lm_dense = CublasTc::time(lm, &spec).total_us;
        us += match self.kind {
            EngineKind::ZipServ => {
                let stats = WeightStats::synthetic(lm.m, lm.k, TYPICAL_COVERAGE);
                FusedZipGemm::time(&stats, batch, &spec)
                    .total_us
                    .min(lm_dense)
            }
            _ => lm_dense * self.kind.linear_inefficiency(),
        };
        us / 1e3
    }

    /// Per-step DFloat11 block decompression time in ms (the whole model is
    /// re-expanded every step, §6.5's DFloat11 integration).
    fn decode_decompression_ms(&self, _batch: u64) -> f64 {
        if self.kind != EngineKind::DFloat11 {
            return 0.0;
        }
        let dims = self.model.dims();
        let spec = self.cluster.spec();
        let mut us = 0.0;
        for layer in LayerKind::BLOCK {
            let shape = self.sharded(layer, 1);
            let t = BaselineCodec::DFloat11
                .decomp_profile(shape.m, shape.k, 2.65)
                .execute(&spec)
                .total_us;
            us += t * dims.layers as f64;
        }
        // Chunked, block-at-a-time launches cannot overlap with compute,
        // and the host-side chunk bookkeeping roughly doubles the cost.
        us * 2.0 / 1e3
    }

    /// One decode step breakdown at a given context length.
    ///
    /// Single-stage (`pp == 1`) deployments are costed exactly as they
    /// always were: TP-sharded kernels plus two all-reduces per layer.
    /// Pipeline-parallel deployments split the batch into
    /// [`EngineBuilder::micro_batches`] micro-batches and run them across
    /// the stages under the deployment's [`PipelineKind`]: the step's
    /// makespan is `slots_f()` effective slots — `pp + m − 1` under GPipe
    /// fill/drain, `m + (pp − 1)/m` under the interleaved 1F1B steady
    /// state — of the bottleneck stage's per-micro time plus one
    /// inter-stage activation hop per slot. This charges both the
    /// schedule's bubble (reported diagnostically as
    /// [`StepBreakdown::bubble_ms`]) and the weight re-reads that make PP
    /// a capacity play, not a latency one, in decode.
    pub fn decode_step(&self, batch: u64, context: u64) -> StepBreakdown {
        if self.cluster.pp() == 1 {
            return self.decode_step_single(batch, context);
        }
        let dims = self.model.dims();
        let sched = self.pipeline_schedule(batch);
        let bm = batch.div_ceil(sched.micro_batches as u64);
        let micro = self.decode_step_single(bm, context);
        // Components are layer-proportional to first order: the bottleneck
        // stage holds `ceil(layers / pp)` of them and paces every slot.
        let frac = self.cluster.bottleneck_stage_layers(dims.layers) as f64 / dims.layers as f64;
        let scale = frac * sched.slots_f();
        let hop_ms = p2p_us(&self.cluster, stage_activation_bytes(dims.hidden, bm)) / 1e3;
        // Per-slot busy time on the bottleneck stage: the idle (bubble)
        // share of the makespan is `steady_idle_slots` of these slots.
        let slot_ms = frac
            * (micro.linear_ms + micro.attention_ms + micro.decompression_ms + micro.allreduce_ms)
            + hop_ms;
        StepBreakdown {
            linear_ms: micro.linear_ms * scale,
            attention_ms: micro.attention_ms * scale,
            decompression_ms: micro.decompression_ms * scale,
            allreduce_ms: micro.allreduce_ms * scale,
            p2p_ms: sched.slots_f() * hop_ms,
            other_ms: self.kind.other_ms(dims.layers),
            bubble_ms: sched.steady_idle_slots() * slot_ms,
        }
    }

    /// The key under which a [`ServingEngine::decode_step`] result may be
    /// cached and shared across batch sizes.
    ///
    /// A single-stage step depends on the exact batch, so the key *is* the
    /// batch. A pipelined step depends on the batch only through its
    /// micro-batch shape — the per-micro batch `ceil(batch / m)` and the
    /// clamped micro-batch count `m` — so distinct batches that quantize
    /// to the same shape cost identical steps and share one key. Keying a
    /// step cache on the raw batch instead silently defeats it under
    /// micro-batching: every batch size in a run is a fresh miss that
    /// re-prices a shape already priced (the tp4_pp2 deployments ran ~11×
    /// the tp4 simulator cost before the schedulers switched to this key).
    pub fn step_cache_key(&self, batch: u64) -> u64 {
        if self.cluster.pp() == 1 {
            return batch;
        }
        let sched = self.pipeline_schedule(batch);
        let m = u64::from(sched.micro_batches);
        let bm = batch.div_ceil(m);
        debug_assert!(bm < (1 << 31), "per-micro batch overflows the packed key");
        // The schedule kind changes the step cost at the same micro-batch
        // shape, so 1F1B keys must not collide with GPipe ones: tag them in
        // the (otherwise unreachable) top bit. GPipe keys are unchanged.
        let tag = match sched.kind {
            PipelineKind::GPipe => 0,
            PipelineKind::OneFOneB => 1u64 << 63,
        };
        tag | (bm << 32) | m
    }

    /// Prices a decode step under the cross-run memo: `key` must be
    /// `(self.step_cache_key(batch), bucket)` and the returned pair is
    /// `(total ms, comm ms)` for `decode_step(batch, bucket)`. The first
    /// caller anywhere on this engine (or any clone) pays the pricing;
    /// everyone after reads the memo. A poisoned lock falls back to
    /// pricing directly — never panic over a cache.
    pub fn step_cost_priced(&self, key: (u64, u64), batch: u64, bucket: u64) -> (f64, f64) {
        let price = || {
            let step = self.decode_step(batch, bucket);
            (step.total_ms(), step.comm_ms())
        };
        match self.step_memo.lock() {
            Ok(mut memo) => *memo.entry(key).or_insert_with(price),
            Err(_) => price(),
        }
    }

    /// The single-stage (TP-only) decode-step model — the historical cost
    /// path, reused per micro-batch by the pipelined wrapper.
    fn decode_step_single(&self, batch: u64, context: u64) -> StepBreakdown {
        let dims = self.model.dims();
        let spec = self.cluster.spec();
        let tp = self.cluster.tp() as u64;
        let attention_us = decode_attention_us(
            &dims,
            batch,
            context,
            &spec,
            self.kind.attention_efficiency(),
        ) / tp as f64;
        let allreduce = 2.0
            * dims.layers as f64
            * allreduce_us(&self.cluster, block_allreduce_bytes(dims.hidden, batch) / 2)
            / 1e3;
        StepBreakdown {
            linear_ms: self.decode_linear_ms(batch),
            attention_ms: attention_us / 1e3,
            decompression_ms: self.decode_decompression_ms(batch),
            allreduce_ms: allreduce,
            p2p_ms: 0.0,
            other_ms: self.kind.other_ms(dims.layers),
            bubble_ms: 0.0,
        }
    }

    /// The pipeline schedule for this deployment at a given batch:
    /// micro-batch count clamped so no micro-batch is empty, under the
    /// deployment's [`PipelineKind`].
    fn pipeline_schedule(&self, batch: u64) -> PipelineSchedule {
        let m = u64::from(self.micro_batches).min(batch.max(1)) as u32;
        PipelineSchedule::new(self.cluster.pp(), m).with_kind(self.pipeline_kind)
    }

    /// Prefill latency in ms for the whole batch.
    ///
    /// On pipeline-parallel deployments the prompt is chunked into
    /// micro-batches and pipelined across stages; prefill compute is
    /// compute-bound and ~linear in tokens, so the per-stage per-micro
    /// time is the serial core scaled by the stage's layer share, and the
    /// GPipe fill/drain bubble plus per-slot activation hops are charged
    /// on top (see [`PipelineSchedule`]).
    pub fn prefill_ms(&self, batch: u64, prompt_len: u64) -> f64 {
        let dims = self.model.dims();
        let spec = self.cluster.spec();
        let tokens = batch * prompt_len;
        let mut us = 0.0;
        // Per-pass weight decompression (ZipServ's decoupled §4.4 path,
        // DFloat11's block expansion) is *fixed* per layer visit, not
        // token-proportional — tracked separately so pipeline micro-batching
        // cannot amortize it away (each micro-batch re-visits the layer
        // after its scratch buffer was recycled). It still accumulates into
        // `us` exactly as it always did, keeping the `pp == 1` result
        // bit-identical to the historical computation.
        let mut decomp_us = 0.0;
        for layer in LayerKind::BLOCK {
            let shape = self.sharded(layer, tokens);
            let mut t = CublasTc::time(shape, &spec).total_us * self.kind.linear_inefficiency();
            let mut d = 0.0;
            if self.kind == EngineKind::ZipServ {
                // Decoupled path: expand this layer's weights once per pass
                // (§4.4; ~4% overhead at N=8192).
                let stats = WeightStats::synthetic(shape.m, shape.k, TYPICAL_COVERAGE);
                d = FusedZipGemm::decomp_profile(&stats).execute(&spec).total_us;
            }
            if self.kind == EngineKind::DFloat11 {
                d = BaselineCodec::DFloat11
                    .decomp_profile(shape.m, shape.k, 2.65)
                    .execute(&spec)
                    .total_us;
            }
            t += d;
            us += t * dims.layers as f64;
            decomp_us += d * dims.layers as f64;
        }
        us +=
            prefill_attention_us(&dims, batch, prompt_len, &spec, 0.55) / self.cluster.tp() as f64;
        let allreduce = 2.0
            * dims.layers as f64
            * allreduce_us(
                &self.cluster,
                block_allreduce_bytes(dims.hidden, tokens) / 2,
            );
        if self.cluster.pp() == 1 {
            return (us + allreduce) / 1e3 + self.kind.other_ms(dims.layers);
        }
        let decomp_ms = decomp_us / 1e3;
        self.pipelined_prefill_ms((us - decomp_us + allreduce) / 1e3, decomp_ms, tokens)
            + self.kind.other_ms(dims.layers)
    }

    /// Applies the pipeline schedule to a serial prefill core: identity at
    /// `pp == 1`, GPipe makespan otherwise. `scalable_ms` (GEMMs,
    /// attention, all-reduce) divides across micro-batches; `fixed_ms`
    /// (per-pass weight decompression) is paid again by every micro-batch
    /// that sweeps a stage's layers, so more micro-batches shrink the
    /// bubble but grow the re-expansion bill.
    fn pipelined_prefill_ms(&self, scalable_ms: f64, fixed_ms: f64, tokens: u64) -> f64 {
        if self.cluster.pp() == 1 {
            return scalable_ms + fixed_ms;
        }
        let dims = self.model.dims();
        let sched = self.pipeline_schedule(tokens);
        let m = sched.micro_batches as u64;
        let frac = self.cluster.bottleneck_stage_layers(dims.layers) as f64 / dims.layers as f64;
        let stage_micro_ms = (scalable_ms / m as f64 + fixed_ms) * frac;
        let hop_ms = p2p_us(
            &self.cluster,
            stage_activation_bytes(dims.hidden, tokens.div_ceil(m)),
        ) / 1e3;
        sched.makespan(stage_micro_ms, hop_ms)
    }

    /// Prefill with software-pipelined decompression (ZipServ only): layer
    /// `i+1`'s ZipServ-Decomp kernel runs on a second stream under layer
    /// `i`'s GEMM, double-buffering the scratch region. The decompressor is
    /// DRAM-bound while the prefill GEMM is compute-bound, so the overlap
    /// hides most of the §6.4 overhead. Returns milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if called on a non-ZipServ engine (other engines have no
    /// decompression stage to overlap).
    pub fn prefill_ms_overlapped(&self, batch: u64, prompt_len: u64) -> f64 {
        assert_eq!(
            self.kind,
            EngineKind::ZipServ,
            "overlapped prefill requires the ZipServ engine"
        );
        use zipserv_gpu_sim::stream::StreamSim;
        let dims = self.model.dims();
        let spec = self.cluster.spec();
        let tokens = batch * prompt_len;

        let mut sim = StreamSim::new(spec.clone());
        let mut last_gemm = None;
        for _layer in 0..dims.layers {
            for kind in LayerKind::BLOCK {
                let shape = self.sharded(kind, tokens);
                let stats = WeightStats::synthetic(shape.m, shape.k, TYPICAL_COVERAGE);
                // Double-buffered scratch: decomp k+1 must wait for GEMM k-1
                // (two buffers in flight); approximate by chaining decomp on
                // its own stream (FIFO) and making each GEMM depend on its
                // decomp.
                let d = sim.submit(1, &FusedZipGemm::decomp_profile(&stats), &[]);
                let deps = match last_gemm {
                    Some(g) => vec![d, g],
                    None => vec![d],
                };
                let g = sim.submit(0, &CublasTc::kernel_profile(shape, &spec), &deps);
                last_gemm = Some(g);
            }
        }
        let linear_us = sim.makespan_us();
        let attn_us =
            prefill_attention_us(&dims, batch, prompt_len, &spec, 0.55) / self.cluster.tp() as f64;
        let allreduce = 2.0
            * dims.layers as f64
            * allreduce_us(
                &self.cluster,
                block_allreduce_bytes(dims.hidden, tokens) / 2,
            );
        // The stream-overlapped makespan already hides decompression under
        // the GEMM stream, so the whole core scales with micro-batch size
        // (an approximation: at extreme micro-batch counts the DRAM-bound
        // decompressor would poke out from under the shrunken GEMMs).
        self.pipelined_prefill_ms((linear_us + attn_us + allreduce) / 1e3, 0.0, tokens)
            + self.kind.other_ms(dims.layers)
    }

    /// One paged KV allocator per rank of the `tp × pp` grid, sized from
    /// that rank's memory plan and KV slice: its share of the GQA KV heads
    /// within the stage (ceil-split when `kv_heads % tp != 0`) and its
    /// stage's layer slice across stages. The rank with the fattest slice
    /// runs out of pages first and throttles the whole deployment — see
    /// [`KvShards`].
    ///
    /// Returns a clone of the pristine allocators built once at engine
    /// construction: callers get independent state, and the per-call cost
    /// is a memcpy of the free lists rather than the O(pages)-per-rank
    /// rebuild (which dominated streaming-admission scheduler runs when it
    /// ran per run).
    pub fn kv_shards(&self) -> KvShards {
        (*self.kv_shards_proto).clone()
    }

    /// Builds the pristine per-rank allocators (the expensive half of
    /// [`ServingEngine::kv_shards`], run once at build time).
    fn build_kv_shards(&self) -> KvShards {
        let dims = self.model.dims();
        let tp = self.cluster.tp() as u64;
        let stage_plans =
            MemoryPlan::plan_stages(self.model, &self.cluster, self.kind.weight_format());
        let stage_layers = self.cluster.stage_layers(dims.layers);
        let mut shards = Vec::with_capacity(stage_plans.len() * tp as usize);
        for (plan, &layers) in stage_plans.iter().zip(&stage_layers) {
            for rank in 0..tp {
                shards.push(PagedKvCache::new(
                    plan.kv_bytes,
                    self.rank_kv_bytes_per_token(rank, layers),
                ));
            }
        }
        KvShards::new(shards)
    }

    /// KV capacity in tokens for this deployment: the *minimum* across the
    /// per-rank allocators of [`ServingEngine::kv_shards`] — one exhausted
    /// rank stalls admission exactly like real hardware. Non-paged engines
    /// lose ~40% of the region to fragmentation and static
    /// over-reservation.
    ///
    /// The value is derived once at build time; this accessor is O(1).
    /// (It used to rebuild every per-rank allocator on each call — O(pages)
    /// per rank — which made the accessor the dominant cost of multi-rank
    /// scheduler runs.)
    pub fn kv_capacity_tokens(&self) -> u64 {
        self.kv_capacity
    }

    /// The build-time computation behind [`ServingEngine::kv_capacity_tokens`]:
    /// sizes every per-rank allocator and takes the bottleneck.
    fn compute_kv_capacity_tokens(&self) -> u64 {
        let raw = self.kv_shards().capacity_tokens();
        if self.kind.paged_kv() {
            raw
        } else {
            (raw as f64 * 0.6) as u64
        }
    }

    /// Serves one workload end to end.
    pub fn serve(&self, w: Workload) -> RunReport {
        let capacity = self.kv_capacity_tokens().max(1);
        let demand = w.peak_kv_tokens();
        let pressure = demand as f64 / capacity as f64;
        // Thrashing penalty: paged engines preempt + recompute/swap
        // (sub-linear); static engines must run the batch in waves.
        let penalty = if pressure <= 1.0 {
            1.0
        } else if self.kind.paged_kv() {
            pressure.sqrt()
        } else {
            pressure.ceil()
        };

        let prefill_s = self.prefill_ms(w.batch, w.prompt_len) / 1e3;
        let mut decode_s = 0.0;
        let mut final_step = StepBreakdown::default();
        // Sample the context sweep at step granularity without recomputing
        // the kernel autotuner 2048 times: step times vary only through
        // attention (linear in context), so evaluate the breakdown at both
        // ends and integrate.
        let first = self.decode_step(w.batch, w.prompt_len);
        let last = self.decode_step(w.batch, w.max_context());
        for step in 0..w.output_len {
            let t = step as f64 / w.output_len.max(1) as f64;
            let ms = first.total_ms() + (last.total_ms() - first.total_ms()) * t;
            decode_s += ms / 1e3;
            if step + 1 == w.output_len {
                final_step = last;
            }
        }
        decode_s *= penalty;
        let latency_s = prefill_s + decode_s;
        RunReport {
            prefill_s,
            decode_s,
            latency_s,
            throughput_tps: w.total_output_tokens() as f64 / latency_s,
            final_step,
            kv_pressure: pressure,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zipserv_gpu_sim::device::Gpu;

    fn llama8b(kind: EngineKind) -> ServingEngine {
        ServingEngine::new(kind, LlmModel::Llama31_8b, GpuCluster::single(Gpu::Rtx4090))
    }

    #[test]
    fn figure17_step_breakdown() {
        // vLLM at batch 32, seq 1024: GEMM ≈ 25 ms (~84% of the step);
        // ZipServ cuts linear to ≈ 15 ms (1.69×).
        let vllm = llama8b(EngineKind::Vllm).decode_step(32, 1024);
        assert!(
            vllm.linear_ms > 18.0 && vllm.linear_ms < 30.0,
            "vllm linear {} ms",
            vllm.linear_ms
        );
        assert!(
            vllm.linear_fraction() > 0.70,
            "linear fraction {}",
            vllm.linear_fraction()
        );
        let zip = llama8b(EngineKind::ZipServ).decode_step(32, 1024);
        let speedup = vllm.linear_ms / zip.linear_ms;
        assert!(speedup > 1.3 && speedup < 2.0, "linear speedup {speedup}");
    }

    #[test]
    fn figure16_engine_ordering() {
        // Throughput: ZipServ > vLLM > Transformers > DFloat11.
        let w = Workload::new(32, 512, 512);
        let tput: Vec<f64> = EngineKind::ALL
            .iter()
            .map(|&k| llama8b(k).serve(w).throughput_tps)
            .collect();
        assert!(tput[0] > tput[1], "ZipServ {} vs vLLM {}", tput[0], tput[1]);
        assert!(
            tput[1] > tput[2],
            "vLLM {} vs Transformers {}",
            tput[1],
            tput[2]
        );
        assert!(
            tput[2] > tput[3],
            "Transformers {} vs DFloat11 {}",
            tput[2],
            tput[3]
        );
    }

    #[test]
    fn figure16_speedup_magnitudes() {
        // Paper averages: 1.22× over vLLM, 3.18× over Transformers, 8.52×
        // over DFloat11 — check each within a generous band across the sweep.
        let mut vs_vllm = Vec::new();
        let mut vs_tf = Vec::new();
        let mut vs_df = Vec::new();
        for w in Workload::paper_sweep() {
            let zip = llama8b(EngineKind::ZipServ).serve(w).throughput_tps;
            vs_vllm.push(zip / llama8b(EngineKind::Vllm).serve(w).throughput_tps);
            vs_tf.push(zip / llama8b(EngineKind::Transformers).serve(w).throughput_tps);
            vs_df.push(zip / llama8b(EngineKind::DFloat11).serve(w).throughput_tps);
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&vs_vllm) > 1.1 && avg(&vs_vllm) < 1.6,
            "vs vLLM {}",
            avg(&vs_vllm)
        );
        assert!(
            avg(&vs_tf) > 2.0 && avg(&vs_tf) < 5.0,
            "vs TF {}",
            avg(&vs_tf)
        );
        assert!(
            avg(&vs_df) > 4.0 && avg(&vs_df) < 12.0,
            "vs DF11 {}",
            avg(&vs_df)
        );
    }

    #[test]
    fn long_outputs_amplify_the_gain() {
        // §6.5: gains grow with output length (KV-capacity effect): at batch
        // 32 / output 2048 the speedup exceeds the sweep average.
        let short = Workload::new(32, 512, 128);
        let long = Workload::new(32, 512, 2048);
        let speedup = |w: Workload| {
            llama8b(EngineKind::ZipServ).serve(w).throughput_tps
                / llama8b(EngineKind::Vllm).serve(w).throughput_tps
        };
        let s_short = speedup(short);
        let s_long = speedup(long);
        assert!(s_long > s_short, "short {s_short} long {s_long}");
        assert!(s_long > 1.3, "long-output speedup {s_long}");
    }

    #[test]
    fn zipserv_expands_kv_capacity() {
        let zip = llama8b(EngineKind::ZipServ);
        let vllm = llama8b(EngineKind::Vllm);
        let ratio = zip.kv_capacity_tokens() as f64 / vllm.kv_capacity_tokens() as f64;
        assert!(ratio > 1.4 && ratio < 2.1, "KV capacity ratio {ratio}");
    }

    #[test]
    fn tensor_parallel_deployments_work() {
        // Mistral-24B on 2×L40S and LLaMA3.1-70B on 4×L40S (§6.5).
        let m24 = ServingEngine::new(
            EngineKind::ZipServ,
            LlmModel::Mistral24b,
            GpuCluster::tensor_parallel(Gpu::L40s, 2),
        );
        let l70 = ServingEngine::new(
            EngineKind::ZipServ,
            LlmModel::Llama31_70b,
            GpuCluster::tensor_parallel(Gpu::L40s, 4),
        );
        let w = Workload::new(8, 512, 256);
        let r24 = m24.serve(w);
        let r70 = l70.serve(w);
        assert!(
            r24.throughput_tps > r70.throughput_tps,
            "bigger model is slower"
        );
        assert!(r70.latency_s > 0.0 && r70.throughput_tps > 10.0);
    }

    #[test]
    fn zipserv_beats_vllm_on_multi_gpu_too() {
        let w = Workload::new(32, 512, 512);
        for (model, tp) in [(LlmModel::Mistral24b, 2u32), (LlmModel::Llama31_70b, 4)] {
            let cluster = GpuCluster::tensor_parallel(Gpu::L40s, tp);
            let zip = ServingEngine::new(EngineKind::ZipServ, model, cluster).serve(w);
            let vllm = ServingEngine::new(EngineKind::Vllm, model, cluster).serve(w);
            let s = zip.throughput_tps / vllm.throughput_tps;
            assert!(s > 1.05 && s < 1.9, "{model}: {s}");
        }
    }

    #[test]
    fn prefill_decomp_overhead_is_small() {
        // §6.4: the decoupled prefill path costs only a few percent.
        let zip = llama8b(EngineKind::ZipServ).prefill_ms(8, 1024);
        let vllm = llama8b(EngineKind::Vllm).prefill_ms(8, 1024);
        let overhead = zip / vllm - 1.0;
        assert!(overhead < 0.15, "prefill overhead {overhead}");
    }

    #[test]
    fn overlapped_prefill_beats_serial() {
        let zip = llama8b(EngineKind::ZipServ);
        let serial = zip.prefill_ms(8, 1024);
        let overlapped = zip.prefill_ms_overlapped(8, 1024);
        assert!(overlapped < serial, "{overlapped} vs {serial}");
        // And cannot beat the GEMM-only floor (vLLM's prefill).
        let vllm = llama8b(EngineKind::Vllm).prefill_ms(8, 1024);
        assert!(overlapped > 0.9 * vllm, "{overlapped} vs floor {vllm}");
    }

    #[test]
    #[should_panic(expected = "requires the ZipServ engine")]
    fn overlapped_prefill_rejects_other_engines() {
        let _ = llama8b(EngineKind::Vllm).prefill_ms_overlapped(8, 512);
    }

    #[test]
    fn builder_defaults_match_positional_constructor() {
        let built = ServingEngine::builder().build();
        let legacy = llama8b(EngineKind::ZipServ);
        assert_eq!(built.kind(), legacy.kind());
        assert_eq!(built.kv_capacity_tokens(), legacy.kv_capacity_tokens());
        assert_eq!(built.policy().name(), "fcfs");
        assert_eq!(built.max_batch(), 64);
    }

    #[test]
    fn builder_configures_policy_and_batch_cap() {
        use crate::policy::SloEdf;
        use crate::scheduler::poisson_arrivals;
        let engine = ServingEngine::builder()
            .kind(EngineKind::ZipServ)
            .model(LlmModel::Llama31_8b)
            .cluster(GpuCluster::single(Gpu::Rtx4090))
            .policy(SloEdf::default())
            .max_batch(8)
            .build();
        assert_eq!(engine.policy().name(), "slo-edf");
        let report = engine.serve_online(poisson_arrivals(6.0, 24, 256, 32, 5));
        assert_eq!(report.completions.len(), 24);
        assert_eq!(report.policy, "slo-edf");
        assert!(
            report.peak_batch <= 8,
            "cap respected: {}",
            report.peak_batch
        );
    }

    #[test]
    fn cloned_engine_keeps_its_policy() {
        use crate::policy::PreemptiveSjf;
        let engine = ServingEngine::builder()
            .policy(PreemptiveSjf::default())
            .build();
        let clone = engine.clone();
        assert_eq!(clone.policy().name(), engine.policy().name());
        assert_eq!(clone.kv_capacity_tokens(), engine.kv_capacity_tokens());
    }

    #[test]
    fn builder_tp_pp_axes_match_explicit_clusters() {
        let via_axes = ServingEngine::builder()
            .model(LlmModel::Llama31_70b)
            .cluster(GpuCluster::single(Gpu::L40s))
            .tp(4)
            .pp(2)
            .build();
        let via_cluster = ServingEngine::builder()
            .model(LlmModel::Llama31_70b)
            .cluster(GpuCluster::pipeline_parallel(Gpu::L40s, 4, 2))
            .build();
        assert_eq!(via_axes.cluster(), via_cluster.cluster());
        assert_eq!(
            via_axes.kv_capacity_tokens(),
            via_cluster.kv_capacity_tokens()
        );
        assert_eq!(
            via_axes.decode_step(32, 1024),
            via_cluster.decode_step(32, 1024)
        );
        assert_eq!(via_axes.micro_batches(), 4, "default 2 x pp");
        let deep = ServingEngine::builder()
            .model(LlmModel::Llama31_70b)
            .cluster(GpuCluster::pipeline_parallel(Gpu::L40s, 4, 2))
            .micro_batches(8)
            .build();
        assert_eq!(deep.micro_batches(), 8);
    }

    #[test]
    fn kv_shards_cover_the_grid_and_agree_with_capacity() {
        let engine = ServingEngine::builder()
            .model(LlmModel::Llama31_70b)
            .cluster(GpuCluster::pipeline_parallel(Gpu::L40s, 4, 2))
            .build();
        let shards = engine.kv_shards();
        assert_eq!(shards.ranks(), 8);
        assert_eq!(shards.capacity_tokens(), engine.kv_capacity_tokens());
        // Non-paged engines still apply the fragmentation haircut on top.
        let eager = ServingEngine::builder()
            .kind(EngineKind::Transformers)
            .build();
        assert!(eager.kv_capacity_tokens() < eager.kv_shards().capacity_tokens());
    }

    #[test]
    fn kv_swap_scales_with_tokens() {
        let eng = llama8b(EngineKind::ZipServ);
        let one = eng.kv_swap_s(1024);
        let four = eng.kv_swap_s(4096);
        assert!(one > 0.0);
        assert!((four / one - 4.0).abs() < 1e-9);
    }

    #[test]
    fn latency_monotone_in_output_length() {
        let eng = llama8b(EngineKind::ZipServ);
        let mut last = 0.0;
        for out in [128u64, 256, 512, 1024] {
            let r = eng.serve(Workload::new(8, 512, out));
            assert!(r.latency_s > last);
            last = r.latency_s;
        }
    }
}
