//! ZipServ: fast and memory-efficient LLM inference with hardware-aware
//! lossless compression — a full Rust reproduction of the ASPLOS'26 paper.
//!
//! This facade crate re-exports the whole workspace behind one dependency:
//!
//! * [`bf16`] — BFloat16 numerics, synthetic weights, exponent statistics;
//! * [`entropy`] — baseline lossless codecs (canonical Huffman, rANS);
//! * [`gpu`] — the analytic GPU execution model (devices, memory, Tensor
//!   Cores, roofline);
//! * [`tbe`] — the TCA-TBE format, compressor, decompressor and fused
//!   ZipGEMM (the paper's contribution);
//! * [`kernels`] — the kernel zoo: cuBLAS-like baseline, fused ZipGEMM and
//!   the decoupled DietGPU/nvCOMP/DFloat11 pipelines;
//! * [`serve`] — the serving substrate: model zoo, paged KV cache,
//!   continuous batching, end-to-end engines.
//!
//! # Quickstart
//!
//! ```
//! use zipserv::prelude::*;
//!
//! // Generate a synthetic Gaussian weight matrix and compress it.
//! let weights = WeightGen::new(0.02).seed(7).matrix(64, 64);
//! let compressed = TbeCompressor::new().compress(&weights)?;
//! assert!(compressed.compression_ratio() > 1.2);
//!
//! // Lossless: decompression is bit-exact.
//! let restored = compressed.decompress();
//! assert_eq!(weights, restored);
//! # Ok::<(), zipserv::tbe::TbeError>(())
//! ```

pub use zipserv_bf16 as bf16;
pub use zipserv_core as tbe;
pub use zipserv_entropy as entropy;
pub use zipserv_gpu_sim as gpu;
pub use zipserv_kernels as kernels;
pub use zipserv_serve as serve;

/// The most common imports, for `use zipserv::prelude::*`.
pub mod prelude {
    pub use crate::bf16::gen::{ModelFamily, WeightGen};
    pub use crate::bf16::stats::{ExponentHistogram, ExponentSummary};
    pub use crate::bf16::{Bf16, Matrix};
    pub use crate::gpu::device::{DeviceSpec, Gpu};
    pub use crate::kernels::shapes::{LayerKind, LlmModel};
    pub use crate::serve::engine::{EngineBuilder, EngineError, EngineKind, ServingEngine};
    pub use crate::serve::fault::{
        FaultEvent, FaultKind, FaultPlan, RejectReason, Rejection, RetryPolicy,
    };
    pub use crate::serve::fleet::{
        Autoscale, AutoscaleEvent, FleetReport, FleetRouter, LeastKvPressure, PowerOfTwoChoices,
        RoundRobin, RoutePolicy, SessionAffinity,
    };
    pub use crate::serve::metrics::RobustnessStats;
    pub use crate::serve::policy::{
        Fcfs, PreemptionMode, PreemptiveSjf, Priority, PriorityClass, SchedulePolicy, Slo, SloEdf,
    };
    pub use crate::serve::scheduler::{poisson_arrivals, Request, ScheduleReport};
    pub use crate::serve::workload::{ArrivalMix, Trace, TraceError, TrafficClass, Workload};
    pub use crate::serve::{
        GpuCluster, KvShards, PipelineKind, PipelineSchedule, PrefixRegistry, PrefixStats,
        PrefixVictim,
    };
    pub use crate::tbe::{TbeCompressor, TbeMatrix};
}
