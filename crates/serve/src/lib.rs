//! The LLM serving substrate: everything §6.5's end-to-end comparison needs.
//!
//! * [`cluster`] — single- and multi-GPU deployment descriptions: `tp × pp`
//!   grids with per-link bandwidths and per-stage layer assignment;
//! * [`kvcache`] — PagedAttention-style KV accounting in pages: the
//!   per-rank page budgets of [`kvcache::KvShards`] (the rank with the
//!   fewest pages stalls the deployment) and the copy-on-write prefix
//!   cache [`kvcache::PrefixRegistry`], which counts its pages in
//!   refcounted blocks;
//! * [`attention`] — the decode/prefill attention cost model;
//! * [`parallel`] — tensor-parallel sharding, ring all-reduce, and
//!   GPipe-style pipeline micro-batching with bubble accounting;
//! * [`memory`] — the per-rank device memory plan (weights vs KV cache vs
//!   runtime), reproducing Figure 17's breakdown per pipeline stage;
//! * [`engine`] — the four serving engines of Figure 16: ZipServ, a
//!   vLLM-like baseline, a Transformers-like eager baseline, and a
//!   DFloat11-like decoupled-decompression engine;
//! * [`scheduler`] — online continuous batching over Poisson arrivals with
//!   KV-capacity admission control and latency percentiles;
//! * [`fleet`] — multi-replica serving: a [`fleet::FleetRouter`] drives a
//!   shared arrival stream across N replica engines on one clock, with
//!   pluggable routing policies (round-robin, least-KV-pressure, session
//!   affinity, power-of-two-choices) reading each replica's live state,
//!   and queue-depth autoscaling;
//! * [`fault`] — deterministic fault injection ([`fault::FaultPlan`]) and
//!   bounded retry-with-backoff recovery: rank failure/repair, link
//!   degradation, KV stalls, and corrupted-frame events consumed mid-run;
//! * [`policy`] — pluggable [`SchedulePolicy`] admission/preemption
//!   policies: FCFS, priority tiers with aging, SLO-deadline EDF, and
//!   preemptive shortest-job-first;
//! * [`transformer`] — a functional miniature transformer that runs with
//!   dense or TCA-TBE-compressed weights and proves bit-exact generation;
//! * [`workload`] — request/batch generators;
//! * [`metrics`] — latency/throughput reports.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod attention;
pub mod cluster;
pub mod engine;
pub mod fault;
pub mod fleet;
mod fxhash;
pub mod kvcache;
pub mod memory;
pub mod metrics;
pub mod parallel;
pub mod policy;
pub mod scheduler;
pub mod transformer;
pub mod workload;

pub use cluster::GpuCluster;
pub use engine::{EngineBuilder, EngineKind, ServingEngine};
pub use fault::{FaultEvent, FaultKind, FaultPlan, RejectReason, Rejection, RetryPolicy};
pub use fleet::{
    Autoscale, AutoscaleEvent, FleetReport, FleetRouter, LeastKvPressure, PowerOfTwoChoices,
    RoundRobin, RoutePolicy, SessionAffinity,
};
pub use kvcache::{KvShards, PrefixRegistry, PrefixStats, PrefixVictim};
pub use metrics::RobustnessStats;
pub use parallel::{PipelineKind, PipelineSchedule};
pub use policy::{
    Fcfs, PreemptionMode, PreemptiveSjf, Priority, PriorityClass, SchedulePolicy, Slo, SloEdf,
};
pub use scheduler::{Request, ScheduleReport};
pub use workload::{ArrivalMix, Trace, TraceError, TrafficClass, Workload};
