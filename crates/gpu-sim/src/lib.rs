//! An analytic GPU execution model: the hardware substrate of the ZipServ
//! reproduction.
//!
//! The paper's entire evaluation is an argument about first-order GPU
//! mechanics — DRAM bandwidth, Tensor-Core throughput, integer-ALU
//! throughput, SIMT divergence, shared-memory bank conflicts, wave
//! quantization and software pipelining. This crate implements exactly those
//! mechanisms as a composable cost model:
//!
//! * [`device`] — published-spec presets for the five GPUs of the paper
//!   (RTX4090, L40S, RTX5090, A100, H800);
//! * [`instr`] — instruction mixes and per-architecture ALU throughput;
//! * [`memory`] — DRAM and shared-memory timing, including bank conflicts;
//! * [`occupancy`] — block/wave quantization and tail effects;
//! * [`kernel`] — the [`kernel::KernelProfile`] cost sheet (divergence
//!   multiplier, pipelined or serial overlap) and the executor that turns
//!   it into microseconds;
//! * [`roofline`] — compute-intensity / attainable-performance analysis
//!   (Figure 5, Equations 1–3).
//!
//! The model is deliberately *analytic* (closed-form, deterministic): the
//! goal is to preserve the paper's relative results — who wins, by what
//! factor, where crossovers fall — not to cycle-accurately simulate an SM.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod device;
pub mod instr;
pub mod kernel;
pub mod memory;
pub mod occupancy;
pub mod roofline;
pub mod stream;

pub use device::{DeviceSpec, Gpu};
pub use kernel::{ExecutionMode, KernelProfile, KernelTime};
