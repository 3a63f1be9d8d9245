//! The kernel cost sheet and executor: turns a [`KernelProfile`] into time.
//!
//! A kernel's time is governed by three overlappable resources — DRAM
//! traffic, integer-ALU work and Tensor-Core work — plus shared-memory
//! serialization, SIMT divergence, wave quantization and launch overhead.
//! A well-pipelined kernel (ZipGEMM, cuBLAS) runs at
//! `max(resources) / overlap_efficiency`; a naive kernel serializes them.

use crate::device::DeviceSpec;
use crate::instr::InstrMix;
use crate::memory::{DramTraffic, SharedMemTraffic};
use crate::occupancy::LaunchGrid;

/// How the kernel schedules its resource usage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ExecutionMode {
    /// Software-pipelined: memory, ALU and Tensor-Core work overlap; the
    /// slowest resource bounds throughput (derated by `overlap_efficiency`).
    Pipelined {
        /// Fraction of ideal overlap achieved (barriers, issue contention).
        overlap_efficiency: f64,
    },
    /// No overlap: resource times add up (a naive or divergent kernel).
    Serial,
}

/// The complete cost sheet of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelProfile {
    /// Kernel label for reports.
    pub name: &'static str,
    /// Global-memory traffic.
    pub dram: DramTraffic,
    /// Shared-memory traffic.
    pub smem: SharedMemTraffic,
    /// Integer/logic instruction workload.
    pub alu: InstrMix,
    /// SIMT divergence multiplier applied to the ALU workload (≥ 1).
    pub divergence: f64,
    /// Tensor-Core FLOPs.
    pub tensor_flops: f64,
    /// Launch grid (wave quantization).
    pub grid: LaunchGrid,
    /// Scheduling mode.
    pub mode: ExecutionMode,
}

impl KernelProfile {
    /// A profile with no work — useful as a builder seed.
    pub fn empty(name: &'static str) -> Self {
        KernelProfile {
            name,
            dram: DramTraffic::streaming(0, 0),
            smem: SharedMemTraffic::conflict_free(0),
            alu: InstrMix::new(),
            divergence: 1.0,
            tensor_flops: 0.0,
            grid: LaunchGrid {
                blocks: 1,
                blocks_per_sm: 1,
            },
            mode: ExecutionMode::Pipelined {
                overlap_efficiency: 1.0,
            },
        }
    }

    /// Executes the profile on a device, producing a time breakdown.
    pub fn execute(&self, spec: &DeviceSpec) -> KernelTime {
        let util = self.grid.sm_utilization(spec).max(1e-6);
        let wave_eff = self.grid.wave_efficiency(spec).max(1e-6);

        // DRAM: a device needs roughly half its SMs issuing loads to
        // saturate bandwidth; below that, achievable bandwidth scales down.
        let bw_fill = (util / 0.5).min(1.0);
        let mem_us = self.dram.time_us(spec) / bw_fill;

        // ALU: throughput scales with busy SMs; divergence inflates work.
        let alu_us = self.alu.issue_time_us(spec) * self.divergence / util;

        // Shared memory rides the same SM clock budget.
        let smem_us = self.smem.time_us(spec) / util;

        // Tensor cores: wave quantization wastes tail-slot throughput.
        let tensor_us = if self.tensor_flops > 0.0 {
            self.tensor_flops / (spec.tensor_flops_per_us() * wave_eff)
        } else {
            0.0
        };

        let compute_us = alu_us + smem_us;
        let total_us = match self.mode {
            ExecutionMode::Pipelined { overlap_efficiency } => {
                assert!(
                    overlap_efficiency > 0.0 && overlap_efficiency <= 1.0,
                    "overlap efficiency in (0,1]"
                );
                mem_us.max(compute_us).max(tensor_us) / overlap_efficiency + spec.launch_overhead_us
            }
            ExecutionMode::Serial => mem_us + compute_us + tensor_us + spec.launch_overhead_us,
        };

        KernelTime {
            name: self.name,
            mem_us,
            alu_us,
            smem_us,
            tensor_us,
            launch_us: spec.launch_overhead_us,
            total_us,
        }
    }
}

/// The resource-time breakdown of one kernel execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelTime {
    /// Kernel label.
    pub name: &'static str,
    /// DRAM transfer time (µs).
    pub mem_us: f64,
    /// Integer-ALU time including divergence (µs).
    pub alu_us: f64,
    /// Shared-memory serialization time (µs).
    pub smem_us: f64,
    /// Tensor-Core time (µs).
    pub tensor_us: f64,
    /// Launch overhead (µs).
    pub launch_us: f64,
    /// End-to-end kernel time (µs).
    pub total_us: f64,
}

impl KernelTime {
    /// Which resource dominates ("mem", "alu", "tensor").
    pub fn bottleneck(&self) -> &'static str {
        let compute = self.alu_us + self.smem_us;
        if self.mem_us >= compute && self.mem_us >= self.tensor_us {
            "mem"
        } else if self.tensor_us >= compute {
            "tensor"
        } else {
            "alu"
        }
    }

    /// Fraction of total time the memory system is busy (overlap-adjusted
    /// utilization, ≤ 1).
    pub fn memory_busy_fraction(&self) -> f64 {
        if self.total_us == 0.0 {
            0.0
        } else {
            (self.mem_us / self.total_us).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Gpu;
    use crate::instr::InstrKind;

    fn big_grid() -> LaunchGrid {
        LaunchGrid {
            blocks: 4096,
            blocks_per_sm: 2,
        }
    }

    #[test]
    fn pure_streaming_kernel_is_memory_bound() {
        let spec = Gpu::Rtx4090.spec();
        let mut p = KernelProfile::empty("copy");
        p.dram = DramTraffic::streaming(1 << 30, 0);
        p.grid = big_grid();
        let t = p.execute(&spec);
        assert_eq!(t.bottleneck(), "mem");
        assert!(t.total_us > 1000.0);
        assert!(t.memory_busy_fraction() > 0.95);
    }

    #[test]
    fn pipelined_takes_max_serial_takes_sum() {
        let spec = Gpu::L40s.spec();
        let mut p = KernelProfile::empty("mixed");
        p.dram = DramTraffic::streaming(100 << 20, 0);
        p.alu.add(InstrKind::Lop3, 2_000_000_000);
        p.grid = big_grid();
        let piped = p.execute(&spec);

        let mut s = p.clone();
        s.mode = ExecutionMode::Serial;
        let serial = s.execute(&spec);
        assert!(serial.total_us > piped.total_us);
        let sum = piped.mem_us + piped.alu_us + piped.smem_us + piped.tensor_us;
        assert!((serial.total_us - sum - spec.launch_overhead_us).abs() < 1e-6);
        assert!(
            (piped.total_us - piped.mem_us.max(piped.alu_us) - spec.launch_overhead_us).abs()
                < 1e-6
        );
    }

    #[test]
    fn divergence_inflates_alu_time() {
        let spec = Gpu::Rtx4090.spec();
        let mut p = KernelProfile::empty("decode");
        p.alu.add(InstrKind::Iadd, 1 << 30);
        p.grid = big_grid();
        let base = p.execute(&spec).alu_us;
        p.divergence = 2.5;
        let diverged = p.execute(&spec).alu_us;
        assert!((diverged / base - 2.5).abs() < 1e-9);
    }

    #[test]
    fn small_grid_throttles_bandwidth() {
        let spec = Gpu::Rtx4090.spec();
        let mut p = KernelProfile::empty("tiny");
        p.dram = DramTraffic::streaming(1 << 26, 0);
        p.grid = LaunchGrid {
            blocks: 16, // 12.5% of 128 SMs
            blocks_per_sm: 1,
        };
        let small = p.execute(&spec);
        p.grid = big_grid();
        let big = p.execute(&spec);
        assert!(
            small.mem_us > 3.0 * big.mem_us,
            "{} vs {}",
            small.mem_us,
            big.mem_us
        );
    }

    #[test]
    fn tensor_time_respects_wave_efficiency() {
        let spec = Gpu::Rtx4090.spec(); // 128 SMs
        let mut p = KernelProfile::empty("gemm");
        p.tensor_flops = 1e12;
        p.grid = LaunchGrid {
            blocks: 128,
            blocks_per_sm: 1,
        };
        let full = p.execute(&spec).tensor_us;
        p.grid = LaunchGrid {
            blocks: 129, // second wave nearly empty
            blocks_per_sm: 1,
        };
        let ragged = p.execute(&spec).tensor_us;
        assert!(ragged > 1.8 * full, "{ragged} vs {full}");
    }

    #[test]
    fn bank_conflicts_add_compute_time() {
        let spec = Gpu::Rtx4090.spec();
        let mut p = KernelProfile::empty("lut");
        p.smem = SharedMemTraffic::with_conflicts(50_000_000, 8.0);
        p.grid = big_grid();
        let t = p.execute(&spec);
        assert!(t.smem_us > 0.0);
        let mut q = p.clone();
        q.smem = SharedMemTraffic::conflict_free(50_000_000);
        assert!(t.smem_us > 7.9 * q.execute(&spec).smem_us);
    }

    #[test]
    fn launch_overhead_always_charged() {
        let spec = Gpu::H800.spec();
        let t = KernelProfile::empty("noop").execute(&spec);
        assert!((t.total_us - spec.launch_overhead_us).abs() < 1e-9);
    }
}
