//! GPU device specifications.
//!
//! Presets use published spec-sheet numbers for the five GPUs evaluated in
//! the paper. Peak Tensor-Core throughput is the *dense* BF16 rate with FP32
//! accumulation (the mode LLM inference uses); DRAM bandwidth is the
//! spec-sheet peak, with achievable efficiency modeled separately in
//! [`crate::memory`].

/// GPU micro-architecture generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arch {
    /// NVIDIA Ampere (A100).
    Ampere,
    /// NVIDIA Ada Lovelace (RTX4090, L40S).
    Ada,
    /// NVIDIA Hopper (H800).
    Hopper,
    /// NVIDIA Blackwell (RTX5090).
    Blackwell,
}

/// Market tier: the paper contrasts inference-optimized consumer parts with
/// training-oriented datacenter parts (§6.3, §7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Consumer / inference-optimized (GDDR memory, high clocks).
    Consumer,
    /// Datacenter / training-oriented (HBM memory, lower clocks).
    Datacenter,
}

/// A complete device specification consumed by the cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Micro-architecture.
    pub arch: Arch,
    /// Market tier.
    pub tier: Tier,
    /// Number of streaming multiprocessors.
    pub sm_count: u32,
    /// Boost clock in GHz.
    pub clock_ghz: f64,
    /// Peak DRAM bandwidth in GB/s.
    pub dram_gbps: f64,
    /// DRAM capacity in GiB.
    pub dram_gib: f64,
    /// L2 cache size in MiB.
    pub l2_mib: f64,
    /// Shared memory per SM in KiB.
    pub shared_kib_per_sm: u32,
    /// Peak dense BF16 Tensor-Core throughput (FP32 accumulate), TFLOPS.
    pub tensor_tflops_bf16: f64,
    /// INT32 ALU lanes per SM (IADD/LOP3 throughput per clock).
    pub int_lanes_per_sm: u32,
    /// Kernel launch overhead in microseconds.
    pub launch_overhead_us: f64,
    /// Fraction of peak DRAM bandwidth achievable by a well-tuned streaming
    /// kernel (measured copy efficiency).
    pub dram_efficiency: f64,
}

impl DeviceSpec {
    /// Peak achievable DRAM bandwidth in bytes per microsecond.
    pub fn effective_dram_bytes_per_us(&self) -> f64 {
        self.dram_gbps * self.dram_efficiency * 1e3
    }

    /// Peak Tensor-Core FLOPs per microsecond.
    pub fn tensor_flops_per_us(&self) -> f64 {
        self.tensor_tflops_bf16 * 1e6
    }

    /// Aggregate INT32 ALU operations per microsecond.
    pub fn int_ops_per_us(&self) -> f64 {
        self.int_lanes_per_sm as f64 * self.sm_count as f64 * self.clock_ghz * 1e3
    }

    /// Machine balance in FLOPs per byte: the roofline ridge point.
    pub fn ridge_flops_per_byte(&self) -> f64 {
        self.tensor_flops_per_us() / (self.dram_gbps * 1e3)
    }

    /// Is this an inference-optimized (bandwidth-starved) part?
    pub fn is_consumer(&self) -> bool {
        self.tier == Tier::Consumer
    }
}

/// The GPUs evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gpu {
    /// NVIDIA GeForce RTX 4090 (Ada, 24 GB GDDR6X).
    Rtx4090,
    /// NVIDIA L40S (Ada, 48 GB GDDR6).
    L40s,
    /// NVIDIA GeForce RTX 5090 (Blackwell, 32 GB GDDR7).
    Rtx5090,
    /// NVIDIA A100 SXM 80 GB (Ampere, HBM2e).
    A100,
    /// NVIDIA H800 SXM (Hopper, HBM3).
    H800,
}

impl Gpu {
    /// All presets, consumer parts first.
    pub const ALL: [Gpu; 5] = [Gpu::Rtx4090, Gpu::L40s, Gpu::Rtx5090, Gpu::A100, Gpu::H800];

    /// The full specification for this GPU.
    pub fn spec(self) -> DeviceSpec {
        match self {
            Gpu::Rtx4090 => DeviceSpec {
                name: "RTX4090",
                arch: Arch::Ada,
                tier: Tier::Consumer,
                sm_count: 128,
                clock_ghz: 2.52,
                dram_gbps: 1008.0,
                dram_gib: 24.0,
                l2_mib: 72.0,
                shared_kib_per_sm: 100,
                tensor_tflops_bf16: 82.6,
                int_lanes_per_sm: 64,
                launch_overhead_us: 4.0,
                dram_efficiency: 0.88,
            },
            Gpu::L40s => DeviceSpec {
                name: "L40S",
                arch: Arch::Ada,
                tier: Tier::Consumer,
                sm_count: 142,
                clock_ghz: 2.52,
                dram_gbps: 864.0,
                dram_gib: 48.0,
                l2_mib: 96.0,
                shared_kib_per_sm: 100,
                tensor_tflops_bf16: 90.5,
                int_lanes_per_sm: 64,
                launch_overhead_us: 4.0,
                dram_efficiency: 0.88,
            },
            Gpu::Rtx5090 => DeviceSpec {
                name: "RTX5090",
                arch: Arch::Blackwell,
                tier: Tier::Consumer,
                sm_count: 170,
                clock_ghz: 2.41,
                dram_gbps: 1792.0,
                dram_gib: 32.0,
                l2_mib: 96.0,
                shared_kib_per_sm: 100,
                tensor_tflops_bf16: 104.8,
                int_lanes_per_sm: 64,
                launch_overhead_us: 4.0,
                dram_efficiency: 0.88,
            },
            Gpu::A100 => DeviceSpec {
                name: "A100",
                arch: Arch::Ampere,
                tier: Tier::Datacenter,
                sm_count: 108,
                clock_ghz: 1.41,
                dram_gbps: 2039.0,
                dram_gib: 80.0,
                l2_mib: 40.0,
                shared_kib_per_sm: 164,
                tensor_tflops_bf16: 312.0,
                int_lanes_per_sm: 64,
                launch_overhead_us: 4.0,
                dram_efficiency: 0.86,
            },
            Gpu::H800 => DeviceSpec {
                name: "H800",
                arch: Arch::Hopper,
                tier: Tier::Datacenter,
                sm_count: 132,
                clock_ghz: 1.98,
                dram_gbps: 3350.0,
                dram_gib: 80.0,
                l2_mib: 50.0,
                shared_kib_per_sm: 228,
                tensor_tflops_bf16: 989.0,
                int_lanes_per_sm: 64,
                launch_overhead_us: 4.0,
                dram_efficiency: 0.84,
            },
        }
    }

    /// Marketing name.
    pub fn name(self) -> &'static str {
        self.spec().name
    }
}

impl core::fmt::Display for Gpu {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_presets_are_sane() {
        for gpu in Gpu::ALL {
            let s = gpu.spec();
            assert!(s.sm_count > 0);
            assert!(s.clock_ghz > 0.5 && s.clock_ghz < 4.0);
            assert!(s.dram_gbps > 500.0);
            assert!(s.tensor_tflops_bf16 > 50.0);
            assert!(s.dram_efficiency > 0.5 && s.dram_efficiency <= 1.0);
        }
    }

    #[test]
    fn consumer_vs_datacenter_split() {
        assert!(Gpu::Rtx4090.spec().is_consumer());
        assert!(Gpu::L40s.spec().is_consumer());
        assert!(Gpu::Rtx5090.spec().is_consumer());
        assert!(!Gpu::A100.spec().is_consumer());
        assert!(!Gpu::H800.spec().is_consumer());
    }

    #[test]
    fn datacenter_parts_have_more_bandwidth_less_clock() {
        // The §7 argument: HBM parts relax the memory bottleneck and run at
        // lower clocks, making ALU-heavy decoding harder to hide.
        let c = Gpu::Rtx4090.spec();
        let d = Gpu::A100.spec();
        assert!(d.dram_gbps > 1.5 * c.dram_gbps);
        assert!(d.clock_ghz < 0.7 * c.clock_ghz);
    }

    #[test]
    fn ridge_point_ordering() {
        // Consumer parts are far more compute-rich per byte than datacenter
        // parts in relative terms: ridge point (flops/byte) is higher.
        let r4090 = Gpu::Rtx4090.spec().ridge_flops_per_byte();
        let ra100 = Gpu::A100.spec().ridge_flops_per_byte();
        assert!(r4090 < 100.0 && r4090 > 30.0, "4090 ridge {r4090}");
        assert!(ra100 > 100.0, "A100 ridge {ra100}");
    }

    #[test]
    fn unit_conversions() {
        let s = Gpu::Rtx4090.spec();
        // 1008 GB/s * 0.88 = 887 bytes/ns = 887_000 bytes/us
        assert!((s.effective_dram_bytes_per_us() - 887_040.0).abs() < 1.0);
        assert!((s.tensor_flops_per_us() - 82.6e6).abs() < 1.0);
        // 64 lanes * 128 SMs * 2.52 GHz = 20.6 Tops/s = 2.06e7 ops/us
        assert!((s.int_ops_per_us() - 64.0 * 128.0 * 2.52 * 1e3).abs() < 1.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(Gpu::Rtx4090.to_string(), "RTX4090");
        assert_eq!(Gpu::H800.to_string(), "H800");
    }
}
