//! Block scheduling, wave quantization and tail effects.
//!
//! A GEMM launches `ceil(M/tile_m) * ceil(N/tile_n) * split_k` blocks. The
//! device executes them in *waves* of `sm_count × blocks_per_sm`; the last
//! wave is usually partially full, wasting throughput. This tile/wave
//! quantization is why real GEMM efficiency varies with shape — the effect
//! behind Figure 11's per-layer spread (and the O_proj slowdown case).

use crate::device::{Arch, DeviceSpec};

/// Per-block resource demands, for the CUDA-style occupancy calculation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockResources {
    /// Threads per block.
    pub threads: u32,
    /// Registers per thread.
    pub registers_per_thread: u32,
    /// Static + dynamic shared memory per block, bytes.
    pub shared_bytes: u32,
}

impl BlockResources {
    /// Maximum resident threads per SM for an architecture.
    pub fn max_threads_per_sm(arch: Arch) -> u32 {
        match arch {
            Arch::Ada | Arch::Blackwell => 1536,
            Arch::Ampere | Arch::Hopper => 2048,
        }
    }

    /// Register file size per SM (32-bit registers).
    pub const REGISTERS_PER_SM: u32 = 65_536;

    /// Hardware cap on resident blocks per SM.
    pub fn max_blocks_per_sm(arch: Arch) -> u32 {
        match arch {
            Arch::Ada | Arch::Blackwell => 24,
            Arch::Ampere | Arch::Hopper => 32,
        }
    }

    /// Resident blocks per SM: the minimum across the thread, register,
    /// shared-memory and hardware-block limits (the CUDA occupancy
    /// calculator's headline number).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is 0 or not a multiple of 32.
    pub fn residency(&self, spec: &DeviceSpec) -> u32 {
        assert!(
            self.threads > 0 && self.threads.is_multiple_of(32),
            "threads must be warps"
        );
        let by_threads = Self::max_threads_per_sm(spec.arch) / self.threads;
        let regs_per_block = self.registers_per_thread * self.threads;
        let by_registers = Self::REGISTERS_PER_SM
            .checked_div(regs_per_block)
            .unwrap_or(u32::MAX);
        let smem_per_sm = spec.shared_kib_per_sm * 1024;
        let by_shared = smem_per_sm
            .checked_div(self.shared_bytes)
            .unwrap_or(u32::MAX);
        by_threads
            .min(by_registers)
            .min(by_shared)
            .min(Self::max_blocks_per_sm(spec.arch))
    }

    /// Warp occupancy in (0, 1]: resident warps over the SM's warp slots.
    pub fn occupancy(&self, spec: &DeviceSpec) -> f64 {
        let resident_threads = self.residency(spec) * self.threads;
        resident_threads as f64 / Self::max_threads_per_sm(spec.arch) as f64
    }
}

/// A block-level launch configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchGrid {
    /// Total thread blocks launched.
    pub blocks: u64,
    /// Blocks resident per SM (from register/shared-memory occupancy).
    pub blocks_per_sm: u32,
}

impl LaunchGrid {
    /// Grid for a tiled GEMM over an `m × n` output with `tile_m × tile_n`
    /// block tiles and a split-K factor.
    ///
    /// # Panics
    ///
    /// Panics if any tile dimension or the split factor is zero.
    pub fn for_gemm(m: u64, n: u64, tile_m: u64, tile_n: u64, split_k: u64) -> Self {
        assert!(
            tile_m > 0 && tile_n > 0 && split_k > 0,
            "tiles must be nonzero"
        );
        let blocks = m.div_ceil(tile_m) * n.div_ceil(tile_n) * split_k;
        LaunchGrid {
            blocks,
            blocks_per_sm: 1,
        }
    }

    /// Sets the per-SM residency (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `blocks_per_sm == 0`.
    pub fn with_residency(mut self, blocks_per_sm: u32) -> Self {
        assert!(blocks_per_sm > 0, "residency must be nonzero");
        self.blocks_per_sm = blocks_per_sm;
        self
    }

    /// Number of full waves plus one partial wave (total scheduling rounds).
    pub fn waves(&self, spec: &DeviceSpec) -> u64 {
        let per_wave = (spec.sm_count * self.blocks_per_sm) as u64;
        self.blocks.div_ceil(per_wave).max(1)
    }

    /// Wave efficiency in (0, 1]: useful blocks over scheduled slots.
    ///
    /// 1.0 when the grid fills every wave exactly; approaches
    /// `blocks / per_wave` for tiny grids that cannot fill one wave.
    pub fn wave_efficiency(&self, spec: &DeviceSpec) -> f64 {
        if self.blocks == 0 {
            return 1.0;
        }
        let per_wave = (spec.sm_count * self.blocks_per_sm) as u64;
        let slots = self.waves(spec) * per_wave;
        self.blocks as f64 / slots as f64
    }

    /// Fraction of SMs that have any work at all (for grids smaller than
    /// one wave) — the hard ceiling on achievable bandwidth/compute.
    pub fn sm_utilization(&self, spec: &DeviceSpec) -> f64 {
        let busy = (self
            .blocks
            .min(spec.sm_count as u64 * self.blocks_per_sm as u64)) as f64;
        (busy / (spec.sm_count as f64 * self.blocks_per_sm as f64)).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Gpu;

    #[test]
    fn gemm_grid_block_count() {
        // 4096x4096 output with 128x64 tiles: 32 * 64 blocks.
        let g = LaunchGrid::for_gemm(4096, 4096, 128, 64, 1);
        assert_eq!(g.blocks, 32 * 64);
        // Split-K multiplies the grid.
        let g4 = LaunchGrid::for_gemm(4096, 4096, 128, 64, 4);
        assert_eq!(g4.blocks, 32 * 64 * 4);
    }

    #[test]
    fn ceil_division_of_ragged_shapes() {
        let g = LaunchGrid::for_gemm(100, 50, 64, 64, 1);
        assert_eq!(g.blocks, 2);
    }

    #[test]
    fn full_wave_is_perfectly_efficient() {
        let spec = Gpu::Rtx4090.spec(); // 128 SMs
        let g = LaunchGrid {
            blocks: 256,
            blocks_per_sm: 1,
        };
        assert_eq!(g.waves(&spec), 2);
        assert_eq!(g.wave_efficiency(&spec), 1.0);
    }

    #[test]
    fn partial_tail_wave_wastes_slots() {
        let spec = Gpu::Rtx4090.spec();
        let g = LaunchGrid {
            blocks: 129,
            blocks_per_sm: 1,
        };
        assert_eq!(g.waves(&spec), 2);
        assert!((g.wave_efficiency(&spec) - 129.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn tiny_grid_underutilizes_sms() {
        let spec = Gpu::Rtx4090.spec();
        let g = LaunchGrid {
            blocks: 32,
            blocks_per_sm: 1,
        };
        assert_eq!(g.sm_utilization(&spec), 32.0 / 128.0);
        // This is the paper's small-shape (O_proj) pathology: too few tiles
        // to fill the device.
        assert!(g.wave_efficiency(&spec) < 0.3);
    }

    #[test]
    fn residency_increases_wave_capacity() {
        let spec = Gpu::L40s.spec(); // 142 SMs
        let g = LaunchGrid {
            blocks: 284,
            blocks_per_sm: 1,
        };
        assert_eq!(g.waves(&spec), 2);
        let g2 = g.with_residency(2);
        assert_eq!(g2.waves(&spec), 1);
    }

    #[test]
    fn occupancy_limited_by_each_resource() {
        let spec = Gpu::Rtx4090.spec(); // Ada: 1536 threads/SM, 100 KiB smem
                                        // Thread-limited: 512-thread blocks, tiny footprint -> 3 blocks.
        let by_threads = BlockResources {
            threads: 512,
            registers_per_thread: 32,
            shared_bytes: 1024,
        };
        assert_eq!(by_threads.residency(&spec), 3);
        // Register-limited: 255 regs/thread at 256 threads = 65280/block.
        let by_regs = BlockResources {
            threads: 256,
            registers_per_thread: 255,
            shared_bytes: 0,
        };
        assert_eq!(by_regs.residency(&spec), 1);
        // Shared-memory-limited: 48 KiB blocks on a 100 KiB SM -> 2.
        let by_smem = BlockResources {
            threads: 128,
            registers_per_thread: 32,
            shared_bytes: 48 * 1024,
        };
        assert_eq!(by_smem.residency(&spec), 2);
    }

    #[test]
    fn zipgemm_like_config_achieves_target_residency() {
        // A 256-thread block with double-buffered ~34 KiB of shared memory
        // (two tiles of compressed weights + activations) and 128 regs:
        // the 2-blocks/SM residency the kernel models assume.
        let spec = Gpu::L40s.spec();
        let cfg = BlockResources {
            threads: 256,
            registers_per_thread: 128,
            shared_bytes: 34 * 1024,
        };
        assert_eq!(cfg.residency(&spec), 2);
        assert!(cfg.occupancy(&spec) > 0.3);
    }

    #[test]
    fn hopper_allows_more_threads() {
        let cfg = BlockResources {
            threads: 1024,
            registers_per_thread: 32,
            shared_bytes: 0,
        };
        assert_eq!(cfg.residency(&Gpu::Rtx4090.spec()), 1); // 1536/1024
        assert_eq!(cfg.residency(&Gpu::H800.spec()), 2); // 2048/1024
    }

    #[test]
    #[should_panic(expected = "threads must be warps")]
    fn non_warp_multiple_rejected() {
        let cfg = BlockResources {
            threads: 100,
            registers_per_thread: 32,
            shared_bytes: 0,
        };
        let _ = cfg.residency(&Gpu::Rtx4090.spec());
    }

    #[test]
    fn split_k_fills_small_grids() {
        // The ZipGEMM decode-stage trick: with N small, split-K recovers
        // device fill. 28672/128 = 224 blocks, already > 128; but for
        // M = 4096: 32 blocks -> 4-way split-K gives 128 = full 4090 wave.
        let spec = Gpu::Rtx4090.spec();
        let no_split = LaunchGrid::for_gemm(4096, 32, 128, 32, 1);
        let split = LaunchGrid::for_gemm(4096, 32, 128, 32, 4);
        assert!(split.wave_efficiency(&spec) > no_split.wave_efficiency(&spec));
        assert_eq!(split.sm_utilization(&spec), 1.0);
    }
}
