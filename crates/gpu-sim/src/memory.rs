//! Memory-system timing: DRAM streams, L2 reuse and shared-memory bank
//! conflicts.

use crate::device::DeviceSpec;

/// Timing model for global-memory (DRAM) traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTraffic {
    /// Bytes read from DRAM.
    pub read_bytes: u64,
    /// Bytes written to DRAM.
    pub write_bytes: u64,
    /// Fraction of reads served by L2 (bypass DRAM).
    pub l2_hit_fraction: f64,
    /// Access-pattern efficiency multiplier in (0, 1]: 1.0 for perfectly
    /// coalesced streams, lower for strided / divergent access. The paper's
    /// measured decoder efficiencies (43.7% for DietGPU, 76.5% for DFloat11,
    /// §3.2) enter the model here.
    pub access_efficiency: f64,
}

impl DramTraffic {
    /// Perfectly-coalesced streaming traffic with no L2 reuse.
    pub fn streaming(read_bytes: u64, write_bytes: u64) -> Self {
        DramTraffic {
            read_bytes,
            write_bytes,
            l2_hit_fraction: 0.0,
            access_efficiency: 1.0,
        }
    }

    /// Sets the access-pattern efficiency (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `eff` is not in `(0, 1]`.
    pub fn with_efficiency(mut self, eff: f64) -> Self {
        assert!(eff > 0.0 && eff <= 1.0, "efficiency must be in (0,1]");
        self.access_efficiency = eff;
        self
    }

    /// Sets the fraction of reads served from L2 (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `frac` is not in `[0, 1]`.
    pub fn with_l2_hits(mut self, frac: f64) -> Self {
        assert!((0.0..=1.0).contains(&frac), "fraction must be in [0,1]");
        self.l2_hit_fraction = frac;
        self
    }

    /// Effective DRAM bytes after L2 filtering.
    pub fn dram_bytes(&self) -> f64 {
        self.read_bytes as f64 * (1.0 - self.l2_hit_fraction) + self.write_bytes as f64
    }

    /// Transfer time in microseconds on `spec`.
    pub fn time_us(&self, spec: &DeviceSpec) -> f64 {
        let bw = spec.effective_dram_bytes_per_us() * self.access_efficiency;
        self.dram_bytes() / bw
    }
}

/// Shared-memory timing with bank conflicts.
///
/// Shared memory has 32 banks of 4 bytes; a warp's access completes in one
/// transaction when lanes hit distinct banks and in `conflict_degree`
/// serialized transactions otherwise. DietGPU's table-driven decode incurs
/// millions of conflicts (Figure 12(c)); TCA-TBE's 64-bit bitmap loads are
/// conflict-free by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SharedMemTraffic {
    /// Number of warp-level shared-memory transactions.
    pub transactions: u64,
    /// Average serialization factor per transaction (1.0 = conflict-free,
    /// up to 32.0 for fully serialized).
    pub conflict_degree: f64,
}

impl SharedMemTraffic {
    /// Conflict-free traffic.
    pub fn conflict_free(transactions: u64) -> Self {
        SharedMemTraffic {
            transactions,
            conflict_degree: 1.0,
        }
    }

    /// Traffic with a uniform conflict degree.
    ///
    /// # Panics
    ///
    /// Panics if `degree < 1` or `degree > 32`.
    pub fn with_conflicts(transactions: u64, degree: f64) -> Self {
        assert!((1.0..=32.0).contains(&degree), "degree in [1,32]");
        SharedMemTraffic {
            transactions,
            conflict_degree: degree,
        }
    }

    /// Total serialized transactions (the NCU "bank conflict" counter is
    /// `total_serialized - transactions`).
    pub fn serialized_transactions(&self) -> f64 {
        self.transactions as f64 * self.conflict_degree
    }

    /// Extra transactions caused purely by conflicts.
    pub fn conflict_count(&self) -> f64 {
        self.serialized_transactions() - self.transactions as f64
    }

    /// Service time in microseconds: each SM retires one shared-memory
    /// transaction per clock.
    pub fn time_us(&self, spec: &DeviceSpec) -> f64 {
        let per_us = spec.sm_count as f64 * spec.clock_ghz * 1e3;
        self.serialized_transactions() / per_us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Gpu;

    #[test]
    fn streaming_time_matches_bandwidth() {
        let spec = Gpu::Rtx4090.spec();
        // 887 GB/s effective => 1 GB in ~1127 us.
        let t = DramTraffic::streaming(1 << 30, 0).time_us(&spec);
        assert!((t - (1u64 << 30) as f64 / 887_040.0).abs() < 1e-6);
    }

    #[test]
    fn writes_count_fully() {
        let spec = Gpu::L40s.spec();
        let rd = DramTraffic::streaming(1000, 0).time_us(&spec);
        let wr = DramTraffic::streaming(0, 1000).time_us(&spec);
        assert!((rd - wr).abs() < 1e-12);
        let both = DramTraffic::streaming(1000, 1000).time_us(&spec);
        assert!((both - rd - wr).abs() < 1e-12);
    }

    #[test]
    fn l2_hits_reduce_dram_time() {
        let spec = Gpu::Rtx4090.spec();
        let cold = DramTraffic::streaming(1 << 20, 0);
        let warm = cold.with_l2_hits(0.5);
        assert!((warm.time_us(&spec) - cold.time_us(&spec) / 2.0).abs() < 1e-9);
    }

    #[test]
    fn poor_efficiency_slows_transfer() {
        let spec = Gpu::L40s.spec();
        let good = DramTraffic::streaming(1 << 20, 0);
        let bad = good.with_efficiency(0.437); // DietGPU's measured efficiency
        assert!((bad.time_us(&spec) / good.time_us(&spec) - 1.0 / 0.437).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "efficiency must be in (0,1]")]
    fn zero_efficiency_rejected() {
        let _ = DramTraffic::streaming(1, 0).with_efficiency(0.0);
    }

    #[test]
    fn conflict_free_smem() {
        let t = SharedMemTraffic::conflict_free(1000);
        assert_eq!(t.conflict_count(), 0.0);
        assert_eq!(t.serialized_transactions(), 1000.0);
    }

    #[test]
    fn conflicts_serialize() {
        let t = SharedMemTraffic::with_conflicts(1000, 4.0);
        assert_eq!(t.serialized_transactions(), 4000.0);
        assert_eq!(t.conflict_count(), 3000.0);
        let spec = Gpu::Rtx4090.spec();
        let free = SharedMemTraffic::conflict_free(1000);
        assert!((t.time_us(&spec) / free.time_us(&spec) - 4.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "degree in [1,32]")]
    fn conflict_degree_bounds() {
        let _ = SharedMemTraffic::with_conflicts(10, 0.5);
    }
}
