//! Instruction mixes and ALU throughput.
//!
//! The ZipGEMM decompressor trades DRAM traffic for integer work: `LOP3`
//! (bitwise select), `IADD`, `POPC` (population count) and `SHFL` (warp
//! shuffle). Figure 12(a) of the paper quantifies this mix; this module
//! gives those instruction classes per-architecture throughputs so the
//! executor can price the decode workload.

use crate::device::DeviceSpec;

/// Instruction classes priced by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrKind {
    /// Integer add / subtract.
    Iadd,
    /// Three-input logic op (LUT).
    Lop3,
    /// Population count.
    Popc,
    /// Funnel shift / ordinary shift.
    Shift,
    /// Warp shuffle.
    Shfl,
    /// Shared-memory load (LDS), per 128-bit transaction.
    Lds,
    /// Predicate / select.
    Sel,
}

impl InstrKind {
    /// All instruction kinds.
    pub const ALL: [InstrKind; 7] = [
        InstrKind::Iadd,
        InstrKind::Lop3,
        InstrKind::Popc,
        InstrKind::Shift,
        InstrKind::Shfl,
        InstrKind::Lds,
        InstrKind::Sel,
    ];

    /// Issue throughput in operations per SM per clock.
    ///
    /// Values follow the CUDA programming guide's arithmetic-throughput
    /// table for compute capability 8.x/9.x/12.x: full-rate integer ALU ops
    /// run on all INT32 lanes, POPC/SHFL run at quarter rate on the SFU-side
    /// pipes, shared-memory transactions are limited by the LSU.
    pub fn ops_per_sm_clock(self, spec: &DeviceSpec) -> f64 {
        let lanes = spec.int_lanes_per_sm as f64;
        match self {
            InstrKind::Iadd | InstrKind::Lop3 | InstrKind::Sel => lanes,
            InstrKind::Shift => lanes,
            InstrKind::Popc => lanes / 4.0,
            InstrKind::Shfl => lanes / 2.0,
            InstrKind::Lds => 32.0,
        }
    }
}

/// A counted mix of instructions.
///
/// # Example
///
/// ```
/// use zipserv_gpu_sim::instr::{InstrKind, InstrMix};
///
/// let mut mix = InstrMix::new();
/// mix.add(InstrKind::Popc, 64);
/// mix.add(InstrKind::Iadd, 128);
/// assert_eq!(mix.count(InstrKind::Popc), 64);
/// assert_eq!(mix.total(), 192);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstrMix {
    counts: [u64; 7],
}

impl InstrMix {
    /// An empty mix.
    pub fn new() -> Self {
        Self::default()
    }

    fn idx(kind: InstrKind) -> usize {
        InstrKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("kind in ALL")
    }

    /// Adds `count` instructions of `kind`.
    pub fn add(&mut self, kind: InstrKind, count: u64) {
        self.counts[Self::idx(kind)] += count;
    }

    /// Count of one instruction kind.
    pub fn count(&self, kind: InstrKind) -> u64 {
        self.counts[Self::idx(kind)]
    }

    /// Total instruction count across kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Merges another mix into this one.
    pub fn merge(&mut self, other: &InstrMix) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    /// Scales every count by an integer factor.
    pub fn scaled(&self, factor: u64) -> InstrMix {
        let mut out = self.clone();
        for c in out.counts.iter_mut() {
            *c *= factor;
        }
        out
    }

    /// Time in microseconds to issue this mix on the whole device, assuming
    /// perfect occupancy (every SM busy). Each kind is priced at its own
    /// throughput; kinds issue on the same INT pipes, so times add.
    pub fn issue_time_us(&self, spec: &DeviceSpec) -> f64 {
        let sm_clock_per_us = spec.clock_ghz * 1e3; // clocks per us
        let mut us = 0.0;
        for (i, &kind) in InstrKind::ALL.iter().enumerate() {
            if self.counts[i] == 0 {
                continue;
            }
            let ops_per_us = kind.ops_per_sm_clock(spec) * spec.sm_count as f64 * sm_clock_per_us;
            us += self.counts[i] as f64 / ops_per_us;
        }
        us
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Gpu;

    #[test]
    fn add_and_count() {
        let mut m = InstrMix::new();
        m.add(InstrKind::Lop3, 10);
        m.add(InstrKind::Lop3, 5);
        m.add(InstrKind::Popc, 3);
        assert_eq!(m.count(InstrKind::Lop3), 15);
        assert_eq!(m.count(InstrKind::Popc), 3);
        assert_eq!(m.count(InstrKind::Shfl), 0);
        assert_eq!(m.total(), 18);
    }

    #[test]
    fn merge_and_scale() {
        let mut a = InstrMix::new();
        a.add(InstrKind::Iadd, 4);
        let mut b = InstrMix::new();
        b.add(InstrKind::Iadd, 6);
        b.add(InstrKind::Shift, 2);
        a.merge(&b);
        assert_eq!(a.count(InstrKind::Iadd), 10);
        let c = a.scaled(3);
        assert_eq!(c.count(InstrKind::Iadd), 30);
        assert_eq!(c.count(InstrKind::Shift), 6);
    }

    #[test]
    fn popc_is_slower_than_iadd() {
        let spec = Gpu::Rtx4090.spec();
        let mut popc = InstrMix::new();
        popc.add(InstrKind::Popc, 1_000_000);
        let mut iadd = InstrMix::new();
        iadd.add(InstrKind::Iadd, 1_000_000);
        assert!(popc.issue_time_us(&spec) > 3.0 * iadd.issue_time_us(&spec));
    }

    #[test]
    fn issue_time_scales_linearly() {
        let spec = Gpu::L40s.spec();
        let mut m = InstrMix::new();
        m.add(InstrKind::Lop3, 1 << 20);
        let t1 = m.issue_time_us(&spec);
        let t4 = m.scaled(4).issue_time_us(&spec);
        assert!((t4 / t1 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn lower_clock_is_slower() {
        // §7: A100's 1.41 GHz vs RTX4090's 2.52 GHz makes the same ALU
        // decode workload relatively more expensive.
        let mut m = InstrMix::new();
        m.add(InstrKind::Lop3, 1 << 24);
        m.add(InstrKind::Popc, 1 << 22);
        let t4090 = m.issue_time_us(&Gpu::Rtx4090.spec());
        let ta100 = m.issue_time_us(&Gpu::A100.spec());
        assert!(ta100 > 1.5 * t4090, "{ta100} vs {t4090}");
    }

    #[test]
    fn empty_mix_costs_nothing() {
        assert_eq!(InstrMix::new().issue_time_us(&Gpu::H800.spec()), 0.0);
    }
}
