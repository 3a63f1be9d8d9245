//! The fused decompression-GEMM kernel: **ZipGEMM** (§4.3).
//!
//! Two faces of the same kernel live here:
//!
//! * the *functional* kernels — [`ZipGemm::multiply`] (blocked, serial),
//!   [`ZipGemm::multiply_parallel`] (blocked, row strips across threads) and
//!   [`ZipGemm::multiply_reference`] (the naive triple loop) — compute
//!   `Y = W · X` directly from the compressed TCA-TBE weights, decoding each
//!   FragTile into "registers" on the fly (never materializing the full
//!   weight matrix) with FP32 accumulation in ascending-`k` order, so all
//!   three are bitwise identical to a dense GEMM over the decompressed
//!   weights;
//! * [`ZipGemm::kernel_profile`] — the *performance* kernel: the cost sheet
//!   (DRAM, ALU, Tensor-Core, grid, pipeline mode) handed to the GPU model.
//!
//! The blocked paths share the internal `microkernel` machinery: each
//! compressed tile is decoded **once per pass** into an `f32` scratch panel,
//! the activation matrix is pre-converted once, and a register-blocked
//! `FRAG_DIM × NB` micro-kernel sweeps `N`-blocks so no BF16 conversion or
//! bounds-checked indexing survives in the innermost loop.

mod microkernel;

use crate::decompress::{decode_tile_lanewise, DecodeCost, DecodePath};
use crate::format::layout::TbeMatrix;
use crate::format::{FRAG_DIM, FRAG_ELEMS};
use microkernel::{compute_strip, ActPanel, SeqMap};
use zipserv_bf16::{Bf16, Matrix};
use zipserv_gpu_sim::instr::{InstrKind, InstrMix};
use zipserv_gpu_sim::kernel::{ExecutionMode, KernelProfile};
use zipserv_gpu_sim::memory::{DramTraffic, SharedMemTraffic};
use zipserv_gpu_sim::occupancy::LaunchGrid;

/// BlockTile dimensions of the fixed ZipGEMM launch configuration.
pub const TILE_M: u64 = 64;
/// BlockTile width along `N`.
pub const TILE_N: u64 = 64;

/// The fused kernel.
#[derive(Debug, Clone)]
pub struct ZipGemm {
    split_k: u64,
}

impl Default for ZipGemm {
    fn default() -> Self {
        Self::new()
    }
}

impl ZipGemm {
    /// A kernel with the default split-K factor of 2.
    pub fn new() -> Self {
        ZipGemm { split_k: 2 }
    }

    /// Overrides the split-K factor (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `split_k == 0`.
    pub fn with_split_k(mut self, split_k: u64) -> Self {
        assert!(split_k > 0, "split-K must be nonzero");
        self.split_k = split_k;
        self
    }

    /// Computes `Y = W · X` from compressed weights, bit-exactly.
    ///
    /// `W` is the `M×K` compressed weight matrix, `X` a dense `K×N`
    /// activation matrix; the result accumulates in FP32.
    ///
    /// This is the blocked hot path: per-tile decode caching plus the
    /// register-blocked micro-kernel. It produces the same bits as
    /// [`ZipGemm::multiply_reference`] (and as a dense GEMM over the
    /// decompressed weights), just faster.
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != w.cols()`.
    pub fn multiply(&self, w: &TbeMatrix, x: &Matrix<Bf16>) -> Matrix<f32> {
        assert_eq!(x.rows(), w.cols(), "activation rows must match weight cols");
        let (m, k, n) = (w.rows(), w.cols(), x.cols());
        let mut y = Matrix::<f32>::zeros(m, n);
        if m == 0 || n == 0 {
            return y;
        }
        let seq = SeqMap::new(m, k);
        let x = ActPanel::pack(x);
        compute_strip(w, &seq, &x, 0, m / FRAG_DIM, y.as_mut_slice());
        y
    }

    /// The naive reference kernel: the original triple loop, kept as the
    /// correctness and performance baseline the blocked paths are measured
    /// against.
    ///
    /// Decodes each tile on the fly and walks every output element with
    /// bounds-checked indexing; activations are still pre-widened once (the
    /// per-FMA `to_f32` re-conversion was pure waste on every path).
    ///
    /// # Panics
    ///
    /// Panics if `x.rows() != w.cols()`.
    pub fn multiply_reference(&self, w: &TbeMatrix, x: &Matrix<Bf16>) -> Matrix<f32> {
        assert_eq!(x.rows(), w.cols(), "activation rows must match weight cols");
        let (m, k, n) = (w.rows(), w.cols(), x.cols());
        let mut y = Matrix::<f32>::zeros(m, n);
        let seq = SeqMap::new(m, k);
        // Hoisted: one widening per activation element, not one per use.
        let xf = ActPanel::pack(x);

        for tr in 0..m / FRAG_DIM {
            for tk in 0..seq.tiles_k() {
                // "Load compressed, compute decompressed": the tile lives
                // only in this stack frame (the register file).
                let tile = decode_tile_lanewise(w.tile_view(seq.seq(tr, tk)), w.base_exp());
                for local_r in 0..FRAG_DIM {
                    let row = tr * FRAG_DIM + local_r;
                    for col in 0..n {
                        let mut acc = y[(row, col)];
                        for kk in 0..FRAG_DIM {
                            let wv = tile[local_r * FRAG_DIM + kk].to_f32();
                            acc += wv * xf.row(tk * FRAG_DIM + kk)[col];
                        }
                        y[(row, col)] = acc;
                    }
                }
            }
        }
        y
    }

    /// Convenience: the result rounded to BF16 (what the serving engine
    /// feeds to the next layer).
    pub fn multiply_bf16(&self, w: &TbeMatrix, x: &Matrix<Bf16>) -> Matrix<Bf16> {
        let y = self.multiply(w, x);
        Matrix::from_fn(y.rows(), y.cols(), |r, c| Bf16::from_f32(y[(r, c)]))
    }

    /// Multi-threaded fused multiply. Output rows are independent (each
    /// accumulates its own ascending-`k` chain), so sharding row strips
    /// across threads is bitwise identical to [`ZipGemm::multiply`]; every
    /// worker drives the same blocked micro-kernel as the serial path.
    ///
    /// Degenerate shapes are safe: zero-column activations return
    /// immediately, and workers whose strip starts at or past the last tile
    /// row do no work (with `tile_rows = 5` and 4 workers the ceiling chunk
    /// of 2 hands worker 3 the empty strip `6..5`).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or `x.rows() != w.cols()`.
    pub fn multiply_parallel(
        &self,
        w: &TbeMatrix,
        x: &Matrix<Bf16>,
        threads: usize,
    ) -> Matrix<f32> {
        assert!(threads > 0, "need at least one thread");
        assert_eq!(x.rows(), w.cols(), "activation rows must match weight cols");
        let (m, k, n) = (w.rows(), w.cols(), x.cols());
        let tile_rows = m / FRAG_DIM;
        let workers = threads.min(tile_rows).max(1);
        if workers == 1 || n == 0 {
            return self.multiply(w, x);
        }

        // Sequence lookup and activation panel, shared read-only.
        let seq = SeqMap::new(m, k);
        let panel = ActPanel::pack(x);
        let (seq, panel) = (&seq, &panel);

        let chunk = tile_rows.div_ceil(workers);
        let strips: Vec<(usize, Vec<f32>)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|wi| {
                    // Clamp: the ceiling chunk can push trailing workers
                    // past the end; `start_tr > tile_rows` would underflow
                    // the row count below.
                    let start_tr = (wi * chunk).min(tile_rows);
                    let end_tr = ((wi + 1) * chunk).min(tile_rows);
                    scope.spawn(move || {
                        let rows = (end_tr - start_tr) * FRAG_DIM;
                        let mut local = vec![0f32; rows * n];
                        compute_strip(w, seq, panel, start_tr, end_tr, &mut local);
                        (start_tr, local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("zipgemm worker panicked"))
                .collect()
        });

        let mut y = Matrix::<f32>::zeros(m, n);
        for (start_tr, local) in strips {
            if local.is_empty() {
                continue;
            }
            let row0 = start_tr * FRAG_DIM;
            let rows = local.len() / n;
            for r in 0..rows {
                y.as_mut_slice()[(row0 + r) * n..(row0 + r + 1) * n]
                    .copy_from_slice(&local[r * n..(r + 1) * n]);
            }
        }
        y
    }

    /// The instruction mix of decoding `elements` weights (Figure 12(a)),
    /// priced for the lanewise reference path.
    pub fn decode_mix(elements: u64) -> InstrMix {
        Self::decode_mix_for(DecodePath::Lanewise, elements)
    }

    /// The instruction mix of decoding `elements` weights on a specific
    /// [`DecodePath`]. The LUT path trades popcount/plane-extract scalar
    /// ops for shared-memory table reads (priced via
    /// [`DecodeCost::lds_per_tile`] in the kernel profile, not here).
    pub fn decode_mix_for(path: DecodePath, elements: u64) -> InstrMix {
        let c = DecodeCost::for_path(path);
        let mut mix = InstrMix::new();
        mix.add(InstrKind::Lop3, c.lop3 * elements);
        mix.add(InstrKind::Iadd, c.iadd * elements);
        mix.add(InstrKind::Popc, c.popc * elements);
        mix.add(InstrKind::Shift, c.shift * elements);
        mix.add(InstrKind::Sel, c.sel * elements);
        mix
    }

    /// Overlap efficiency of the fixed-configuration pipeline as a function
    /// of the weight-matrix size.
    ///
    /// ZipGEMM ships one BlockTile configuration (64×64, fixed split-K); the
    /// paper notes that small layers "require fine-grained parameter tuning
    /// … beyond the scope of this work" and shows an 0.79× slowdown on
    /// LLaMA3.1-8B's O_proj. Small `M×K` means few K-iterations per block, so
    /// pipeline fill/drain and barrier costs stop being amortized. The curve
    /// is calibrated to reproduce that: ≈0.64 at 16M weights (4096×4096),
    /// ≈0.96 beyond 45M.
    pub fn overlap_efficiency(m: u64, k: u64) -> f64 {
        let elems = (m * k) as f64;
        let ramp = (elems / 4.5e7).min(1.0);
        0.42 + 0.54 * ramp.powf(0.9)
    }

    /// Builds the GPU cost sheet for `Y_{M×N} = W_{M×K} X_{K×N}` with
    /// compressed weights, priced for the lanewise reference path (the
    /// calibrated Figure-11/12 configuration).
    pub fn kernel_profile(&self, w: &TbeMatrix, n: u64) -> KernelProfile {
        self.kernel_profile_for(w, n, DecodePath::Lanewise)
    }

    /// Builds the GPU cost sheet priced for a specific [`DecodePath`].
    ///
    /// The decode *count* is path-independent (one decode per tile per
    /// pass, from [`DecodeCost::tile_decodes`]); only the per-element
    /// instruction mix and the per-tile shared-memory traffic change.
    pub fn kernel_profile_for(&self, w: &TbeMatrix, n: u64, path: DecodePath) -> KernelProfile {
        let m = w.rows() as u64;
        let k = w.cols() as u64;
        let stats = w.stats();
        let cost = DecodeCost::for_path(path);

        let weight_bytes = stats.compressed_bytes() as u64;
        let act_bytes = 2 * k * n;
        let out_bytes = 2 * m * n;

        let mut profile = KernelProfile::empty("zipgemm");
        profile.dram =
            DramTraffic::streaming(weight_bytes + act_bytes, out_bytes).with_efficiency(0.97);
        // Conflict-free by construction (§4.2); the residual ~4.7K conflicts
        // of Figure 12(c) are noise next to DietGPU's millions.
        let tiles = w.tile_count() as u64;
        // Per-tile decode caching: each tile is decoded once per pass, no
        // matter how many N-blocks consume it.
        let decodes = DecodeCost::tile_decodes(tiles, n.div_ceil(TILE_N), true);
        profile.smem = SharedMemTraffic::conflict_free(decodes * cost.lds_per_tile);
        profile.alu = Self::decode_mix_for(path, decodes * FRAG_ELEMS as u64);
        profile.divergence = 1.0; // fixed-length decode: no divergence
        profile.tensor_flops = 2.0 * m as f64 * n as f64 * k as f64;
        profile.grid = LaunchGrid::for_gemm(m, n, TILE_M, TILE_N, self.split_k).with_residency(2);
        profile.mode = ExecutionMode::Pipelined {
            overlap_efficiency: Self::overlap_efficiency(m, k),
        };
        profile
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::compress::TbeCompressor;
    use zipserv_bf16::gen::WeightGen;
    use zipserv_gpu_sim::device::Gpu;

    /// Dense reference with the same FP32 accumulation order.
    fn reference_gemm(w: &Matrix<Bf16>, x: &Matrix<Bf16>) -> Matrix<f32> {
        let (m, k, n) = (w.rows(), w.cols(), x.cols());
        Matrix::from_fn(m, n, |r, c| {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += w[(r, kk)].to_f32() * x[(kk, c)].to_f32();
            }
            acc
        })
    }

    #[test]
    fn fused_gemm_matches_dense_bitwise() {
        let w = WeightGen::new(0.02).seed(11).matrix(64, 128);
        let x = WeightGen::new(0.5).seed(12).matrix(128, 16);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let fused = ZipGemm::new().multiply(&tbe, &x);
        let dense = reference_gemm(&w, &x);
        for r in 0..64 {
            for c in 0..16 {
                assert_eq!(
                    fused[(r, c)].to_bits(),
                    dense[(r, c)].to_bits(),
                    "({r},{c})"
                );
            }
        }
    }

    #[test]
    fn fused_gemm_with_outliers_matches() {
        let w = WeightGen::new(0.02)
            .seed(13)
            .outliers(0.05, 40.0)
            .matrix(128, 64);
        let x = WeightGen::new(1.0).seed(14).matrix(64, 8);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        assert_eq!(
            ZipGemm::new().multiply(&tbe, &x).as_slice(),
            reference_gemm(&w, &x).as_slice()
        );
    }

    #[test]
    fn blocked_matches_reference_across_n_block_boundaries() {
        // Column counts straddling the NB=16 micro-kernel width: ragged
        // trailing blocks, exact fits, and single columns.
        let w = WeightGen::new(0.02)
            .seed(41)
            .outliers(0.04, 25.0)
            .matrix(72, 80);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        for n in [1usize, 2, 7, 15, 16, 17, 31, 32, 33, 48] {
            let x = WeightGen::new(0.6).seed(42 + n as u64).matrix(80, n);
            let blocked = ZipGemm::new().multiply(&tbe, &x);
            let naive = ZipGemm::new().multiply_reference(&tbe, &x);
            assert_eq!(blocked.as_slice(), naive.as_slice(), "n={n}");
        }
    }

    #[test]
    fn bf16_output_rounds_the_f32_result() {
        let w = WeightGen::new(0.02).seed(15).matrix(64, 64);
        let x = WeightGen::new(0.3).seed(16).matrix(64, 8);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let f = ZipGemm::new().multiply(&tbe, &x);
        let b = ZipGemm::new().multiply_bf16(&tbe, &x);
        for r in 0..64 {
            for c in 0..8 {
                assert_eq!(b[(r, c)], Bf16::from_f32(f[(r, c)]));
            }
        }
    }

    #[test]
    #[should_panic(expected = "activation rows must match")]
    fn shape_mismatch_panics() {
        let w = WeightGen::new(0.02).matrix(64, 64);
        let x = WeightGen::new(0.02).matrix(32, 8);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let _ = ZipGemm::new().multiply(&tbe, &x);
    }

    #[test]
    fn profile_reads_less_dram_than_dense() {
        let w = WeightGen::new(0.018).seed(17).matrix(512, 512);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let p = ZipGemm::new().kernel_profile(&tbe, 32);
        let dense_read = 2 * 512 * 512 + 2 * 512 * 32;
        assert!((p.dram.read_bytes as f64) < 0.78 * dense_read as f64);
        assert!(p.tensor_flops > 0.0);
        assert_eq!(p.divergence, 1.0);
    }

    #[test]
    fn profile_decode_work_is_independent_of_n() {
        // Cached decodes: the ALU decode mix prices each tile once per
        // pass, so widening the activation batch adds no decode work.
        let w = WeightGen::new(0.018).seed(19).matrix(256, 256);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let narrow = ZipGemm::new().kernel_profile(&tbe, 8);
        let wide = ZipGemm::new().kernel_profile(&tbe, 512);
        assert_eq!(narrow.alu.total(), wide.alu.total());
        assert!(wide.tensor_flops > narrow.tensor_flops);
    }

    #[test]
    fn decode_stays_hidden_on_consumer_gpu() {
        // The Fig-12 claim: ALU decode work fits under the memory time on an
        // RTX4090-class part for a large decode-stage GEMM.
        let w = WeightGen::new(0.018).seed(18).matrix(1024, 1024);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        // Scale the profile up to a realistic layer by building from a
        // fabricated matrix footprint: use the real (small) one; the ratio
        // ALU/mem is size-independent because both scale with M*K.
        let p = ZipGemm::new().kernel_profile(&tbe, 32);
        let t = p.execute(&Gpu::Rtx4090.spec());
        assert!(t.alu_us < t.mem_us, "alu {} mem {}", t.alu_us, t.mem_us);
        assert_eq!(t.bottleneck(), "mem");
    }

    #[test]
    fn overlap_efficiency_curve() {
        // Small O_proj-like shapes are penalized; big GateUp shapes are not.
        let small = ZipGemm::overlap_efficiency(4096, 4096);
        let large = ZipGemm::overlap_efficiency(28672, 4096);
        assert!(small < 0.70, "small {small}");
        assert!(large > 0.88, "large {large}");
        assert!(ZipGemm::overlap_efficiency(57344, 8192) >= large);
    }

    #[test]
    fn parallel_multiply_is_bitwise_identical() {
        let w = WeightGen::new(0.02)
            .seed(31)
            .outliers(0.03, 30.0)
            .matrix(192, 128);
        let x = WeightGen::new(0.8).seed(32).matrix(128, 16);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let serial = ZipGemm::new().multiply(&tbe, &x);
        for threads in [1, 2, 3, 8, 64] {
            let parallel = ZipGemm::new().multiply_parallel(&tbe, &x, threads);
            assert_eq!(serial.as_slice(), parallel.as_slice(), "threads {threads}");
        }
    }

    #[test]
    fn parallel_worker_past_last_tile_row_is_safe() {
        // Regression: tile_rows = 5 with 4 workers gives a ceiling chunk of
        // 2, so worker 3 gets the empty strip 6..5 — previously an unsigned
        // underflow when sizing its local buffer.
        let w = WeightGen::new(0.02).seed(33).matrix(40, 64);
        let x = WeightGen::new(0.7).seed(34).matrix(64, 8);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let serial = ZipGemm::new().multiply(&tbe, &x);
        for threads in [4, 5] {
            let parallel = ZipGemm::new().multiply_parallel(&tbe, &x, threads);
            assert_eq!(serial.as_slice(), parallel.as_slice(), "threads {threads}");
        }
    }

    #[test]
    fn zero_column_activations_are_safe() {
        let w = WeightGen::new(0.02).seed(35).matrix(64, 64);
        let x = Matrix::<Bf16>::zeros(64, 0);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        for y in [
            ZipGemm::new().multiply(&tbe, &x),
            ZipGemm::new().multiply_reference(&tbe, &x),
            ZipGemm::new().multiply_parallel(&tbe, &x, 4),
        ] {
            assert_eq!((y.rows(), y.cols()), (64, 0));
            assert!(y.is_empty());
        }
    }

    #[test]
    fn single_tile_row_parallel_is_safe() {
        let w = WeightGen::new(0.02).seed(36).matrix(8, 64);
        let x = WeightGen::new(0.5).seed(37).matrix(64, 5);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let serial = ZipGemm::new().multiply(&tbe, &x);
        let parallel = ZipGemm::new().multiply_parallel(&tbe, &x, 8);
        assert_eq!(serial.as_slice(), parallel.as_slice());
    }

    #[test]
    fn decode_mix_counts() {
        let mix = ZipGemm::decode_mix(1000);
        assert_eq!(mix.count(InstrKind::Popc), 1000);
        assert_eq!(mix.count(InstrKind::Lop3), 3000);
        assert_eq!(mix.total(), 9000);
    }

    #[test]
    fn lut_decode_mix_drops_popcount_for_table_reads() {
        let mix = ZipGemm::decode_mix_for(DecodePath::Lut, 1000);
        assert_eq!(mix.count(InstrKind::Popc), 0);
        assert_eq!(mix.count(InstrKind::Lop3), 1000);
        assert_eq!(mix.total(), 5000);
        // The default mix is the lanewise one.
        assert_eq!(
            ZipGemm::decode_mix(1000).total(),
            ZipGemm::decode_mix_for(DecodePath::Lanewise, 1000).total()
        );
    }

    #[test]
    fn profile_paths_agree_on_decode_counts() {
        // Path-awareness changes the per-element pricing, never the number
        // of decodes: same smem-transactions-per-lds ratio, same ALU
        // ops-per-element ratio, same DRAM/tensor work.
        let w = WeightGen::new(0.018).seed(23).matrix(256, 256);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let lane = ZipGemm::new().kernel_profile_for(&tbe, 64, DecodePath::Lanewise);
        let lut = ZipGemm::new().kernel_profile_for(&tbe, 64, DecodePath::Lut);
        let decodes = DecodeCost::tile_decodes(tbe.tile_count() as u64, 1, true);
        assert_eq!(
            lane.smem.transactions,
            decodes * DecodeCost::TCA_TBE.lds_per_tile
        );
        assert_eq!(
            lut.smem.transactions,
            decodes * DecodeCost::TCA_TBE_LUT.lds_per_tile
        );
        assert_eq!(
            lane.alu.total(),
            decodes * 64 * DecodeCost::TCA_TBE.ops_per_element()
        );
        assert_eq!(
            lut.alu.total(),
            decodes * 64 * DecodeCost::TCA_TBE_LUT.ops_per_element()
        );
        assert_eq!(lane.dram.read_bytes, lut.dram.read_bytes);
        assert_eq!(lane.tensor_flops, lut.tensor_flops);
    }
}
