//! Roofline analysis and the compute-intensity formulas of §3.3
//! (Equations 1–3).
//!
//! For `Y_{M×N} = W_{M×K} · X_{K×N}` in BF16 (2 bytes/element) with FP32
//! accumulation, the model compares three pipelines:
//!
//! * **Dense GEMM** (Eq. 1): reads `2MK + 2KN`, writes `2MN`;
//! * **Decoupled** (Eq. 2): additionally reads the compressed weights
//!   (`2MK/CR`), writes the decompressed weights (`2MK`), then re-reads them
//!   (`2MK`) — the global-memory staging penalty;
//! * **ZipServ fused** (Eq. 3): reads only `2MK/CR + 2KN`, writes `2MN`.

use crate::device::DeviceSpec;

/// A GEMM problem shape (`Y = W·X`, `W: M×K`, `X: K×N`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GemmShape {
    /// Output rows (weight matrix rows).
    pub m: u64,
    /// Reduction dimension (hidden size).
    pub k: u64,
    /// Tokens in flight (batch × sequence positions processed together).
    pub n: u64,
}

impl GemmShape {
    /// Creates a shape.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(m: u64, k: u64, n: u64) -> Self {
        assert!(m > 0 && k > 0 && n > 0, "GEMM dimensions must be nonzero");
        GemmShape { m, k, n }
    }

    /// Multiply-accumulate FLOPs: `2·M·N·K`.
    pub fn flops(&self) -> f64 {
        2.0 * self.m as f64 * self.n as f64 * self.k as f64
    }

    /// Weight bytes in BF16.
    pub fn weight_bytes(&self) -> u64 {
        2 * self.m * self.k
    }

    /// Activation bytes in BF16 (input `X`).
    pub fn activation_bytes(&self) -> u64 {
        2 * self.k * self.n
    }

    /// Output bytes in BF16.
    pub fn output_bytes(&self) -> u64 {
        2 * self.m * self.n
    }
}

/// Which pipeline the compute-intensity formula describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PipelineKind {
    /// Plain dense GEMM on uncompressed weights (Eq. 1).
    DenseGemm,
    /// Decompress to global memory, then dense GEMM (Eq. 2).
    Decoupled,
    /// Fused load-compressed / compute-decompressed (Eq. 3).
    ZipServFused,
}

/// Compute intensity in FLOPs per DRAM byte for a pipeline at compression
/// ratio `cr` (e.g., 1.51 for the paper's average).
///
/// # Panics
///
/// Panics if `cr < 1`.
pub fn compute_intensity(shape: GemmShape, kind: PipelineKind, cr: f64) -> f64 {
    assert!(cr >= 1.0, "compression ratio must be >= 1");
    let (m, k, n) = (shape.m as f64, shape.k as f64, shape.n as f64);
    let flops = 2.0 * m * n * k;
    let bytes = match kind {
        // Eq. 1: MK + KN + MN elements * 2 bytes.
        PipelineKind::DenseGemm => 2.0 * (m * k + k * n + m * n),
        // Eq. 2: weights move 2/CR + 4 element-passes (read compressed,
        // write decompressed, read decompressed again + original formula's
        // accounting), activations + outputs once each.
        PipelineKind::Decoupled => m * k * (2.0 / cr + 4.0) + 2.0 * (k * n + m * n),
        // Eq. 3: weights move once, compressed.
        PipelineKind::ZipServFused => m * k * (2.0 / cr) + 2.0 * (k * n + m * n),
    };
    flops / bytes
}

/// A point on the roofline: attainable TFLOPS at a given compute intensity.
pub fn attainable_tflops(spec: &DeviceSpec, ci_flops_per_byte: f64) -> f64 {
    let mem_bound = ci_flops_per_byte * spec.dram_gbps * 1e-3; // TFLOPS
    mem_bound.min(spec.tensor_tflops_bf16)
}

/// Is a kernel with this CI memory-bound on this device?
pub fn is_memory_bound(spec: &DeviceSpec, ci_flops_per_byte: f64) -> bool {
    ci_flops_per_byte < spec.ridge_flops_per_byte()
}

/// One row of the Figure 5 dataset.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RooflinePoint {
    /// Tokens in flight.
    pub n: u64,
    /// CI of the dense GEMM (Eq. 1).
    pub ci_dense: f64,
    /// CI of the decoupled pipeline (Eq. 2).
    pub ci_decoupled: f64,
    /// CI of the fused ZipServ pipeline (Eq. 3).
    pub ci_fused: f64,
}

impl RooflinePoint {
    /// CI degradation of the decoupled pipeline vs dense (paper: ~62%).
    pub fn decoupled_degradation(&self) -> f64 {
        1.0 - self.ci_decoupled / self.ci_dense
    }

    /// CI improvement of the fused pipeline vs dense (paper: ~50%).
    pub fn fused_improvement(&self) -> f64 {
        self.ci_fused / self.ci_dense - 1.0
    }
}

/// Computes the Figure 5 series: `M = K = 4096`, sweeping batch size.
pub fn figure5_series(batch_sizes: &[u64], cr: f64) -> Vec<RooflinePoint> {
    batch_sizes
        .iter()
        .map(|&n| {
            let shape = GemmShape::new(4096, 4096, n);
            RooflinePoint {
                n,
                ci_dense: compute_intensity(shape, PipelineKind::DenseGemm, cr),
                ci_decoupled: compute_intensity(shape, PipelineKind::Decoupled, cr),
                ci_fused: compute_intensity(shape, PipelineKind::ZipServFused, cr),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Gpu;

    /// The paper's average compression ratio.
    const CR: f64 = 1.51;

    #[test]
    fn eq1_matches_closed_form() {
        let s = GemmShape::new(4096, 4096, 32);
        let ci = compute_intensity(s, PipelineKind::DenseGemm, CR);
        let (m, k, n) = (4096.0, 4096.0, 32.0);
        let want = m * n * k / (m * k + k * n + m * n);
        assert!((ci - want).abs() < 1e-9);
    }

    #[test]
    fn eq2_matches_paper_approximation() {
        // Paper approximates Eq. 2 as MNK / (2.66 MK + KN + MN) at CR=1.51.
        let s = GemmShape::new(4096, 4096, 32);
        let ci = compute_intensity(s, PipelineKind::Decoupled, CR);
        let (m, k, n) = (4096.0, 4096.0, 32.0);
        let approx = m * n * k / (2.66 * m * k + k * n + m * n);
        assert!((ci - approx).abs() / approx < 0.01, "{ci} vs {approx}");
    }

    #[test]
    fn eq3_matches_paper_approximation() {
        // Paper approximates Eq. 3 as MNK / (0.66 MK + KN + MN) at CR=1.51.
        let s = GemmShape::new(4096, 4096, 32);
        let ci = compute_intensity(s, PipelineKind::ZipServFused, CR);
        let (m, k, n) = (4096.0, 4096.0, 32.0);
        let approx = m * n * k / (0.66 * m * k + k * n + m * n);
        assert!((ci - approx).abs() / approx < 0.01, "{ci} vs {approx}");
    }

    #[test]
    fn figure5_degradation_matches_paper() {
        // Paper: CI degradation of 62.3/62.2/62.0/61.7% for batch 8/16/32/64.
        let pts = figure5_series(&[8, 16, 32, 64], CR);
        let expect = [0.623, 0.622, 0.620, 0.617];
        for (p, &want) in pts.iter().zip(expect.iter()) {
            let got = p.decoupled_degradation();
            assert!((got - want).abs() < 0.01, "N={}: {got} vs {want}", p.n);
        }
    }

    #[test]
    fn figure5_fused_improvement_about_50_percent() {
        let pts = figure5_series(&[8, 16, 32, 64], CR);
        for p in &pts {
            let gain = p.fused_improvement();
            assert!(gain > 0.40 && gain < 0.60, "N={}: gain {gain}", p.n);
        }
    }

    #[test]
    fn decode_shapes_are_memory_bound() {
        let spec = Gpu::Rtx4090.spec();
        let s = GemmShape::new(4096, 4096, 32);
        for kind in [
            PipelineKind::DenseGemm,
            PipelineKind::Decoupled,
            PipelineKind::ZipServFused,
        ] {
            let ci = compute_intensity(s, kind, CR);
            assert!(
                is_memory_bound(&spec, ci),
                "{kind:?} should be memory bound"
            );
        }
    }

    #[test]
    fn prefill_shapes_are_compute_bound() {
        let spec = Gpu::Rtx4090.spec();
        let s = GemmShape::new(4096, 4096, 8192);
        let ci = compute_intensity(s, PipelineKind::DenseGemm, CR);
        assert!(!is_memory_bound(&spec, ci), "prefill CI {ci}");
    }

    #[test]
    fn attainable_caps_at_peak() {
        let spec = Gpu::Rtx4090.spec();
        assert_eq!(attainable_tflops(&spec, 1e9), spec.tensor_tflops_bf16);
        // Memory-bound region scales linearly with CI.
        let t1 = attainable_tflops(&spec, 10.0);
        let t2 = attainable_tflops(&spec, 20.0);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fused_speedup_tracks_compression_ratio_in_memory_bound_regime() {
        // In the weight-dominated memory-bound limit (N small), the fused
        // pipeline's CI gain approaches CR.
        let s = GemmShape::new(16384, 16384, 1);
        let dense = compute_intensity(s, PipelineKind::DenseGemm, CR);
        let fused = compute_intensity(s, PipelineKind::ZipServFused, CR);
        assert!((fused / dense - CR).abs() < 0.02, "{}", fused / dense);
    }

    #[test]
    fn shape_helpers() {
        let s = GemmShape::new(8, 4, 2);
        assert_eq!(s.flops(), 2.0 * 8.0 * 4.0 * 2.0);
        assert_eq!(s.weight_bytes(), 64);
        assert_eq!(s.activation_bytes(), 16);
        assert_eq!(s.output_bytes(), 32);
    }

    #[test]
    #[should_panic(expected = "dimensions must be nonzero")]
    fn zero_dims_rejected() {
        let _ = GemmShape::new(0, 1, 1);
    }
}
