//! The layer-shape catalog: weight-matrix dimensions of the LLM families
//! benchmarked in §6.1, plus the model-level metadata the serving substrate
//! needs.

use zipserv_bf16::gen::ModelFamily;
use zipserv_gpu_sim::roofline::GemmShape;

/// The LLMs whose layer shapes the paper benchmarks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LlmModel {
    /// LLaMA-3.1-8B.
    Llama31_8b,
    /// LLaMA-3.1-70B.
    Llama31_70b,
    /// LLaMA-3.1-405B.
    Llama31_405b,
    /// Qwen2.5-7B.
    Qwen25_7b,
    /// Qwen2.5-14B.
    Qwen25_14b,
    /// Qwen2.5-32B.
    Qwen25_32b,
    /// Qwen2.5-72B.
    Qwen25_72b,
    /// Gemma-3-12B.
    Gemma3_12b,
    /// Gemma-3-27B.
    Gemma3_27b,
    /// Mistral-Small-24B.
    Mistral24b,
    /// Mistral-Large-123B.
    Mistral123b,
}

/// Architecture hyper-parameters of one model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelDims {
    /// Hidden size.
    pub hidden: u64,
    /// FFN intermediate size.
    pub intermediate: u64,
    /// Attention heads.
    pub heads: u64,
    /// KV heads (GQA).
    pub kv_heads: u64,
    /// Head dimension.
    pub head_dim: u64,
    /// Transformer layers.
    pub layers: u64,
    /// Vocabulary size.
    pub vocab: u64,
}

impl ModelDims {
    /// Total weight elements of one transformer block's linear layers.
    pub fn block_linear_elements(&self) -> u64 {
        LayerKind::BLOCK
            .iter()
            .map(|l| {
                let (m, k) = l.weight_dims(self);
                m * k
            })
            .sum()
    }

    /// Approximate total parameter count (blocks + embeddings + LM head).
    pub fn total_params(&self) -> u64 {
        self.layers * self.block_linear_elements() + 2 * self.vocab * self.hidden
    }

    /// BF16 weight bytes of the whole model.
    pub fn weight_bytes_bf16(&self) -> u64 {
        2 * self.total_params()
    }

    /// KV-cache bytes per token (2 tensors × kv_heads × head_dim × BF16).
    pub fn kv_bytes_per_token(&self) -> u64 {
        2 * 2 * self.kv_heads * self.head_dim * self.layers
    }
}

impl LlmModel {
    /// All models of the kernel benchmark.
    pub const ALL: [LlmModel; 11] = [
        LlmModel::Llama31_8b,
        LlmModel::Llama31_70b,
        LlmModel::Llama31_405b,
        LlmModel::Qwen25_7b,
        LlmModel::Qwen25_14b,
        LlmModel::Qwen25_32b,
        LlmModel::Qwen25_72b,
        LlmModel::Gemma3_12b,
        LlmModel::Gemma3_27b,
        LlmModel::Mistral24b,
        LlmModel::Mistral123b,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            LlmModel::Llama31_8b => "LLaMA3.1-8B",
            LlmModel::Llama31_70b => "LLaMA3.1-70B",
            LlmModel::Llama31_405b => "LLaMA3.1-405B",
            LlmModel::Qwen25_7b => "Qwen2.5-7B",
            LlmModel::Qwen25_14b => "Qwen2.5-14B",
            LlmModel::Qwen25_32b => "Qwen2.5-32B",
            LlmModel::Qwen25_72b => "Qwen2.5-72B",
            LlmModel::Gemma3_12b => "Gemma3-12B",
            LlmModel::Gemma3_27b => "Gemma3-27B",
            LlmModel::Mistral24b => "Mistral-24B",
            LlmModel::Mistral123b => "Mistral-123B",
        }
    }

    /// The statistical weight family (sets the synthetic-weight σ).
    pub fn family(self) -> ModelFamily {
        match self {
            LlmModel::Llama31_8b | LlmModel::Llama31_70b | LlmModel::Llama31_405b => {
                ModelFamily::Llama3
            }
            LlmModel::Qwen25_7b
            | LlmModel::Qwen25_14b
            | LlmModel::Qwen25_32b
            | LlmModel::Qwen25_72b => ModelFamily::Qwen25,
            LlmModel::Gemma3_12b | LlmModel::Gemma3_27b => ModelFamily::Gemma3,
            LlmModel::Mistral24b | LlmModel::Mistral123b => ModelFamily::Mistral,
        }
    }

    /// Architecture hyper-parameters (public model-card values).
    pub fn dims(self) -> ModelDims {
        match self {
            LlmModel::Llama31_8b => ModelDims {
                hidden: 4096,
                intermediate: 14336,
                heads: 32,
                kv_heads: 8,
                head_dim: 128,
                layers: 32,
                vocab: 128_256,
            },
            LlmModel::Llama31_70b => ModelDims {
                hidden: 8192,
                intermediate: 28672,
                heads: 64,
                kv_heads: 8,
                head_dim: 128,
                layers: 80,
                vocab: 128_256,
            },
            LlmModel::Llama31_405b => ModelDims {
                hidden: 16384,
                intermediate: 53248,
                heads: 128,
                kv_heads: 8,
                head_dim: 128,
                layers: 126,
                vocab: 128_256,
            },
            LlmModel::Qwen25_7b => ModelDims {
                hidden: 3584,
                intermediate: 18944,
                heads: 28,
                kv_heads: 4,
                head_dim: 128,
                layers: 28,
                vocab: 152_064,
            },
            LlmModel::Qwen25_14b => ModelDims {
                hidden: 5120,
                intermediate: 13824,
                heads: 40,
                kv_heads: 8,
                head_dim: 128,
                layers: 48,
                vocab: 152_064,
            },
            LlmModel::Qwen25_32b => ModelDims {
                hidden: 5120,
                intermediate: 27648,
                heads: 40,
                kv_heads: 8,
                head_dim: 128,
                layers: 64,
                vocab: 152_064,
            },
            LlmModel::Qwen25_72b => ModelDims {
                hidden: 8192,
                intermediate: 29568,
                heads: 64,
                kv_heads: 8,
                head_dim: 128,
                layers: 80,
                vocab: 152_064,
            },
            LlmModel::Gemma3_12b => ModelDims {
                hidden: 3840,
                intermediate: 15360,
                heads: 16,
                kv_heads: 8,
                head_dim: 256,
                layers: 48,
                vocab: 262_144,
            },
            LlmModel::Gemma3_27b => ModelDims {
                hidden: 5376,
                intermediate: 21504,
                heads: 32,
                kv_heads: 16,
                head_dim: 128,
                layers: 62,
                vocab: 262_144,
            },
            LlmModel::Mistral24b => ModelDims {
                hidden: 5120,
                intermediate: 32768,
                heads: 32,
                kv_heads: 8,
                head_dim: 128,
                layers: 40,
                vocab: 131_072,
            },
            LlmModel::Mistral123b => ModelDims {
                hidden: 12288,
                intermediate: 28672,
                heads: 96,
                kv_heads: 8,
                head_dim: 128,
                layers: 88,
                vocab: 32_768,
            },
        }
    }
}

impl core::fmt::Display for LlmModel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// The linear layers profiled within a transformer block (§6.1 workloads).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Merged query/key/value projection.
    QkvProj,
    /// Attention output projection.
    OProj,
    /// Merged FFN gate + up projection.
    GateUpProj,
    /// FFN down projection.
    DownProj,
    /// The model's LM head.
    LmHead,
}

impl LayerKind {
    /// The four per-block linear layers.
    pub const BLOCK: [LayerKind; 4] = [
        LayerKind::QkvProj,
        LayerKind::OProj,
        LayerKind::GateUpProj,
        LayerKind::DownProj,
    ];

    /// All profiled layers including the LM head.
    pub const ALL: [LayerKind; 5] = [
        LayerKind::QkvProj,
        LayerKind::OProj,
        LayerKind::GateUpProj,
        LayerKind::DownProj,
        LayerKind::LmHead,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            LayerKind::QkvProj => "QKV_proj",
            LayerKind::OProj => "O_proj",
            LayerKind::GateUpProj => "GateUp_proj",
            LayerKind::DownProj => "Down_proj",
            LayerKind::LmHead => "LM_head",
        }
    }

    /// The weight matrix dimensions `(M, K)` for this layer in a model.
    pub fn weight_dims(self, dims: &ModelDims) -> (u64, u64) {
        match self {
            LayerKind::QkvProj => (
                (dims.heads + 2 * dims.kv_heads) * dims.head_dim,
                dims.hidden,
            ),
            LayerKind::OProj => (dims.hidden, dims.heads * dims.head_dim),
            LayerKind::GateUpProj => (2 * dims.intermediate, dims.hidden),
            LayerKind::DownProj => (dims.hidden, dims.intermediate),
            LayerKind::LmHead => (dims.vocab, dims.hidden),
        }
    }

    /// The GEMM problem for this layer with `n` tokens in flight.
    pub fn gemm_shape(self, model: LlmModel, n: u64) -> GemmShape {
        let (m, k) = self.weight_dims(&model.dims());
        GemmShape::new(m, k, n)
    }
}

impl core::fmt::Display for LayerKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn llama8b_gateup_is_the_paper_shape() {
        // §6.1 micro-analysis uses M=28672, K=4096 (the merged GateUp of
        // LLaMA3.1-8B).
        let s = LayerKind::GateUpProj.gemm_shape(LlmModel::Llama31_8b, 32);
        assert_eq!((s.m, s.k, s.n), (28672, 4096, 32));
    }

    #[test]
    fn llama8b_qkv_gqa_shape() {
        // 32 Q heads + 2×8 KV heads at dim 128 = 6144 output rows.
        let s = LayerKind::QkvProj.gemm_shape(LlmModel::Llama31_8b, 8);
        assert_eq!((s.m, s.k), (6144, 4096));
    }

    #[test]
    fn oproj_is_the_small_shape() {
        let s = LayerKind::OProj.gemm_shape(LlmModel::Llama31_8b, 32);
        assert_eq!((s.m, s.k), (4096, 4096));
    }

    #[test]
    fn every_model_layer_is_tileable() {
        for model in LlmModel::ALL {
            for layer in LayerKind::ALL {
                let (m, k) = layer.weight_dims(&model.dims());
                assert_eq!(m % 8, 0, "{model} {layer} M={m}");
                assert_eq!(k % 8, 0, "{model} {layer} K={k}");
            }
        }
    }

    #[test]
    fn parameter_counts_in_expected_band() {
        // Within ±20% of the marketing parameter counts.
        let cases = [
            (LlmModel::Llama31_8b, 8.0e9),
            (LlmModel::Llama31_70b, 70.0e9),
            (LlmModel::Llama31_405b, 405.0e9),
            (LlmModel::Qwen25_32b, 32.0e9),
            (LlmModel::Mistral24b, 24.0e9),
        ];
        for (model, want) in cases {
            let got = model.dims().total_params() as f64;
            let rel = (got - want).abs() / want;
            assert!(rel < 0.25, "{model}: {got:.2e} vs {want:.2e}");
        }
    }

    #[test]
    fn weight_footprints_match_section_65() {
        // §6.5: 14.96 GB (8B), 43.92 GB (24B), 131.56 GB (70B) weight bytes.
        let gb = |m: LlmModel| m.dims().weight_bytes_bf16() as f64 / 1e9;
        assert!(
            (gb(LlmModel::Llama31_8b) - 14.96).abs() < 2.0,
            "{}",
            gb(LlmModel::Llama31_8b)
        );
        assert!(
            (gb(LlmModel::Mistral24b) - 43.92).abs() < 4.5,
            "{}",
            gb(LlmModel::Mistral24b)
        );
        assert!(
            (gb(LlmModel::Llama31_70b) - 131.56).abs() < 12.0,
            "{}",
            gb(LlmModel::Llama31_70b)
        );
    }

    #[test]
    fn kv_bytes_per_token() {
        // LLaMA3.1-8B: 2 × 2 × 8 × 128 × 32 layers = 131072 bytes/token.
        assert_eq!(LlmModel::Llama31_8b.dims().kv_bytes_per_token(), 131_072);
    }

    #[test]
    fn family_mapping() {
        assert_eq!(LlmModel::Qwen25_72b.family(), ModelFamily::Qwen25);
        assert_eq!(LlmModel::Gemma3_12b.family(), ModelFamily::Gemma3);
    }
}
