//! A functional decoder-only transformer running on the workspace's own
//! numerics — the executable proof of the paper's *bit-exact inference*
//! claim at the model level.
//!
//! Every linear layer can hold its weights dense (BF16 matrices) or
//! TCA-TBE-compressed; the compressed path computes through the fused
//! [`ZipGemm`] kernel. Because the fused kernel is bitwise identical to the
//! dense reference GEMM and every nonlinear op (RMSNorm, RoPE-free causal
//! attention, SwiGLU) is computed identically in `f32`, the *logits of the
//! compressed model equal the dense model's bit for bit* — the property the
//! paper's "lossless" claim rests on, which no lossy quantizer can offer.

use zipserv_bf16::{Bf16, Matrix};
use zipserv_core::{TbeCompressor, TbeError, ZipGemm};
use zipserv_kernels::gemm_ref;

/// Hyper-parameters of the miniature model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TinyConfig {
    /// Hidden size (must be a multiple of 8 for the compressed path).
    pub hidden: usize,
    /// Attention heads (hidden must divide evenly).
    pub heads: usize,
    /// Transformer layers.
    pub layers: usize,
    /// FFN intermediate size (multiple of 8).
    pub ffn: usize,
    /// Vocabulary size (multiple of 8).
    pub vocab: usize,
}

impl TinyConfig {
    /// A small but structurally faithful configuration.
    pub fn small() -> Self {
        TinyConfig {
            hidden: 64,
            heads: 4,
            layers: 2,
            ffn: 128,
            vocab: 256,
        }
    }

    /// Per-head dimension.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }
}

/// A linear layer storing weights dense or compressed.
#[derive(Debug, Clone)]
pub enum Linear {
    /// Dense BF16 weights.
    Dense(Matrix<Bf16>),
    /// TCA-TBE compressed weights, executed through the fused kernel.
    Compressed(zipserv_core::TbeMatrix),
}

impl Linear {
    /// `Y = W · X` (FP32 accumulation) — identical bits on both paths.
    pub fn forward(&self, x: &Matrix<Bf16>) -> Matrix<f32> {
        match self {
            Linear::Dense(w) => gemm_ref::gemm(w, x),
            Linear::Compressed(w) => ZipGemm::new().multiply(w, x),
        }
    }

    /// Compresses a dense layer in place.
    ///
    /// # Errors
    ///
    /// Propagates [`TbeError`] if the weight shape is not tileable.
    pub fn compress(&mut self) -> Result<(), TbeError> {
        if let Linear::Dense(w) = self {
            *self = Linear::Compressed(TbeCompressor::new().compress(w)?);
        }
        Ok(())
    }
}

/// One transformer block's weights.
#[derive(Debug, Clone)]
pub struct Block {
    /// Merged Q/K/V projection (`3·hidden × hidden`).
    pub qkv: Linear,
    /// Output projection (`hidden × hidden`).
    pub o: Linear,
    /// Merged gate+up projection (`2·ffn × hidden`).
    pub gate_up: Linear,
    /// Down projection (`hidden × ffn`).
    pub down: Linear,
    /// Pre-attention RMSNorm scale.
    pub norm1: Vec<f32>,
    /// Pre-FFN RMSNorm scale.
    pub norm2: Vec<f32>,
}

/// The miniature decoder-only model.
#[derive(Debug, Clone)]
pub struct TinyLlm {
    config: TinyConfig,
    embed: Matrix<Bf16>,
    blocks: Vec<Block>,
    final_norm: Vec<f32>,
    lm_head: Linear,
}

impl TinyLlm {
    /// Builds a model with deterministic pseudo-random Gaussian weights.
    ///
    /// # Panics
    ///
    /// Panics if the config dimensions are not multiples of 8 or heads do
    /// not divide the hidden size.
    pub fn random(config: TinyConfig, seed: u64) -> Self {
        assert!(
            config.hidden.is_multiple_of(8)
                && config.ffn.is_multiple_of(8)
                && config.vocab.is_multiple_of(8)
        );
        assert_eq!(config.hidden % config.heads, 0, "heads must divide hidden");
        use zipserv_bf16::gen::WeightGen;
        let sigma = (2.0 / config.hidden as f64).sqrt();
        let gen = |rows: usize, cols: usize, salt: u64| {
            WeightGen::new(sigma).seed(seed ^ salt).matrix(rows, cols)
        };
        let blocks = (0..config.layers)
            .map(|l| {
                let salt = (l as u64 + 1) << 16;
                Block {
                    qkv: Linear::Dense(gen(3 * config.hidden, config.hidden, salt)),
                    o: Linear::Dense(gen(config.hidden, config.hidden, salt | 1)),
                    gate_up: Linear::Dense(gen(2 * config.ffn, config.hidden, salt | 2)),
                    down: Linear::Dense(gen(config.hidden, config.ffn, salt | 3)),
                    norm1: vec![1.0; config.hidden],
                    norm2: vec![1.0; config.hidden],
                }
            })
            .collect();
        TinyLlm {
            config,
            embed: gen(config.vocab, config.hidden, 0xE),
            blocks,
            final_norm: vec![1.0; config.hidden],
            lm_head: Linear::Dense(gen(config.vocab, config.hidden, 0xF)),
        }
    }

    /// The configuration.
    pub fn config(&self) -> TinyConfig {
        self.config
    }

    /// Compresses every linear layer to TCA-TBE.
    ///
    /// # Errors
    ///
    /// Propagates [`TbeError`] from any layer.
    pub fn compress_weights(&mut self) -> Result<(), TbeError> {
        for b in &mut self.blocks {
            b.qkv.compress()?;
            b.o.compress()?;
            b.gate_up.compress()?;
            b.down.compress()?;
        }
        self.lm_head.compress()
    }

    /// Forward pass over a token sequence; returns the `vocab × seq` logit
    /// matrix in FP32.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is empty or contains out-of-vocab ids.
    pub fn forward(&self, tokens: &[u32]) -> Matrix<f32> {
        assert!(!tokens.is_empty(), "need at least one token");
        let (h, seq) = (self.config.hidden, tokens.len());
        // Activations are column-per-token: hidden × seq.
        let mut x = Matrix::<Bf16>::zeros(h, seq);
        for (t, &tok) in tokens.iter().enumerate() {
            assert!(
                (tok as usize) < self.config.vocab,
                "token {tok} out of vocab"
            );
            for d in 0..h {
                x[(d, t)] = self.embed[(tok as usize, d)];
            }
        }

        for block in &self.blocks {
            // Attention sub-block with pre-norm and residual.
            let normed = rmsnorm(&x, &block.norm1);
            let qkv = to_bf16(&block.qkv.forward(&normed));
            let attn = self.attention(&qkv, seq);
            let attn_out = block.o.forward(&attn);
            let x1 = residual_add(&x, &attn_out);

            // FFN sub-block (SwiGLU).
            let normed = rmsnorm(&x1, &block.norm2);
            let gate_up = block.gate_up.forward(&normed);
            let activated = swiglu(&gate_up, self.config.ffn);
            let ffn_out = block.down.forward(&activated);
            x = residual_add(&x1, &ffn_out);
        }

        let normed = rmsnorm(&x, &self.final_norm);
        self.lm_head.forward(&normed)
    }

    /// Greedy decoding: appends `new_tokens` tokens to the prompt.
    pub fn generate(&self, prompt: &[u32], new_tokens: usize) -> Vec<u32> {
        let mut tokens = prompt.to_vec();
        for _ in 0..new_tokens {
            let logits = self.forward(&tokens);
            let last = tokens.len() - 1;
            let mut best = (0u32, f32::NEG_INFINITY);
            for v in 0..self.config.vocab {
                let l = logits[(v, last)];
                if l > best.1 {
                    best = (v as u32, l);
                }
            }
            tokens.push(best.0);
        }
        tokens
    }

    /// Causal multi-head attention over the merged QKV activations
    /// (`3·hidden × seq`). Softmax in `f64` for determinism headroom, then
    /// rounded through `f32`.
    fn attention(&self, qkv: &Matrix<Bf16>, seq: usize) -> Matrix<Bf16> {
        let (h, heads, hd) = (
            self.config.hidden,
            self.config.heads,
            self.config.head_dim(),
        );
        let scale = 1.0 / (hd as f64).sqrt();
        let mut out = Matrix::<Bf16>::zeros(h, seq);
        for head in 0..heads {
            let q0 = head * hd;
            let k0 = h + head * hd;
            let v0 = 2 * h + head * hd;
            for t in 0..seq {
                // Scores over positions 0..=t (causal).
                let mut scores = Vec::with_capacity(t + 1);
                let mut max = f64::NEG_INFINITY;
                for s in 0..=t {
                    let mut dot = 0.0f64;
                    for d in 0..hd {
                        dot += qkv[(q0 + d, t)].to_f32() as f64 * qkv[(k0 + d, s)].to_f32() as f64;
                    }
                    let score = dot * scale;
                    max = max.max(score);
                    scores.push(score);
                }
                let mut denom = 0.0f64;
                for s in scores.iter_mut() {
                    *s = (*s - max).exp();
                    denom += *s;
                }
                for d in 0..hd {
                    let mut acc = 0.0f64;
                    for (s, w) in scores.iter().enumerate() {
                        acc += w / denom * qkv[(v0 + d, s)].to_f32() as f64;
                    }
                    out[(q0 + d, t)] = Bf16::from_f32(acc as f32);
                }
            }
        }
        out
    }
}

/// RMSNorm over the hidden dimension, per token column.
fn rmsnorm(x: &Matrix<Bf16>, scale: &[f32]) -> Matrix<Bf16> {
    let (h, seq) = (x.rows(), x.cols());
    assert_eq!(scale.len(), h, "scale length mismatch");
    let mut out = Matrix::<Bf16>::zeros(h, seq);
    for t in 0..seq {
        let mut ss = 0.0f64;
        for d in 0..h {
            let v = x[(d, t)].to_f32() as f64;
            ss += v * v;
        }
        let inv = 1.0 / (ss / h as f64 + 1e-6).sqrt();
        for d in 0..h {
            out[(d, t)] = Bf16::from_f32((x[(d, t)].to_f32() as f64 * inv) as f32 * scale[d]);
        }
    }
    out
}

/// Residual add through BF16 (matching serving numerics).
fn residual_add(x: &Matrix<Bf16>, delta: &Matrix<f32>) -> Matrix<Bf16> {
    assert_eq!((x.rows(), x.cols()), (delta.rows(), delta.cols()));
    Matrix::from_fn(x.rows(), x.cols(), |r, c| {
        Bf16::from_f32(x[(r, c)].to_f32() + delta[(r, c)])
    })
}

/// SwiGLU: rows `[0, ffn)` are the gate, `[ffn, 2ffn)` the up projection;
/// output is `silu(gate) * up`, rounded to BF16.
fn swiglu(gate_up: &Matrix<f32>, ffn: usize) -> Matrix<Bf16> {
    assert_eq!(gate_up.rows(), 2 * ffn, "gate+up rows");
    Matrix::from_fn(ffn, gate_up.cols(), |r, c| {
        let g = gate_up[(r, c)];
        let u = gate_up[(ffn + r, c)];
        let silu = g / (1.0 + (-g).exp());
        Bf16::from_f32(silu * u)
    })
}

/// Rounds an FP32 activation matrix to BF16 (inter-layer precision).
fn to_bf16(x: &Matrix<f32>) -> Matrix<Bf16> {
    Matrix::from_fn(x.rows(), x.cols(), |r, c| Bf16::from_f32(x[(r, c)]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shapes() {
        let model = TinyLlm::random(TinyConfig::small(), 1);
        let logits = model.forward(&[3, 1, 4, 1, 5]);
        assert_eq!((logits.rows(), logits.cols()), (256, 5));
    }

    #[test]
    fn compressed_model_is_bit_exact() {
        // The repository's central claim, end to end: compressing every
        // linear layer changes no output bit.
        let dense = TinyLlm::random(TinyConfig::small(), 7);
        let mut compressed = dense.clone();
        compressed.compress_weights().expect("tileable layers");
        let tokens = [10u32, 200, 33, 7];
        let a = dense.forward(&tokens);
        let b = compressed.forward(&tokens);
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn greedy_generation_identical_after_compression() {
        let dense = TinyLlm::random(TinyConfig::small(), 42);
        let mut compressed = dense.clone();
        compressed.compress_weights().expect("tileable layers");
        let a = dense.generate(&[1, 2, 3], 12);
        let b = compressed.generate(&[1, 2, 3], 12);
        assert_eq!(a, b, "token-for-token identical generation");
        assert_eq!(a.len(), 15);
    }

    #[test]
    fn generation_is_deterministic() {
        let model = TinyLlm::random(TinyConfig::small(), 5);
        assert_eq!(model.generate(&[9], 6), model.generate(&[9], 6));
    }

    #[test]
    fn causality_prefix_invariance() {
        // Logits for position t depend only on tokens 0..=t.
        let model = TinyLlm::random(TinyConfig::small(), 11);
        let full = model.forward(&[5, 6, 7, 8]);
        let prefix = model.forward(&[5, 6]);
        for v in 0..model.config().vocab {
            assert_eq!(full[(v, 0)].to_bits(), prefix[(v, 0)].to_bits());
            assert_eq!(full[(v, 1)].to_bits(), prefix[(v, 1)].to_bits());
        }
    }

    #[test]
    fn different_seeds_give_different_models() {
        let a = TinyLlm::random(TinyConfig::small(), 1).forward(&[1]);
        let b = TinyLlm::random(TinyConfig::small(), 2).forward(&[1]);
        assert_ne!(a.as_slice(), b.as_slice());
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn out_of_vocab_rejected() {
        let model = TinyLlm::random(TinyConfig::small(), 1);
        let _ = model.forward(&[9999]);
    }
}
