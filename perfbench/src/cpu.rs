//! Probes of the real CPU kernels of the TCA-TBE format: ZipGEMM, tile
//! decode, compression and the compressed forward pass they sit in.
//!
//! The simulator only prices these kernels, so `paper_mix_long`'s traced run
//! measures them here, on a `TinyLlm` with realistic aspect ratios whose
//! weights and tokens derive from the workload seed.

use std::time::Instant;

use zipserv_bf16::gen::WeightGen;
use zipserv_bf16::{Bf16, Matrix};
use zipserv_core::decompress::{decode_tile_lut, DecodeCost};
use zipserv_core::zipgemm::TILE_N;
use zipserv_core::{TbeCompressor, TbeMatrix, ZipGemm};
use zipserv_serve::transformer::{TinyConfig, TinyLlm};

use crate::report::{Kind, Outcome};
use crate::spans::{Tracer, NO_REQ};
use crate::stats::{self, sub_seed};

const CONFIG: TinyConfig = TinyConfig {
    hidden: 256,
    heads: 4,
    layers: 4,
    ffn: 704,
    vocab: 4096,
};
/// Context length of the probes: the middle of a decode of 16 tokens after
/// a 32-token prompt.
const PROBE_CONTEXT: usize = 40;
const PROBE_REPS: usize = 7;
const COMPRESS_REPS: usize = 3;

const WEIGHT_SALT: u64 = 3;
const PROMPT_SALT: u64 = 4;

/// [`PROBE_CONTEXT`] seed-derived tokens (xorshift64).
fn tokens(seed: u64) -> Vec<u32> {
    let mut state = sub_seed(seed, PROMPT_SALT) | 1;
    (0..PROBE_CONTEXT)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % CONFIG.vocab as u64) as u32
        })
        .collect()
}

/// The model's linear layers rebuilt with `TinyLlm::random`'s `WeightGen`
/// recipe (same σ, seed and per-layer salts), each with its compressed form.
struct LayerWeights {
    mats: Vec<(Matrix<Bf16>, TbeMatrix)>,
}

impl LayerWeights {
    fn new(seed: u64) -> Self {
        let (h, f) = (CONFIG.hidden, CONFIG.ffn);
        let sigma = (2.0 / h as f64).sqrt();
        let mut shapes = Vec::new();
        for l in 0..CONFIG.layers as u64 {
            let salt = (l + 1) << 16;
            shapes.extend([
                (3 * h, h, salt),
                (h, h, salt | 1),
                (2 * f, h, salt | 2),
                (h, f, salt | 3),
            ]);
        }
        shapes.push((CONFIG.vocab, h, 0xF));
        let mats = shapes
            .into_iter()
            .map(|(rows, cols, salt)| {
                let w = WeightGen::new(sigma).seed(seed ^ salt).matrix(rows, cols);
                let c = compressor().compress(&w).expect("tileable layer");
                (w, c)
            })
            .collect();
        LayerWeights { mats }
    }
}

/// Single-threaded, so compression speed does not depend on core count.
fn compressor() -> TbeCompressor {
    TbeCompressor::new().with_threads(1)
}

fn median_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    let samples: Vec<f64> = (0..reps).map(|_| f()).collect();
    stats::median(&samples)
}

/// ZipGEMM, tile decode and compression over every linear layer, and the
/// whole forward pass they sit in, at [`PROBE_CONTEXT`] tokens.
pub fn kernel_probes(seed: u64, tracer: &Tracer, out: &mut Outcome) {
    let weight_seed = sub_seed(seed, WEIGHT_SALT);
    let mut zip = TinyLlm::random(CONFIG, weight_seed);
    zip.compress_weights()
        .expect("every layer shape is tileable");
    let layers = LayerWeights::new(weight_seed);
    let tokens = tokens(seed);

    // ZipGEMM over every linear layer against the whole forward pass at the
    // same context, timed in pairs so a change in the host's speed between
    // repetitions moves both sides of each ratio alike.
    let acts: Vec<Matrix<Bf16>> = layers
        .mats
        .iter()
        .map(|(w, _)| {
            WeightGen::new(1.0)
                .seed(w.cols() as u64)
                .matrix(w.cols(), PROBE_CONTEXT)
        })
        .collect();
    let kernel = ZipGemm::new();
    let mut gemm_s = Vec::new();
    let mut shares = Vec::new();
    for _ in 0..PROBE_REPS {
        let t0 = Instant::now();
        tracer.span("transformer.forward", NO_REQ, || {
            std::hint::black_box(zip.forward(&tokens))
        });
        let t1 = Instant::now();
        for ((_, w), x) in layers.mats.iter().zip(&acts) {
            tracer.span("zipgemm.multiply", NO_REQ, || {
                std::hint::black_box(kernel.multiply(w, x))
            });
        }
        let gemm = t1.elapsed().as_secs_f64();
        gemm_s.push(gemm);
        shares.push(gemm / (t1 - t0).as_secs_f64());
    }
    let share = stats::median(&shares);
    out.set(
        "zipgemm.share_of_forward",
        share,
        Kind::Measured,
        PROBE_REPS,
    );
    out.set(
        "transformer.self_share",
        1.0 - share,
        Kind::Measured,
        PROBE_REPS,
    );
    let n = PROBE_CONTEXT;
    let mut flops = 0usize;
    let mut bytes = 0usize;
    let mut tiles = 0usize;
    let mut tile_decodes = 0u64;
    for (_, w) in &layers.mats {
        let (m, k) = (w.rows(), w.cols());
        flops += 2 * m * k * n;
        // Computed from tensor sizes: compressed weights in, BF16
        // activations in, FP32 outputs out.
        bytes += w.stats().compressed_bytes() + 2 * k * n + 4 * m * n;
        tiles += w.tile_count();
        tile_decodes +=
            DecodeCost::tile_decodes(w.tile_count() as u64, (n as u64).div_ceil(TILE_N), true);
    }
    out.set(
        "zipgemm.gflop_per_s",
        flops as f64 / stats::median(&gemm_s) / 1e9,
        Kind::Measured,
        PROBE_REPS,
    );
    out.set("zipgemm.flops_per_forward", flops as f64, Kind::Modeled, 1);
    out.set("zipgemm.bytes_per_forward", bytes as f64, Kind::Modeled, 1);
    out.set(
        "decompress.tiles_per_forward",
        tile_decodes as f64,
        Kind::Modeled,
        1,
    );

    let decode_s = median_of(PROBE_REPS, || {
        let t0 = Instant::now();
        tracer.span("decompress.decode_tile_lut", NO_REQ, || {
            for (_, w) in &layers.mats {
                for seq in 0..w.tile_count() {
                    std::hint::black_box(decode_tile_lut(w.tile_view(seq), w.base_exp()));
                }
            }
        });
        t0.elapsed().as_secs_f64()
    });
    out.set(
        "decompress.mtiles_per_s",
        tiles as f64 / decode_s / 1e6,
        Kind::Measured,
        PROBE_REPS,
    );
    let weights: usize = layers.mats.iter().map(|(w, _)| w.len()).sum();
    let compress_s = median_of(COMPRESS_REPS, || {
        let t0 = Instant::now();
        tracer.span("compress.compress", NO_REQ, || {
            for (w, _) in &layers.mats {
                std::hint::black_box(compressor().compress(w).expect("tileable layer"));
            }
        });
        t0.elapsed().as_secs_f64()
    });
    out.set(
        "compress.mweights_per_s",
        weights as f64 / compress_s / 1e6,
        Kind::Measured,
        COMPRESS_REPS,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_seeded_and_in_vocab() {
        let a = tokens(1);
        assert_eq!(a, tokens(1));
        assert_ne!(a, tokens(2));
        assert_eq!(a.len(), PROBE_CONTEXT);
        assert!(a.iter().all(|&t| (t as usize) < CONFIG.vocab));
    }
}
