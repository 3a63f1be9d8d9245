//! The offline TCA-TBE compressor (Algorithm 1).
//!
//! Phase I profiles the global exponent histogram and selects the coverage-
//! maximizing window of 7 numerically consecutive exponents, recording
//! `BaseExp = min(window) − 1`. Phase II encodes every 8×8 tile into the
//! triple-bitmap representation. Tile encoding is embarrassingly parallel;
//! the compressor shards BlockTiles across worker threads (the paper
//! compresses LLaMA-3.1-8B in ~2.5 minutes on 16 cores).

use crate::error::TbeError;
use crate::format::layout::{block_sequence, TbeMatrix};
use crate::format::tile::EncodedTile;
use crate::format::WINDOW;
use zipserv_bf16::stats::ExponentHistogram;
use zipserv_bf16::{Bf16, Matrix};

/// The offline compressor.
///
/// # Example
///
/// ```
/// use zipserv_bf16::gen::WeightGen;
/// use zipserv_core::TbeCompressor;
///
/// let w = WeightGen::new(0.02).seed(3).matrix(64, 64);
/// let tbe = TbeCompressor::new().compress(&w)?;
/// assert_eq!(tbe.decompress(), w);
/// # Ok::<(), zipserv_core::TbeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TbeCompressor {
    threads: usize,
}

impl Default for TbeCompressor {
    fn default() -> Self {
        Self::new()
    }
}

impl TbeCompressor {
    /// A compressor using all available parallelism.
    pub fn new() -> Self {
        TbeCompressor {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }

    /// Restricts the worker-thread count (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one thread");
        self.threads = threads;
        self
    }

    /// Selects the base exponent for a matrix: the best contiguous 7-window
    /// of the global histogram, clamped so that codeword 0 stays reserved
    /// (windows starting at exponent 0 are shifted up by one).
    pub fn select_base_exp(histogram: &ExponentHistogram) -> u8 {
        let w = histogram.best_contiguous_window(WINDOW);
        if w.start == 0 {
            // Exponent 0 (zero/subnormal) cannot be in the window because
            // `c = e - base` must be >= 1; shift the window to [1, 7].
            0
        } else {
            w.start - 1
        }
    }

    /// Compresses a BF16 matrix into the TCA-TBE format (Algorithm 1).
    ///
    /// # Errors
    ///
    /// Returns [`TbeError::Empty`] for an empty matrix and
    /// [`TbeError::NotTileable`] when the dimensions are not multiples of 8.
    pub fn compress(&self, matrix: &Matrix<Bf16>) -> Result<TbeMatrix, TbeError> {
        if matrix.is_empty() {
            return Err(TbeError::Empty);
        }
        if !matrix.is_tileable() {
            return Err(TbeError::NotTileable {
                rows: matrix.rows(),
                cols: matrix.cols(),
            });
        }

        // Phase I: global exponent analysis.
        let histogram = ExponentHistogram::from_matrix(matrix);
        let base_exp = Self::select_base_exp(&histogram);

        // Phase II: tile encoding, sharded over BlockTiles.
        let blocks = block_sequence(matrix.rows(), matrix.cols());
        let encoded = self.encode_blocks(matrix, base_exp, &blocks);

        Ok(TbeMatrix::assemble(
            matrix.rows(),
            matrix.cols(),
            base_exp,
            &encoded,
        ))
    }

    fn encode_blocks(
        &self,
        matrix: &Matrix<Bf16>,
        base_exp: u8,
        blocks: &[Vec<(usize, usize)>],
    ) -> Vec<Vec<EncodedTile>> {
        let encode_one = |tiles: &[(usize, usize)]| -> Vec<EncodedTile> {
            tiles
                .iter()
                .map(|&(tr, tc)| EncodedTile::encode(&matrix.tile(tr, tc), base_exp))
                .collect()
        };

        let workers = self.threads.min(blocks.len()).max(1);
        if workers == 1 {
            return blocks.iter().map(|b| encode_one(b)).collect();
        }

        // Shard blocks across scoped worker threads, preserving order.
        let chunk = blocks.len().div_ceil(workers);
        std::thread::scope(|scope| {
            let handles: Vec<_> = blocks
                .chunks(chunk)
                .map(|shard| {
                    scope.spawn(move || shard.iter().map(|b| encode_one(b)).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("compressor worker panicked"))
                .collect()
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use zipserv_bf16::gen::WeightGen;

    #[test]
    fn roundtrip_gaussian() {
        let w = WeightGen::new(0.02).seed(1).matrix(128, 192);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        assert_eq!(tbe.decompress(), w);
    }

    #[test]
    fn roundtrip_single_threaded_equals_parallel() {
        let w = WeightGen::new(0.015).seed(2).matrix(256, 128);
        let seq = TbeCompressor::new().with_threads(1).compress(&w).unwrap();
        let par = TbeCompressor::new().with_threads(8).compress(&w).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn compression_ratio_in_paper_band() {
        // §6.5: compressed size 71–72.4% of raw for the evaluated models.
        let w = WeightGen::new(0.018).seed(3).matrix(512, 512);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let pct = tbe.stats().size_percent();
        assert!(pct > 68.0 && pct < 75.0, "size {pct}%");
        // ~11.3 bits/element (§4.2's AverageBits analysis).
        let bits = tbe.stats().bits_per_element();
        assert!(bits > 10.8 && bits < 12.0, "bits {bits}");
    }

    #[test]
    fn coverage_in_paper_band() {
        let w = WeightGen::new(0.0125).seed(4).matrix(256, 256);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let cov = tbe.stats().coverage();
        assert!(cov > 0.94, "coverage {cov}");
    }

    #[test]
    fn rejects_untileable() {
        let w = WeightGen::new(0.02).matrix(9, 16);
        assert!(matches!(
            TbeCompressor::new().compress(&w),
            Err(TbeError::NotTileable { rows: 9, cols: 16 })
        ));
    }

    #[test]
    fn rejects_empty() {
        let w = Matrix::<Bf16>::zeros(0, 0);
        assert_eq!(TbeCompressor::new().compress(&w), Err(TbeError::Empty));
    }

    #[test]
    fn all_zero_matrix_roundtrips() {
        // Exponent 0 everywhere: the window is forced off zero, so every
        // element takes the fallback path — lossless but incompressible.
        let w = Matrix::<Bf16>::zeros(64, 64);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        assert_eq!(tbe.decompress(), w);
        assert_eq!(tbe.stats().high_freq_elems, 0);
    }

    #[test]
    fn adversarial_bit_patterns_roundtrip() {
        // Cycle through every 16-bit pattern, including NaNs and infinities.
        let w = Matrix::from_fn(64, 128, |r, c| {
            Bf16::from_bits(((r * 128 + c) * 9 % 65536) as u16)
        });
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let out = tbe.decompress();
        for r in 0..64 {
            for c in 0..128 {
                assert_eq!(w[(r, c)].to_bits(), out[(r, c)].to_bits(), "({r},{c})");
            }
        }
    }

    #[test]
    fn base_exp_matches_window_minus_one() {
        let w = WeightGen::new(0.02).seed(7).matrix(64, 64);
        let hist = ExponentHistogram::from_matrix(&w);
        let window = hist.best_contiguous_window(7);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        assert_eq!(tbe.base_exp(), window.start - 1);
    }

    #[test]
    fn outlier_heavy_weights_still_roundtrip() {
        let w = WeightGen::new(0.02)
            .seed(9)
            .outliers(0.2, 64.0)
            .matrix(128, 128);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        assert_eq!(tbe.decompress(), w);
        // Heavy outliers push coverage down and the size up.
        assert!(tbe.stats().coverage() < 0.95);
    }
}
