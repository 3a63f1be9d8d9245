//! Matrix-level TCA-TBE layout: hierarchical tile ordering and the four
//! contiguous global arrays (§4.2, "Hierarchical Tiling Design").
//!
//! Tiles are stored BlockTile-major (64×64, one thread block), then
//! TensorCoreTile-major (16×16, one `mma` operand), and the four 8×8
//! FragTiles inside a TensorCoreTile in **column-major** order — mirroring
//! the Ra0–Ra3 operand register sequence so no runtime coordinate
//! transformation is needed.
//!
//! Value buffers are concatenated per BlockTile and padded to 128-bit
//! boundaries *at BlockTile granularity* (the offline padding of §4.3.1),
//! with one offset record per BlockTile. Per-FragTile offsets are recovered
//! at runtime from popcounts of the preceding indicator masks, so they cost
//! no storage.

use super::tile::EncodedTile;
use super::{BLOCK_DIM, FRAG_DIM, FRAG_ELEMS, TC_DIM};
use zipserv_bf16::{Bf16, Matrix};

/// Number of bytes the value buffers are padded to per BlockTile (128-bit
/// vectorized `LDGSTS.128` alignment).
pub const PAD_BYTES: usize = 16;

/// The hierarchical sequence of FragTile coordinates for a `rows × cols`
/// matrix (both multiples of 8), grouped by BlockTile.
///
/// Each inner vector is one BlockTile's FragTiles in decode order.
pub fn block_sequence(rows: usize, cols: usize) -> Vec<Vec<(usize, usize)>> {
    assert!(
        rows.is_multiple_of(FRAG_DIM) && cols.is_multiple_of(FRAG_DIM),
        "not tileable"
    );
    let mut blocks = Vec::new();
    let frag_per_tc = TC_DIM / FRAG_DIM; // 2
    for br in (0..rows).step_by(BLOCK_DIM) {
        for bc in (0..cols).step_by(BLOCK_DIM) {
            let mut tiles = Vec::new();
            let block_rows = BLOCK_DIM.min(rows - br);
            let block_cols = BLOCK_DIM.min(cols - bc);
            for tr16 in (0..block_rows).step_by(TC_DIM) {
                for tc16 in (0..block_cols).step_by(TC_DIM) {
                    let tc_rows = TC_DIM.min(block_rows - tr16);
                    let tc_cols = TC_DIM.min(block_cols - tc16);
                    // Column-major FragTiles within the TensorCoreTile.
                    for fc in 0..(tc_cols / FRAG_DIM).max(1).min(frag_per_tc) {
                        for fr in 0..(tc_rows / FRAG_DIM).max(1).min(frag_per_tc) {
                            let r = br + tr16 + fr * FRAG_DIM;
                            let c = bc + tc16 + fc * FRAG_DIM;
                            if r < rows && c < cols {
                                tiles.push((r / FRAG_DIM, c / FRAG_DIM));
                            }
                        }
                    }
                }
            }
            blocks.push(tiles);
        }
    }
    blocks
}

/// The flattened FragTile sequence (all blocks concatenated).
pub fn tile_sequence(rows: usize, cols: usize) -> Vec<(usize, usize)> {
    block_sequence(rows, cols).into_iter().flatten().collect()
}

/// Storage-size breakdown of a compressed matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TbeStats {
    /// Original BF16 bytes.
    pub raw_bytes: usize,
    /// Triple-bitmap bytes (24 per FragTile).
    pub bitmap_bytes: usize,
    /// PackedSignMantissa bytes including per-block padding.
    pub high_freq_bytes: usize,
    /// FullValue bytes including per-block padding.
    pub fallback_bytes: usize,
    /// Offset-array bytes (8 per BlockTile).
    pub offset_bytes: usize,
    /// Number of in-window elements.
    pub high_freq_elems: usize,
    /// Number of fallback elements.
    pub fallback_elems: usize,
}

impl TbeStats {
    /// Total compressed bytes (all four arrays plus a small fixed header).
    pub fn compressed_bytes(&self) -> usize {
        self.bitmap_bytes + self.high_freq_bytes + self.fallback_bytes + self.offset_bytes + 32
    }

    /// Compression ratio `raw / compressed`.
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.compressed_bytes() as f64
    }

    /// Compressed size as a percentage of raw (the paper reports 70–72%).
    pub fn size_percent(&self) -> f64 {
        100.0 * self.compressed_bytes() as f64 / self.raw_bytes as f64
    }

    /// Average storage bits per weight element.
    pub fn bits_per_element(&self) -> f64 {
        8.0 * self.compressed_bytes() as f64 / (self.high_freq_elems + self.fallback_elems) as f64
    }

    /// Fraction of elements on the high-frequency path (paper: ~96%).
    pub fn coverage(&self) -> f64 {
        let total = self.high_freq_elems + self.fallback_elems;
        if total == 0 {
            0.0
        } else {
            self.high_freq_elems as f64 / total as f64
        }
    }
}

/// A view of one FragTile's slices inside a [`TbeMatrix`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TileView<'a> {
    /// The three bit planes.
    pub bitmaps: &'a [u64; 3],
    /// This tile's slice of the PackedSignMantissa array.
    pub high_freq: &'a [u8],
    /// This tile's slice of the FullValue array.
    pub fallback: &'a [u16],
}

/// Per-BlockTile offsets into the two value arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockOffset {
    /// Byte offset of the block's PackedSignMantissa data.
    pub high_freq: u32,
    /// Element offset of the block's FullValue data.
    pub fallback: u32,
}

/// A TCA-TBE compressed weight matrix.
///
/// Produced by [`crate::TbeCompressor::compress`]; decompression and the
/// fused GEMM consume it through [`TbeMatrix::tile_view`].
#[derive(Debug, Clone, PartialEq)]
pub struct TbeMatrix {
    rows: usize,
    cols: usize,
    base_exp: u8,
    /// Per-FragTile bit planes, in hierarchical sequence order.
    bitmaps: Vec<[u64; 3]>,
    /// PackedSignMantissa array (padded per block).
    high_freq: Vec<u8>,
    /// FullValue array (padded per block).
    fallback: Vec<u16>,
    /// Per-BlockTile offsets.
    block_offsets: Vec<BlockOffset>,
    /// FragTiles per block (tiles at the matrix edge make ragged blocks).
    tiles_per_block: Vec<u32>,
    /// Cached per-tile offsets (derived, not counted as storage).
    tile_offsets: Vec<(u32, u32)>,
}

impl TbeMatrix {
    /// Assembles a matrix from per-tile encodings in hierarchical order.
    ///
    /// This is the compressor back-end; use [`crate::TbeCompressor`] for the
    /// public entry point.
    pub(crate) fn assemble(
        rows: usize,
        cols: usize,
        base_exp: u8,
        blocks: &[Vec<EncodedTile>],
    ) -> Self {
        let mut bitmaps = Vec::new();
        let mut high_freq = Vec::new();
        let mut fallback: Vec<u16> = Vec::new();
        let mut block_offsets = Vec::with_capacity(blocks.len());
        let mut tiles_per_block = Vec::with_capacity(blocks.len());
        let mut tile_offsets = Vec::new();

        for block in blocks {
            block_offsets.push(BlockOffset {
                high_freq: high_freq.len() as u32,
                fallback: fallback.len() as u32,
            });
            tiles_per_block.push(block.len() as u32);
            for tile in block {
                tile_offsets.push((high_freq.len() as u32, fallback.len() as u32));
                bitmaps.push(tile.bitmaps);
                high_freq.extend_from_slice(&tile.high_freq);
                fallback.extend_from_slice(&tile.fallback);
            }
            // 128-bit alignment padding at block granularity.
            while high_freq.len() % PAD_BYTES != 0 {
                high_freq.push(0);
            }
            while !(fallback.len() * 2).is_multiple_of(PAD_BYTES) {
                fallback.push(0);
            }
        }

        TbeMatrix {
            rows,
            cols,
            base_exp,
            bitmaps,
            high_freq,
            fallback,
            block_offsets,
            tiles_per_block,
            tile_offsets,
        }
    }

    /// Recomputes the derived per-tile offset cache (e.g., after
    /// deserialization, where it is skipped).
    pub fn rebuild_offsets(&mut self) {
        let mut tile_offsets = Vec::with_capacity(self.bitmaps.len());
        let mut seq = 0usize;
        for (b, &count) in self.tiles_per_block.iter().enumerate() {
            let mut hf = self.block_offsets[b].high_freq;
            let mut fb = self.block_offsets[b].fallback;
            for _ in 0..count {
                tile_offsets.push((hf, fb));
                let ind = self.bitmaps[seq][0] | self.bitmaps[seq][1] | self.bitmaps[seq][2];
                let n_hf = ind.count_ones();
                hf += n_hf;
                fb += FRAG_ELEMS as u32 - n_hf;
                seq += 1;
            }
        }
        self.tile_offsets = tile_offsets;
    }

    /// Number of rows of the original matrix.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns of the original matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The global base exponent (`min(window) − 1`).
    pub fn base_exp(&self) -> u8 {
        self.base_exp
    }

    /// Number of FragTiles.
    pub fn tile_count(&self) -> usize {
        self.bitmaps.len()
    }

    /// Number of BlockTiles.
    pub fn block_count(&self) -> usize {
        self.block_offsets.len()
    }

    /// A view of the FragTile at hierarchical sequence index `seq`.
    ///
    /// # Panics
    ///
    /// Panics if `seq` is out of range or the offset cache is missing
    /// (call [`TbeMatrix::rebuild_offsets`] after deserializing).
    pub fn tile_view(&self, seq: usize) -> TileView<'_> {
        let (hf, fb) = self.tile_offsets[seq];
        let ind = self.bitmaps[seq][0] | self.bitmaps[seq][1] | self.bitmaps[seq][2];
        let n_hf = ind.count_ones() as usize;
        let n_fb = FRAG_ELEMS - n_hf;
        TileView {
            bitmaps: &self.bitmaps[seq],
            high_freq: &self.high_freq[hf as usize..hf as usize + n_hf],
            fallback: &self.fallback[fb as usize..fb as usize + n_fb],
        }
    }

    /// Storage statistics.
    pub fn stats(&self) -> TbeStats {
        let high_freq_elems: usize = self
            .bitmaps
            .iter()
            .map(|b| (b[0] | b[1] | b[2]).count_ones() as usize)
            .sum();
        let total = self.tile_count() * FRAG_ELEMS;
        TbeStats {
            raw_bytes: 2 * self.rows * self.cols,
            bitmap_bytes: self.bitmaps.len() * 24,
            high_freq_bytes: self.high_freq.len(),
            fallback_bytes: self.fallback.len() * 2,
            offset_bytes: self.block_offsets.len() * 8,
            high_freq_elems,
            fallback_elems: total - high_freq_elems,
        }
    }

    /// Convenience: the compression ratio from [`TbeStats::ratio`].
    pub fn compression_ratio(&self) -> f64 {
        self.stats().ratio()
    }

    /// Decompresses the whole matrix bit-exactly (delegates to
    /// [`crate::decompress::decompress`]).
    pub fn decompress(&self) -> Matrix<Bf16> {
        crate::decompress::decompress(self)
    }

    /// Borrows the four storage arrays (for serialization).
    #[allow(clippy::type_complexity)]
    pub(crate) fn raw_parts(&self) -> (&[[u64; 3]], &[u8], &[u16], Vec<(BlockOffset, u32)>) {
        let blocks = self
            .block_offsets
            .iter()
            .zip(self.tiles_per_block.iter())
            .map(|(&o, &t)| (o, t))
            .collect();
        (&self.bitmaps, &self.high_freq, &self.fallback, blocks)
    }

    /// Reassembles a matrix from its storage arrays (deserialization),
    /// validating structural consistency and rebuilding the offset cache.
    pub(crate) fn from_raw_parts(
        rows: usize,
        cols: usize,
        base_exp: u8,
        bitmaps: Vec<[u64; 3]>,
        high_freq: Vec<u8>,
        fallback: Vec<u16>,
        blocks: Vec<(BlockOffset, u32)>,
    ) -> Result<Self, crate::error::TbeError> {
        const E: crate::error::TbeError =
            crate::error::TbeError::Corrupt("inconsistent TCA-TBE arrays");
        if !rows.is_multiple_of(FRAG_DIM) || !cols.is_multiple_of(FRAG_DIM) {
            return Err(crate::error::TbeError::NotTileable { rows, cols });
        }
        let expected_tiles = (rows / FRAG_DIM) * (cols / FRAG_DIM);
        if bitmaps.len() != expected_tiles {
            return Err(E);
        }
        let tile_total: u64 = blocks.iter().map(|&(_, t)| t as u64).sum();
        if tile_total as usize != expected_tiles {
            return Err(E);
        }
        for &(off, _) in &blocks {
            if off.high_freq as usize > high_freq.len() || off.fallback as usize > fallback.len() {
                return Err(E);
            }
        }
        let mut m = TbeMatrix {
            rows,
            cols,
            base_exp,
            bitmaps,
            high_freq,
            fallback,
            block_offsets: blocks.iter().map(|&(o, _)| o).collect(),
            tiles_per_block: blocks.iter().map(|&(_, t)| t).collect(),
            tile_offsets: Vec::new(),
        };
        m.rebuild_offsets();
        // Verify the last tile's slice stays in bounds.
        if let Some(&(hf, fb)) = m.tile_offsets.last() {
            let ind = m.bitmaps[expected_tiles - 1];
            let n_hf = (ind[0] | ind[1] | ind[2]).count_ones() as usize;
            if hf as usize + n_hf > m.high_freq.len()
                || fb as usize + (FRAG_ELEMS - n_hf) > m.fallback.len()
            {
                return Err(E);
            }
        }
        Ok(m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequence_covers_all_tiles_once() {
        for (rows, cols) in [(8, 8), (64, 64), (128, 64), (72, 88), (16, 160)] {
            let seq = tile_sequence(rows, cols);
            assert_eq!(seq.len(), (rows / 8) * (cols / 8), "{rows}x{cols}");
            let mut seen = std::collections::HashSet::new();
            for &(tr, tc) in &seq {
                assert!(tr < rows / 8 && tc < cols / 8);
                assert!(seen.insert((tr, tc)), "duplicate tile ({tr},{tc})");
            }
        }
    }

    #[test]
    fn fragtiles_column_major_within_tensor_core_tile() {
        // A 16×16 matrix is one TensorCoreTile: order must be
        // (0,0), (1,0), (0,1), (1,1) — column-major 2×2.
        let seq = tile_sequence(16, 16);
        assert_eq!(seq, vec![(0, 0), (1, 0), (0, 1), (1, 1)]);
    }

    #[test]
    fn block_grouping_sizes() {
        // 128×128 = 4 BlockTiles of 64 FragTiles each.
        let blocks = block_sequence(128, 128);
        assert_eq!(blocks.len(), 4);
        for b in &blocks {
            assert_eq!(b.len(), 64);
        }
        // Ragged 72×64: two blocks (64 rows + 8 rows).
        let blocks = block_sequence(72, 64);
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].len(), 64);
        assert_eq!(blocks[1].len(), 8);
    }

    #[test]
    fn blocktile_iterates_tensor_core_tiles_row_major() {
        // In a 64×64 block the first TT covers FragTiles (0..2, 0..2); the
        // second TT starts at FragTile column 2.
        let seq = tile_sequence(64, 64);
        assert_eq!(&seq[..4], &[(0, 0), (1, 0), (0, 1), (1, 1)]);
        assert_eq!(&seq[4..8], &[(0, 2), (1, 2), (0, 3), (1, 3)]);
    }

    #[test]
    fn stats_math() {
        let s = TbeStats {
            raw_bytes: 1000,
            bitmap_bytes: 100,
            high_freq_bytes: 300,
            fallback_bytes: 50,
            offset_bytes: 8,
            high_freq_elems: 450,
            fallback_elems: 50,
        };
        assert_eq!(s.compressed_bytes(), 100 + 300 + 50 + 8 + 32);
        assert!((s.ratio() - 1000.0 / 490.0).abs() < 1e-12);
        assert!((s.coverage() - 0.9).abs() < 1e-12);
        assert!((s.bits_per_element() - 8.0 * 490.0 / 500.0).abs() < 1e-12);
    }
}
