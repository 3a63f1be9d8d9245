//! The thread-local decompressor (Algorithm 2) and its batched variants.
//!
//! Two decoders share one bit-exact contract:
//!
//! * [`decode_tile_lanewise`] reproduces the GPU decode semantics exactly:
//!   32 simulated lanes each reconstruct the two elements of their
//!   Tensor-Core fragment slot using (1) the spatial indicator `B1|B2|B3`,
//!   (2) popcount dynamic addressing, and (3) implicit base-plus-code
//!   exponent lookup. It is the bit-exactness reference.
//! * [`decode_tile_lut`] is the table-driven hot path: the precomputed
//!   [`SPREAD`] lookup table turns the per-element plane extraction into
//!   branch-free table reads over 8-bit indicator windows (the pLUTo
//!   LUT-for-logic transform applied on CPU), and an ascending bit-scan
//!   scatter replaces per-element popcount addressing.
//!
//! **Exponent contract:** the reconstructed exponent is
//! `base_exp.saturating_add(c)`. Valid encodings can never exceed 255
//! (the codeword is defined as `c = e − base_exp`, so `base + c` is the
//! original exponent), which means saturation only triggers on corrupt or
//! hand-crafted bitmaps — and then it pins the exponent at 255 (an
//! Inf/NaN-range BF16) instead of silently wrapping into a tiny exponent
//! that decodes to a plausible-looking wrong value. Both paths apply the
//! identical rule.
//!
//! [`decompress`] applies the LUT path across the whole matrix. A per-tile
//! [`DecodeCost`] records the instruction mix the GPU model prices, one
//! mix per [`DecodePath`].

use crate::format::fragment::{fallback_index, high_freq_index, lane_positions, LANES};
use crate::format::layout::{block_sequence, TbeMatrix, TileView};
use crate::format::FRAG_ELEMS;
use zipserv_bf16::{Bf16, Matrix};

/// Windows per FragTile: the 64-bit indicator is consumed as 8 bytes.
const WINDOWS: usize = 8;

const fn build_spread() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut byte = 0usize;
    while byte < 256 {
        let mut spread = 0u64;
        let mut bit = 0;
        while bit < 8 {
            spread |= (((byte >> bit) & 1) as u64) << (8 * bit);
            bit += 1;
        }
        table[byte] = spread;
        byte += 1;
    }
    table
}

const fn build_prefix() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut byte = 0usize;
    while byte < 256 {
        let mut packed = 0u32;
        let mut bit = 0;
        while bit < 8 {
            let below = (byte & ((1usize << bit) - 1)).count_ones();
            packed |= below << (4 * bit);
            bit += 1;
        }
        table[byte] = packed;
        byte += 1;
    }
    table
}

/// Bit-spread table: bit `j` of the index byte lands in bit `8*j` (the low
/// bit of byte `j`) of the result. ORing three shifted spreads reconstructs
/// all eight 3-bit codewords of one indicator window in three table reads.
pub static SPREAD: [u64; 256] = build_spread();

/// Packed prefix-popcount table: nibble `j` of `PREFIX[b]` is the popcount
/// of the low `j` bits of `b` — the within-window half of popcount dynamic
/// addressing, as a single table read instead of eight masked popcounts.
/// The modeled GPU decoder reads it; [`DecodeCost::TCA_TBE_LUT`] prices
/// those reads.
pub static PREFIX: [u32; 256] = build_prefix();

/// Decodes one FragTile exactly as a warp would: lane by lane, register
/// pair by register pair.
///
/// Returns the 64 elements in row-major tile order. This is the
/// bit-exactness reference for [`decode_tile_lut`].
pub fn decode_tile_lanewise(view: TileView<'_>, base_exp: u8) -> [Bf16; FRAG_ELEMS] {
    // Step 1: spatial indicator construction (one warp-wide OR).
    let indicator = view.bitmaps[0] | view.bitmaps[1] | view.bitmaps[2];

    let mut out = [Bf16::ZERO; FRAG_ELEMS];
    for lane in 0..LANES {
        let (p0, p1) = lane_positions(lane);
        for p in [p0, p1] {
            // Step 2: parallel element decompression.
            if (indicator >> p) & 1 == 1 {
                // Case A: high-frequency path.
                let idx = high_freq_index(indicator, p);
                let packed = view.high_freq[idx];
                // Reconstruct the 3-bit code from the bit planes.
                let c = (((view.bitmaps[0] >> p) & 1)
                    | (((view.bitmaps[1] >> p) & 1) << 1)
                    | (((view.bitmaps[2] >> p) & 1) << 2)) as u8;
                // Implicit lookup: exponent = base + code (saturating; see
                // the module-level exponent contract).
                let e = base_exp.saturating_add(c);
                out[p] = Bf16::from_packed(packed, e);
            } else {
                // Case B: fallback path.
                let idx = fallback_index(indicator, p);
                out[p] = Bf16::from_bits(view.fallback[idx]);
            }
        }
    }
    out
}

/// All-fallback fast path (`indicator == 0`): the tile is a straight copy
/// of 64 full-precision values.
#[inline]
fn decode_all_fallback(view: TileView<'_>) -> [Bf16; FRAG_ELEMS] {
    let mut out = [Bf16::ZERO; FRAG_ELEMS];
    for (slot, &bits) in out.iter_mut().zip(view.fallback.iter()) {
        *slot = Bf16::from_bits(bits);
    }
    out
}

/// All-high-frequency fast path (`indicator == u64::MAX`): every element
/// sits at its own position in `high_freq`, so addressing is the identity.
#[inline]
fn decode_all_high_freq(view: TileView<'_>, base_exp: u8) -> [Bf16; FRAG_ELEMS] {
    let [b0, b1, b2] = *view.bitmaps;
    let mut out = [Bf16::ZERO; FRAG_ELEMS];
    for w in 0..WINDOWS {
        let codes = (SPREAD[(b0 >> (8 * w)) as u8 as usize]
            | (SPREAD[(b1 >> (8 * w)) as u8 as usize] << 1)
            | (SPREAD[(b2 >> (8 * w)) as u8 as usize] << 2))
            .to_le_bytes();
        for (j, &c) in codes.iter().enumerate() {
            let p = 8 * w + j;
            out[p] = Bf16::from_packed(view.high_freq[p], base_exp.saturating_add(c));
        }
    }
    out
}

/// Table-driven FragTile decode: the hot path selected by the blocked
/// ZipGEMM and [`decompress`].
///
/// Per 8-bit indicator window, three [`SPREAD`] reads reconstruct all eight
/// 3-bit codewords at once — the plane extraction becomes three table reads
/// instead of three shift/mask/merge chains per element. Addressing then
/// exploits that both value buffers are stored in ascending position
/// order: walking the set (resp. clear) indicator bits in ascending order
/// *is* the popcount-prefix order, so a bit-scan scatter consumes each
/// buffer sequentially with no per-element popcount, no index clamping and
/// no data-dependent branch (each loop's trip count is a buffer length).
/// Bitwise identical to [`decode_tile_lanewise`] for every valid tile view.
///
/// # Panics
///
/// Panics (like the lanewise path) if a value buffer is shorter than the
/// indicator's population count demands.
pub fn decode_tile_lut(view: TileView<'_>, base_exp: u8) -> [Bf16; FRAG_ELEMS] {
    let [b0, b1, b2] = *view.bitmaps;
    let indicator = b0 | b1 | b2;

    // Degenerate tiles skip dynamic addressing entirely.
    if indicator == 0 {
        return decode_all_fallback(view);
    }
    if indicator == u64::MAX {
        return decode_all_high_freq(view, base_exp);
    }

    // Pass 1: spread the three bit planes into one code byte per element
    // (three SPREAD reads per 8-element window).
    let mut codes = [0u8; FRAG_ELEMS];
    for w in 0..WINDOWS {
        let spread = SPREAD[(b0 >> (8 * w)) as u8 as usize]
            | (SPREAD[(b1 >> (8 * w)) as u8 as usize] << 1)
            | (SPREAD[(b2 >> (8 * w)) as u8 as usize] << 2);
        codes[8 * w..8 * w + 8].copy_from_slice(&spread.to_le_bytes());
    }

    // Pass 2+3: scatter both buffers along their bit masks. Slicing up
    // front hoists the bounds checks out of the loops (and still panics on
    // corrupt undersized buffers, matching the lanewise path).
    let n_hf = indicator.count_ones() as usize;
    let hf = &view.high_freq[..n_hf];
    let fb = &view.fallback[..FRAG_ELEMS - n_hf];
    let mut out = [Bf16::ZERO; FRAG_ELEMS];
    let mut zeros = !indicator;
    for &bits in fb {
        let p = zeros.trailing_zeros() as usize & 63;
        out[p] = Bf16::from_bits(bits);
        zeros &= zeros - 1;
    }
    let mut ones = indicator;
    for &packed in hf {
        let p = ones.trailing_zeros() as usize & 63;
        out[p] = Bf16::from_packed(packed, base_exp.saturating_add(codes[p]));
        ones &= ones - 1;
    }
    out
}

/// Decompresses a whole [`TbeMatrix`] bit-exactly (LUT hot path).
pub fn decompress(tbe: &TbeMatrix) -> Matrix<Bf16> {
    let mut out = Matrix::zeros(tbe.rows(), tbe.cols());
    let blocks = block_sequence(tbe.rows(), tbe.cols());
    let mut seq = 0usize;
    for block in &blocks {
        for &(tr, tc) in block {
            let tile = decode_tile_lut(tbe.tile_view(seq), tbe.base_exp());
            out.set_tile(tr, tc, &tile);
            seq += 1;
        }
    }
    out
}

/// Which decoder implementation a GPU kernel profile prices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecodePath {
    /// The branchy per-lane Algorithm-2 decode (bit-exactness reference).
    #[default]
    Lanewise,
    /// The table-driven window decode ([`SPREAD`]/[`PREFIX`] reads replace
    /// per-element popcount and plane-extract logic).
    Lut,
}

/// Per-element instruction cost of a decode path, used to build GPU kernel
/// profiles (Figure 12's LOP3/IADD/POPC workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeCost {
    /// Three-input logic ops per element (plane extract + BF16 assembly).
    pub lop3: u64,
    /// Integer adds per element (mask build + implicit lookup + indexing).
    pub iadd: u64,
    /// Population counts per element (dynamic addressing).
    pub popc: u64,
    /// Shifts per element (bit extraction).
    pub shift: u64,
    /// Selects per element (path predicate).
    pub sel: u64,
    /// Shared-memory transactions per FragTile (bitmaps + value slices,
    /// plus lookup-table reads on the LUT path).
    pub lds_per_tile: u64,
}

impl DecodeCost {
    /// The calibrated per-element cost of the lanewise TCA-TBE decompressor.
    ///
    /// Counts follow Algorithm 2 directly: one popcount for addressing, two
    /// shifts + two LOP3 to gather the codeword bits, one LOP3 to merge
    /// sign/mantissa/exponent, two IADD for the mask and implicit lookup,
    /// one select for the A/B path.
    pub const TCA_TBE: DecodeCost = DecodeCost {
        lop3: 3,
        iadd: 2,
        popc: 1,
        shift: 2,
        sel: 1,
        lds_per_tile: 5,
    };

    /// The per-element cost of the table-driven decode path.
    ///
    /// The SPREAD/PREFIX tables absorb the popcount and the plane-extract
    /// LOP3/shift pairs: what remains per element is one LOP3 (BF16
    /// assembly), two IADD (index base + implicit lookup), one shift
    /// (nibble extract) and the path select — 5 scalar ops instead of 9.
    /// The tables are not free: 4 table reads per 8-element window add 32
    /// shared-memory transactions per tile on top of the baseline 5.
    pub const TCA_TBE_LUT: DecodeCost = DecodeCost {
        lop3: 1,
        iadd: 2,
        popc: 0,
        shift: 1,
        sel: 1,
        lds_per_tile: 37,
    };

    /// The calibrated cost for a [`DecodePath`].
    pub const fn for_path(path: DecodePath) -> DecodeCost {
        match path {
            DecodePath::Lanewise => DecodeCost::TCA_TBE,
            DecodePath::Lut => DecodeCost::TCA_TBE_LUT,
        }
    }

    /// Total priced scalar ops per element (excluding shared-memory).
    pub fn ops_per_element(&self) -> u64 {
        self.lop3 + self.iadd + self.popc + self.shift + self.sel
    }

    /// Tile decodes one pass over `tiles` FragTiles performs.
    ///
    /// With per-tile decode caching (`cached == true`, the blocked ZipGEMM)
    /// each FragTile is decoded exactly **once per pass**, no matter how
    /// many of the `n_blocks` output `N`-blocks consume it. Without caching
    /// every consuming block re-decodes the tile — the per-*use* accounting
    /// the cost model used to assume implicitly. The count is a property of
    /// the caching discipline, not of the [`DecodePath`]: both paths decode
    /// the same tiles the same number of times.
    pub fn tile_decodes(tiles: u64, n_blocks: u64, cached: bool) -> u64 {
        if cached {
            tiles
        } else {
            tiles * n_blocks.max(1)
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::compress::TbeCompressor;
    use crate::format::tile::EncodedTile;
    use zipserv_bf16::gen::WeightGen;

    fn encode_view(tile: &EncodedTile) -> TileView<'_> {
        TileView {
            bitmaps: &tile.bitmaps,
            high_freq: &tile.high_freq,
            fallback: &tile.fallback,
        }
    }

    fn all_paths(view: TileView<'_>, base: u8) -> [[Bf16; FRAG_ELEMS]; 2] {
        [
            decode_tile_lanewise(view, base),
            decode_tile_lut(view, base),
        ]
    }

    #[test]
    fn lanewise_decode_matches_reference_decode() {
        let weights: [Bf16; 64] = core::array::from_fn(|i| {
            if i % 7 == 0 {
                Bf16::from_f32(1e30)
            } else {
                Bf16::from_f32(0.01 + i as f32 * 0.002)
            }
        });
        let base = Bf16::from_f32(0.02).exponent() - 4;
        let enc = EncodedTile::encode(&weights, base);
        let lanewise = decode_tile_lanewise(encode_view(&enc), base);
        let reference = enc.decode(base);
        assert_eq!(lanewise, reference);
        assert_eq!(lanewise, weights);
    }

    #[test]
    fn lut_matches_lanewise_on_mixed_tile() {
        let weights: [Bf16; 64] = core::array::from_fn(|i| {
            if i % 7 == 0 {
                Bf16::from_f32(1e30)
            } else {
                Bf16::from_f32(0.01 + i as f32 * 0.002)
            }
        });
        let base = Bf16::from_f32(0.02).exponent() - 4;
        let enc = EncodedTile::encode(&weights, base);
        let [lanewise, lut] = all_paths(encode_view(&enc), base);
        assert_eq!(lanewise, lut);
        assert_eq!(lut, weights);
    }

    #[test]
    fn spread_and_prefix_tables_are_consistent() {
        for b in [0usize, 1, 0x55, 0x80, 0xFF, 0xA3] {
            let spread = SPREAD[b];
            for j in 0..8 {
                assert_eq!((spread >> (8 * j)) & 0xFF, ((b >> j) & 1) as u64);
                let expect = (b & ((1usize << j) - 1)).count_ones();
                assert_eq!((PREFIX[b] >> (4 * j)) & 0xF, expect, "b={b:#x} j={j}");
            }
        }
    }

    #[test]
    fn paper_worked_example_thread_19() {
        // §4.3.2: thread 19's a0 is position 38. Build a tile where position
        // 38 carries codeword 101 (5) with base exponent 115 -> exponent 120.
        let mut weights = [Bf16::from_bits(0); 64];
        for (i, w) in weights.iter_mut().enumerate() {
            *w = if i == 38 {
                Bf16::from_parts(0, 120, 0x55)
            } else {
                Bf16::from_bits(0x0042) // exponent 0 -> fallback
            };
        }
        let enc = EncodedTile::encode(&weights, 115);
        assert_eq!(enc.codeword(38), 0b101);
        for dec in all_paths(encode_view(&enc), 115) {
            assert_eq!(dec[38].exponent(), 120);
            assert_eq!(dec, weights);
        }
    }

    #[test]
    fn exponent_saturates_instead_of_wrapping() {
        // Crafted bitmaps no valid encoder would emit: base_exp near the
        // top of the u8 range with codewords that push past 255. The
        // contract pins the exponent at 255 (Inf/NaN range) on every path
        // instead of wrapping into a tiny exponent.
        for base in 250u8..=255 {
            // All 64 elements carry codeword 0b101 (= 5).
            let bitmaps = [u64::MAX, 0, u64::MAX];
            let high_freq: Vec<u8> = (0..64).map(|i| i as u8).collect();
            let fallback: Vec<u16> = Vec::new();
            let view = TileView {
                bitmaps: &bitmaps,
                high_freq: &high_freq,
                fallback: &fallback,
            };
            let expect_exp = base.saturating_add(5);
            let [lanewise, lut] = all_paths(view, base);
            assert_eq!(lanewise, lut, "base={base}");
            for (i, v) in lanewise.iter().enumerate() {
                assert_eq!(v.exponent(), expect_exp, "base={base} elem={i}");
                assert_eq!(
                    *v,
                    Bf16::from_packed(i as u8, expect_exp),
                    "base={base} elem={i}"
                );
            }
            if base >= 251 {
                assert_eq!(expect_exp, 255, "saturated at the top");
            }
        }
    }

    #[test]
    fn reference_decode_shares_the_saturation_contract() {
        // EncodedTile::decode must agree with the lanewise path on crafted
        // overflow tiles, not just on encoder output.
        let enc = EncodedTile {
            bitmaps: [u64::MAX, u64::MAX, u64::MAX], // codeword 7 everywhere
            high_freq: (0..64).map(|i| i as u8).collect(),
            fallback: Vec::new(),
        };
        for base in 250u8..=255 {
            let reference = enc.decode(base);
            let lanewise = decode_tile_lanewise(encode_view(&enc), base);
            assert_eq!(reference, lanewise, "base={base}");
            assert_eq!(reference[0].exponent(), base.saturating_add(7));
        }
    }

    #[test]
    fn degenerate_tiles_hit_fast_paths() {
        // All-fallback (indicator == 0).
        let weights: [Bf16; 64] = core::array::from_fn(|i| Bf16::from_f32(1.0 + i as f32));
        let enc = EncodedTile::encode(&weights, 200);
        assert_eq!(enc.indicator(), 0);
        let [lanewise, lut] = all_paths(encode_view(&enc), 200);
        assert_eq!(lanewise, lut);
        assert_eq!(lut, weights);

        // All-high-freq (indicator == all ones).
        let weights: [Bf16; 64] = core::array::from_fn(|i| {
            Bf16::from_parts(
                (i % 2) as u16,
                124 + (i % 7) as u16,
                ((i * 2) & 0x7F) as u16,
            )
        });
        let enc = EncodedTile::encode(&weights, 123);
        assert_eq!(enc.indicator(), u64::MAX);
        let [lanewise, lut] = all_paths(encode_view(&enc), 123);
        assert_eq!(lanewise, lut);
        assert_eq!(lut, weights);
    }

    #[test]
    fn single_element_tiles_at_the_corners() {
        // Exactly one high-freq element, at position 0 and at position 63 —
        // the windows an LUT path most easily gets wrong.
        for pos in [0usize, 63] {
            let mut weights = [Bf16::from_f32(1e30); 64]; // fallback filler
            weights[pos] = Bf16::from_parts(0, 125, 0x11);
            let enc = EncodedTile::encode(&weights, 123);
            assert_eq!(enc.high_freq_count(), 1, "pos={pos}");
            let [lanewise, lut] = all_paths(encode_view(&enc), 123);
            assert_eq!(lanewise, lut, "pos={pos}");
            assert_eq!(lut, weights, "pos={pos}");
        }
    }

    #[test]
    fn full_matrix_decompress_is_bit_exact() {
        let w = WeightGen::new(0.018).seed(21).matrix(192, 320);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let out = decompress(&tbe);
        assert_eq!(out, w);
    }

    #[test]
    fn ragged_block_shapes_roundtrip() {
        // Shapes that exercise partial BlockTiles and TensorCoreTiles.
        for (r, c) in [(8, 8), (8, 64), (64, 8), (72, 40), (136, 200)] {
            let w = WeightGen::new(0.02).seed(5).matrix(r, c);
            let tbe = TbeCompressor::new().compress(&w).unwrap();
            assert_eq!(decompress(&tbe), w, "{r}x{c}");
        }
    }

    #[test]
    fn matrix_tiles_agree_across_paths() {
        // Every tile of a real compressed matrix decodes identically on
        // both paths (exercises padded block-boundary views).
        let w = WeightGen::new(0.018).seed(33).matrix(128, 128);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        for seq in 0..tbe.tile_count() {
            let view = tbe.tile_view(seq);
            let [lanewise, lut] = all_paths(view, tbe.base_exp());
            assert_eq!(lanewise, lut, "seq={seq}");
        }
    }

    #[test]
    fn decode_cost_constants() {
        let c = DecodeCost::TCA_TBE;
        assert_eq!(c.ops_per_element(), 9);
        assert!(c.popc == 1 && c.lds_per_tile == 5);
        let l = DecodeCost::TCA_TBE_LUT;
        assert_eq!(l.ops_per_element(), 5);
        assert!(l.popc == 0, "popcount is absorbed by the PREFIX table");
        assert_eq!(l.lds_per_tile, 37, "4 table reads x 8 windows + baseline 5");
        assert_eq!(DecodeCost::for_path(DecodePath::Lanewise), c);
        assert_eq!(DecodeCost::for_path(DecodePath::Lut), l);
        assert_eq!(DecodePath::default(), DecodePath::Lanewise);
    }

    #[test]
    fn cached_decodes_are_per_tile_per_pass() {
        // Cached: one decode per tile regardless of how many N-blocks use it.
        assert_eq!(DecodeCost::tile_decodes(100, 1, true), 100);
        assert_eq!(DecodeCost::tile_decodes(100, 8, true), 100);
        // Uncached: one decode per tile per consuming block.
        assert_eq!(DecodeCost::tile_decodes(100, 8, false), 800);
        // A pass with no consumers still decodes each tile once (pure
        // decompression).
        assert_eq!(DecodeCost::tile_decodes(100, 0, false), 100);
    }
}
