//! Structural invariants of the TCA-TBE format, property-tested.

use proptest::prelude::*;
use zipserv::bf16::{Bf16, Matrix};
use zipserv::tbe::format::fragment::{fallback_index, high_freq_index};
use zipserv::tbe::format::layout::{block_sequence, tile_sequence};
use zipserv::tbe::TbeCompressor;

fn gaussian_matrix() -> impl Strategy<Value = Matrix<Bf16>> {
    (1usize..6, 1usize..6, any::<u64>()).prop_map(|(tr, tc, seed)| {
        let mut s = seed | 1;
        Matrix::from_fn(tr * 8, tc * 8, |_, _| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let u = (s >> 40) as f32 / 16777216.0 - 0.5;
            Bf16::from_f32(u * 0.08)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn element_counts_are_conserved(m in gaussian_matrix()) {
        let tbe = TbeCompressor::new().compress(&m).expect("tileable");
        let s = tbe.stats();
        prop_assert_eq!(s.high_freq_elems + s.fallback_elems, m.len());
        prop_assert_eq!(s.raw_bytes, 2 * m.len());
    }

    #[test]
    fn compressed_never_larger_than_2x_raw(m in gaussian_matrix()) {
        // Worst case: everything fallback = 16 + 3 bits + overhead < 2x.
        let tbe = TbeCompressor::new().compress(&m).expect("tileable");
        prop_assert!(tbe.stats().compressed_bytes() < 2 * tbe.stats().raw_bytes + 64);
    }

    #[test]
    fn tile_views_partition_the_buffers(m in gaussian_matrix()) {
        let tbe = TbeCompressor::new().compress(&m).expect("tileable");
        let mut hf_total = 0usize;
        let mut fb_total = 0usize;
        for seq in 0..tbe.tile_count() {
            let view = tbe.tile_view(seq);
            prop_assert_eq!(view.high_freq.len() + view.fallback.len(), 64);
            hf_total += view.high_freq.len();
            fb_total += view.fallback.len();
        }
        let s = tbe.stats();
        prop_assert_eq!(hf_total, s.high_freq_elems);
        prop_assert_eq!(fb_total, s.fallback_elems);
    }

    #[test]
    fn disk_format_roundtrip_preserves_everything(m in gaussian_matrix()) {
        let tbe = TbeCompressor::new().compress(&m).expect("tileable");
        let blob = zipserv::tbe::format::serialize::to_bytes(&tbe);
        let back = zipserv::tbe::format::serialize::from_bytes(&blob).expect("valid blob");
        prop_assert_eq!(back.decompress(), m);
    }

    #[test]
    fn disk_format_rejects_random_corruption(m in gaussian_matrix(), flip in any::<u32>()) {
        let tbe = TbeCompressor::new().compress(&m).expect("tileable");
        let mut blob = zipserv::tbe::format::serialize::to_bytes(&tbe);
        let pos = flip as usize % blob.len();
        let bit = 1u8 << (flip % 8);
        blob[pos] ^= bit;
        // Any single-bit flip must be caught by the checksum (or, if it
        // lands in the checksum itself, by the mismatch).
        prop_assert!(zipserv::tbe::format::serialize::from_bytes(&blob).is_err());
    }

    #[test]
    fn popcount_addressing_is_consistent(indicator in any::<u64>()) {
        // For every position, idx_H + idx_L == p, and following the owning
        // path yields strictly increasing buffer indices.
        let mut prev_hf = 0usize;
        let mut prev_fb = 0usize;
        for p in 0..64usize {
            prop_assert_eq!(high_freq_index(indicator, p) + fallback_index(indicator, p), p);
            if (indicator >> p) & 1 == 1 {
                prop_assert_eq!(high_freq_index(indicator, p), prev_hf);
                prev_hf += 1;
            } else {
                prop_assert_eq!(fallback_index(indicator, p), prev_fb);
                prev_fb += 1;
            }
        }
        prop_assert_eq!(prev_hf, indicator.count_ones() as usize);
    }
}

#[test]
fn hierarchical_tile_order_is_a_permutation() {
    for (rows, cols) in [(64, 64), (128, 192), (72, 88)] {
        let seq = tile_sequence(rows, cols);
        let blocks = block_sequence(rows, cols);
        let flat: Vec<_> = blocks.into_iter().flatten().collect();
        assert_eq!(seq, flat, "{rows}x{cols}: sequence must equal block order");
        let mut sorted = seq.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), (rows / 8) * (cols / 8));
    }
}

// ---------------------------------------------------------------------------
// Decoder-path identity: the table-driven (LUT) and plane-sliced (SIMD)
// decoders must be bitwise interchangeable with the lanewise reference on
// *every* representable tile, not just compressor output.

use zipserv::tbe::decompress::{decode_tile_lanewise, decode_tile_lut, decode_tile_simd};
use zipserv::tbe::format::layout::TileView;

/// An arbitrary — possibly degenerate — raw FragTile: three bit planes,
/// exactly-sized value buffers, and a base exponent. Alongside fully random
/// planes, the strategy force-feeds the decoder corners: the all-fallback
/// tile (`indicator == 0`), the all-high-freq tile (every codeword set),
/// and single-element tiles whose one codeword (any of 1..=7) sits at
/// position 0 or 63.
fn raw_tile() -> impl Strategy<Value = ([u64; 3], Vec<u8>, Vec<u16>, u8)> {
    (
        (0u8..8, 1u64..=7, any::<u8>()),
        (any::<u64>(), any::<u64>(), any::<u64>()),
        proptest::collection::vec(any::<u8>(), 64),
        proptest::collection::vec(any::<u16>(), 64),
    )
        .prop_map(|((mode, c, base), (r0, r1, r2), hf, fb)| {
            // Half the cases are fully random planes; the rest force-feed
            // one of the four degenerate corners.
            let (b0, b1, b2) = match mode {
                0 => (0, 0, 0),
                1 => (u64::MAX, r1, r2),
                2 => (c & 1, (c >> 1) & 1, (c >> 2) & 1),
                3 => ((c & 1) << 63, ((c >> 1) & 1) << 63, ((c >> 2) & 1) << 63),
                _ => (r0, r1, r2),
            };
            let n = (b0 | b1 | b2).count_ones() as usize;
            ([b0, b1, b2], hf[..n].to_vec(), fb[..64 - n].to_vec(), base)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn decode_paths_are_bitwise_identical_on_raw_tiles(tile in raw_tile()) {
        let (bitmaps, hf, fb, base) = tile;
        let view = TileView { bitmaps: &bitmaps, high_freq: &hf, fallback: &fb };
        let lanewise = decode_tile_lanewise(view, base);
        prop_assert_eq!(lanewise, decode_tile_lut(view, base), "lut vs lanewise");
        prop_assert_eq!(lanewise, decode_tile_simd(view, base), "simd vs lanewise");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn decode_paths_agree_on_every_compressed_tile(m in gaussian_matrix()) {
        let tbe = TbeCompressor::new().compress(&m).expect("tileable");
        for seq in 0..tbe.tile_count() {
            let view = tbe.tile_view(seq);
            let lanewise = decode_tile_lanewise(view, tbe.base_exp());
            prop_assert_eq!(lanewise, decode_tile_lut(view, tbe.base_exp()), "tile {}", seq);
            prop_assert_eq!(lanewise, decode_tile_simd(view, tbe.base_exp()), "tile {}", seq);
        }
        prop_assert_eq!(tbe.decompress(), m);
    }
}
