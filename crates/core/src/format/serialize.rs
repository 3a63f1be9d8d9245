//! On-disk serialization of compressed models.
//!
//! The offline compressor writes `.ztbe` blobs that the inference engine
//! maps at load time (§4.1: "the resulting compressed model is then loaded
//! onto the GPU"). The format is a little-endian sectioned container:
//!
//! ```text
//! magic "ZTBE" | version u16 | base_exp u8 | codec u8
//! rows u64 | cols u64
//! n_tiles u64    | 3 x u64 bitmaps per tile
//! n_hf u64       | u8 payload (padded as stored)   [codec = Raw]
//! n_wire u64     | planar-rANS wire frame           [codec = PlanarRans]
//! n_fb u64       | u16 payload
//! n_blocks u64   | (u32 hf, u32 fb, u32 tiles) per block
//! checksum u64   (FNV-1a over everything before it)
//! ```
//!
//! Version 1 blobs fixed the codec byte at 0 (it was a pad); version 2
//! makes it a [`SectionCodec`] selector for the high-frequency mantissa
//! section — the one bulk-byte section whose skewed distribution the
//! paper's entropy stage targets. [`from_bytes`] accepts both versions;
//! [`to_bytes`] keeps writing version 1 so existing consumers and fixtures
//! are untouched, and [`to_bytes_with_codec`] opts into version 2.

use super::layout::{BlockOffset, TbeMatrix, PAD_BYTES};
use crate::error::TbeError;
use zipserv_entropy::rans::PlanarRansBlob;

const MAGIC: &[u8; 4] = b"ZTBE";
const VERSION: u16 = 1;
/// Container version that carries a [`SectionCodec`] byte.
const VERSION_CODEC: u16 = 2;

/// How the high-frequency mantissa section is stored inside a `.ztbe`
/// container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SectionCodec {
    /// Bytes stored as-is (the version-1 layout).
    #[default]
    Raw,
    /// Planar multi-stream rANS ([`PlanarRansBlob`]): smaller on disk, and
    /// the blob's own frame checksum rides inside the container, so a
    /// payload flip is caught even if the outer checksum is recomputed by
    /// an attacker or a buggy rewriter.
    PlanarRans,
}

impl SectionCodec {
    fn to_byte(self) -> u8 {
        match self {
            SectionCodec::Raw => 0,
            SectionCodec::PlanarRans => 1,
        }
    }

    fn from_byte(b: u8) -> Result<Self, TbeError> {
        match b {
            0 => Ok(SectionCodec::Raw),
            1 => Ok(SectionCodec::PlanarRans),
            _ => Err(TbeError::Corrupt("unknown section codec")),
        }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf29ce484222325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// Serializes a compressed matrix to its on-disk representation
/// (version 1, raw sections — see [`to_bytes_with_codec`] for the
/// entropy-coded variant).
pub fn to_bytes(m: &TbeMatrix) -> Vec<u8> {
    to_bytes_with_codec(m, SectionCodec::Raw)
}

/// Serializes a compressed matrix, storing the high-frequency mantissa
/// section under `codec`. [`SectionCodec::Raw`] writes the historical
/// version-1 container byte for byte; any other codec writes version 2.
pub fn to_bytes_with_codec(m: &TbeMatrix, codec: SectionCodec) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    let version = match codec {
        SectionCodec::Raw => VERSION,
        SectionCodec::PlanarRans => VERSION_CODEC,
    };
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&[m.base_exp(), codec.to_byte()]);
    out.extend_from_slice(&(m.rows() as u64).to_le_bytes());
    out.extend_from_slice(&(m.cols() as u64).to_le_bytes());

    let (bitmaps, high_freq, fallback, blocks) = m.raw_parts();
    out.extend_from_slice(&(bitmaps.len() as u64).to_le_bytes());
    for &p in bitmaps.iter().flatten() {
        out.extend_from_slice(&p.to_le_bytes());
    }
    // An empty section has nothing to entropy-code (and the codec rejects
    // empty input); a zero length marks it.
    let wire;
    let section = match codec {
        SectionCodec::PlanarRans if !high_freq.is_empty() => {
            wire = PlanarRansBlob::compress(high_freq, PlanarRansBlob::DEFAULT_STREAMS)
                .expect("non-empty section always compresses")
                .to_wire();
            &wire
        }
        _ => high_freq,
    };
    out.extend_from_slice(&(section.len() as u64).to_le_bytes());
    out.extend_from_slice(section);
    out.extend_from_slice(&(fallback.len() as u64).to_le_bytes());
    for &v in fallback {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.extend_from_slice(&(blocks.len() as u64).to_le_bytes());
    for (off, tiles) in blocks {
        for v in [off.high_freq, off.fallback, tiles] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    let checksum = fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Deserializes a `.ztbe` blob.
///
/// # Errors
///
/// Returns [`TbeError::Corrupt`] on a bad magic, version, truncated
/// payload, checksum mismatch, or a section length larger than the blob.
pub fn from_bytes(bytes: &[u8]) -> Result<TbeMatrix, TbeError> {
    if bytes.len() < 8 + 16 + 8 {
        return Err(TRUNCATED);
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let want = u64::from_le_bytes(tail.try_into().expect("8 bytes"));
    if fnv1a(body) != want {
        return Err(TbeError::Corrupt("checksum mismatch"));
    }
    let mut body = Body(body);

    if body.take(4)? != MAGIC {
        return Err(TbeError::Corrupt("bad magic"));
    }
    let version = u16::from_le_bytes(body.take(2)?.try_into().expect("2"));
    if version != VERSION && version != VERSION_CODEC {
        return Err(TbeError::Corrupt("unsupported version"));
    }
    let base_exp = body.take(1)?[0];
    let codec_byte = body.take(1)?[0];
    // Version 1 wrote a zero pad where version 2 keeps the codec; a
    // nonzero byte there is corruption, not a codec.
    let codec = if version == VERSION_CODEC {
        SectionCodec::from_byte(codec_byte)?
    } else if codec_byte == 0 {
        SectionCodec::Raw
    } else {
        return Err(TbeError::Corrupt("nonzero pad in version-1 blob"));
    };
    let rows = body.u64()? as usize;
    let cols = body.u64()? as usize;

    let n_tiles = body.count(24)?;
    let mut bitmaps = Vec::with_capacity(n_tiles);
    for _ in 0..n_tiles {
        let mut planes = [0u64; 3];
        for p in planes.iter_mut() {
            *p = body.u64()?;
        }
        bitmaps.push(planes);
    }
    let n_hf = body.count(1)?;
    let high_freq = match codec {
        SectionCodec::Raw => body.take(n_hf)?.to_vec(),
        SectionCodec::PlanarRans if n_hf == 0 => Vec::new(),
        SectionCodec::PlanarRans => {
            let blob = PlanarRansBlob::from_wire(body.take(n_hf)?)
                .map_err(|_| TbeError::Corrupt("malformed entropy-coded section"))?;
            // The bitmaps just read fix the section's length: one byte per
            // high-frequency element plus under `PAD_BYTES` of padding per
            // block, with no more blocks than tiles. The frame's own
            // count cannot be bounded by its payload (a constant section
            // compresses to a few bytes), so refuse a larger one here,
            // before `decompress` allocates it.
            let n_elems: usize = bitmaps
                .iter()
                .map(|b| (b[0] | b[1] | b[2]).count_ones() as usize)
                .sum();
            if blob.symbol_count() > n_elems + n_tiles * (PAD_BYTES - 1) {
                return Err(TbeError::Corrupt("entropy-coded section exceeds its tiles"));
            }
            blob.decompress()
                .map_err(|_| TbeError::Corrupt("entropy-coded section failed its checksum"))?
        }
    };
    let n_fb = body.count(2)?;
    let fallback: Vec<u16> = body
        .take(n_fb * 2)?
        .chunks_exact(2)
        .map(|c| u16::from_le_bytes(c.try_into().expect("2")))
        .collect();
    let n_blocks = body.count(12)?;
    let mut blocks = Vec::with_capacity(n_blocks);
    for _ in 0..n_blocks {
        let hf = body.u32()?;
        let fb = body.u32()?;
        let tiles = body.u32()?;
        blocks.push((
            BlockOffset {
                high_freq: hf,
                fallback: fb,
            },
            tiles,
        ));
    }
    TbeMatrix::from_raw_parts(rows, cols, base_exp, bitmaps, high_freq, fallback, blocks)
}

const TRUNCATED: TbeError = TbeError::Corrupt("truncated TCA-TBE blob");

/// The checksummed body of a blob, read front to back.
struct Body<'a>(&'a [u8]);

impl<'a> Body<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], TbeError> {
        if self.0.len() < n {
            return Err(TRUNCATED);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, TbeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, TbeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// A section's record count, checked against the bytes left before
    /// anything is allocated for it: the checksum is not a MAC, so a forged
    /// count can carry a valid one.
    fn count(&mut self, record_bytes: usize) -> Result<usize, TbeError> {
        let n = self.u64()?;
        usize::try_from(n)
            .ok()
            .filter(|n| {
                n.checked_mul(record_bytes)
                    .is_some_and(|b| b <= self.0.len())
            })
            .ok_or(TbeError::Corrupt("section length exceeds the blob"))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::compress::TbeCompressor;
    use zipserv_bf16::gen::WeightGen;

    /// Overwrites the `u64` at `at` and re-seals the blob with a valid
    /// checksum, as a forger would.
    fn forge(bytes: &[u8], at: usize, value: &[u8]) -> Vec<u8> {
        let mut out = bytes.to_vec();
        out[at..at + value.len()].copy_from_slice(value);
        let body = out.len() - 8;
        let sum = fnv1a(&out[..body]);
        out[body..].copy_from_slice(&sum.to_le_bytes());
        out
    }

    fn u64_at(bytes: &[u8], at: usize) -> u64 {
        u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap())
    }

    #[test]
    fn forged_section_lengths_are_typed_errors_not_allocations() {
        let w = WeightGen::new(0.018).seed(60).matrix(16, 16);
        let bytes = to_bytes(&TbeCompressor::new().compress(&w).unwrap());
        // Offsets of the four length fields (fixed 24-byte header first).
        let tiles_at = 24;
        let hf_at = tiles_at + 8 + 24 * u64_at(&bytes, tiles_at) as usize;
        let fb_at = hf_at + 8 + u64_at(&bytes, hf_at) as usize;
        let blocks_at = fb_at + 8 + 2 * u64_at(&bytes, fb_at) as usize;
        assert!(from_bytes(&bytes).is_ok());
        for (at, value) in [
            (tiles_at, 1u64 << 40), // ~26 TB of bitmaps
            (hf_at, 1 << 40),
            (fb_at, 1 << 63), // `n_fb * 2` overflows
            (fb_at, 1 << 40),
            (blocks_at, 1 << 40),
            (blocks_at, u64::MAX),
        ] {
            let forged = forge(&bytes, at, &value.to_le_bytes());
            assert!(
                matches!(from_bytes(&forged), Err(TbeError::Corrupt(_))),
                "length {value:#x} at byte {at} was not refused"
            );
        }
    }

    #[test]
    fn forged_entropy_stream_count_is_a_typed_error() {
        let w = WeightGen::new(0.018).seed(61).matrix(16, 16);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let bytes = to_bytes_with_codec(&tbe, SectionCodec::PlanarRans);
        let hf_at = 24 + 8 + 24 * u64_at(&bytes, 24) as usize;
        // The planar frame opens with its u32 stream count.
        let forged = forge(&bytes, hf_at + 8, &u32::MAX.to_le_bytes());
        assert!(matches!(from_bytes(&forged), Err(TbeError::Corrupt(_))));
    }

    #[test]
    fn forged_entropy_symbol_count_is_a_typed_error() {
        let w = WeightGen::new(0.018).seed(62).matrix(16, 16);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let bytes = to_bytes_with_codec(&tbe, SectionCodec::PlanarRans);
        let hf_at = 24 + 8 + 24 * u64_at(&bytes, 24) as usize;
        // The planar frame's u64 symbol count follows its u32 stream
        // count; 2^40 would ask `decompress` for a terabyte.
        let forged = forge(&bytes, hf_at + 8 + 4, &(1u64 << 40).to_le_bytes());
        assert!(matches!(from_bytes(&forged), Err(TbeError::Corrupt(_))));
    }

    /// Bit positions worth flipping in `bytes`: every bit of the header,
    /// the length fields, the block table and a planar frame's header,
    /// frequency table, states and stream lengths; every bit of each 7th
    /// byte of the bulk payloads (bitmaps, mantissas, fallback values,
    /// rANS streams). The trailing checksum is left to `forge`.
    fn sweep_bits(bytes: &[u8]) -> Vec<usize> {
        let n_tiles = u64_at(bytes, 24) as usize;
        let hf_at = 32 + 24 * n_tiles;
        let fb_at = hf_at + 8 + u64_at(bytes, hf_at) as usize;
        let blocks_at = fb_at + 8 + 2 * u64_at(bytes, fb_at) as usize;
        let le_u32 = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let mut dense = vec![true; bytes.len() - 8];
        let mut bulk = |range: std::ops::Range<usize>| dense[range].fill(false);
        bulk(32..hf_at);
        bulk(fb_at + 8..blocks_at);
        if bytes[7] == SectionCodec::PlanarRans.to_byte() {
            // n_streams u32 | n_symbols u64 | checksum u64 | 256 x u32
            // frequencies | n_streams x u32 states | (len u32 | bytes)...
            let n_streams = le_u32(hf_at + 8) as usize;
            let mut at = hf_at + 8 + 20 + 1024 + 4 * n_streams;
            for _ in 0..n_streams {
                let len = le_u32(at) as usize;
                bulk(at + 4..at + 4 + len);
                at += 4 + len;
            }
        } else {
            bulk(hf_at + 8..fb_at);
        }
        (0..dense.len())
            .filter(|&i| dense[i] || i % 7 == 0)
            .flat_map(|i| (0..8).map(move |bit| 8 * i + bit))
            .collect()
    }

    #[test]
    fn hostile_bit_flips_are_typed_errors_or_decodable_matrices() {
        // Single-bit flips re-sealed with a valid checksum, as a forger
        // would: each blob must parse to a typed error or to a matrix that
        // decompresses, never panic or exhaust memory. Release arithmetic
        // wraps where debug arithmetic panics, so CI runs this in both.
        let w = WeightGen::new(0.018).seed(63).matrix(8, 128);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        for codec in [SectionCodec::Raw, SectionCodec::PlanarRans] {
            let bytes = to_bytes_with_codec(&tbe, codec);
            let bits = sweep_bits(&bytes);
            assert!(bits.len() > 1000, "{codec:?}: swept {} bits", bits.len());
            for bit in bits {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Ok(m) = from_bytes(&forge(&flipped, 0, &[])) {
                    assert_eq!(m.decompress().rows(), m.rows());
                }
            }
        }
    }

    #[test]
    fn roundtrip() {
        let w = WeightGen::new(0.018).seed(55).matrix(128, 192);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let bytes = to_bytes(&tbe);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(back, tbe);
        assert_eq!(back.decompress(), w);
    }

    #[test]
    fn serialized_size_tracks_stats() {
        let w = WeightGen::new(0.018).seed(56).matrix(256, 256);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let bytes = to_bytes(&tbe);
        let stats = tbe.stats().compressed_bytes();
        let rel = (bytes.len() as f64 - stats as f64).abs() / stats as f64;
        assert!(rel < 0.02, "file {} vs stats {stats}", bytes.len());
    }

    #[test]
    fn raw_codec_is_byte_identical_to_version_one() {
        let w = WeightGen::new(0.018).seed(58).matrix(128, 128);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        assert_eq!(
            to_bytes(&tbe),
            to_bytes_with_codec(&tbe, SectionCodec::Raw),
            "Raw must keep writing the historical version-1 container"
        );
    }

    #[test]
    fn planar_rans_codec_roundtrips_and_shrinks() {
        let w = WeightGen::new(0.018).seed(59).matrix(256, 256);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let raw = to_bytes(&tbe);
        let coded = to_bytes_with_codec(&tbe, SectionCodec::PlanarRans);
        let back = from_bytes(&coded).unwrap();
        assert_eq!(back, tbe);
        assert_eq!(back.decompress(), w);
        // The section's mantissa bytes are near-uniform on Gaussian
        // weights, so the wire frame's fixed costs (frequency table,
        // per-stream states and lengths) are all the codec can lose here:
        // the container must stay within ~2% of raw. Skewed real-model
        // sections are where the codec pays off; selecting it is a
        // per-deployment call, not a format default.
        assert!(
            coded.len() as f64 <= raw.len() as f64 * 1.02,
            "entropy-coded container overhead exceeds its fixed costs: {} vs {}",
            coded.len(),
            raw.len()
        );
    }

    #[test]
    fn inner_checksum_catches_payload_flip_behind_a_valid_outer_checksum() {
        let w = WeightGen::new(0.018).seed(60).matrix(128, 128);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let mut bytes = to_bytes_with_codec(&tbe, SectionCodec::PlanarRans);
        // Flip a byte deep inside the entropy-coded payload, then re-fix
        // the outer FNV so the container-level integrity check passes —
        // the situation a buggy rewriter (or an attacker recomputing the
        // trailer) produces. Only the rANS frame checksum riding inside
        // the section can catch it.
        let hf_region = 4 + 2 + 2 + 16; // magic + version + exp/codec + dims
        let mid = hf_region + (bytes.len() - hf_region) / 3;
        bytes[mid] ^= 0x08;
        let body_len = bytes.len() - 8;
        let fixed = fnv1a(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&fixed.to_le_bytes());
        let err = from_bytes(&bytes).expect_err("tampered blob must not parse");
        assert!(matches!(err, TbeError::Corrupt(_)));
    }

    #[test]
    fn corruption_detected() {
        let w = WeightGen::new(0.018).seed(57).matrix(64, 64);
        let tbe = TbeCompressor::new().compress(&w).unwrap();
        let mut bytes = to_bytes(&tbe);
        // Flip a payload bit.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        assert!(matches!(from_bytes(&bytes), Err(TbeError::Corrupt(_))));
        // Truncate.
        assert!(matches!(
            from_bytes(&to_bytes(&tbe)[..20]),
            Err(TbeError::Corrupt(_))
        ));
        // Bad magic.
        let mut bad = to_bytes(&tbe);
        bad[0] = b'X';
        assert!(from_bytes(&bad).is_err());
    }
}
