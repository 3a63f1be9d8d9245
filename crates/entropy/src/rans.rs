//! Range asymmetric numeral system (rANS) coding, byte-renormalized, in the
//! interleaved multi-stream layout used by GPU decoders (DietGPU, nvCOMP).
//!
//! The encoder consumes symbols in reverse and renormalizes one byte at a
//! time from a 32-bit state; the decoder runs forward. The interleaved
//! variant round-robins symbols over `N` independent states so `N` GPU lanes
//! can decode in parallel — exactly the design whose *per-symbol
//! data-dependence* (§3.2 ❸: the state update depends on the decoded symbol)
//! the paper identifies as the SIMT bottleneck.
//!
//! Two frame layouts are provided:
//!
//! * [`RansBlob`] — all streams share one renormalization byte sequence, so
//!   stream `s` cannot take its next byte until every other stream has taken
//!   its turn. Faithful to the serial-dependence baseline, but the shared
//!   cursor forces a strict round-robin decode order.
//! * [`PlanarRansBlob`] — each stream owns a contiguous payload partition
//!   and its own byte cursor (the planar layout GPU decoders actually ship).
//!   Streams decode independently, in any order or all at once in lockstep
//!   rounds, so entropy decode parallelizes *within* a single tile's frame.

use crate::{CodecError, CompressionStats};

/// Probability resolution: frequencies are normalized to sum to `1 << PROB_BITS`.
pub const PROB_BITS: u32 = 12;
/// Frequencies are normalized to sum to this scale (`1 << PROB_BITS`).
pub const PROB_SCALE: u32 = 1 << PROB_BITS;
/// Lower bound of the renormalization interval.
const RANS_L: u32 = 1 << 23;

/// A frequency table normalized to [`PROB_SCALE`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RansTable {
    freq: [u32; 256],
    cum: [u32; 257],
    /// Slot-to-symbol lookup (PROB_SCALE entries).
    slot_to_symbol: Vec<u8>,
}

impl RansTable {
    /// Builds a normalized table from raw counts.
    ///
    /// Every occurring symbol receives frequency ≥ 1 after normalization.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::EmptyInput`] if all counts are zero.
    pub fn from_counts(counts: &[u64; 256]) -> Result<Self, CodecError> {
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return Err(CodecError::EmptyInput);
        }
        // Initial proportional allocation, guaranteeing >= 1 per present symbol.
        let mut freq = [0u32; 256];
        let mut allocated: i64 = 0;
        for s in 0..256usize {
            if counts[s] > 0 {
                let f = ((counts[s] as u128 * PROB_SCALE as u128) / total as u128) as u32;
                freq[s] = f.max(1);
                allocated += freq[s] as i64;
            }
        }
        // Repair the sum to exactly PROB_SCALE, stealing from / giving to the
        // largest buckets (which changes their probability the least).
        let mut delta = allocated - PROB_SCALE as i64;
        while delta != 0 {
            if delta > 0 {
                let s = (0..256usize)
                    .filter(|&s| freq[s] > 1)
                    .max_by_key(|&s| freq[s])
                    .ok_or(CodecError::Corrupt("cannot normalize frequency table"))?;
                let take = (freq[s] as i64 - 1).min(delta);
                freq[s] -= take as u32;
                delta -= take;
            } else {
                let s = (0..256usize)
                    .filter(|&s| freq[s] > 0)
                    .max_by_key(|&s| freq[s])
                    .expect("total > 0 implies a present symbol");
                freq[s] += (-delta) as u32;
                delta = 0;
            }
        }
        Ok(Self::from_frequencies(freq))
    }

    /// Builds the table from already-normalized frequencies (sum must be
    /// exactly [`PROB_SCALE`]).
    ///
    /// # Panics
    ///
    /// Panics if the frequencies do not sum to `PROB_SCALE`.
    pub fn from_frequencies(freq: [u32; 256]) -> Self {
        let sum: u32 = freq.iter().sum();
        assert_eq!(sum, PROB_SCALE, "frequencies must sum to {PROB_SCALE}");
        let mut cum = [0u32; 257];
        for s in 0..256usize {
            cum[s + 1] = cum[s] + freq[s];
        }
        let mut slot_to_symbol = vec![0u8; PROB_SCALE as usize];
        for s in 0..256usize {
            for slot in cum[s]..cum[s + 1] {
                slot_to_symbol[slot as usize] = s as u8;
            }
        }
        RansTable {
            freq,
            cum,
            slot_to_symbol,
        }
    }

    /// Normalized frequency of `symbol`.
    #[inline]
    pub fn frequency(&self, symbol: u8) -> u32 {
        self.freq[symbol as usize]
    }

    /// Cumulative frequency below `symbol`.
    #[inline]
    pub fn cumulative(&self, symbol: u8) -> u32 {
        self.cum[symbol as usize]
    }

    /// The symbol owning probability slot `slot`.
    #[inline]
    pub fn symbol_at(&self, slot: u32) -> u8 {
        self.slot_to_symbol[slot as usize]
    }

    /// Serialized form: the 256 normalized frequencies.
    pub fn frequencies(&self) -> [u32; 256] {
        self.freq
    }
}

/// Encodes one symbol into an rANS state, pushing renormalization bytes.
#[inline]
fn encode_symbol(state: &mut u32, out: &mut Vec<u8>, table: &RansTable, symbol: u8) {
    let f = table.frequency(symbol);
    debug_assert!(f > 0, "encoding symbol with zero frequency");
    let x_max = ((RANS_L >> PROB_BITS) << 8) * f;
    let mut x = *state;
    while x >= x_max {
        out.push((x & 0xFF) as u8);
        x >>= 8;
    }
    *state = ((x / f) << PROB_BITS) + (x % f) + table.cumulative(symbol);
}

/// Decodes one symbol from an rANS state, pulling renormalization bytes.
#[inline]
fn decode_symbol(
    state: &mut u32,
    input: &mut impl Iterator<Item = u8>,
    table: &RansTable,
) -> Result<u8, CodecError> {
    let x = *state;
    let slot = x & (PROB_SCALE - 1);
    let symbol = table.symbol_at(slot);
    let f = table.frequency(symbol);
    let c = table.cumulative(symbol);
    let mut x = f * (x >> PROB_BITS) + slot - c;
    while x < RANS_L {
        let byte = input.next().ok_or(CodecError::UnexpectedEof)?;
        x = (x << 8) | byte as u32;
    }
    *state = x;
    Ok(symbol)
}

/// An interleaved multi-stream rANS blob (DietGPU-style layout).
#[derive(Debug, Clone, PartialEq)]
pub struct RansBlob {
    freq: [u32; 256],
    /// Final encoder states, one per interleaved stream.
    states: Vec<u32>,
    /// Renormalization bytes in decode order.
    payload: Vec<u8>,
    n_symbols: usize,
    n_streams: usize,
    /// FNV-1a checksum of the raw input ([`crate::checksum64`]), verified
    /// after decode — rANS happily decodes a corrupted stream into
    /// plausible garbage, so the checksum is the only corruption signal.
    checksum: u64,
}

impl RansBlob {
    /// Stream interleaving factor used by GPU decoders (one warp's lanes).
    pub const DEFAULT_STREAMS: usize = 32;

    /// Compresses `data` with `n_streams` interleaved rANS states.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::EmptyInput`] for an empty input.
    ///
    /// # Panics
    ///
    /// Panics if `n_streams == 0`.
    pub fn compress(data: &[u8], n_streams: usize) -> Result<Self, CodecError> {
        assert!(n_streams > 0, "need at least one stream");
        let mut counts = [0u64; 256];
        for &b in data {
            counts[b as usize] += 1;
        }
        let table = RansTable::from_counts(&counts)?;

        // Encode in reverse so the decoder runs forward. Each stream owns
        // symbols i where i % n_streams == stream.
        let mut states = vec![RANS_L; n_streams];
        let mut reversed_payload = Vec::new();
        for i in (0..data.len()).rev() {
            let stream = i % n_streams;
            encode_symbol(&mut states[stream], &mut reversed_payload, &table, data[i]);
        }
        reversed_payload.reverse();
        Ok(RansBlob {
            freq: table.frequencies(),
            states,
            payload: reversed_payload,
            n_symbols: data.len(),
            n_streams,
            checksum: crate::checksum64(data),
        })
    }

    /// Decompresses the blob back to the original byte stream.
    ///
    /// # Errors
    ///
    /// Returns a [`CodecError`] if the payload is truncated, or
    /// [`CodecError::ChecksumMismatch`] if it decodes to the wrong bytes
    /// (a corrupted stream often still renormalizes cleanly).
    pub fn decompress(&self) -> Result<Vec<u8>, CodecError> {
        let table = RansTable::from_frequencies(self.freq);
        let mut states = self.states.clone();
        let mut bytes = self.payload.iter().copied();
        let mut out = Vec::with_capacity(self.n_symbols);
        for i in 0..self.n_symbols {
            let stream = i % self.n_streams;
            out.push(decode_symbol(&mut states[stream], &mut bytes, &table)?);
        }
        crate::verify_checksum(&out, self.checksum)?;
        Ok(out)
    }

    /// Compression statistics: payload + per-stream states + frequency table
    /// (256 × 12-bit entries packed) + length header + frame checksum.
    pub fn stats(&self) -> CompressionStats {
        CompressionStats {
            raw_bytes: self.n_symbols,
            compressed_bytes: self.payload.len() + 4 * self.states.len() + 384 + 16 + 8,
        }
    }

    /// Number of interleaved streams.
    pub fn stream_count(&self) -> usize {
        self.n_streams
    }
}

/// A planar multi-stream rANS blob: stream `s` owns symbols
/// `s, s + N, s + 2N, …` *and* a contiguous payload partition holding only
/// its own renormalization bytes.
///
/// This removes the cross-stream byte-cursor dependence of [`RansBlob`]:
/// every stream carries its own state and its own cursor, so the decode of
/// one stream never waits on another. A warp decodes one symbol per lane
/// per lockstep round ([`PlanarRansBlob::decompress`]), and a single stream
/// can be decoded standalone ([`PlanarRansBlob::decompress_stream`]) — the
/// property that lets entropy decode parallelize within one tile.
///
/// The price is a per-stream length header (4 bytes/stream) in the frame,
/// accounted for in [`PlanarRansBlob::stats`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanarRansBlob {
    freq: [u32; 256],
    /// Final encoder states, one per stream.
    states: Vec<u32>,
    /// Per-stream renormalization bytes, each in decode order.
    payloads: Vec<Vec<u8>>,
    n_symbols: usize,
    /// FNV-1a checksum of the raw input, verified after decode.
    checksum: u64,
}

impl PlanarRansBlob {
    /// Stream count matching one GPU warp, as in [`RansBlob::DEFAULT_STREAMS`].
    pub const DEFAULT_STREAMS: usize = 32;

    /// Compresses `data` into `n_streams` independent planar streams.
    ///
    /// All streams share one frequency table (one shared-memory table per
    /// tile on the GPU); only the payload bytes are partitioned.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::EmptyInput`] for an empty input.
    ///
    /// # Panics
    ///
    /// Panics if `n_streams == 0`.
    pub fn compress(data: &[u8], n_streams: usize) -> Result<Self, CodecError> {
        assert!(n_streams > 0, "need at least one stream");
        let mut counts = [0u64; 256];
        for &b in data {
            counts[b as usize] += 1;
        }
        let table = RansTable::from_counts(&counts)?;

        // Encode each stream's subsequence in reverse into its own payload;
        // unlike `RansBlob`, bytes from different streams never interleave.
        let mut states = vec![RANS_L; n_streams];
        let mut payloads = vec![Vec::new(); n_streams];
        for i in (0..data.len()).rev() {
            let stream = i % n_streams;
            encode_symbol(&mut states[stream], &mut payloads[stream], &table, data[i]);
        }
        for payload in &mut payloads {
            payload.reverse();
        }
        Ok(PlanarRansBlob {
            freq: table.frequencies(),
            states,
            payloads,
            n_symbols: data.len(),
            checksum: crate::checksum64(data),
        })
    }

    /// Decompresses the blob back to the original byte stream.
    ///
    /// Runs the streams in lockstep rounds — round `r` decodes symbol `r`
    /// of every stream, each from its own state and cursor. Every step in a
    /// round is independent of the others; on a GPU the round is one
    /// warp-wide instruction, here it is a loop that could be a SIMD lane
    /// per stream.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if any stream's payload is
    /// truncated, or [`CodecError::ChecksumMismatch`] if the frame decodes
    /// to the wrong bytes.
    pub fn decompress(&self) -> Result<Vec<u8>, CodecError> {
        let table = RansTable::from_frequencies(self.freq);
        let n = self.payloads.len();
        let mut states = self.states.clone();
        let mut cursors: Vec<_> = self.payloads.iter().map(|p| p.iter().copied()).collect();
        let mut out = vec![0u8; self.n_symbols];
        let mut base = 0;
        while base < self.n_symbols {
            let lanes = n.min(self.n_symbols - base);
            for stream in 0..lanes {
                out[base + stream] =
                    decode_symbol(&mut states[stream], &mut cursors[stream], &table)?;
            }
            base += lanes;
        }
        crate::verify_checksum(&out, self.checksum)?;
        Ok(out)
    }

    /// Decodes a single stream standalone, returning its symbol subsequence
    /// (`data[stream], data[stream + N], …`) — no other stream's state or
    /// payload is touched.
    ///
    /// The frame checksum covers the whole input, so a lone stream cannot
    /// be integrity-checked here; callers that decode stream-by-stream must
    /// verify the reassembled frame (as [`PlanarRansBlob::decompress`]
    /// does).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::UnexpectedEof`] if this stream's payload is
    /// truncated.
    ///
    /// # Panics
    ///
    /// Panics if `stream >= self.stream_count()`.
    pub fn decompress_stream(&self, stream: usize) -> Result<Vec<u8>, CodecError> {
        let n = self.payloads.len();
        assert!(stream < n, "stream {stream} out of range ({n} streams)");
        let table = RansTable::from_frequencies(self.freq);
        let mut state = self.states[stream];
        let mut cursor = self.payloads[stream].iter().copied();
        let count = self.n_symbols.saturating_sub(stream).div_ceil(n);
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            out.push(decode_symbol(&mut state, &mut cursor, &table)?);
        }
        Ok(out)
    }

    /// Compression statistics: payload partitions + per-stream states and
    /// length headers + frequency table (256 × 12-bit entries packed) +
    /// length header + frame checksum.
    pub fn stats(&self) -> CompressionStats {
        let payload: usize = self.payloads.iter().map(Vec::len).sum();
        CompressionStats {
            raw_bytes: self.n_symbols,
            compressed_bytes: payload + 8 * self.payloads.len() + 384 + 16 + 8,
        }
    }

    /// Number of planar streams.
    pub fn stream_count(&self) -> usize {
        self.payloads.len()
    }

    /// Number of symbols the frame decodes to, as its header declares —
    /// what [`PlanarRansBlob::decompress`] allocates before any checksum
    /// can run.
    pub fn symbol_count(&self) -> usize {
        self.n_symbols
    }

    /// Serializes the blob to a little-endian wire frame, for embedding in
    /// on-disk containers (the `.ztbe` format stores entropy-coded
    /// sections this way):
    ///
    /// ```text
    /// n_streams u32 | n_symbols u64 | checksum u64
    /// freq      256 × u32
    /// states    n_streams × u32
    /// payloads  n_streams × (len u32 | bytes)
    /// ```
    ///
    /// The frame carries the input checksum, so corruption anywhere in the
    /// payload surfaces as [`CodecError::ChecksumMismatch`] at decode time
    /// even when the surrounding container's own integrity check passes
    /// (or was itself tampered with).
    pub fn to_wire(&self) -> Vec<u8> {
        let payload: usize = self.payloads.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(4 + 8 + 8 + 1024 + 8 * self.payloads.len() + payload);
        out.extend_from_slice(&(self.payloads.len() as u32).to_le_bytes());
        out.extend_from_slice(&(self.n_symbols as u64).to_le_bytes());
        out.extend_from_slice(&self.checksum.to_le_bytes());
        for f in self.freq {
            out.extend_from_slice(&f.to_le_bytes());
        }
        for s in &self.states {
            out.extend_from_slice(&s.to_le_bytes());
        }
        for p in &self.payloads {
            out.extend_from_slice(&(p.len() as u32).to_le_bytes());
            out.extend_from_slice(p);
        }
        out
    }

    /// Reassembles a blob from its [`PlanarRansBlob::to_wire`] frame.
    ///
    /// Structural checks only — the content checksum is verified when the
    /// blob is actually decompressed.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::Corrupt`] on a zero stream count or one too
    /// large for the frame, and [`CodecError::UnexpectedEof`] on any
    /// truncation.
    pub fn from_wire(bytes: &[u8]) -> Result<Self, CodecError> {
        let mut buf = bytes;
        let mut take = |n: usize| -> Result<&[u8], CodecError> {
            if buf.len() < n {
                return Err(CodecError::UnexpectedEof);
            }
            let (head, rest) = buf.split_at(n);
            buf = rest;
            Ok(head)
        };
        let le_u32 = |b: &[u8]| u32::from_le_bytes(b.try_into().unwrap_or_default());
        let n_streams = le_u32(take(4)?) as usize;
        if n_streams == 0 {
            return Err(CodecError::Corrupt("planar frame with zero streams"));
        }
        // Every stream carries a 4-byte state and a 4-byte payload length
        // after the fixed header; refuse a count the frame cannot hold
        // before allocating for it.
        const HEADER: usize = 4 + 8 + 8 + 4 * 256;
        if n_streams > bytes.len().saturating_sub(HEADER) / 8 {
            return Err(CodecError::Corrupt("stream count exceeds the frame"));
        }
        let n_symbols = u64::from_le_bytes(take(8)?.try_into().unwrap_or_default()) as usize;
        let checksum = u64::from_le_bytes(take(8)?.try_into().unwrap_or_default());
        let mut freq = [0u32; 256];
        for f in freq.iter_mut() {
            *f = le_u32(take(4)?);
        }
        let mut states = Vec::with_capacity(n_streams);
        for _ in 0..n_streams {
            states.push(le_u32(take(4)?));
        }
        let mut payloads = Vec::with_capacity(n_streams);
        for _ in 0..n_streams {
            let len = le_u32(take(4)?) as usize;
            payloads.push(take(len)?.to_vec());
        }
        Ok(PlanarRansBlob {
            freq,
            states,
            payloads,
            n_symbols,
            checksum,
        })
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;

    fn skewed_data(n: usize) -> Vec<u8> {
        let mut state = 0xABCDEF12u64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match state % 100 {
                    0..=44 => 121,
                    45..=69 => 120,
                    70..=89 => 122,
                    90..=95 => 119,
                    96..=98 => 123,
                    _ => (state >> 40) as u8,
                }
            })
            .collect()
    }

    #[test]
    fn table_normalizes_to_scale() {
        let mut counts = [0u64; 256];
        counts[7] = 123;
        counts[8] = 456;
        counts[200] = 1;
        let t = RansTable::from_counts(&counts).unwrap();
        let sum: u32 = (0..=255u8).map(|s| t.frequency(s)).sum();
        assert_eq!(sum, PROB_SCALE);
        assert!(t.frequency(200) >= 1, "rare symbol keeps nonzero frequency");
        assert_eq!(t.frequency(9), 0);
    }

    #[test]
    fn slot_lookup_consistent_with_cumulative() {
        let mut counts = [0u64; 256];
        for s in 0..16u64 {
            counts[s as usize] = s + 1;
        }
        let t = RansTable::from_counts(&counts).unwrap();
        for s in 0..16u8 {
            let c = t.cumulative(s);
            if t.frequency(s) > 0 {
                assert_eq!(t.symbol_at(c), s);
                assert_eq!(t.symbol_at(c + t.frequency(s) - 1), s);
            }
        }
    }

    #[test]
    fn empty_input_rejected() {
        assert_eq!(RansBlob::compress(&[], 32), Err(CodecError::EmptyInput));
    }

    #[test]
    fn single_stream_roundtrip() {
        let data = skewed_data(10_000);
        let blob = RansBlob::compress(&data, 1).unwrap();
        assert_eq!(blob.decompress().unwrap(), data);
    }

    #[test]
    fn interleaved_roundtrip() {
        for n_streams in [2, 8, 32] {
            let data = skewed_data(12_345);
            let blob = RansBlob::compress(&data, n_streams).unwrap();
            assert_eq!(blob.stream_count(), n_streams);
            assert_eq!(blob.decompress().unwrap(), data, "streams {n_streams}");
        }
    }

    #[test]
    fn short_inputs_roundtrip() {
        for len in 1..64usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 % 5) as u8).collect();
            let blob = RansBlob::compress(&data, 32).unwrap();
            assert_eq!(blob.decompress().unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn constant_input_compresses_extremely_well() {
        let data = vec![99u8; 100_000];
        let blob = RansBlob::compress(&data, 32).unwrap();
        assert_eq!(blob.decompress().unwrap(), data);
        assert!(
            blob.stats().ratio() > 50.0,
            "ratio {}",
            blob.stats().ratio()
        );
    }

    #[test]
    fn skewed_compression_near_entropy() {
        let data = skewed_data(200_000);
        let mut counts = [0u64; 256];
        for &b in &data {
            counts[b as usize] += 1;
        }
        let total: u64 = counts.iter().sum();
        let entropy: f64 = counts
            .iter()
            .filter(|&&c| c > 0)
            .map(|&c| {
                let p = c as f64 / total as f64;
                -p * p.log2()
            })
            .sum();
        let blob = RansBlob::compress(&data, 32).unwrap();
        let achieved_bits = blob.stats().compressed_bytes as f64 * 8.0 / data.len() as f64;
        // rANS should land within ~3% + headers of the entropy.
        assert!(
            achieved_bits < entropy * 1.05 + 0.2,
            "achieved {achieved_bits} entropy {entropy}"
        );
        assert_eq!(blob.decompress().unwrap(), data);
    }

    #[test]
    fn uniform_random_roundtrip() {
        let mut state = 42u64;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let blob = RansBlob::compress(&data, 32).unwrap();
        assert_eq!(blob.decompress().unwrap(), data);
    }

    #[test]
    fn truncated_payload_detected() {
        let data = skewed_data(5_000);
        let mut blob = RansBlob::compress(&data, 4).unwrap();
        blob.payload.truncate(blob.payload.len() / 2);
        // Historically a truncated stream could decode to garbage of the
        // right length and pass; the frame checksum makes every truncation
        // a hard error (EOF when renormalization starves, mismatch when it
        // limps through).
        assert!(matches!(
            blob.decompress(),
            Err(CodecError::UnexpectedEof) | Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn planar_roundtrip_across_stream_counts() {
        for n_streams in [1, 2, 8, 32] {
            let data = skewed_data(12_345);
            let blob = PlanarRansBlob::compress(&data, n_streams).unwrap();
            assert_eq!(blob.stream_count(), n_streams);
            assert_eq!(blob.decompress().unwrap(), data, "streams {n_streams}");
        }
    }

    #[test]
    fn planar_short_inputs_roundtrip() {
        // Fewer symbols than streams leaves most streams empty; they must
        // still frame and decode correctly.
        for len in 1..64usize {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 % 5) as u8).collect();
            let blob = PlanarRansBlob::compress(&data, 32).unwrap();
            assert_eq!(blob.decompress().unwrap(), data, "len {len}");
        }
    }

    #[test]
    fn planar_empty_input_rejected() {
        assert_eq!(
            PlanarRansBlob::compress(&[], 32),
            Err(CodecError::EmptyInput)
        );
    }

    #[test]
    fn planar_streams_decode_independently_in_any_order() {
        // The point of the planar layout: each stream is self-contained.
        // Decode the streams standalone, in reverse order, and reassemble —
        // the result must match both the input and the lockstep decode.
        let data = skewed_data(9_001);
        let n = 8;
        let blob = PlanarRansBlob::compress(&data, n).unwrap();
        let mut reassembled = vec![0u8; data.len()];
        for stream in (0..n).rev() {
            let lane = blob.decompress_stream(stream).unwrap();
            for (r, byte) in lane.into_iter().enumerate() {
                reassembled[stream + r * n] = byte;
            }
        }
        assert_eq!(reassembled, data);
        assert_eq!(blob.decompress().unwrap(), data);
    }

    #[test]
    fn planar_stream_matches_its_subsequence() {
        let data = skewed_data(1_000);
        let n = 32;
        let blob = PlanarRansBlob::compress(&data, n).unwrap();
        for stream in [0, 1, 7, 31] {
            let expect: Vec<u8> = data.iter().copied().skip(stream).step_by(n).collect();
            assert_eq!(blob.decompress_stream(stream).unwrap(), expect);
        }
    }

    #[test]
    fn planar_compression_tracks_interleaved() {
        // Partitioning the payload must not cost measurable ratio: both
        // layouts emit the same renormalization bytes, just routed to
        // different buffers. Only the per-stream headers differ.
        let data = skewed_data(200_000);
        let shared = RansBlob::compress(&data, 32).unwrap();
        let planar = PlanarRansBlob::compress(&data, 32).unwrap();
        let payload: usize = planar.payloads.iter().map(Vec::len).sum();
        let diff = payload.abs_diff(shared.payload.len());
        assert!(diff <= 64, "payload sizes diverged by {diff} bytes");
        assert_eq!(planar.decompress().unwrap(), data);
    }

    #[test]
    fn planar_truncation_detected() {
        let data = skewed_data(5_000);
        let mut blob = PlanarRansBlob::compress(&data, 8).unwrap();
        let cut = blob.payloads[3].len() / 2;
        blob.payloads[3].truncate(cut);
        assert!(matches!(
            blob.decompress(),
            Err(CodecError::UnexpectedEof) | Err(CodecError::ChecksumMismatch { .. })
        ));
        assert!(matches!(
            blob.decompress_stream(3),
            Err(CodecError::UnexpectedEof)
        ));
    }

    #[test]
    fn planar_corruption_fails_checksum() {
        let data = skewed_data(5_000);
        let mut blob = PlanarRansBlob::compress(&data, 32).unwrap();
        let mid = blob.payloads[5].len() / 2;
        blob.payloads[5][mid] ^= 0x10;
        assert!(blob.decompress().is_err(), "corruption must not pass");
        let mut tampered = PlanarRansBlob::compress(&data, 32).unwrap();
        tampered.checksum ^= 1;
        assert!(matches!(
            tampered.decompress(),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn corrupted_payload_fails_checksum() {
        // rANS resynchronizes through corruption and emits plausible bytes;
        // only the checksum catches a mid-stream bit flip.
        let data = skewed_data(5_000);
        let mut blob = RansBlob::compress(&data, 32).unwrap();
        let mid = blob.payload.len() / 2;
        blob.payload[mid] ^= 0x10;
        assert!(blob.decompress().is_err(), "corruption must not pass");
        let mut tampered = RansBlob::compress(&data, 32).unwrap();
        tampered.checksum ^= 1;
        assert!(matches!(
            tampered.decompress(),
            Err(CodecError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn planar_wire_roundtrip() {
        let data = skewed_data(4_096);
        let blob = PlanarRansBlob::compress(&data, 32).unwrap();
        let wire = blob.to_wire();
        let back = PlanarRansBlob::from_wire(&wire).unwrap();
        assert_eq!(back, blob);
        assert_eq!(back.decompress().unwrap(), data);
        // Truncation anywhere is a typed structural error.
        assert!(matches!(
            PlanarRansBlob::from_wire(&wire[..wire.len() - 1]),
            Err(CodecError::UnexpectedEof)
        ));
        assert!(matches!(
            PlanarRansBlob::from_wire(&wire[..3]),
            Err(CodecError::UnexpectedEof)
        ));
    }

    #[test]
    fn planar_wire_refuses_a_forged_stream_count() {
        // The stream count is read before any checksum can vouch for it;
        // a count the frame cannot hold is refused before allocating.
        let mut wire = PlanarRansBlob::compress(&skewed_data(1_024), 8)
            .unwrap()
            .to_wire();
        for forged in [u32::MAX, 1 << 28, 1_000] {
            wire[..4].copy_from_slice(&forged.to_le_bytes());
            assert!(
                matches!(
                    PlanarRansBlob::from_wire(&wire),
                    Err(CodecError::Corrupt(_))
                ),
                "{forged} streams accepted"
            );
        }
    }

    #[test]
    fn planar_wire_corruption_caught_by_frame_checksum() {
        // A bit flip deep in a payload partition survives the structural
        // parse (rANS resynchronizes into plausible garbage) but the frame
        // checksum riding in the wire format catches it at decode time.
        let data = skewed_data(4_096);
        let mut wire = PlanarRansBlob::compress(&data, 32).unwrap().to_wire();
        let off = wire.len() - 5;
        wire[off] ^= 0x20;
        let back = PlanarRansBlob::from_wire(&wire).unwrap();
        assert!(back.decompress().is_err(), "corruption must not pass");
    }
}
