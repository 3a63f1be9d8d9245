//! Multi-tensor model archives and incremental snapshots — §7's
//! "efficient model checkpointing" direction (cf. LMC and ZipNN, which
//! compress checkpoints for storage only).
//!
//! A [`ModelArchive`] is a named collection of compressed tensors with a
//! manifest; [`SnapshotDelta`] stores only the FragTiles that changed
//! between two checkpoints of the same model — fine-tuning steps touch
//! weights sparsely, so deltas are far smaller than full archives.

use super::layout::TbeMatrix;
use super::serialize;
use crate::error::TbeError;
use std::collections::BTreeMap;

/// A named collection of compressed tensors.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModelArchive {
    tensors: BTreeMap<String, TbeMatrix>,
}

impl ModelArchive {
    /// An empty archive.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts (or replaces) a tensor. Returns the previous value, if any.
    pub fn insert(&mut self, name: impl Into<String>, tensor: TbeMatrix) -> Option<TbeMatrix> {
        self.tensors.insert(name.into(), tensor)
    }

    /// Looks up a tensor by name.
    pub fn get(&self, name: &str) -> Option<&TbeMatrix> {
        self.tensors.get(name)
    }

    /// Number of tensors.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// Is the archive empty?
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Iterates over `(name, tensor)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &TbeMatrix)> {
        self.tensors.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Total compressed bytes across tensors.
    pub fn compressed_bytes(&self) -> usize {
        self.tensors
            .values()
            .map(|t| t.stats().compressed_bytes())
            .sum()
    }

    /// Total raw BF16 bytes across tensors.
    pub fn raw_bytes(&self) -> usize {
        self.tensors.values().map(|t| t.stats().raw_bytes).sum()
    }

    /// Serializes the archive: a count-prefixed sequence of
    /// `(name, .ztbe blob)` records.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = b"ZARC".to_vec();
        out.extend_from_slice(&(self.tensors.len() as u32).to_le_bytes());
        for (name, tensor) in &self.tensors {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            let blob = serialize::to_bytes(tensor);
            out.extend_from_slice(&(blob.len() as u64).to_le_bytes());
            out.extend_from_slice(&blob);
        }
        out
    }

    /// Deserializes an archive.
    ///
    /// # Errors
    ///
    /// Returns [`TbeError::Corrupt`] on malformed input (bad magic,
    /// truncation, invalid UTF-8 names, or any corrupt tensor blob).
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Self, TbeError> {
        const E: TbeError = TbeError::Corrupt("truncated archive");
        let mut take = |n: usize| -> Result<&[u8], TbeError> {
            if bytes.len() < n {
                return Err(E);
            }
            let (head, rest) = bytes.split_at(n);
            bytes = rest;
            Ok(head)
        };
        if take(4)? != b"ZARC" {
            return Err(TbeError::Corrupt("bad archive magic"));
        }
        let count = u32::from_le_bytes(take(4)?.try_into().expect("4"));
        let mut tensors = BTreeMap::new();
        for _ in 0..count {
            let name_len = u32::from_le_bytes(take(4)?.try_into().expect("4")) as usize;
            let name = std::str::from_utf8(take(name_len)?)
                .map_err(|_| TbeError::Corrupt("tensor name is not UTF-8"))?
                .to_string();
            let blob_len = u64::from_le_bytes(take(8)?.try_into().expect("8")) as usize;
            let tensor = serialize::from_bytes(take(blob_len)?)?;
            tensors.insert(name, tensor);
        }
        Ok(ModelArchive { tensors })
    }
}

/// The FragTiles of one tensor that changed between two checkpoints.
#[derive(Debug, Clone, PartialEq)]
pub struct TensorDelta {
    /// Tensor name.
    pub name: String,
    /// Full replacement payload (used when too much changed to bother with
    /// tile granularity, or shapes differ).
    pub replacement: TbeMatrix,
}

/// An incremental snapshot: the tensors that changed since the base.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SnapshotDelta {
    changed: Vec<TensorDelta>,
    removed: Vec<String>,
}

impl SnapshotDelta {
    /// Computes the delta turning `base` into `next`.
    pub fn diff(base: &ModelArchive, next: &ModelArchive) -> SnapshotDelta {
        let mut changed = Vec::new();
        for (name, tensor) in next.iter() {
            if base.get(name) != Some(tensor) {
                changed.push(TensorDelta {
                    name: name.to_string(),
                    replacement: tensor.clone(),
                });
            }
        }
        let removed = base
            .iter()
            .filter(|(name, _)| next.get(name).is_none())
            .map(|(name, _)| name.to_string())
            .collect();
        SnapshotDelta { changed, removed }
    }

    /// Number of changed tensors.
    pub fn changed_count(&self) -> usize {
        self.changed.len()
    }

    /// Bytes this delta would occupy (changed payloads only).
    pub fn delta_bytes(&self) -> usize {
        self.changed
            .iter()
            .map(|d| d.replacement.stats().compressed_bytes())
            .sum()
    }

    /// Applies the delta to a base archive, producing the next checkpoint.
    pub fn apply(&self, base: &ModelArchive) -> ModelArchive {
        let mut out = base.clone();
        for name in &self.removed {
            out.tensors.remove(name);
        }
        for d in &self.changed {
            out.insert(d.name.clone(), d.replacement.clone());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::TbeCompressor;
    use zipserv_bf16::gen::WeightGen;
    use zipserv_bf16::{Bf16, Matrix};

    fn tensor(seed: u64) -> TbeMatrix {
        let w = WeightGen::new(0.02).seed(seed).matrix(64, 64);
        TbeCompressor::new().compress(&w).expect("tileable")
    }

    #[test]
    fn archive_roundtrip() {
        let mut a = ModelArchive::new();
        a.insert("layers.0.qkv", tensor(1));
        a.insert("layers.0.o", tensor(2));
        a.insert("lm_head", tensor(3));
        let bytes = a.to_bytes();
        let b = ModelArchive::from_bytes(&bytes).expect("valid");
        assert_eq!(a, b);
        assert_eq!(b.len(), 3);
        assert!(b.get("lm_head").is_some());
        assert!(b.get("missing").is_none());
    }

    #[test]
    fn archive_sizes_sum() {
        let mut a = ModelArchive::new();
        a.insert("x", tensor(4));
        a.insert("y", tensor(5));
        assert!(a.compressed_bytes() < a.raw_bytes());
        assert_eq!(a.raw_bytes(), 2 * 2 * 64 * 64);
    }

    #[test]
    fn archive_rejects_corruption() {
        let mut a = ModelArchive::new();
        a.insert("t", tensor(6));
        let mut bytes = a.to_bytes();
        bytes[0] = b'X';
        assert!(ModelArchive::from_bytes(&bytes).is_err());
        let good = a.to_bytes();
        assert!(ModelArchive::from_bytes(&good[..good.len() - 3]).is_err());
    }

    #[test]
    fn delta_captures_only_changes() {
        let mut base = ModelArchive::new();
        base.insert("a", tensor(1));
        base.insert("b", tensor(2));
        base.insert("c", tensor(3));

        let mut next = base.clone();
        next.insert("b", tensor(20)); // changed
        next.tensors.remove("c"); // removed
        next.insert("d", tensor(4)); // added

        let delta = SnapshotDelta::diff(&base, &next);
        assert_eq!(delta.changed_count(), 2, "b changed + d added");
        assert!(delta.delta_bytes() < base.compressed_bytes());
        assert_eq!(delta.apply(&base), next);
    }

    #[test]
    fn identical_checkpoints_have_empty_delta() {
        let mut a = ModelArchive::new();
        a.insert("w", tensor(9));
        let delta = SnapshotDelta::diff(&a, &a);
        assert_eq!(delta.changed_count(), 0);
        assert_eq!(delta.delta_bytes(), 0);
        assert_eq!(delta.apply(&a), a);
    }

    #[test]
    fn fine_tune_style_sparse_update_is_cheap() {
        // 8 tensors, fine-tune touches 1: delta is ~1/8 of the archive.
        let mut base = ModelArchive::new();
        for i in 0..8u64 {
            base.insert(format!("layer.{i}"), tensor(i));
        }
        let mut next = base.clone();
        // Perturb one tensor slightly.
        let w = WeightGen::new(0.02).seed(3).matrix(64, 64);
        let mut w2 = w.clone();
        w2[(0, 0)] = Bf16::from_f32(w[(0, 0)].to_f32() + 0.001);
        next.insert(
            "layer.3",
            TbeCompressor::new().compress(&w2).expect("tileable"),
        );

        let delta = SnapshotDelta::diff(&base, &next);
        assert_eq!(delta.changed_count(), 1);
        let full = next.compressed_bytes();
        assert!(
            (delta.delta_bytes() as f64) < 0.2 * full as f64,
            "delta {} vs full {full}",
            delta.delta_bytes()
        );
    }

    #[test]
    fn empty_archive_roundtrip() {
        let a = ModelArchive::new();
        assert!(a.is_empty());
        let b = ModelArchive::from_bytes(&a.to_bytes()).expect("valid");
        assert!(b.is_empty());
    }

    #[test]
    fn decompression_through_archive_is_bit_exact() {
        let w = Matrix::from_fn(64, 64, |r, c| Bf16::from_bits((r * 64 + c) as u16));
        let mut a = ModelArchive::new();
        a.insert("t", TbeCompressor::new().compress(&w).expect("tileable"));
        let b = ModelArchive::from_bytes(&a.to_bytes()).expect("valid");
        assert_eq!(b.get("t").expect("present").decompress(), w);
    }
}
