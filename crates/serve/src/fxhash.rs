//! The hasher behind the serving path's integer-keyed maps.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx multiply-rotate hash of rustc's `FxHasher`: each word is xored
/// into the state rotated left by 5, which is then multiplied by an odd
/// constant. A final rotation, as in rustc-hash 2, brings the well-mixed
/// high bits of the product down to the bits a table indexes by.
///
/// It replaces std's SipHash on the maps the scheduler, the price memo and
/// the prefix registry consult every round: the step-price caches, the
/// outstanding fault victims, and the registry's entries, forks and block
/// chains. SipHash's random per-process key defends a map against keys an
/// adversary crafts to collide. These keys are made by the program: step
/// shapes the scheduler computes, chain numbers the registry hands out, and
/// request ids and prefix hashes the workload generator assigns. A trace
/// crafted to collide could only slow its own run, never change its
/// report, since no lookup's result depends on how keys hash. Without the
/// random key, iteration order is also the same on every run.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct FxHasher(u64);

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed through [`FxHasher`].
pub(crate) type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;
/// A `HashSet` keyed through [`FxHasher`].
pub(crate) type FxHashSet<K> = HashSet<K, BuildHasherDefault<FxHasher>>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn step_keys_spread_over_the_index_bits() {
        // A table indexes by a hash's low bits. A step-price key pairs a
        // batch (or a packed micro-batch shape) with a context bucket, a
        // multiple of 256 whose low bits are zero; without the final
        // rotation the product's low bits would see only the batch, and
        // these 256 keys would share 64 (pipelined: 52) of 1024 slots.
        let fx = BuildHasherDefault::<FxHasher>::default();
        let shapes: [fn(u64) -> u64; 2] = [|batch| batch, |per_micro| (per_micro << 32) | 4];
        for shape in shapes {
            let slots: HashSet<u64> = (1..=16)
                .flat_map(|b| (1..=16).map(move |k| (shape(b), k * 256)))
                .map(|key| fx.hash_one(key) & 1023)
                .collect();
            assert!(slots.len() > 192, "256 keys in {} slots", slots.len());
        }
    }
}
