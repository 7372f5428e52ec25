//! Deterministic, fast hashing for hot-path collections.
//!
//! `std`'s default `SipHash` is keyed per-process only when explicitly seeded
//! with `RandomState`; the simulation crates already avoid that ambient
//! randomness, but they still pay SipHash's full cost on every flow-table and
//! buffer-map probe. [`DetHasher`] is a self-contained multiply–rotate hasher
//! (the same construction as rustc's `FxHash`) with a *fixed* initial state:
//! the same key always lands in the same bucket on every run and every host,
//! which is a determinism improvement over an unseeded `RandomState` — and
//! roughly 5× cheaper per probe for the small fixed-width keys (`u64` ids,
//! packed address pairs) the packet path uses.
//!
//! The usual caveat — `FxHash` is not DoS-resistant — does not apply: all keys
//! are generated by the simulation itself, never by an adversary.
//!
//! Iteration order of a [`DetHashMap`] is still insertion-dependent and must
//! not leak into simulation-visible state; the `det-collections` edgelint
//! rule applies to these aliases exactly as it does to the std types.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

const K: u64 = 0x517c_c1b7_2722_0a95;

/// Multiply–rotate hasher with a fixed (deterministic) initial state.
#[derive(Debug, Default, Clone)]
pub struct DetHasher {
    hash: u64,
}

impl DetHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl Hasher for DetHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold the tail length in so "ab" + "" and "a" + "b" differ.
            self.add(u64::from_le_bytes(word) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_u128(&mut self, v: u128) {
        self.add(v as u64);
        self.add((v >> 64) as u64);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

/// [`BuildHasher`] producing [`DetHasher`]s; zero-sized, fixed seed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DetBuildHasher;

impl BuildHasher for DetBuildHasher {
    type Hasher = DetHasher;

    #[inline]
    fn build_hasher(&self) -> DetHasher {
        DetHasher::default()
    }
}

/// `HashMap` with the deterministic fast hasher. Drop-in for hot-path maps.
pub type DetHashMap<K, V> = HashMap<K, V, DetBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(v: &T) -> u64 {
        DetBuildHasher.hash_one(v)
    }

    #[test]
    fn stable_across_instances() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"flow"), hash_of(&"flow"));
        assert_eq!(hash_of(&(7u64, 9usize)), hash_of(&(7u64, 9usize)));
    }

    #[test]
    fn distinguishes_nearby_keys() {
        let hashes: Vec<u64> = (0..1000u64).map(|i| hash_of(&i)).collect();
        let mut dedup = hashes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), hashes.len(), "1000 sequential ids collide");
    }

    #[test]
    fn byte_stream_tail_is_length_salted() {
        let mut a = DetHasher::default();
        a.write(b"abcdefgh");
        a.write(b"i");
        let mut b = DetHasher::default();
        b.write(b"abcdefgh");
        b.write(b"ij");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn map_round_trip() {
        let mut m: DetHashMap<u64, &str> = DetHashMap::default();
        m.insert(1, "one");
        m.insert(2, "two");
        assert_eq!(m.get(&1), Some(&"one"));
        assert_eq!(m.remove(&2), Some("two"));
        assert!(!m.contains_key(&2));
    }
}
