//! Deterministic, splittable randomness.
//!
//! [`SimRng`] is a xoshiro256** generator seeded through SplitMix64 (the
//! initialization recommended by the xoshiro authors). Two properties matter
//! for reproducible experiments:
//!
//! 1. **Stability** — the implementation is self-contained, so results never
//!    shift underneath us when a dependency bumps its internal generator.
//! 2. **Named streams** — [`SimRng::stream`] derives an independent child
//!    generator from `(seed, label)`. Each stochastic component draws from its
//!    own stream, so adding a new source of randomness (or reordering calls in
//!    one component) does not perturb the numbers any *other* component sees.

/// SplitMix64 step; used for seeding and for hashing stream labels.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a label, used to salt child streams.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// A deterministic xoshiro256** pseudo-random generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        // xoshiro must not start in the all-zero state; splitmix64 cannot
        // produce four consecutive zeros, but keep the guard for clarity.
        debug_assert!(s.iter().any(|&w| w != 0));
        SimRng { s }
    }

    /// Derive an independent child generator identified by `label`.
    ///
    /// The child is a pure function of `(self's seed material, label)`; it does
    /// not advance `self`.
    pub fn stream(&self, label: &str) -> SimRng {
        let salt = fnv1a(label.as_bytes());
        SimRng::seed_from_u64(self.s[0] ^ self.s[2].rotate_left(17) ^ salt)
    }

    /// Derive the same child generator as `stream(&format!("{prefix}-{idx}"))`
    /// without allocating the label. The decimal digits of `idx` are folded
    /// into the FNV salt directly, so the derived stream is byte-identical to
    /// the formatted-label form — setup loops keyed by a site/entity index
    /// keep their exact historical streams at zero heap cost.
    pub fn stream_indexed(&self, prefix: &str, idx: usize) -> SimRng {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in prefix.as_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^= b'-' as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut v = idx;
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        for &b in &digits[at..] {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        SimRng::seed_from_u64(self.s[0] ^ self.s[2].rotate_left(17) ^ h)
    }

    /// Derive an independent child generator from an integer index (e.g. a
    /// per-entity stream keyed by id).
    pub fn stream_u64(&self, idx: u64) -> SimRng {
        let mut sm = idx ^ 0xA5A5_5A5A_DEAD_BEEF;
        let salt = splitmix64(&mut sm);
        SimRng::seed_from_u64(self.s[0] ^ self.s[2].rotate_left(17) ^ salt)
    }

    /// Next raw 64-bit output.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi)`. `lo == hi` returns `lo`.
    pub(crate) fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's unbiased method. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Lemire: multiply-shift with rejection to remove modulo bias.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `usize` index in `[0, n)`.
    pub fn index(&mut self, n: usize) -> usize {
        self.below(n as u64) as usize
    }

    /// Bernoulli trial with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn streams_are_independent_and_stable() {
        let root = SimRng::seed_from_u64(42);
        let mut s1 = root.stream("network");
        let mut s1b = root.stream("network");
        let mut s2 = root.stream("cluster");
        assert_eq!(s1.next_u64(), s1b.next_u64(), "same label ⇒ same stream");
        // different labels produce different sequences
        let mut s1c = root.stream("network");
        let eq = (0..64).filter(|_| s1c.next_u64() == s2.next_u64()).count();
        assert!(eq < 2);
    }

    #[test]
    fn stream_indexed_matches_formatted_label() {
        let root = SimRng::seed_from_u64(42);
        for idx in [0usize, 1, 9, 10, 41, 100, 12_345, usize::MAX] {
            let mut via_fmt = root.stream(&format!("rt-{idx}"));
            let mut via_idx = root.stream_indexed("rt", idx);
            for _ in 0..8 {
                assert_eq!(via_fmt.next_u64(), via_idx.next_u64(), "idx={idx}");
            }
        }
    }

    #[test]
    fn stream_does_not_advance_parent() {
        let mut root = SimRng::seed_from_u64(9);
        let before = root.clone().next_u64();
        let _ = root.stream("x");
        assert_eq!(root.next_u64(), before);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut r = SimRng::seed_from_u64(11);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean={mean}");
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut r = SimRng::seed_from_u64(5);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[r.below(7) as usize] += 1;
        }
        for &c in &counts {
            assert!((9000..11000).contains(&c), "counts={counts:?}");
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from_u64(21);
        assert!(!(0..100).any(|_| r.chance(0.0)));
        assert!((0..100).all(|_| r.chance(1.0)));
    }
}
