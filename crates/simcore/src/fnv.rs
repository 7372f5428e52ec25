//! Streaming FNV-1a — the determinism-hash primitive.
//!
//! The testbed's `metrics_hash()` used to materialize the full textual
//! metrics trace (hundreds of MB at city scale) just to fold it into a
//! 64-bit FNV-1a digest. [`FnvStream`] is the same fold exposed as a sink:
//! it implements [`std::fmt::Write`], so the exact `write!` statements that
//! produce the trace can feed the hasher directly, byte for byte, without a
//! `String` in between.
//!
//! The per-record lines of a trace go through [`TraceSink`] instead: a line
//! is fixed strings ([`Lit`]) and decimals. A `String` appends their bytes;
//! an `FnvStream` folds a whole [`Lit`] in one multiply, one table load and
//! one add, which equals folding its bytes one at a time. FNV-1a updates the
//! state as `h ← (h ^ b)·P`, and
//!
//! - `h ^ b = h + δ`, with `δ = ((h mod 256) ^ b) − (h mod 256)`, so the
//!   update is `h·P + δ·P`;
//! - the low byte evolves on its own, `l ← ((l ^ b)·0xb3) mod 256`, so every
//!   `δ` along a string depends only on the starting low byte;
//! - after a fixed string `s` the state is therefore `h·P^|s| + A_s[h mod 256]`
//!   (all mod 2^64), and [`Lit::new`] tabulates `A_s` at compile time.
//!
//! Hashing through any of these paths is byte-identical to hashing the
//! assembled string — that equivalence is what keeps every pinned hash
//! stable (asserted in the tests below and in each trace writer's suite).

use std::fmt;

/// Incremental FNV-1a over a byte stream (64-bit, standard offset/prime).
#[derive(Debug, Clone)]
pub struct FnvStream {
    hash: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Default for FnvStream {
    fn default() -> Self {
        Self::new()
    }
}

impl FnvStream {
    pub fn new() -> FnvStream {
        FnvStream { hash: FNV_OFFSET }
    }

    /// Fold `bytes` into the running digest.
    #[inline]
    pub fn update(&mut self, bytes: &[u8]) {
        self.hash = fold(self.hash, bytes);
    }

    /// The digest of everything folded in so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.hash
    }

    /// One-shot convenience: the digest of `bytes`.
    #[doc(hidden)] // testbed's and edgemesh's digest tests hold the literal folds to it
    pub fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut s = FnvStream::new();
        s.update(bytes);
        s.finish()
    }
}

/// The byte-at-a-time FNV-1a step over `bytes`, from state `h`.
#[inline]
const fn fold(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

impl fmt::Write for FnvStream {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// A fixed string of a trace line with its FNV-1a fold precomputed: from any
/// state `h`, folding `text` yields `h·pow + table[h mod 256]` (module doc).
/// Declare one as a `static` so every use shares its 2 KiB table.
pub struct Lit {
    text: &'static str,
    /// `P^|text|`.
    pow: u64,
    /// `A_text`, indexed by the starting state's low byte.
    table: [u64; 256],
}

impl Lit {
    /// Tabulate `text`. `A_text[l]` is read off the fold from the state `l`
    /// itself: that fold is `l·pow + A_text[l]`.
    pub const fn new(text: &'static str) -> Lit {
        let mut pow = 1u64;
        let mut i = 0;
        while i < text.len() {
            pow = pow.wrapping_mul(FNV_PRIME);
            i += 1;
        }
        let mut table = [0u64; 256];
        let mut low = 0;
        while low < 256 {
            let l = low as u64;
            table[low] = fold(l, text.as_bytes()).wrapping_sub(l.wrapping_mul(pow));
            low += 1;
        }
        Lit { text, pow, table }
    }
}

/// The sink a trace's per-record lines are written to: fixed strings and
/// decimals, besides whatever `fmt` writes. The defaults append the bytes
/// through [`fmt::Write`]; [`FnvStream`] folds them without producing them.
/// Every implementor is an in-memory sink that cannot fail.
pub trait TraceSink: fmt::Write {
    /// Write the literal's text.
    fn lit(&mut self, lit: &'static Lit) {
        let _ = self.write_str(lit.text);
    }

    /// Write `v` in decimal — the bytes `write!(out, "{v}")` produces.
    fn decimal(&mut self, v: u64) {
        let mut buf = [0u8; 20];
        let digits = decimal_digits(v, &mut buf);
        let _ = self.write_str(std::str::from_utf8(digits).expect("ASCII digits"));
    }
}

impl TraceSink for String {}

impl TraceSink for FnvStream {
    #[inline]
    fn lit(&mut self, lit: &'static Lit) {
        let h = self.hash;
        self.hash = h
            .wrapping_mul(lit.pow)
            .wrapping_add(lit.table[h as u8 as usize]);
    }

    #[inline]
    fn decimal(&mut self, v: u64) {
        let mut buf = [0u8; 20];
        self.update(decimal_digits(v, &mut buf));
    }
}

/// `v`'s decimal digits, most significant first, at the tail of `buf`
/// (`u64::MAX` has 20 digits).
#[inline]
fn decimal_digits(mut v: u64, buf: &mut [u8; 20]) -> &[u8] {
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    &buf[at..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::fmt::Write as _;

    /// Every `10^k − 1`, `10^k`, `10^k + 1` in `u64`, plus 0 and `u64::MAX`:
    /// each digit-count boundary from both sides.
    fn decimal_edges() -> impl Iterator<Item = u64> {
        (0..20)
            .flat_map(|d| {
                let p = 10u64.pow(d);
                [p - 1, p, p + 1]
            })
            .chain([0, u64::MAX - 1, u64::MAX])
    }

    #[test]
    fn decimal_writer_equals_fmt() {
        for v in decimal_edges() {
            let mut fast = String::new();
            fast.decimal(v);
            assert_eq!(fast, format!("{v}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// From any state, folding a literal's table is folding its bytes
        /// (0–40 bytes). Bytes with the top bit set are needed: an ASCII
        /// byte never lets bit 7 of the state reach its lower bits or `δ`,
        /// so on ASCII text `table[l] == table[l ^ 0x80]`.
        #[test]
        fn lit_equals_update(mut text in "[\u{0}-\u{ff}]{0,40}", start in any::<u64>()) {
            let mut end = text.len().min(40);
            while !text.is_char_boundary(end) {
                end -= 1;
            }
            text.truncate(end);
            let text: &'static str = Box::leak(text.into_boxed_str());
            let mut folded = FnvStream { hash: start };
            folded.lit(Box::leak(Box::new(Lit::new(text))));
            let mut bytewise = FnvStream { hash: start };
            bytewise.update(text.as_bytes());
            prop_assert_eq!(folded.finish(), bytewise.finish());
        }

        /// The digit fold is the fold of `v.to_string()`, from any state.
        #[test]
        fn decimal_equals_update(start in any::<u64>()) {
            for v in decimal_edges() {
                let mut folded = FnvStream { hash: start };
                folded.decimal(v);
                let mut bytewise = FnvStream { hash: start };
                bytewise.update(v.to_string().as_bytes());
                prop_assert_eq!(folded.finish(), bytewise.finish(), "v = {}", v);
            }
        }
    }

    #[test]
    fn matches_one_shot_fold() {
        let data = b"lost=0 memory_hits=12\nreq started=1 finished=2\n";
        let mut reference: u64 = FNV_OFFSET;
        for &b in data.iter() {
            reference ^= b as u64;
            reference = reference.wrapping_mul(FNV_PRIME);
        }
        assert_eq!(FnvStream::hash_bytes(data), reference);
    }

    #[test]
    fn chunking_is_invisible() {
        let mut a = FnvStream::new();
        a.update(b"hello world");
        let mut b = FnvStream::new();
        b.update(b"hel");
        b.update(b"lo wor");
        b.update(b"ld");
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fmt_write_equals_string_then_hash() {
        let mut via_stream = FnvStream::new();
        write!(via_stream, "req started={} client={}", 123_u64, 7_usize).unwrap();
        let mut s = String::new();
        write!(s, "req started={} client={}", 123_u64, 7_usize).unwrap();
        assert_eq!(via_stream.finish(), FnvStream::hash_bytes(s.as_bytes()));
    }

    #[test]
    fn empty_stream_is_offset_basis() {
        assert_eq!(FnvStream::new().finish(), FNV_OFFSET);
    }
}
