//! Streaming FNV-1a — the determinism-hash primitive.
//!
//! The testbed's `metrics_hash()` used to materialize the full textual
//! metrics trace (hundreds of MB at city scale) just to fold it into a
//! 64-bit FNV-1a digest. [`FnvStream`] is the same fold exposed as a sink:
//! it implements [`std::fmt::Write`], so the exact `write!` statements that
//! produce the trace can feed the hasher directly, byte for byte, without a
//! `String` in between. Hashing through `FnvStream` is byte-identical to
//! hashing the assembled string — that equivalence is what keeps every
//! pinned hash stable across the refactor (and is asserted in the tests
//! below and in the testbed's regression suite).

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
        let mut h = self.hash;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        self.hash = h;
    }

    /// The digest of everything folded in so far.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.hash
    }

    /// One-shot convenience: the digest of `bytes`.
    pub fn hash_bytes(bytes: &[u8]) -> u64 {
        let mut s = FnvStream::new();
        s.update(bytes);
        s.finish()
    }
}

impl std::fmt::Write for FnvStream {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        self.update(s.as_bytes());
        Ok(())
    }
}

/// Write `v` in decimal — the bytes `write!(out, "{v}")` produces, without
/// the `fmt` machinery. The metrics formatter's per-request line goes through
/// here whether the sink is an [`FnvStream`] or a `String`.
pub fn write_u64<W: std::fmt::Write>(out: &mut W, mut v: u64) -> std::fmt::Result {
    let mut buf = [0u8; 20]; // u64::MAX has 20 digits
    let mut at = buf.len();
    loop {
        at -= 1;
        buf[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.write_str(std::str::from_utf8(&buf[at..]).expect("ASCII digits"))
}

/// Write `v` as `write!(out, "{v}")` would: `true` or `false`.
pub fn write_bool<W: std::fmt::Write>(out: &mut W, v: bool) -> std::fmt::Result {
    out.write_str(if v { "true" } else { "false" })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    #[test]
    fn decimal_writer_equals_fmt() {
        let edges = (0..20).flat_map(|d| {
            let p = 10u64.pow(d);
            [p - 1, p, p + 1]
        });
        for v in edges.chain([0, u64::MAX - 1, u64::MAX]) {
            let mut fast = String::new();
            write_u64(&mut fast, v).unwrap();
            assert_eq!(fast, format!("{v}"));
        }
        for v in [true, false] {
            let mut fast = String::new();
            write_bool(&mut fast, v).unwrap();
            assert_eq!(fast, format!("{v}"));
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
