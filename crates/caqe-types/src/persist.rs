//! Line-oriented persistence primitives shared by the plan-snapshot codecs
//! (DESIGN.md §19).
//!
//! Every on-disk artifact in this repo — the serve-layer session snapshot
//! and the PR 10 plan snapshot — is a plain-text, line-oriented file sealed
//! by an FNV-1a checksum, with floats encoded as the hex of their IEEE-754
//! bits so round-trips are lossless bit-for-bit (NaN payloads included).
//! This module centralizes those primitives so each codec spells them the
//! same way.

use crate::Value;

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One-shot FNV-1a over a byte slice.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.bytes(bytes);
    h.finish()
}

/// Incremental FNV-1a hasher for fingerprinting structured data.
///
/// Multi-byte integers are folded little-endian; floats are folded as their
/// IEEE-754 bit patterns, so `-0.0` and `+0.0` fingerprint differently —
/// exactly the distinction the deterministic engine preserves.
#[derive(Debug, Clone)]
pub struct Fnv1a {
    h: u64,
}

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a::new()
    }
}

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv1a { h: FNV_OFFSET }
    }

    /// Folds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds a `u64` little-endian.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) -> &mut Self {
        self.u64(v as u64)
    }

    /// Folds a float by its bit pattern.
    pub fn f64(&mut self, v: Value) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds a string's UTF-8 bytes, length-prefixed so concatenations
    /// cannot collide.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.usize(s.len()).bytes(s.as_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.h
    }
}

/// Encodes a float as the 16-hex-digit form of its IEEE-754 bits — the
/// lossless wire form every snapshot codec uses.
pub fn f64_hex(v: Value) -> String {
    format!("{:016x}", v.to_bits())
}

/// Decodes a float from its bit-pattern hex form.
pub fn parse_f64_hex(s: &str) -> Option<Value> {
    u64::from_str_radix(s, 16).ok().map(Value::from_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64-bit test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn incremental_equals_one_shot() {
        let mut h = Fnv1a::new();
        h.bytes(b"foo").bytes(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn f64_hex_round_trips_exactly() {
        for v in [
            0.0,
            -0.0,
            1.5,
            -3.25e-100,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
        ] {
            let back = parse_f64_hex(&f64_hex(v)).expect("hex parses");
            assert_eq!(back.to_bits(), v.to_bits(), "{v}");
        }
        // NaN payload preserved bit-for-bit.
        let nan = f64::from_bits(0x7ff8_dead_beef_0001);
        assert_eq!(
            parse_f64_hex(&f64_hex(nan)).map(f64::to_bits),
            Some(nan.to_bits())
        );
    }

    #[test]
    fn signed_zeros_fingerprint_differently() {
        let a = {
            let mut h = Fnv1a::new();
            h.f64(0.0);
            h.finish()
        };
        let b = {
            let mut h = Fnv1a::new();
            h.f64(-0.0);
            h.finish()
        };
        assert_ne!(a, b);
    }

    #[test]
    fn str_folding_is_length_prefixed() {
        let ab = {
            let mut h = Fnv1a::new();
            h.str("ab").str("c");
            h.finish()
        };
        let a_bc = {
            let mut h = Fnv1a::new();
            h.str("a").str("bc");
            h.finish()
        };
        assert_ne!(ab, a_bc);
    }

    #[test]
    fn bad_hex_rejected() {
        assert!(parse_f64_hex("not-hex").is_none());
    }
}
