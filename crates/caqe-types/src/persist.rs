//! Line-oriented persistence primitives shared by the plan-snapshot codecs
//! (DESIGN.md §19).
//!
//! Every on-disk artifact in this repo — the serve-layer session snapshot
//! and the PR 10 plan snapshot — is a plain-text, line-oriented file sealed
//! by an FNV-1a checksum, with floats encoded as the hex of their IEEE-754
//! bits so round-trips are lossless bit-for-bit (NaN payloads included).
//! This module centralizes those primitives so each codec spells them the
//! same way — and holds the one crash-safe writer both go to disk through
//! ([`write_atomic`]).

use crate::Value;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

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

/// Crash-safely replaces the file at `path` with `bytes`: [`stage_temp`],
/// then [`publish_temp`]. A crash at any point leaves either the old file
/// or the new one, never a torn one.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    publish_temp(&stage_temp(path, bytes)?, path)
}

/// First half of [`write_atomic`]: writes `bytes` to `<file name>.tmp`
/// beside `path` and `fsync`s it. The temp name keeps the target's full
/// file name, so targets differing only by extension never share a temp.
/// Returns the temp path; on an I/O error the temp file is removed.
pub fn stage_temp(path: &Path, bytes: &[u8]) -> io::Result<PathBuf> {
    let mut name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_os_string();
    name.push(".tmp");
    let tmp = path.with_file_name(name);
    let mut f = fs::File::create(&tmp)?;
    let written = f.write_all(bytes).and_then(|()| f.sync_all());
    or_remove(&tmp, written)?;
    Ok(tmp)
}

/// Second half of [`write_atomic`]: atomically renames the staged `tmp`
/// over `path`, then `fsync`s the parent directory to persist the rename
/// itself. The directory sync is best effort — some filesystems refuse
/// directory handles, and by then the file is already published. If the
/// rename fails the temp file is removed.
pub fn publish_temp(tmp: &Path, path: &Path) -> io::Result<()> {
    or_remove(tmp, fs::rename(tmp, path))?;
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(Ok(d)) = dir.map(fs::File::open) {
        let _ = d.sync_all();
    }
    Ok(())
}

/// Passes `result` through, removing `tmp` first if it is an error.
fn or_remove(tmp: &Path, result: io::Result<()>) -> io::Result<()> {
    if result.is_err() {
        let _ = fs::remove_file(tmp);
    }
    result
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

    fn scratch_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("caqe_persist_{name}_{}", std::process::id()));
        fs::create_dir_all(&dir).expect("tmpdir");
        dir
    }

    fn temps_in(dir: &Path) -> usize {
        let entries = fs::read_dir(dir).expect("readable dir");
        entries
            .filter(|e| e.as_ref().expect("entry").path().extension() == Some("tmp".as_ref()))
            .count()
    }

    #[test]
    fn targets_differing_by_extension_stage_apart() {
        // Both writers are mid-flight before either publishes — the
        // interleaving that tore `a.plan.tmp` when the temp name was
        // derived by replacing the extension.
        let dir = scratch_dir("ext");
        let (v1, v2) = (dir.join("a.v1"), dir.join("a.v2"));
        let t1 = stage_temp(&v1, b"one").expect("stage");
        let t2 = stage_temp(&v2, b"two").expect("stage");
        assert_eq!(t1, dir.join("a.v1.tmp"));
        assert_ne!(t1, t2);
        publish_temp(&t1, &v1).expect("publish");
        publish_temp(&t2, &v2).expect("publish");
        assert_eq!(fs::read(&v1).expect("v1"), b"one");
        assert_eq!(fs::read(&v2).expect("v2"), b"two");
        assert_eq!(temps_in(&dir), 0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_write_leaves_no_temp_behind() {
        let dir = scratch_dir("fail");
        // No such directory: nothing can be staged.
        assert!(write_atomic(&dir.join("missing/x"), b"x").is_err());
        // Staged fine, but a file cannot be renamed over a directory.
        let target = dir.join("occupied");
        fs::create_dir_all(target.join("sub")).expect("dir target");
        assert!(write_atomic(&target, b"x").is_err());
        assert_eq!(temps_in(&dir), 0);
        // An overwrite replaces the content in place.
        let path = dir.join("x");
        write_atomic(&path, b"old").expect("write");
        write_atomic(&path, b"new").expect("overwrite");
        assert_eq!(fs::read(&path).expect("read"), b"new");
        fs::remove_dir_all(&dir).ok();
    }
}
