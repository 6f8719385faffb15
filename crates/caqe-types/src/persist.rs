//! The one on-disk frame and the primitives under it (DESIGN.md §19).
//!
//! Both files this repo writes — the serve-layer session snapshot and the
//! plan file — are line-oriented text in the same frame:
//!
//! ```text
//! <magic> v<version>        header
//! <tag> <field> <field>…    body, one record per line
//! checksum <016x>           FNV-1a over every byte above this line
//! ```
//!
//! [`seal`] writes the frame and [`open`] is its only reader; a schema
//! walks each body line with a [`Fields`] cursor. Floats travel as the 16
//! hex digits of their IEEE-754 bits, so a round trip is lossless bit for
//! bit. Both files go to disk through one crash-safe writer, [`write_atomic`].

use crate::Value;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::str::SplitWhitespace;

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

/// Why [`open`] (or a [`Fields`] getter) refused a file. Each codec's public
/// error converts from this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Not a well-formed file of this kind: not UTF-8, no header or footer,
    /// checksum mismatch, or a body line the schema cannot read.
    Corrupt(String),
    /// A file of this kind, but not of the version the caller speaks.
    Version {
        /// The version the header names.
        found: u64,
    },
}

fn corrupt(why: String) -> FrameError {
    FrameError::Corrupt(why)
}

/// Seals `body` (whole lines, each ending in `\n`) into the frame: header
/// above, checksum over header and body below.
pub fn seal(magic: &str, version: u64, body: &str) -> String {
    let mut sealed = format!("{magic} v{version}\n{body}");
    let checksum = fnv1a(sealed.as_bytes());
    sealed.push_str(&format!("checksum {checksum:016x}\n"));
    sealed
}

/// Opens a sealed file and returns its body lines. The order of the checks
/// is the contract: UTF-8; header and version (`speaks` or
/// [`FrameError::Version`]), before anything else is trusted, because
/// another version may have changed the grammar or the checksum itself;
/// then the footer, which must be the last line, newline included, and
/// must match the bytes above it.
pub fn open<'a>(
    bytes: &'a [u8],
    magic: &str,
    speaks: u64,
) -> Result<impl Iterator<Item = &'a str>, FrameError> {
    let text = std::str::from_utf8(bytes).map_err(|e| corrupt(format!("not UTF-8: {e}")))?;
    let header = text.lines().next().unwrap_or_default();
    let found: u64 = header
        .strip_prefix(magic)
        .and_then(|v| v.strip_prefix(" v"))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| corrupt(format!("bad header {header:?}")))?;
    if found != speaks {
        return Err(FrameError::Version { found });
    }
    let footer_at = text
        .strip_suffix('\n')
        .and_then(|t| t.rfind('\n'))
        .map_or(0, |i| i + 1);
    let (covered, footer) = text.split_at(footer_at);
    let mut f = Fields::new(footer);
    if f.word() != Ok("checksum") {
        return Err(corrupt("missing checksum footer".to_string()));
    }
    let stated = f.hex64()?;
    f.end()?;
    let computed = fnv1a(covered.as_bytes());
    if stated != computed {
        return Err(corrupt(format!(
            "checksum mismatch: stated {stated:016x}, computed {computed:016x}"
        )));
    }
    Ok(covered.lines().skip(1)) // past the header, read above
}

/// A cursor over the whitespace-separated fields of one body line. Every
/// getter consumes one field; a missing or malformed field is
/// [`FrameError::Corrupt`] naming the line.
#[derive(Debug, Clone)]
pub struct Fields<'a> {
    line: &'a str,
    rest: SplitWhitespace<'a>,
}

impl<'a> Fields<'a> {
    /// A cursor at the first field of `line`.
    pub fn new(line: &'a str) -> Self {
        Fields {
            line,
            rest: line.split_whitespace(),
        }
    }

    fn bad(&self, what: &str) -> FrameError {
        corrupt(format!("{what} in line {:?}", self.line))
    }

    /// The next field as written (a tag or keyword).
    pub fn word(&mut self) -> Result<&'a str, FrameError> {
        self.rest.next().ok_or_else(|| self.bad("missing field"))
    }

    /// The next field as a decimal unsigned integer that fits `T`.
    pub fn uint<T: TryFrom<u64>>(&mut self) -> Result<T, FrameError> {
        let v = self.word()?.parse::<u64>().ok();
        v.and_then(|v| T::try_from(v).ok())
            .ok_or_else(|| self.bad("bad integer"))
    }

    /// The next field as exactly 16 hex digits.
    pub fn hex64(&mut self) -> Result<u64, FrameError> {
        let s = self.word()?;
        let digits = s.len() == 16 && s.bytes().all(|b| b.is_ascii_hexdigit());
        let v = u64::from_str_radix(s, 16).ok().filter(|_| digits);
        v.ok_or_else(|| self.bad("bad hex field"))
    }

    /// The next field as a float stored by its bits ([`Self::hex64`]).
    pub fn f64_bits(&mut self) -> Result<Value, FrameError> {
        self.hex64().map(Value::from_bits)
    }

    /// The next field as a `0` / `1` flag.
    pub fn flag(&mut self) -> Result<bool, FrameError> {
        match self.word()? {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(self.bad("bad flag")),
        }
    }

    /// Ends the line: a field left over is corruption too.
    pub fn end(mut self) -> Result<(), FrameError> {
        let extra = self.rest.next();
        extra.map_or(Ok(()), |_| Err(self.bad("trailing field")))
    }
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
    fn seal_then_open_returns_the_body_lines() {
        let sealed = seal("demo", 3, "row 7 1 3ff8000000000000\n");
        assert!(sealed.starts_with("demo v3\nrow 7 "));
        let lines: Vec<&str> = open(sealed.as_bytes(), "demo", 3).expect("opens").collect();
        assert_eq!(lines, ["row 7 1 3ff8000000000000"]);
        // An empty body is a frame too.
        let empty = seal("demo", 3, "");
        assert_eq!(open(empty.as_bytes(), "demo", 3).expect("opens").count(), 0);
    }

    #[test]
    fn open_checks_utf8_then_version_then_checksum() {
        let sealed = seal("demo", 3, "row 1\n");
        let corrupt = |bytes: &[u8]| matches!(open(bytes, "demo", 3), Err(FrameError::Corrupt(_)));
        // Another version is named as such even though the checksum (which
        // covers the header) no longer matches — and whichever way it differs.
        for other in [2, 4] {
            let text = sealed.replacen("demo v3", &format!("demo v{other}"), 1);
            let err = open(text.as_bytes(), "demo", 3).map(|_| ()).unwrap_err();
            assert_eq!(err, FrameError::Version { found: other });
        }
        let mut high_bit = sealed.clone().into_bytes();
        high_bit[9] |= 0x80;
        assert!(corrupt(&high_bit));
        assert!(corrupt(sealed.replacen("row 1", "row 2", 1).as_bytes()));
        assert!(corrupt(sealed.replacen("demo", "demi", 1).as_bytes()));
        assert!(corrupt(b""));
        assert!(corrupt(b"demo v3\n"));
        // The footer is the last line, whole: 16 hex digits and a newline.
        assert!(corrupt(sealed.trim_end().as_bytes()));
        assert!(corrupt(&sealed.as_bytes()[..sealed.len() - 2]));
        assert!(corrupt(format!("{sealed}row 1\n").as_bytes()));
        let footer = sealed.rfind("checksum ").expect("footer") + "checksum ".len();
        let mut signed = sealed.clone().into_bytes();
        signed[footer] = b'+';
        assert!(corrupt(&signed));
    }

    #[test]
    fn fields_are_typed_and_exact() {
        let mut f = Fields::new("row 7 1 3ff8000000000000 00000000000000ff");
        assert_eq!(f.word(), Ok("row"));
        assert_eq!(f.uint::<u16>(), Ok(7));
        assert_eq!(f.flag(), Ok(true));
        assert_eq!(f.f64_bits(), Ok(1.5));
        assert_eq!(f.hex64(), Ok(0xff));
        assert!(f.clone().end().is_ok());
        assert!(f.word().is_err(), "a missing field is an error");

        assert!(Fields::new("65536").uint::<u16>().is_err());
        assert!(Fields::new("-1").uint::<u64>().is_err());
        assert!(Fields::new("2").flag().is_err());
        assert!(Fields::new("ff").hex64().is_err(), "16 digits, no fewer");
        assert!(Fields::new("+00000000000000f").hex64().is_err());
        assert!(Fields::new("a b").end().is_err());
        // Every bit pattern survives, NaN payloads and signed zeros included.
        for bits in [
            0u64,
            1 << 63,
            0x7ff8_dead_beef_0001,
            f64::INFINITY.to_bits(),
        ] {
            let text = format!("{bits:016x}");
            let back = Fields::new(&text).f64_bits().expect("parses");
            assert_eq!(back.to_bits(), bits);
        }
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
