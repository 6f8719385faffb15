//! Dependency-free JSON writing and parsing for experiment reports.
//!
//! The build environment vendors no serde, so the harness carries its own
//! tiny JSON layer: an escaping writer used by [`crate::report::render_jsonl`]
//! and a strict recursive-descent parser used by report tooling and tests to
//! round-trip rows.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (parsed as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object (key order not preserved).
    Object(BTreeMap<String, JsonValue>),
}

impl JsonValue {
    /// Member access for objects; `Null` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> &JsonValue {
        const NULL: JsonValue = JsonValue::Null;
        match self {
            JsonValue::Object(map) => map.get(key).unwrap_or(&NULL),
            _ => &NULL,
        }
    }

    /// The value as a string slice, if it is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a number, if it is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }
}

impl std::ops::Index<&str> for JsonValue {
    type Output = JsonValue;
    fn index(&self, key: &str) -> &JsonValue {
        self.get(key)
    }
}

impl PartialEq<&str> for JsonValue {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == Some(*other)
    }
}

impl PartialEq<f64> for JsonValue {
    fn eq(&self, other: &f64) -> bool {
        self.as_f64() == Some(*other)
    }
}

impl PartialEq<i32> for JsonValue {
    fn eq(&self, other: &i32) -> bool {
        self.as_f64() == Some(*other as f64)
    }
}

impl PartialEq<u64> for JsonValue {
    fn eq(&self, other: &u64) -> bool {
        self.as_f64() == Some(*other as f64)
    }
}

/// Incremental writer for one JSON object.
#[derive(Debug, Default)]
pub struct ObjectWriter {
    buf: String,
    first: bool,
    dropped: u64,
}

impl ObjectWriter {
    /// Starts an empty object.
    pub fn new() -> Self {
        ObjectWriter {
            buf: String::from("{"),
            first: true,
            dropped: 0,
        }
    }

    /// How many non-finite float values were serialized as `null` so far.
    /// JSON has no NaN/Infinity; callers surface this count in report
    /// summaries instead of dropping the information silently.
    pub fn dropped_values(&self) -> u64 {
        self.dropped
    }

    fn key(&mut self, key: &str) {
        if !self.first {
            self.buf.push(',');
        }
        self.first = false;
        write_escaped(&mut self.buf, key);
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        write_escaped(&mut self.buf, value);
        self
    }

    /// Adds a float field (JSON-safe: non-finite values become `null`).
    pub fn number(&mut self, key: &str, value: f64) -> &mut Self {
        self.key(key);
        if value.is_finite() {
            let _ = write!(self.buf, "{value}");
        } else {
            self.buf.push_str("null");
            self.dropped += 1;
        }
        self
    }

    /// Adds an unsigned integer field.
    pub fn uint(&mut self, key: &str, value: u64) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a boolean field.
    pub fn bool(&mut self, key: &str, value: bool) -> &mut Self {
        self.key(key);
        let _ = write!(self.buf, "{value}");
        self
    }

    /// Adds a raw, already-serialized JSON fragment.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(json);
        self
    }

    /// Closes and returns the object text.
    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }

    /// Closes and returns the object text plus the count of non-finite
    /// values serialized as `null` (see [`ObjectWriter::dropped_values`]).
    pub fn finish_counted(mut self) -> (String, u64) {
        self.buf.push('}');
        (self.buf, self.dropped)
    }
}

fn write_escaped(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            '\n' => buf.push_str("\\n"),
            '\r' => buf.push_str("\\r"),
            '\t' => buf.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(buf, "\\u{:04x}", c as u32);
            }
            c => buf.push(c),
        }
    }
    buf.push('"');
}

/// Deepest array/object nesting [`parse`] accepts: far beyond any report
/// the harness writes, far short of a recursion that could overflow a
/// thread's stack (which aborts the process — `catch_unwind` cannot stop
/// it).
const MAX_DEPTH: usize = 128;

/// Parses one JSON document.
///
/// Strict on structure, tolerant on number formats (`f64` semantics).
/// Linear in the input; any input gives `Ok` or `Err`, never a panic —
/// nesting deeper than `MAX_DEPTH` (128) is an `Err`.
pub fn parse(input: &str) -> Result<JsonValue, String> {
    let mut p = Parser {
        input,
        bytes: input.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing characters at byte {}", p.pos));
    }
    Ok(v)
}

/// Recursive-descent state. `pos` only ever stops on a char boundary of
/// `input`: every token but a string's content is ASCII, and string
/// content advances one whole `char` at a time.
struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(open @ (b'{' | b'[')) => {
                if self.depth == MAX_DEPTH {
                    return Err(format!(
                        "nesting deeper than {MAX_DEPTH} at byte {}",
                        self.pos
                    ));
                }
                self.depth += 1;
                let v = if open == b'{' {
                    self.object()
                } else {
                    self.array()
                };
                self.depth -= 1;
                v
            }
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(_) => self.number(),
            None => Err("unexpected end of input".into()),
        }
    }

    fn object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(map));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .input
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.pos += 4;
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one char of the already-validated input.
                    let c = self.input[self.pos..]
                        .chars()
                        .next()
                        .ok_or("unterminated string")?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        while self
            .peek()
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        let text = &self.input[start..self.pos];
        text.parse::<f64>()
            .map(JsonValue::Number)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_escapes_and_orders() {
        let mut w = ObjectWriter::new();
        w.string("name", "a\"b\\c\nd")
            .number("x", 1.5)
            .uint("n", 42)
            .bool("ok", true)
            .number("bad", f64::NAN);
        let s = w.finish();
        assert_eq!(
            s,
            "{\"name\":\"a\\\"b\\\\c\\nd\",\"x\":1.5,\"n\":42,\"ok\":true,\"bad\":null}"
        );
    }

    #[test]
    fn writer_counts_non_finite_values() {
        let mut w = ObjectWriter::new();
        w.number("a", 1.0)
            .number("b", f64::NAN)
            .number("c", f64::INFINITY)
            .number("d", f64::NEG_INFINITY);
        assert_eq!(w.dropped_values(), 3);
        let (s, dropped) = w.finish_counted();
        assert_eq!(dropped, 3);
        assert_eq!(s, "{\"a\":1,\"b\":null,\"c\":null,\"d\":null}");
    }

    #[test]
    fn parse_round_trips_writer_output() {
        let mut w = ObjectWriter::new();
        w.string("strategy", "CAQE").uint("join_results", 1000);
        let v = parse(&w.finish()).unwrap();
        assert_eq!(v["strategy"], "CAQE");
        assert_eq!(v["join_results"], 1000u64);
        assert_eq!(v["missing"], JsonValue::Null);
    }

    #[test]
    fn parse_handles_nesting_and_ws() {
        let v = parse(" { \"a\" : [ 1 , 2.5 , \"x\" , null , true ] } ").unwrap();
        match &v["a"] {
            JsonValue::Array(items) => {
                assert_eq!(items.len(), 5);
                assert_eq!(items[0], 1);
                assert_eq!(items[1], 2.5);
                assert_eq!(items[2], "x");
                assert_eq!(items[3], JsonValue::Null);
                assert_eq!(items[4], JsonValue::Bool(true));
            }
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{").is_err());
        assert!(parse("{\"a\":}").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("123abc").is_err());
        assert!(parse("{} trailing").is_err());
    }

    #[test]
    fn escaped_string_round_trip() {
        let v = parse("\"line\\nbreak \\u0041\"").unwrap();
        assert_eq!(v, "line\nbreak A");
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(parse(&nested(MAX_DEPTH)).is_ok());
        assert!(parse(&nested(MAX_DEPTH + 1)).is_err());
        assert!(parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
    }
}
