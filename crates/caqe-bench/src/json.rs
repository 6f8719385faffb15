//! Dependency-free JSON writing for experiment reports.
//!
//! The build environment vendors no serde, so the harness carries its own
//! escaping writer, used by [`crate::report::render_jsonl`] and the drivers'
//! JSON rows; the parser that reads them back is [`caqe_trace::json`].

use caqe_trace::json_str;
use std::fmt::Write as _;

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
        self.buf.push_str(&json_str(key));
        self.buf.push(':');
    }

    /// Adds a string field.
    pub fn string(&mut self, key: &str, value: &str) -> &mut Self {
        self.key(key);
        self.buf.push_str(&json_str(value));
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

#[cfg(test)]
mod tests {
    use super::*;
    use caqe_trace::json::{parse, JsonValue};

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
}
