//! Wall-clock spans recorded by the benchmark around calls into each layer.
//! Held in memory; written as JSON lines when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed interval: `[start_ns, end_ns]` since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Run or session the span belongs to; spans of one run share it.
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span list with one time base.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new() -> Self {
        SpanLog {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Nanoseconds from the log's epoch to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn push(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span named `name` and returns its result with the
    /// seconds it took.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        self.push(name, start, end, parent, id);
        (out, (end - start) as f64 / 1e9)
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Every span's self time: its duration minus the part of it its direct
    /// children cover. Children are clipped to the parent; children of one
    /// parent recorded here never overlap each other.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for child in &self.spans {
            if let Some(p) = child.parent {
                let parent = &self.spans[p];
                let covered = child
                    .end_ns
                    .min(parent.end_ns)
                    .saturating_sub(child.start_ns.max(parent.start_ns));
                own[p] = own[p].saturating_sub(covered);
            }
        }
        own
    }

    /// Self time summed per span name, in seconds — where the wall went,
    /// with nothing counted twice.
    pub fn self_seconds_by_name(&self) -> BTreeMap<&str, f64> {
        let mut by_name = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times_ns()) {
            *by_name.entry(span.name.as_str()).or_insert(0.0) += own as f64 / 1e9;
        }
        by_name
    }

    /// One JSON object per line: `name, start_ns, end_ns, parent, id`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let line = Json::obj([
                ("name", Json::str(s.name.as_str())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("id", Json::Num(s.id as f64)),
            ]);
            out.push_str(&line.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_clipped_children_only() {
        let mut log = SpanLog::new();
        let run = log.push("run", 100, 1100, None, 1);
        let a = log.push("a", 100, 400, Some(run), 1);
        log.push("b", 500, 900, Some(run), 1);
        // Grandchild: covered by `a`, not subtracted from `run` again.
        log.push("a.inner", 150, 250, Some(a), 1);
        // A child that overruns its parent is clipped to it.
        log.push("c", 1000, 1500, Some(run), 1);
        let own = log.self_times_ns();
        assert_eq!(own[run], 1000 - 300 - 400 - 100);
        assert_eq!(own[a], 300 - 100);
        assert_eq!(own[2], 400);
        // Summed by name, every nanosecond of the root appears once.
        let by_name = log.self_seconds_by_name();
        assert_eq!(by_name.len(), 5);
        let inside: f64 = ["run", "a", "a.inner", "b"]
            .iter()
            .map(|n| by_name[n])
            .sum();
        assert!(
            (inside + 100e-9 - 1000e-9).abs() < 1e-15,
            "c's clipped 100 ns is the rest"
        );
    }

    #[test]
    fn jsonl_has_one_parseable_line_per_span() {
        let mut log = SpanLog::new();
        let run = log.push("run", 0, 10, None, 7);
        log.push("engine.tuple", 2, 9, Some(run), 7);
        let text = log.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = Json::parse(lines[1]).unwrap();
        assert_eq!(
            child.get("name").and_then(Json::as_str),
            Some("engine.tuple")
        );
        assert_eq!(child.get("parent").and_then(Json::as_f64), Some(0.0));
        assert_eq!(child.get("id").and_then(Json::as_f64), Some(7.0));
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("parent"),
            Some(&Json::Null)
        );
    }

    #[test]
    fn time_records_a_span_around_the_call() {
        let mut log = SpanLog::new();
        let (v, secs) = log.time("work", None, 3, || 41 + 1);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
        assert_eq!(log.spans().len(), 1);
        assert_eq!(log.spans()[0].name, "work");
        assert!(log.spans()[0].end_ns >= log.spans()[0].start_ns);
    }
}
