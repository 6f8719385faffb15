//! The deterministic metrics registry.
//!
//! Three instrument kinds — monotonic [counters](MetricsRegistry::inc),
//! [gauges](MetricsRegistry::set_gauge) and log2-bucketed
//! [histograms](Histogram) — all keyed by `BTreeMap` so every export walks
//! metrics in lexicographic key order. Values derive exclusively from the
//! virtual clock and from `Stats` counters, never from wall time, so two
//! snapshots of the same run are byte-identical.
//!
//! [`MetricsRegistry::merge`] folds another registry in with
//! counter/histogram addition and last-write-wins gauges, so merging parts
//! in the order they were filled reproduces the one-registry update
//! sequence exactly.

use caqe_trace::json::{parse, JsonValue};
use caqe_trace::json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A log2-bucketed histogram over `u64` observations.
///
/// Bucket `b` covers `[2^(b-1), 2^b - 1]` (bucket 0 holds exact zeros), so
/// observations of virtual-tick durations spread over ~64 buckets with no
/// configuration. Only non-empty buckets are stored, keeping merges and
/// exports proportional to occupancy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observations.
    pub sum: u64,
    /// Non-empty buckets: bucket index → observation count.
    pub buckets: BTreeMap<u32, u64>,
}

impl Histogram {
    /// The bucket index an observation falls into.
    #[must_use]
    pub fn bucket_of(value: u64) -> u32 {
        u64::BITS - value.leading_zeros()
    }

    /// Inclusive upper bound of bucket `b` (`2^b - 1`; bucket 0 is `{0}`).
    #[must_use]
    pub fn bucket_upper(bucket: u32) -> u64 {
        if bucket >= 64 {
            u64::MAX
        } else {
            (1u64 << bucket) - 1
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        *self.buckets.entry(Self::bucket_of(value)).or_insert(0) += 1;
    }

    /// Adds another histogram into this one (bucket-wise).
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        for (b, n) in &other.buckets {
            *self.buckets.entry(*b).or_insert(0) += n;
        }
    }
}

/// Deterministic counter/gauge/histogram store with deterministic exports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    /// Non-finite values rejected by [`set_gauge`](Self::set_gauge); the
    /// observability analogue of the JSON writer's non-finite→null drops,
    /// surfaced by the `report` binary whenever it is non-zero.
    dropped_non_finite: u64,
}

/// A metrics snapshot that is not what [`MetricsRegistry::to_json`] writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsReadError {
    /// The section (`counters`) or the metric in it
    /// (`counters.caqe_runs_total`) at fault; empty when the text is not a
    /// JSON object.
    pub key: String,
    /// What is wrong with it.
    pub reason: String,
}

impl std::fmt::Display for MetricsReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.key.as_str() {
            "" => write!(f, "{}", self.reason),
            key => write!(f, "`{key}`: {}", self.reason),
        }
    }
}

impl std::error::Error for MetricsReadError {}

/// Builds a metric key `family{k1="v1",k2="v2"}` from label pairs.
///
/// Labels must be passed pre-sorted (they are baked into the key string, so
/// their order is part of metric identity).
#[must_use]
pub fn key(family: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return family.to_string();
    }
    let mut out = String::with_capacity(family.len() + 16 * labels.len());
    out.push_str(family);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        // Metric label values are engine-controlled identifiers; escaping
        // here guards the exposition format, not untrusted input.
        let _ = write!(
            out,
            "{k}=\"{}\"",
            v.replace('\\', "\\\\").replace('"', "\\\"")
        );
    }
    out.push('}');
    out
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to the counter `name` (created at zero).
    pub fn inc(&mut self, name: &str, by: u64) {
        if by == 0 && !self.counters.contains_key(name) {
            // Materialize the key so zero-valued counters still export:
            // reconciliation wants "0 observed" distinct from "not tracked".
            self.counters.insert(name.to_string(), 0);
            return;
        }
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Sets the gauge `name`. Non-finite values are dropped (counted in
    /// [`dropped_non_finite`](Self::dropped_non_finite)), mirroring the
    /// JSON writer's non-finite→null policy.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        if value.is_finite() {
            self.gauges.insert(name.to_string(), value);
        } else {
            self.dropped_non_finite += 1;
        }
    }

    /// Records one observation into the histogram `name`.
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(value);
    }

    /// Current value of a counter, if tracked.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// Current value of a gauge, if set.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// A histogram by name, if any observation was recorded.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Gauge values rejected for being non-finite.
    #[must_use]
    pub fn dropped_non_finite(&self) -> u64 {
        self.dropped_non_finite
    }

    /// Iterates counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Folds `other` into this registry: counters and histograms add,
    /// gauges take `other`'s value (last write wins). Merging shards in a
    /// fixed order therefore reproduces the serial update sequence.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        self.dropped_non_finite += other.dropped_non_finite;
    }

    /// The snapshot as one deterministic JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{..},"dropped_non_finite":n}`,
    /// all maps in key order, floats in shortest-roundtrip form.
    #[must_use]
    pub fn to_json(&self) -> String {
        let counters = comma_joined(
            self.counters
                .iter()
                .map(|(k, v)| format!("{}:{v}", json_str(k))),
        );
        let gauges = self
            .gauges
            .iter()
            .map(|(k, v)| format!("{}:{}", json_str(k), fmt_f64(*v)));
        let histograms = self.histograms.iter().map(|(k, h)| {
            let buckets = comma_joined(h.buckets.iter().map(|(b, n)| format!("[{b},{n}]")));
            let (key, count, sum) = (json_str(k), h.count, h.sum);
            format!("{key}:{{\"count\":{count},\"sum\":{sum},\"buckets\":[{buckets}]}}")
        });
        format!(
            "{{\"counters\":{{{counters}}},\"gauges\":{{{}}},\"histograms\":{{{}}},\"dropped_non_finite\":{}}}",
            comma_joined(gauges),
            comma_joined(histograms),
            self.dropped_non_finite
        )
    }

    /// Reads a snapshot [`to_json`](Self::to_json) wrote; on every
    /// registry whose integers are below 2^53, where a JSON number is
    /// exact, `from_json(&r.to_json()) == Ok(r)`. A missing or unknown
    /// section, a value of the wrong type, a counter that is not such an
    /// integer, a non-finite gauge, or a histogram whose buckets are not
    /// distinct `[bucket, count]` pairs that add up to its count is an
    /// error naming the key.
    pub fn from_json(text: &str) -> Result<MetricsRegistry, MetricsReadError> {
        let fault = |key: &str, reason: String| MetricsReadError {
            key: key.to_string(),
            reason,
        };
        let want = |key: &str, what: &str, v: &JsonValue| {
            fault(key, format!("expected {what}, found {v:?}"))
        };
        let uint = |key: &str, v: &JsonValue| {
            v.as_u64()
                .ok_or_else(|| want(key, "an integer in [0, 2^53)", v))
        };
        let object = |key: &str, v: JsonValue| match v {
            JsonValue::Object(map) => Ok(map),
            v => Err(want(key, "an object", &v)),
        };
        let mut doc = object("", parse(text.trim()).map_err(|e| fault("", e))?)?;
        let mut section = |name: &str| {
            doc.remove(name)
                .ok_or_else(|| fault(name, "missing".into()))
        };
        let mut reg = MetricsRegistry::new();
        for (name, v) in object("counters", section("counters")?)? {
            let n = uint(&format!("counters.{name}"), &v)?;
            reg.counters.insert(name, n);
        }
        for (name, v) in object("gauges", section("gauges")?)? {
            match v.as_f64().filter(|x| x.is_finite()) {
                Some(x) => reg.gauges.insert(name, x),
                None => return Err(want(&format!("gauges.{name}"), "a finite number", &v)),
            };
        }
        for (name, v) in object("histograms", section("histograms")?)? {
            let at = format!("histograms.{name}");
            let mut h = object(&at, v)?;
            let mut field = |f: &str| h.remove(f).unwrap_or(JsonValue::Null);
            let (count, sum) = (uint(&at, &field("count"))?, uint(&at, &field("sum"))?);
            let JsonValue::Array(pairs) = field("buckets") else {
                return Err(fault(&at, "expected a `buckets` array".into()));
            };
            let mut buckets = BTreeMap::new();
            for pair in &pairs {
                let (b, n) = match pair {
                    JsonValue::Array(p) if p.len() == 2 => (uint(&at, &p[0])?, uint(&at, &p[1])?),
                    v => return Err(want(&at, "a [bucket, count] pair", v)),
                };
                if b > 64 || buckets.insert(b as u32, n).is_some() {
                    return Err(fault(&at, format!("bucket {b} repeated or above 64")));
                }
            }
            if !h.is_empty() || buckets.values().sum::<u64>() != count {
                return Err(fault(
                    &at,
                    "not `count`, `sum` and buckets adding up to `count`".into(),
                ));
            }
            let h = Histogram {
                count,
                sum,
                buckets,
            };
            reg.histograms.insert(name, h);
        }
        reg.dropped_non_finite = uint("dropped_non_finite", &section("dropped_non_finite")?)?;
        match doc.keys().next() {
            Some(extra) => Err(fault(extra, "unknown section".into())),
            None => Ok(reg),
        }
    }

    /// The snapshot in the Prometheus text exposition format.
    ///
    /// Families (the key part before `{`) get one `# TYPE` line each;
    /// histograms expose cumulative `_bucket{le=..}` series plus `_sum` and
    /// `_count`. Output is deterministic: `BTreeMap` order throughout.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let type_line = |out: &mut String, last: &mut String, key: &str, kind: &str| {
            let family = key.split('{').next().unwrap_or(key);
            if family != last.as_str() {
                let _ = writeln!(out, "# TYPE {family} {kind}");
                last.clear();
                last.push_str(family);
            }
        };
        for (k, v) in &self.counters {
            type_line(&mut out, &mut last_family, k, "counter");
            let _ = writeln!(out, "{k} {v}");
        }
        for (k, v) in &self.gauges {
            type_line(&mut out, &mut last_family, k, "gauge");
            let _ = writeln!(out, "{k} {}", fmt_f64(*v));
        }
        for (k, h) in &self.histograms {
            type_line(&mut out, &mut last_family, k, "histogram");
            let (family, labels) = match k.find('{') {
                Some(i) => (&k[..i], k[i + 1..k.len() - 1].to_string()),
                None => (k.as_str(), String::new()),
            };
            let sep = if labels.is_empty() { "" } else { "," };
            let mut cumulative = 0u64;
            for (b, n) in &h.buckets {
                cumulative += n;
                let _ = writeln!(
                    out,
                    "{family}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
                    Histogram::bucket_upper(*b)
                );
            }
            let _ = writeln!(
                out,
                "{family}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
                h.count
            );
            if labels.is_empty() {
                let _ = writeln!(out, "{family}_sum {}", h.sum);
                let _ = writeln!(out, "{family}_count {}", h.count);
            } else {
                let _ = writeln!(out, "{family}_sum{{{labels}}} {}", h.sum);
                let _ = writeln!(out, "{family}_count{{{labels}}} {}", h.count);
            }
        }
        let _ = writeln!(
            out,
            "# TYPE caqe_obs_dropped_non_finite counter\ncaqe_obs_dropped_non_finite {}",
            self.dropped_non_finite
        );
        out
    }
}

/// `items` separated by commas.
fn comma_joined(items: impl Iterator<Item = String>) -> String {
    items.collect::<Vec<_>>().join(",")
}

/// Shortest-roundtrip float rendering; callers guarantee finiteness (gauges
/// reject non-finite values at `set_gauge` time).
fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Histogram::bucket_upper(0), 0);
        assert_eq!(Histogram::bucket_upper(2), 3);
        assert_eq!(Histogram::bucket_upper(64), u64::MAX);
    }

    #[test]
    fn merge_equals_serial_updates() {
        let mut serial = MetricsRegistry::new();
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        let update = |r: &mut MetricsRegistry, i: u64| {
            r.inc("c", i);
            r.observe("h", i);
            r.set_gauge("g", i as f64);
        };
        for i in [1u64, 2, 3, 4] {
            update(&mut serial, i);
        }
        // Shard a takes updates {1, 3}, shard b takes {2, 4}.
        for i in [1u64, 3] {
            update(&mut a, i);
        }
        for i in [2u64, 4] {
            update(&mut b, i);
        }
        // Gauges are last-write-wins, so a-then-b merge order must match
        // the serial order of the *final* writes (b holds write 4).
        let mut merged = MetricsRegistry::new();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.counter("c"), serial.counter("c"));
        assert_eq!(merged.gauge("g"), serial.gauge("g"));
        assert_eq!(merged.histogram("h"), serial.histogram("h"));
        assert_eq!(merged.to_json(), serial.to_json());
    }

    #[test]
    fn non_finite_gauges_are_dropped_and_counted() {
        let mut r = MetricsRegistry::new();
        r.set_gauge("ok", 1.5);
        r.set_gauge("bad", f64::NAN);
        r.set_gauge("bad", f64::INFINITY);
        assert_eq!(r.gauge("ok"), Some(1.5));
        assert_eq!(r.gauge("bad"), None);
        assert_eq!(r.dropped_non_finite(), 2);
        assert!(r.to_json().contains("\"dropped_non_finite\":2"));
    }

    #[test]
    fn exports_are_deterministic_and_ordered() {
        let mut r = MetricsRegistry::new();
        r.inc(&key("caqe_spans_total", &[("kind", "region")]), 3);
        r.inc("caqe_decisions_total", 2);
        r.set_gauge("caqe_satisfaction{query=\"0\"}", 0.25);
        r.observe("caqe_span_ticks{kind=\"region\"}", 5);
        r.observe("caqe_span_ticks{kind=\"region\"}", 900);
        let json = r.to_json();
        // Counters sort lexicographically: bare family before labelled.
        assert!(
            json.find("caqe_decisions_total").unwrap() < json.find("caqe_spans_total").unwrap()
        );
        assert_eq!(json, r.clone().to_json());
        let prom = r.to_prometheus();
        assert!(prom.contains("# TYPE caqe_spans_total counter"));
        assert!(prom.contains("caqe_spans_total{kind=\"region\"} 3"));
        assert!(prom.contains("caqe_span_ticks_bucket{kind=\"region\",le=\"7\"} 1"));
        assert!(prom.contains("caqe_span_ticks_bucket{kind=\"region\",le=\"+Inf\"} 2"));
        assert!(prom.contains("caqe_span_ticks_sum{kind=\"region\"} 905"));
    }

    #[test]
    fn from_json_names_what_it_refuses() {
        let mut r = MetricsRegistry::new();
        r.inc("c", 2);
        r.set_gauge("g", 0.5);
        r.observe("h", 5);
        let json = r.to_json();
        assert_eq!(MetricsRegistry::from_json(&json), Ok(r));
        for (from, to, key) in [
            ("{\"counters\":{\"c\":2},", "{", "counters"),
            ("\"c\":2", "\"c\":2.5", "counters.c"),
            ("\"c\":2", "\"c\":9007199254740992", "counters.c"),
            ("\"g\":0.5", "\"g\":null", "gauges.g"),
            ("{\"g\":0.5}", "[0.5]", "gauges"),
            ("[[3,1]]", "[[3,2]]", "histograms.h"),
            ("[[3,1]]", "[[3,1,0]]", "histograms.h"),
            ("[[3,1]]", "[[65,1]]", "histograms.h"),
            ("\"sum\":5,", "", "histograms.h"),
            (
                "\"dropped_non_finite\":0",
                "\"dropped_non_finite\":0,\"x\":1",
                "x",
            ),
        ] {
            let text = json.replacen(from, to, 1);
            let got = MetricsRegistry::from_json(&text).map_err(|e| e.key);
            assert_eq!(got, Err(key.to_string()), "{text}");
        }
    }

    #[test]
    fn zero_inc_materializes_the_key() {
        let mut r = MetricsRegistry::new();
        r.inc("caqe_regions_shed_total", 0);
        assert_eq!(r.counter("caqe_regions_shed_total"), Some(0));
    }
}
