//! The JSONL grammar of trace events, one table driving both directions:
//! [`to_jsonl`] writes it, every field under its Rust name, and
//! [`from_jsonl`] reads exactly it back, so `to_jsonl(&from_jsonl(t)?) ==
//! t`. Reading, every field must be present with its type, except that an
//! `Option` may be absent or `null`; `null` (a non-finite float) reads as
//! NaN in an `f64`. Integers must be below 2^53, where a JSON number is
//! exact; a `&'static str` must name a value the workspace writes; an
//! extra field is an error.

use crate::event::{SpanKind, TraceEvent};
use crate::export::json_str;
use crate::json::{parse, JsonValue};
use caqe_regions::ReconciledEstimate;
use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};

/// `tag => Variant { field: kind, … }` for every event, fields in written
/// order: `kind` names both the [`Out`] method that writes the field and
/// the [`Fields`] method that reads it, with its argument, if any.
macro_rules! grammar {
    ($($tag:literal => $v:ident { $($f:ident: $kind:ident $(($arg:expr))?),+ })+) => {
        impl TraceEvent {
            /// The event's `ev` tag in the JSONL export.
            pub fn name(&self) -> &'static str {
                match self {
                    $(TraceEvent::$v { .. } => $tag,)+
                }
            }
        }

        /// Appends one event to `out` as a single JSON object.
        fn write_event(out: &mut String, ev: &TraceEvent) {
            let mut o = Out(out);
            match ev {
                $(TraceEvent::$v { $($f),+ } => {
                    o.0.push_str(concat!("{\"ev\":\"", $tag, "\""));
                    $(o.$kind(stringify!($f), $f $(, $arg)?);)+
                })+
            }
            o.0.push('}');
        }

        fn read_fields(ev: &str, l: &mut Fields) -> Result<TraceEvent, TraceReadError> {
            Ok(match ev {
                $($tag => TraceEvent::$v { $($f: l.$kind(stringify!($f) $(, $arg)?)?),+ },)+
                other => return Err(fault("ev", format!("unknown event kind `{other}`"))),
            })
        }
    };
}

grammar! {
    "meta" => Meta { strategy: text, queries: int, ticks_per_second: float, start_tick: int }
    "span" => Span { kind: span_kind, group: opt_int, region: opt_int, start_tick: int,
        end_tick: int }
    "decision" => Decision { tick: int, group: int, region: int,
        policy: name("contract count fifo"), root: bool, score: float, csm: float,
        prog_est: float, est_ticks: int, weights: floats }
    "emit" => Emission { tick: int, query: int, seq: int, rid: int, tid: int, utility: float,
        satisfaction: float }
    "estimate" => EstimateAudit { scheduled_tick: int, completed_tick: int, group: int,
        region: int, estimate: reconciled }
    "fault" => FaultInjected { tick: int, group: int, region: int,
        kind: name("cost_spike estimator panic admit_panic admit_est"), factor: float }
    "retry" => RegionRetry { tick: int, group: int, region: int, attempt: int,
        backoff_ticks: int }
    "quarantine" => RegionQuarantined { tick: int, group: int, region: int, attempts: int }
    "shed" => RegionShed { tick: int, group: int, region: int, satisfaction: float }
    "admit" => Admit { tick: int, query: int, contract: text, group: int, incremental: bool }
    "depart" => Depart { tick: int, query: int, regions_retired: int }
    "reject" => AdmissionReject { tick: int, session: int, reason: name("full invalid"),
        depth: int, bound: int }
    "shutdown" => ServerShutdown { tick: int, queued: int, drained: int, snapshot_version: int }
    "restore" => ServerRestore { tick: int, snapshot_version: int, queued: int, completed: int }
    "ingest" => IngestAudit { tick: int, table: text,
        policy: name("reject quarantine clamp"), quarantined: int, clamped: int }
}

/// Serializes one event as a single JSON object (no trailing newline).
pub fn event_json(ev: &TraceEvent) -> String {
    let mut out = String::new();
    write_event(&mut out, ev);
    out
}

/// Full event stream as JSON Lines, one event per line.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        write_event(&mut out, ev);
        out.push('\n');
    }
    out
}

/// The writer side: appends `,"field":value`, floats shortest-roundtrip
/// (`null` when non-finite) and strings through [`json_str`].
struct Out<'a>(&'a mut String);

impl Out<'_> {
    fn key(&mut self, k: &str) {
        self.0.push_str(",\"");
        self.0.push_str(k);
        self.0.push_str("\":");
    }

    /// Appends `,"k":v` with `v`'s `Display` as its JSON form.
    fn int(&mut self, k: &str, v: &impl Display) {
        self.key(k);
        let _ = write!(self.0, "{v}");
    }

    fn opt_int(&mut self, k: &str, v: &Option<impl Display>) {
        if let Some(v) = v {
            self.int(k, v);
        }
    }

    fn bool(&mut self, k: &str, v: &bool) {
        self.int(k, v);
    }

    fn float(&mut self, k: &str, v: &f64) {
        self.key(k);
        self.number(*v);
    }

    /// A float in shortest-roundtrip `Display`, `null` when non-finite.
    fn number(&mut self, v: f64) {
        if v.is_finite() {
            let _ = write!(self.0, "{v}");
        } else {
            self.0.push_str("null");
        }
    }

    fn floats(&mut self, k: &str, v: &[f64]) {
        self.key(k);
        self.0.push('[');
        for (i, x) in v.iter().enumerate() {
            if i > 0 {
                self.0.push(',');
            }
            self.number(*x);
        }
        self.0.push(']');
    }

    fn text(&mut self, k: &str, v: &str) {
        self.key(k);
        self.0.push_str(&json_str(v));
    }

    fn name(&mut self, k: &str, v: &str, _names: &str) {
        self.text(k, v);
    }

    fn span_kind(&mut self, k: &str, v: &SpanKind) {
        self.text(k, v.name());
    }

    /// An `estimate` event's figures, then the errors derived from them.
    fn reconciled(&mut self, _: &str, e: &ReconciledEstimate) {
        self.float("est_join", &e.est_join);
        self.float("est_skyline", &e.est_skyline);
        self.int("est_ticks", &e.est_ticks);
        self.int("actual_join", &e.actual_join);
        self.int("actual_skyline", &e.actual_skyline);
        self.int("actual_ticks", &e.actual_ticks);
        self.float("join_err", &e.join_rel_error());
        self.float("skyline_err", &e.skyline_rel_error());
        self.float("ticks_err", &e.ticks_rel_error());
    }
}

/// A trace line that is not an event of the exporter's grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceReadError {
    /// 1-based line number.
    pub line: usize,
    /// The field at fault; empty when the line is not a JSON object.
    pub field: String,
    /// What is wrong with it.
    pub reason: String,
}

impl std::fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.field.as_str() {
            "" => write!(f, "line {}: {}", self.line, self.reason),
            field => write!(f, "line {}: field `{field}`: {}", self.line, self.reason),
        }
    }
}

impl std::error::Error for TraceReadError {}

/// Parses a JSONL trace into its events; the error names the first line
/// that does not read, and the field at fault.
pub fn from_jsonl(text: &str) -> Result<Vec<TraceEvent>, TraceReadError> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        events.push(read_event(line).map_err(|e| TraceReadError { line: i + 1, ..e })?);
    }
    Ok(events)
}

/// A fault in `field` of a line yet to be numbered.
fn fault(field: &str, reason: String) -> TraceReadError {
    let field = field.to_string();
    TraceReadError {
        line: 0,
        field,
        reason,
    }
}

/// One line's fields; each read removes its field, so what is left at the
/// end is a field the event does not have.
struct Fields(BTreeMap<String, JsonValue>);

impl Fields {
    /// Removes field `f`, read by `read`, which refuses what is not `want`.
    fn get<T>(
        &mut self,
        f: &str,
        want: &str,
        read: impl FnOnce(&JsonValue) -> Option<T>,
    ) -> Result<T, TraceReadError> {
        let v = self.0.remove(f).ok_or_else(|| fault(f, "missing".into()))?;
        read(&v).ok_or_else(|| fault(f, format!("expected {want}, found {v:?}")))
    }

    fn int<T: TryFrom<u64>>(&mut self, f: &str) -> Result<T, TraceReadError> {
        let n = self.get(f, "an integer in [0, 2^53)", JsonValue::as_u64)?;
        T::try_from(n).map_err(|_| fault(f, format!("{n} is out of range")))
    }

    fn opt_int<T: TryFrom<u64>>(&mut self, f: &str) -> Result<Option<T>, TraceReadError> {
        if self.0.get(f) == Some(&JsonValue::Null) {
            self.0.remove(f);
        }
        self.0.contains_key(f).then(|| self.int(f)).transpose()
    }

    fn float(&mut self, f: &str) -> Result<f64, TraceReadError> {
        self.get(f, "a number or null", number)
    }

    fn floats(&mut self, f: &str) -> Result<Vec<f64>, TraceReadError> {
        self.get(f, "an array of numbers", |v| match v {
            JsonValue::Array(items) => items.iter().map(number).collect(),
            _ => None,
        })
    }

    fn bool(&mut self, f: &str) -> Result<bool, TraceReadError> {
        self.get(f, "a boolean", JsonValue::as_bool)
    }

    fn text(&mut self, f: &str) -> Result<String, TraceReadError> {
        self.get(f, "a string", |v| v.as_str().map(String::from))
    }

    /// A `&'static str` field: one of the space-separated `names`, the
    /// values documented on its [`TraceEvent`] field.
    fn name(&mut self, f: &str, names: &'static str) -> Result<&'static str, TraceReadError> {
        self.get(f, &format!("one of `{names}`"), |v| {
            names.split(' ').find(|n| v == n)
        })
    }

    fn span_kind(&mut self, f: &str) -> Result<SpanKind, TraceReadError> {
        use SpanKind::*;
        let kinds = [PartitionBuild, GroupBuild, LookAhead, Region];
        self.get(f, "a span kind", |v| {
            kinds.into_iter().find(|k| v == &k.name())
        })
    }

    /// An `estimate` event's figures; the errors the exporter derives from
    /// them must agree with them.
    fn reconciled(&mut self, _: &str) -> Result<ReconciledEstimate, TraceReadError> {
        let e = ReconciledEstimate {
            est_join: self.float("est_join")?,
            est_skyline: self.float("est_skyline")?,
            est_ticks: self.int("est_ticks")?,
            actual_join: self.int("actual_join")?,
            actual_skyline: self.int("actual_skyline")?,
            actual_ticks: self.int("actual_ticks")?,
        };
        for (f, want) in [
            ("join_err", e.join_rel_error()),
            ("skyline_err", e.skyline_rel_error()),
            ("ticks_err", e.ticks_rel_error()),
        ] {
            let v = self.float(f)?;
            if v != want && (v.is_finite() || want.is_finite()) {
                return Err(fault(f, format!("{v} is not the recomputed {want}")));
            }
        }
        Ok(e)
    }
}

/// `null` is the exporter's non-finite float.
fn number(v: &JsonValue) -> Option<f64> {
    v.as_f64().or((*v == JsonValue::Null).then_some(f64::NAN))
}

fn read_event(line: &str) -> Result<TraceEvent, TraceReadError> {
    let mut l = match parse(line).map_err(|e| fault("", e))? {
        JsonValue::Object(map) => Fields(map),
        _ => return Err(fault("", "not a JSON object".into())),
    };
    let ev = read_fields(&l.text("ev")?, &mut l)?;
    match l.0.into_keys().next() {
        Some(extra) => Err(fault(&extra, format!("not a field of `{}`", ev.name()))),
        None => Ok(ev),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EMIT: &str = r#"{"ev":"emit","tick":7,"query":1,"seq":1,"rid":2,"tid":3,"utility":0.5,"satisfaction":0.25}"#;
    const DECISION: &str = r#"{"ev":"decision","tick":5,"group":0,"region":3,"policy":"contract","root":true,"score":1.5,"csm":1.25,"prog_est":0.75,"est_ticks":40,"weights":[1,null]}"#;

    #[test]
    fn every_malformed_line_names_its_line_and_field() {
        let cases: [(String, &str); 14] = [
            (EMIT.replace(r#""tick":7,"#, ""), "tick"),
            (EMIT.replace(r#""tick":7"#, r#""tick":"7""#), "tick"),
            (EMIT.replace(r#""tick":7"#, r#""tick":7.5"#), "tick"),
            (EMIT.replace(r#""tick":7"#, r#""tick":-1"#), "tick"),
            (
                EMIT.replace(r#""tick":7"#, r#""tick":9007199254740992"#),
                "tick",
            ),
            (EMIT.replace(r#""query":1"#, r#""query":65536"#), "query"),
            (
                EMIT.replace(r#""utility":0.5"#, r#""utility":"0.5""#),
                "utility",
            ),
            (EMIT.replace(r#""ev":"emit""#, r#""ev":"bogus""#), "ev"),
            (EMIT.replace('}', r#","extra":1}"#), "extra"),
            (
                DECISION.replace(r#""region":3"#, r#""region":3.5"#),
                "region",
            ),
            (DECISION.replace("contract", "bogus"), "policy"),
            (DECISION.replace("[1,null]", "[1,true]"), "weights"),
            (
                r#"{"ev":"span","kind":"bogus","start_tick":0,"end_tick":1}"#.into(),
                "kind",
            ),
            (
                r#"{"ev":"fault","tick":1,"group":0,"region":2,"kind":"bogus","factor":1}"#.into(),
                "kind",
            ),
        ];
        for (line, field) in cases {
            let err = from_jsonl(&format!("{EMIT}\n{line}\n")).unwrap_err();
            assert_eq!((err.line, err.field.as_str()), (2, field), "{line}: {err}");
            assert!(err
                .to_string()
                .starts_with(&format!("line 2: field `{field}`: ")));
        }
        for line in ["{", "[1]", " ", "{\"ev\":\"emit\"} x"] {
            let err = from_jsonl(line).unwrap_err();
            assert_eq!((err.line, err.field.as_str()), (1, ""), "{line:?}: {err}");
        }
    }

    #[test]
    fn a_derived_estimate_error_must_agree_with_its_figures() {
        let line = r#"{"ev":"estimate","scheduled_tick":1,"completed_tick":2,"group":0,"region":3,"est_join":10,"est_skyline":4,"est_ticks":40,"actual_join":8,"actual_skyline":2,"actual_ticks":40,"join_err":0.25,"skyline_err":1,"ticks_err":0}"#;
        assert_eq!(to_jsonl_line(line), line);
        let err = from_jsonl(&line.replace(r#""ticks_err":0"#, r#""ticks_err":3"#)).unwrap_err();
        assert_eq!(err.field, "ticks_err", "{err}");
    }

    fn to_jsonl_line(line: &str) -> String {
        event_json(&from_jsonl(line).unwrap()[0])
    }

    #[test]
    fn null_reads_as_nan_and_an_absent_option_as_none() {
        let evs = from_jsonl(
            r#"{"ev":"emit","tick":7,"query":1,"seq":1,"rid":2,"tid":3,"utility":null,"satisfaction":0.25}
{"ev":"span","kind":"region","group":null,"start_tick":0,"end_tick":9}"#,
        )
        .unwrap();
        assert!(matches!(evs[0], TraceEvent::Emission { utility, .. } if utility.is_nan()));
        let TraceEvent::Span { group, region, .. } = evs[1] else {
            panic!("{:?}", evs[1]);
        };
        assert_eq!((group, region), (None, None));
        assert_eq!(to_jsonl_line(DECISION), DECISION);
        assert_eq!(to_jsonl_line(EMIT), EMIT);
    }
}
