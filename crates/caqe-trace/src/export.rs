//! Trace exporters: JSONL, satisfaction-timeline CSV, Chrome-trace JSON
//! and the estimator-accuracy summary.
//!
//! All serialization is hand-rolled (the workspace is offline) and
//! deterministic: floats are written with Rust's shortest-roundtrip
//! `Display`, which is a pure function of the bit pattern, so equal traces
//! serialize to equal bytes.

use crate::event::{SpanKind, TraceEvent};
use std::fmt::Write as _;
use std::path::Path;

/// JSON-safe float: shortest roundtrip for finite values, `null` otherwise.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Serializes one event as a single JSON object (no trailing newline).
pub fn event_json(ev: &TraceEvent) -> String {
    match ev {
        TraceEvent::Meta {
            strategy,
            queries,
            ticks_per_second,
            start_tick,
        } => format!(
            "{{\"ev\":\"meta\",\"strategy\":{},\"queries\":{},\"ticks_per_second\":{},\"start_tick\":{}}}",
            json_str(strategy),
            queries,
            num(*ticks_per_second),
            start_tick
        ),
        TraceEvent::Span {
            kind,
            group,
            region,
            start_tick,
            end_tick,
        } => {
            let mut s = format!("{{\"ev\":\"span\",\"kind\":\"{}\"", kind.name());
            if let Some(g) = group {
                let _ = write!(s, ",\"group\":{g}");
            }
            if let Some(r) = region {
                let _ = write!(s, ",\"region\":{r}");
            }
            let _ = write!(s, ",\"start_tick\":{start_tick},\"end_tick\":{end_tick}}}");
            s
        }
        TraceEvent::Decision {
            tick,
            group,
            region,
            policy,
            root,
            score,
            csm,
            prog_est,
            est_ticks,
            weights,
        } => {
            let ws: Vec<String> = weights.iter().map(|w| num(*w)).collect();
            format!(
                "{{\"ev\":\"decision\",\"tick\":{},\"group\":{},\"region\":{},\"policy\":{},\"root\":{},\"score\":{},\"csm\":{},\"prog_est\":{},\"est_ticks\":{},\"weights\":[{}]}}",
                tick,
                group,
                region,
                json_str(policy),
                root,
                num(*score),
                num(*csm),
                num(*prog_est),
                est_ticks,
                ws.join(",")
            )
        }
        TraceEvent::Emission {
            tick,
            query,
            seq,
            rid,
            tid,
            utility,
            satisfaction,
        } => format!(
            "{{\"ev\":\"emit\",\"tick\":{},\"query\":{},\"seq\":{},\"rid\":{},\"tid\":{},\"utility\":{},\"satisfaction\":{}}}",
            tick,
            query,
            seq,
            rid,
            tid,
            num(*utility),
            num(*satisfaction)
        ),
        TraceEvent::EstimateAudit {
            scheduled_tick,
            completed_tick,
            group,
            region,
            estimate,
        } => format!(
            "{{\"ev\":\"estimate\",\"scheduled_tick\":{},\"completed_tick\":{},\"group\":{},\"region\":{},\"est_join\":{},\"est_skyline\":{},\"est_ticks\":{},\"actual_join\":{},\"actual_skyline\":{},\"actual_ticks\":{},\"join_err\":{},\"skyline_err\":{},\"ticks_err\":{}}}",
            scheduled_tick,
            completed_tick,
            group,
            region,
            num(estimate.est_join),
            num(estimate.est_skyline),
            estimate.est_ticks,
            estimate.actual_join,
            estimate.actual_skyline,
            estimate.actual_ticks,
            num(estimate.join_rel_error()),
            num(estimate.skyline_rel_error()),
            num(estimate.ticks_rel_error())
        ),
        TraceEvent::FaultInjected {
            tick,
            group,
            region,
            kind,
            factor,
        } => format!(
            "{{\"ev\":\"fault\",\"tick\":{},\"group\":{},\"region\":{},\"kind\":{},\"factor\":{}}}",
            tick,
            group,
            region,
            json_str(kind),
            num(*factor)
        ),
        TraceEvent::RegionRetry {
            tick,
            group,
            region,
            attempt,
            backoff_ticks,
        } => format!(
            "{{\"ev\":\"retry\",\"tick\":{tick},\"group\":{group},\"region\":{region},\"attempt\":{attempt},\"backoff_ticks\":{backoff_ticks}}}"
        ),
        TraceEvent::RegionQuarantined {
            tick,
            group,
            region,
            attempts,
        } => format!(
            "{{\"ev\":\"quarantine\",\"tick\":{tick},\"group\":{group},\"region\":{region},\"attempts\":{attempts}}}"
        ),
        TraceEvent::RegionShed {
            tick,
            group,
            region,
            satisfaction,
        } => format!(
            "{{\"ev\":\"shed\",\"tick\":{},\"group\":{},\"region\":{},\"satisfaction\":{}}}",
            tick,
            group,
            region,
            num(*satisfaction)
        ),
        TraceEvent::Admit {
            tick,
            query,
            contract,
            group,
            incremental,
        } => format!(
            "{{\"ev\":\"admit\",\"tick\":{},\"query\":{},\"contract\":{},\"group\":{},\"incremental\":{}}}",
            tick,
            query,
            json_str(contract),
            group,
            incremental
        ),
        TraceEvent::Depart {
            tick,
            query,
            regions_retired,
        } => format!(
            "{{\"ev\":\"depart\",\"tick\":{tick},\"query\":{query},\"regions_retired\":{regions_retired}}}"
        ),
        TraceEvent::AdmissionReject {
            tick,
            session,
            reason,
            depth,
            bound,
        } => format!(
            "{{\"ev\":\"reject\",\"tick\":{},\"session\":{},\"reason\":{},\"depth\":{},\"bound\":{}}}",
            tick,
            session,
            json_str(reason),
            depth,
            bound
        ),
        TraceEvent::ServerShutdown {
            tick,
            queued,
            drained,
            snapshot_version,
        } => format!(
            "{{\"ev\":\"shutdown\",\"tick\":{tick},\"queued\":{queued},\"drained\":{drained},\"snapshot_version\":{snapshot_version}}}"
        ),
        TraceEvent::ServerRestore {
            tick,
            snapshot_version,
            queued,
            completed,
        } => format!(
            "{{\"ev\":\"restore\",\"tick\":{tick},\"snapshot_version\":{snapshot_version},\"queued\":{queued},\"completed\":{completed}}}"
        ),
        TraceEvent::IngestAudit {
            tick,
            table,
            policy,
            quarantined,
            clamped,
        } => format!(
            "{{\"ev\":\"ingest\",\"tick\":{},\"table\":{},\"policy\":{},\"quarantined\":{},\"clamped\":{}}}",
            tick,
            json_str(table),
            json_str(policy),
            quarantined,
            clamped
        ),
    }
}

/// Full event stream as JSON Lines, one event per line.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str(&event_json(ev));
        out.push('\n');
    }
    out
}

/// Ticks-per-second calibration from the most recent `Meta` event, falling
/// back to 1.0 so tick values degrade to "seconds = ticks".
fn tps_at(events: &[TraceEvent], upto: usize) -> f64 {
    events[..upto]
        .iter()
        .rev()
        .find_map(|ev| match ev {
            TraceEvent::Meta {
                ticks_per_second, ..
            } if *ticks_per_second > 0.0 => Some(*ticks_per_second),
            _ => None,
        })
        .unwrap_or(1.0)
}

/// Per-query satisfaction timeline as CSV.
///
/// One row per emission, in trace order (which is virtual-time order per
/// query); `virtual_seconds` converts the emission tick through the run's
/// clock calibration.
pub fn satisfaction_csv(events: &[TraceEvent]) -> String {
    let mut out = String::from("virtual_seconds,query,seq,utility,satisfaction\n");
    for (i, ev) in events.iter().enumerate() {
        if let TraceEvent::Emission {
            tick,
            query,
            seq,
            utility,
            satisfaction,
            ..
        } = ev
        {
            let secs = *tick as f64 / tps_at(events, i + 1);
            let _ = writeln!(
                out,
                "{},{},{},{},{}",
                num(secs),
                query,
                seq,
                num(*utility),
                num(*satisfaction)
            );
        }
    }
    out
}

/// Phase spans as Chrome-trace ("Trace Event Format") complete events.
///
/// Virtual time maps to the trace's microsecond axis, so Perfetto or
/// `chrome://tracing` renders the engine's phases over *virtual* seconds.
/// Rows (`tid`) separate join groups; `tid 0` carries group-less phases.
pub fn chrome_trace(events: &[TraceEvent]) -> String {
    let mut parts: Vec<String> = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        if let TraceEvent::Span {
            kind,
            group,
            region,
            start_tick,
            end_tick,
        } = ev
        {
            let tps = tps_at(events, i + 1);
            let ts = *start_tick as f64 / tps * 1e6;
            let dur = end_tick.saturating_sub(*start_tick) as f64 / tps * 1e6;
            let name = match (kind, region) {
                (SpanKind::Region, Some(r)) => format!("region {r}"),
                _ => kind.name().to_string(),
            };
            let tid = group.map(|g| g + 1).unwrap_or(0);
            parts.push(format!(
                "{{\"name\":{},\"cat\":\"caqe\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{}}}",
                json_str(&name),
                tid,
                num(ts),
                num(dur)
            ));
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}\n",
        parts.join(",")
    )
}

/// Aggregate estimator accuracy over a trace's `EstimateAudit` events.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EstimatorSummary {
    pub audits: u64,
    pub mean_join_err: f64,
    pub max_join_err: f64,
    pub mean_skyline_err: f64,
    pub max_skyline_err: f64,
    pub mean_ticks_err: f64,
    pub max_ticks_err: f64,
}

impl EstimatorSummary {
    pub fn to_json(&self) -> String {
        format!(
            "{{\"audits\":{},\"join_rel_error\":{{\"mean\":{},\"max\":{}}},\"skyline_rel_error\":{{\"mean\":{},\"max\":{}}},\"ticks_rel_error\":{{\"mean\":{},\"max\":{}}}}}\n",
            self.audits,
            num(self.mean_join_err),
            num(self.max_join_err),
            num(self.mean_skyline_err),
            num(self.max_skyline_err),
            num(self.mean_ticks_err),
            num(self.max_ticks_err)
        )
    }
}

/// Folds every `EstimateAudit` event into mean/max relative errors.
pub fn estimator_summary(events: &[TraceEvent]) -> EstimatorSummary {
    let mut s = EstimatorSummary::default();
    for ev in events {
        if let TraceEvent::EstimateAudit { estimate, .. } = ev {
            s.audits += 1;
            let (j, k, t) = (
                estimate.join_rel_error(),
                estimate.skyline_rel_error(),
                estimate.ticks_rel_error(),
            );
            s.mean_join_err += j;
            s.mean_skyline_err += k;
            s.mean_ticks_err += t;
            s.max_join_err = s.max_join_err.max(j);
            s.max_skyline_err = s.max_skyline_err.max(k);
            s.max_ticks_err = s.max_ticks_err.max(t);
        }
    }
    if s.audits > 0 {
        let n = s.audits as f64;
        s.mean_join_err /= n;
        s.mean_skyline_err /= n;
        s.mean_ticks_err /= n;
    }
    s
}

/// Writes the full exporter set for one labelled run into `dir`:
///
/// * `<label>.jsonl` — the raw event stream;
/// * `<label>.satisfaction.csv` — per-query satisfaction timeline;
/// * `<label>.spans.json` — Chrome-trace/Perfetto phase spans;
/// * `<label>.estimator.json` — estimator-accuracy summary.
pub fn write_trace(dir: &Path, label: &str, events: &[TraceEvent]) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(format!("{label}.jsonl")), to_jsonl(events))?;
    std::fs::write(
        dir.join(format!("{label}.satisfaction.csv")),
        satisfaction_csv(events),
    )?;
    std::fs::write(
        dir.join(format!("{label}.spans.json")),
        chrome_trace(events),
    )?;
    std::fs::write(
        dir.join(format!("{label}.estimator.json")),
        estimator_summary(events).to_json(),
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqe_regions::ReconciledEstimate;

    fn sample() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Meta {
                strategy: "CAQE".to_string(),
                queries: 2,
                ticks_per_second: 100.0,
                start_tick: 0,
            },
            TraceEvent::Span {
                kind: SpanKind::PartitionBuild,
                group: None,
                region: None,
                start_tick: 0,
                end_tick: 50,
            },
            TraceEvent::Decision {
                tick: 50,
                group: 0,
                region: 3,
                policy: "contract",
                root: true,
                score: 1.5,
                csm: 1.25,
                prog_est: 0.75,
                est_ticks: 40,
                weights: vec![1.0, 1.5],
            },
            TraceEvent::Emission {
                tick: 80,
                query: 1,
                seq: 1,
                rid: 3,
                tid: 0,
                utility: 1.0,
                satisfaction: 0.1,
            },
            TraceEvent::EstimateAudit {
                scheduled_tick: 50,
                completed_tick: 90,
                group: 0,
                region: 3,
                estimate: ReconciledEstimate {
                    est_join: 10.0,
                    est_skyline: 4.0,
                    est_ticks: 40,
                    actual_join: 8,
                    actual_skyline: 2,
                    actual_ticks: 40,
                },
            },
        ]
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let text = to_jsonl(&sample());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[0].contains("\"ev\":\"meta\""));
        assert!(lines[2].contains("\"policy\":\"contract\""));
        assert!(lines[3].contains("\"satisfaction\":0.1"));
        assert!(lines[4].contains("\"ticks_err\":0"));
    }

    #[test]
    fn jsonl_is_deterministic() {
        assert_eq!(to_jsonl(&sample()), to_jsonl(&sample()));
    }

    #[test]
    fn satisfaction_csv_uses_clock_calibration() {
        let csv = satisfaction_csv(&sample());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "virtual_seconds,query,seq,utility,satisfaction");
        // tick 80 at 100 ticks/s = 0.8 virtual seconds.
        assert_eq!(lines[1], "0.8,1,1,1,0.1");
    }

    #[test]
    fn chrome_trace_converts_to_microseconds() {
        let json = chrome_trace(&sample());
        // span [0, 50] at 100 ticks/s = 500000 µs duration.
        assert!(json.contains("\"dur\":500000"), "{json}");
        assert!(json.contains("\"name\":\"partition_build\""));
        assert!(json.starts_with('{') && json.ends_with("}\n"));
    }

    #[test]
    fn estimator_summary_aggregates() {
        let s = estimator_summary(&sample());
        assert_eq!(s.audits, 1);
        // est_join 10 vs actual 8 → |10-8|/8 = 0.25.
        assert!((s.mean_join_err - 0.25).abs() < 1e-12);
        assert!((s.max_skyline_err - 1.0).abs() < 1e-12);
        assert_eq!(s.mean_ticks_err, 0.0);
        assert!(s.to_json().contains("\"audits\":1"));
    }

    #[test]
    fn non_finite_floats_become_null() {
        let ev = TraceEvent::Emission {
            tick: 1,
            query: 0,
            seq: 1,
            rid: 0,
            tid: 0,
            utility: f64::NAN,
            satisfaction: f64::INFINITY,
        };
        let line = event_json(&ev);
        assert!(line.contains("\"utility\":null"));
        assert!(line.contains("\"satisfaction\":null"));
    }

    #[test]
    fn session_events_serialize_with_stable_kinds() {
        let admit = event_json(&TraceEvent::Admit {
            tick: 42,
            query: 3,
            contract: "deadline".to_string(),
            group: 1,
            incremental: true,
        });
        assert!(admit.contains("\"ev\":\"admit\""), "{admit}");
        assert!(admit.contains("\"query\":3"));
        assert!(admit.contains("\"incremental\":true"));
        let depart = event_json(&TraceEvent::Depart {
            tick: 99,
            query: 3,
            regions_retired: 2,
        });
        assert!(depart.contains("\"ev\":\"depart\""), "{depart}");
        assert!(depart.contains("\"regions_retired\":2"));
        let ev = TraceEvent::Admit {
            tick: 15,
            query: 0,
            contract: "log_decay".to_string(),
            group: 0,
            incremental: false,
        };
        assert_eq!(ev.tick(), 15);
    }

    #[test]
    fn serving_events_serialize_with_stable_kinds() {
        let reject = event_json(&TraceEvent::AdmissionReject {
            tick: 12,
            session: 7,
            reason: "full",
            depth: 8,
            bound: 8,
        });
        assert!(reject.contains("\"ev\":\"reject\""), "{reject}");
        assert!(reject.contains("\"reason\":\"full\""));
        assert!(reject.contains("\"depth\":8") && reject.contains("\"bound\":8"));
        let shutdown = event_json(&TraceEvent::ServerShutdown {
            tick: 90,
            queued: 2,
            drained: 5,
            snapshot_version: 1,
        });
        assert!(shutdown.contains("\"ev\":\"shutdown\""), "{shutdown}");
        assert!(shutdown.contains("\"snapshot_version\":1"));
        let restore = event_json(&TraceEvent::ServerRestore {
            tick: 0,
            snapshot_version: 1,
            queued: 2,
            completed: 5,
        });
        assert!(restore.contains("\"ev\":\"restore\""), "{restore}");
        assert!(restore.contains("\"queued\":2") && restore.contains("\"completed\":5"));
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }

    #[test]
    fn fault_events_serialize_with_stable_kinds() {
        let lines = [
            (
                event_json(&TraceEvent::FaultInjected {
                    tick: 5,
                    group: 0,
                    region: 2,
                    kind: "cost_spike",
                    factor: 8.0,
                }),
                "\"ev\":\"fault\"",
            ),
            (
                event_json(&TraceEvent::RegionRetry {
                    tick: 6,
                    group: 0,
                    region: 2,
                    attempt: 1,
                    backoff_ticks: 64,
                }),
                "\"ev\":\"retry\"",
            ),
            (
                event_json(&TraceEvent::RegionQuarantined {
                    tick: 7,
                    group: 0,
                    region: 2,
                    attempts: 3,
                }),
                "\"ev\":\"quarantine\"",
            ),
            (
                event_json(&TraceEvent::RegionShed {
                    tick: 8,
                    group: 1,
                    region: 4,
                    satisfaction: 0.25,
                }),
                "\"ev\":\"shed\"",
            ),
            (
                event_json(&TraceEvent::IngestAudit {
                    tick: 0,
                    table: "R".to_string(),
                    policy: "clamp",
                    quarantined: 2,
                    clamped: 5,
                }),
                "\"ev\":\"ingest\"",
            ),
        ];
        for (line, kind) in &lines {
            assert!(line.contains(kind), "{line} should contain {kind}");
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
        }
        assert!(lines[0].0.contains("\"factor\":8"));
        assert!(lines[1].0.contains("\"backoff_ticks\":64"));
        assert!(lines[4].0.contains("\"policy\":\"clamp\""));
    }
}
