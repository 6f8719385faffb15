//! One case per rule of the `report` binary: each check rule of the one
//! fold and each reconcile claim of `Stats` against the trace gets a
//! minimal typed event list (or snapshot) that breaks it alone, and must
//! be reported by name. A valid list of every event kind must pass
//! untouched.

use caqe_bench::audit::{check_siblings, reconcile};
use caqe_obs::{key, Fold, MetricsRegistry, ObsCollector, ObsConfig};
use caqe_regions::ReconciledEstimate;
use caqe_trace::{from_jsonl, to_jsonl, write_trace, SpanKind, TraceEvent};
use std::collections::BTreeMap;

/// The one pass over `events`.
fn fold(events: &[TraceEvent]) -> Fold {
    let mut c = ObsCollector::new(ObsConfig::default());
    c.ingest_events(events);
    c.fold().clone()
}

fn meta(queries: usize) -> TraceEvent {
    TraceEvent::Meta {
        strategy: "CAQE".into(),
        queries,
        ticks_per_second: 100.0,
        start_tick: 0,
    }
}

fn emit(tick: u64, query: u16, seq: u64) -> TraceEvent {
    TraceEvent::Emission {
        tick,
        query,
        seq,
        rid: 0,
        tid: 0,
        utility: 1.0,
        satisfaction: 0.5,
    }
}

fn decision(tick: u64, region: u32) -> TraceEvent {
    TraceEvent::Decision {
        tick,
        group: 0,
        region,
        policy: "contract",
        root: true,
        score: 1.0,
        csm: 1.0,
        prog_est: 1.0,
        est_ticks: 10,
        weights: vec![1.0],
    }
}

fn span(kind: SpanKind, region: Option<u32>) -> TraceEvent {
    TraceEvent::Span {
        kind,
        group: Some(0),
        region,
        start_tick: 0,
        end_tick: 10,
    }
}

fn retry(region: u32) -> TraceEvent {
    TraceEvent::RegionRetry {
        tick: 1,
        group: 0,
        region,
        attempt: 1,
        backoff_ticks: 4,
    }
}

fn quarantine(region: u32) -> TraceEvent {
    TraceEvent::RegionQuarantined {
        tick: 2,
        group: 0,
        region,
        attempts: 3,
    }
}

fn shed(tick: u64, region: u32) -> TraceEvent {
    TraceEvent::RegionShed {
        tick,
        group: 0,
        region,
        satisfaction: 0.1,
    }
}

fn admit(tick: u64, query: u16) -> TraceEvent {
    TraceEvent::Admit {
        tick,
        query,
        contract: "log_decay".into(),
        group: 0,
        incremental: true,
    }
}

fn depart(tick: u64, query: u16) -> TraceEvent {
    TraceEvent::Depart {
        tick,
        query,
        regions_retired: 0,
    }
}

fn reject(reason: &'static str, depth: u32) -> TraceEvent {
    TraceEvent::AdmissionReject {
        tick: 0,
        session: 1,
        reason,
        depth,
        bound: 4,
    }
}

fn shutdown() -> TraceEvent {
    TraceEvent::ServerShutdown {
        tick: 9,
        queued: 0,
        drained: 1,
        snapshot_version: 1,
    }
}

fn restore() -> TraceEvent {
    TraceEvent::ServerRestore {
        tick: 0,
        snapshot_version: 1,
        queued: 0,
        completed: 0,
    }
}

fn estimate() -> TraceEvent {
    TraceEvent::EstimateAudit {
        scheduled_tick: 1,
        completed_tick: 2,
        group: 0,
        region: 0,
        estimate: ReconciledEstimate {
            est_join: 1.0,
            est_skyline: 1.0,
            est_ticks: 1,
            actual_join: 1,
            actual_skyline: 1,
            actual_ticks: 1,
        },
    }
}

fn fault() -> TraceEvent {
    TraceEvent::FaultInjected {
        tick: 1,
        group: 0,
        region: 0,
        kind: "panic",
        factor: 1.0,
    }
}

fn ingest() -> TraceEvent {
    TraceEvent::IngestAudit {
        tick: 0,
        table: "R".into(),
        policy: "clamp",
        quarantined: 0,
        clamped: 1,
    }
}

#[test]
fn a_valid_trace_of_every_kind_passes_every_rule() {
    let events = vec![
        restore(),
        meta(2),
        ingest(),
        span(SpanKind::PartitionBuild, None),
        admit(5, 2),
        decision(6, 3),
        emit(6, 2, 1),
        emit(6, 0, 1),
        emit(7, 0, 2),
        fault(),
        retry(1),
        quarantine(1),
        estimate(),
        decision(7, 3),
        shed(8, 3),
        depart(9, 2),
        emit(9, 2, 2),
        reject("full", 4),
        reject("invalid", 0),
        shutdown(),
    ];
    assert_eq!(fold(&events).problems(), Vec::<String>::new());
}

#[test]
fn non_finite_floats_are_counted_as_the_exporter_writes_them_null() {
    let mut events = vec![meta(1), decision(1, 0), emit(2, 0, 1), estimate(), fault()];
    if let TraceEvent::Decision { weights, csm, .. } = &mut events[1] {
        (*weights, *csm) = (vec![f64::INFINITY, 1.0], f64::NAN);
    }
    if let TraceEvent::EstimateAudit { estimate, .. } = &mut events[3] {
        estimate.est_join = f64::NAN;
    }
    let nulls = to_jsonl(&events).matches("null").count() as u64;
    assert_eq!(nulls, 4);
    assert_eq!(fold(&events).non_finite, nulls);
}

#[test]
fn each_check_rule_reports_its_own_break() {
    let cases: Vec<(&str, Vec<TraceEvent>, &str)> = vec![
        (
            "emission ticks are monotone",
            vec![meta(1), emit(10, 0, 1), emit(5, 0, 2)],
            "line 3: emission tick 5 precedes 10",
        ),
        (
            "seq is gapless",
            vec![meta(1), emit(1, 0, 1), emit(2, 0, 3)],
            "line 3: query 0 emission seq 3, expected 2",
        ),
        (
            "seq starts at 1",
            vec![meta(1), emit(1, 0, 2)],
            "line 2: query 0 emission seq 2, expected 1",
        ),
        (
            "no emission before admission",
            vec![meta(1), emit(1, 1, 1)],
            "line 2: emission for query 1 before its admission",
        ),
        (
            "no emission after departure",
            vec![meta(1), depart(5, 0), emit(6, 0, 1)],
            "line 3: query 0 emitted at tick 6 after departing at tick 5",
        ),
        (
            "an admission takes a fresh slot, not an initial one",
            vec![meta(1), admit(1, 0)],
            "line 2: admission reuses query slot 0",
        ),
        (
            "an admission takes a fresh slot, not an admitted one",
            vec![meta(1), admit(1, 1), admit(2, 1)],
            "line 3: admission reuses query slot 1",
        ),
        (
            "only admitted queries depart",
            vec![meta(1), depart(1, 1)],
            "line 2: departure of never-admitted query 1",
        ),
        (
            "a query departs once",
            vec![meta(1), depart(1, 0), depart(2, 0)],
            "line 3: query 0 departed twice",
        ),
        (
            "a quarantine follows a retry of the same region",
            vec![meta(1), retry(1), quarantine(2)],
            "line 3: region 0/2 quarantined, never retried",
        ),
        (
            "a shed region is never scheduled",
            vec![
                meta(1),
                shed(5, 2),
                decision(5, 2),
                span(SpanKind::Region, Some(2)),
            ],
            "line 3: region 0/2 scheduled at tick 5 after its shed at 5",
        ),
        (
            "a queue-full reject happens at the bound",
            vec![reject("full", 3)],
            "line 1: queue-full reject at depth 3 below bound 4",
        ),
        (
            "a server shuts down once",
            vec![shutdown(), shutdown()],
            "line 2: second shutdown event",
        ),
        (
            "nothing emits after the shutdown",
            vec![meta(1), shutdown(), emit(1, 0, 1)],
            "line 3: emit after the shutdown at line 2",
        ),
        (
            "nothing is scheduled after the shutdown",
            vec![
                meta(1),
                shutdown(),
                decision(1, 0),
                span(SpanKind::Region, Some(0)),
            ],
            "line 3: decision after the shutdown at line 2",
        ),
        (
            "a restore precedes all activity",
            vec![
                meta(1),
                decision(1, 0),
                span(SpanKind::Region, Some(0)),
                restore(),
            ],
            "line 4: restore after decision/emission activity",
        ),
        (
            "every decision ends in a region span, a retry or a quarantine",
            vec![
                meta(1),
                decision(1, 0),
                span(SpanKind::Region, Some(0)),
                decision(2, 1),
            ],
            "decisions = region spans + retries + quarantines: 2 != 1 + 0 + 0",
        ),
    ];
    for (rule, events, problem) in cases {
        assert_eq!(
            fold(&events).problems(),
            vec![problem.to_string()],
            "{rule}"
        );
    }
}

#[test]
fn unknown_kinds_and_unparsable_lines_do_not_read() {
    for (text, field) in [(r#"{"ev":"bogus"}"#, "ev"), ("{\"ev\":", "")] {
        let err = from_jsonl(&format!("{text}\n")).unwrap_err();
        assert_eq!((err.line, err.field.as_str()), (1, field), "{err}");
    }
}

#[test]
fn siblings_must_be_the_re_export_of_the_trace() {
    let dir = std::env::temp_dir().join(format!("caqe_audit_siblings_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let events = vec![
        meta(1),
        span(SpanKind::Region, Some(0)),
        estimate(),
        emit(1, 0, 1),
    ];
    let jsonl = dir.join("run.jsonl");
    for sibling in ["satisfaction.csv", "spans.json", "estimator.json"] {
        write_trace(&dir, "run", &events).unwrap();
        assert_eq!(check_siblings(&jsonl, &events), Vec::<String>::new());
        let path = dir.join(format!("run.{sibling}"));
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replacen('1', "2", 1)).unwrap();
        let problems = check_siblings(&jsonl, &events);
        assert_eq!(problems.len(), 1, "{sibling}: {problems:?}");
        assert!(problems[0].contains("is not the re-export"), "{problems:?}");
        std::fs::remove_file(&path).unwrap();
        let problems = check_siblings(&jsonl, &events);
        assert!(
            problems.len() == 1 && problems[0].contains(sibling),
            "{problems:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A stream with a different count of each kind a `Stats` counter counts
/// (5 emissions, 3 retries, 1 quarantine, 4 sheds, 2 region spans), and 6
/// decisions: one per region span, retry and quarantine.
fn counted_events() -> Vec<TraceEvent> {
    let mut events = vec![meta(1), admit(0, 1)];
    events.extend((0..6).map(|r| decision(1, r)));
    events.extend([
        span(SpanKind::Region, Some(0)),
        span(SpanKind::Region, Some(1)),
    ]);
    events.extend([retry(2), retry(3), retry(4), quarantine(4)]);
    events.extend((6..10).map(|r| shed(2, r)));
    events.extend([
        emit(3, 0, 1),
        emit(3, 1, 1),
        emit(4, 0, 2),
        emit(4, 1, 2),
        emit(5, 0, 3),
    ]);
    events
}

/// The `Stats` counters `counted_events` reconciles with, as the collector
/// writes them, with one counter `set` to a value (added if absent).
fn counted_snapshot(set: Option<(&str, u64)>) -> MetricsRegistry {
    let per_query = |q| key("caqe_stats_tuples_emitted", &[("query", q)]);
    let mut counters: BTreeMap<String, u64> = [
        ("tuples_emitted", 5),
        ("region_retries", 3),
        ("regions_quarantined", 1),
        ("regions_shed", 4),
        ("regions_processed", 2),
        ("sig_builds", 1),
        ("presort_cache_hits", 1),
        ("presort_cache_misses", 1),
    ]
    .into_iter()
    .map(|(field, n)| (format!("caqe_stats_{field}"), n))
    .chain([(per_query("0"), 3), (per_query("1"), 2)])
    .collect();
    if let Some((counter, value)) = set {
        counters.insert(counter.to_string(), value);
    }
    let mut reg = MetricsRegistry::new();
    for (counter, n) in &counters {
        reg.inc(counter, *n);
    }
    reg
}

#[test]
fn each_reconcile_claim_reports_its_own_mismatch() {
    let f = fold(&counted_events());
    assert_eq!(f.problems(), Vec::<String>::new());
    assert_eq!(reconcile(&counted_snapshot(None), &f), Vec::<String>::new());
    let per_query = key("caqe_stats_tuples_emitted", &[("query", "1")]);
    let absent_query = key("caqe_stats_tuples_emitted", &[("query", "2")]);
    // (claim, counter changed, its new value)
    let cases = [
        ("caqe_stats_tuples_emitted", "caqe_stats_tuples_emitted", 7),
        ("caqe_stats_region_retries", "caqe_stats_region_retries", 7),
        (
            "caqe_stats_regions_quarantined",
            "caqe_stats_regions_quarantined",
            7,
        ),
        ("caqe_stats_regions_shed", "caqe_stats_regions_shed", 7),
        (&per_query, &per_query, 7),
        (&absent_query, &absent_query, 7),
        (
            "caqe_stats_regions_processed = region spans",
            "caqe_stats_regions_processed",
            7,
        ),
        (
            "screens reused 1 times, never built",
            "caqe_stats_sig_builds",
            0,
        ),
        (
            "screens reused 1 times, never attached",
            "caqe_stats_presort_cache_misses",
            0,
        ),
    ];
    for (claim, counter, value) in cases {
        let problems = reconcile(&counted_snapshot(Some((counter, value))), &f);
        let names_claim = |p: &String| {
            p.strip_prefix(claim)
                .is_some_and(|rest| rest.is_empty() || rest.starts_with([':', ' ']))
        };
        assert!(
            problems.len() == 1 && names_claim(&problems[0]),
            "{counter} = {value} should break `{claim}` alone: {problems:?}"
        );
    }
}
