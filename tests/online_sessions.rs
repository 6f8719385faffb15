//! Online workload sessions: dynamic admission/departure with incremental
//! shared-plan maintenance must (a) collapse to the batch engine when the
//! event stream is empty — byte-for-byte against the committed golden
//! trace; (b) reproduce the committed churn golden under admissions and
//! departures; (c) produce exactly the result sets a from-scratch batch run over the
//! same effective query set produces.

use caqe::contract::Contract;
use caqe::core::{
    EngineConfig, EventStream, ExecConfig, QuerySpec, RunOutcome, RunRequest, SessionEvent,
    Workload,
};
use caqe::data::{Distribution, TableGenerator};
use caqe::faults::FaultPlan;
use caqe::operators::MappingSet;
use caqe::trace::{to_jsonl, NoopSink, RecordingSink, TraceEvent};
use caqe::types::{DimMask, QueryId};
use common::assert_golden;

mod common;

fn tables(n: usize, dist: Distribution, seed: u64) -> (caqe::data::Table, caqe::data::Table) {
    let gen = TableGenerator::new(n, 2, dist)
        .with_selectivities(&[0.05, 0.1])
        .with_seed(seed);
    (gen.generate("R"), gen.generate("T"))
}

fn spec(col: usize, pref: DimMask, priority: f64, contract: Contract) -> QuerySpec {
    QuerySpec {
        join_col: col,
        mapping: MappingSet::mixed(2, 2, 4),
        pref,
        priority,
        contract,
    }
}

/// The golden-trace workload of `golden_traces.rs`.
fn workload() -> Workload {
    Workload::new(vec![
        spec(
            0,
            DimMask::from_dims([0, 1]),
            0.9,
            Contract::Deadline { t_hard: 0.5 },
        ),
        spec(0, DimMask::from_dims([1, 2]), 0.6, Contract::LogDecay),
        spec(
            1,
            DimMask::from_dims([2, 3]),
            0.4,
            Contract::SoftDeadline { t_soft: 0.3 },
        ),
    ])
}

/// A churn stream exercising every session path: an admission into an
/// existing group, an admission that opens a brand-new group (different
/// mapping), and a mid-run departure.
fn churn_events() -> EventStream {
    EventStream::new(vec![
        SessionEvent::Admit {
            at: 500_000,
            spec: spec(0, DimMask::from_dims([0, 3]), 0.7, Contract::LogDecay),
        },
        SessionEvent::Admit {
            at: 2_000_000,
            spec: QuerySpec {
                join_col: 1,
                mapping: MappingSet::concat(2, 2),
                pref: DimMask::from_dims([0, 1]),
                priority: 0.5,
                contract: Contract::SoftDeadline { t_soft: 1.0 },
            },
        },
        SessionEvent::Depart {
            at: 3_000_000,
            query: QueryId(1),
        },
    ])
}

fn sorted_results(out: &RunOutcome, q: usize) -> Vec<(u64, u64)> {
    let mut v = out.per_query[q].results.clone();
    v.sort_unstable();
    v
}

#[test]
fn empty_event_stream_reproduces_committed_golden() {
    // The online entry point with no events must be the batch engine,
    // byte-for-byte — same trace bytes as the committed golden.
    let w = workload();
    let (r, t) = tables(1600, Distribution::Independent, 99);
    let exec = ExecConfig::default().with_target_cells(1600, 2);
    let mut sink = RecordingSink::new();
    let out = RunRequest::new("CAQE", &r, &t, &w, &exec, &EngineConfig::caqe())
        .try_run(&mut sink)
        .expect("clean input");
    assert!(out.total_results() > 0, "degenerate workload");
    assert_golden("caqe_trace.jsonl", &to_jsonl(sink.events()));
}

#[test]
fn churn_trace_matches_committed_golden() {
    let w = workload();
    let (r, t) = tables(1600, Distribution::Independent, 99);
    let exec = ExecConfig::default().with_target_cells(1600, 2);
    let mut sink = RecordingSink::new();
    let out = RunRequest::new("CAQE", &r, &t, &w, &exec, &EngineConfig::caqe())
        .events(&churn_events())
        .try_run(&mut sink)
        .expect("clean input");
    // Recorded at PR 17, the last commit that still had worker threads to
    // compare against: this file pins the bytes of a multi-group churn trace.
    assert_golden("churn_trace.jsonl", &to_jsonl(sink.events()));
    let admits = sink
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Admit { .. }))
        .count();
    let departs = sink
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Depart { .. }))
        .count();
    assert_eq!((admits, departs), (2, 1), "session events missing in trace");
    assert_eq!(out.per_query.len(), 5, "expected 3 initial + 2 admitted");
    assert!(
        out.per_query[3].count() > 0,
        "admitted query emitted nothing"
    );
}

#[test]
fn admission_revives_discarded_regions_that_are_then_scheduled() {
    // By the time query 2 arrives, a fifth of the way in, the §6 discard has
    // pruned thirty-two regions — their last cells for queries 0 and 1 were
    // dominated by materialized tuples — and the scheduler has dropped them
    // from the dependency graph. None was processed, so the admission
    // revives them all (and four look-ahead husks) for query 2 alone, with
    // eight never-pruned regions still to run. Most are discarded again at
    // once; 1, 22 and 36 survive and are scheduled. (Which regions these are
    // was read off a build instrumented at the prune, the revival and the
    // decision; the committed churn golden never gets here.) Their edges
    // must come back to life for query 2 and no other: leaving them dead
    // makes each an instant root that blocks nobody, which moves the
    // schedule but no result set — so the bytes, recorded with the parent
    // build that still edited its edge lists on every removal, are the
    // check.
    let initial = vec![
        spec(
            0,
            DimMask::from_dims([0, 1]),
            0.9,
            Contract::Deadline { t_hard: 0.5 },
        ),
        spec(0, DimMask::from_dims([1, 2]), 0.6, Contract::LogDecay),
    ];
    let late = spec(0, DimMask::from_dims([0, 3]), 0.7, Contract::LogDecay);
    let (r, t) = tables(600, Distribution::Independent, 7);
    let exec = ExecConfig::default().with_target_cells(600, 8);
    let events = EventStream::new(vec![SessionEvent::Admit {
        at: 19_657,
        spec: late.clone(),
    }]);
    let mut sink = RecordingSink::new();
    let w = Workload::new(initial.clone());
    let out = RunRequest::new("CAQE", &r, &t, &w, &exec, &EngineConfig::caqe())
        .events(&events)
        .try_run(&mut sink)
        .expect("clean input");

    let admitted_at = sink
        .events()
        .iter()
        .position(|e| matches!(e, TraceEvent::Admit { .. }))
        .expect("the admission is traced");
    let scheduled_after: Vec<u32> = sink.events()[admitted_at..]
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Decision { region, .. } => Some(*region),
            _ => None,
        })
        .collect();
    for revived in [1, 22, 36] {
        assert!(
            scheduled_after.contains(&revived),
            "region {revived} not scheduled after its revival: {scheduled_after:?}"
        );
    }

    // Definitions 1-2 over the effective query set, late arrival included.
    let effective = Workload::new(initial.into_iter().chain([late]).collect());
    let expected = common::expected_skylines(&r, &t, &effective);
    assert_eq!(out.per_query.len(), expected.len());
    for (q, want) in expected.iter().enumerate() {
        let got: std::collections::BTreeSet<(u64, u64)> =
            out.per_query[q].results.iter().copied().collect();
        assert_eq!(
            got.len(),
            out.per_query[q].results.len(),
            "query {q} repeats"
        );
        assert_eq!(&got, want, "query {q} diverged from the reference skyline");
    }
    assert_golden("revival_trace.jsonl", &to_jsonl(sink.events()));
}

#[test]
fn departure_truncates_emissions_and_spares_other_queries() {
    let w = workload();
    let (r, t) = tables(1600, Distribution::Independent, 99);
    let exec = ExecConfig::default().with_target_cells(1600, 2);
    let depart_at = 3_000_000u64;
    let events = EventStream::new(vec![SessionEvent::Depart {
        at: depart_at,
        query: QueryId(1),
    }]);
    let mut sink = RecordingSink::new();
    let online = RunRequest::new("CAQE", &r, &t, &w, &exec, &EngineConfig::caqe())
        .events(&events)
        .try_run(&mut sink)
        .expect("clean input");
    // No emission for the departed query after the departure was applied.
    let depart_tick = sink
        .events()
        .iter()
        .find_map(|e| match e {
            TraceEvent::Depart { tick, query: 1, .. } => Some(*tick),
            _ => None,
        })
        .expect("depart event missing from trace");
    assert!(depart_tick >= depart_at, "departure applied too early");
    for e in sink.events() {
        if let TraceEvent::Emission { tick, query: 1, .. } = e {
            assert!(
                *tick <= depart_tick,
                "query 1 emitted at {tick} after departing at {depart_tick}"
            );
        }
    }
    // Queries that stayed are unaffected in their final result *sets*: a
    // departed query's sole-provider regions cannot contribute to others.
    let batch = RunRequest::new("CAQE", &r, &t, &w, &exec, &EngineConfig::caqe())
        .try_run(&mut NoopSink)
        .expect("clean input");
    for q in [0usize, 2] {
        assert_eq!(
            sorted_results(&online, q),
            sorted_results(&batch, q),
            "query {q} results changed because a peer departed"
        );
    }
}

/// Satellite: incremental admission ≡ batch rebuild. In blocking mode the
/// final per-query skylines are order-independent, so a session that admits
/// a query mid-run must land on exactly the result sets of a from-scratch
/// batch run whose workload already contained it.
#[test]
fn incremental_admission_equals_batch_rebuild() {
    let initial = Workload::new(vec![
        spec(
            0,
            DimMask::from_dims([0, 1]),
            0.9,
            Contract::Deadline { t_hard: 0.5 },
        ),
        spec(
            1,
            DimMask::from_dims([2, 3]),
            0.4,
            Contract::SoftDeadline { t_soft: 0.3 },
        ),
    ]);
    let late = spec(0, DimMask::from_dims([1, 2]), 0.6, Contract::LogDecay);
    let mut batch_specs: Vec<QuerySpec> = initial.queries().to_vec();
    batch_specs.push(late.clone());
    let batch_w = Workload::new(batch_specs);

    // Both blocking profiles: the S-JFSL baseline and a blocking CAQE
    // (coarse pruning + dominance discard exercised under admission).
    let blocking_caqe = EngineConfig {
        progressive_emission: false,
        feedback: false,
        ..EngineConfig::caqe()
    };
    for engine in [EngineConfig::s_jfsl(), blocking_caqe] {
        for seed in [7u64, 41, 4242] {
            for admit_at in [0u64, 900_000, 5_000_000] {
                let (r, t) = tables(400, Distribution::Independent, seed);
                let exec = ExecConfig::default().with_target_cells(400, 8);
                let events = EventStream::new(vec![SessionEvent::Admit {
                    at: admit_at,
                    spec: late.clone(),
                }]);
                let label = format!("policy={:?} seed={seed} admit_at={admit_at}", engine.policy);
                let online = RunRequest::new("CAQE", &r, &t, &initial, &exec, &engine)
                    .events(&events)
                    .try_run(&mut NoopSink)
                    .expect("clean input");
                let batch = RunRequest::new("CAQE", &r, &t, &batch_w, &exec, &engine)
                    .try_run(&mut NoopSink)
                    .expect("clean input");
                assert_eq!(online.per_query.len(), 3, "{label}");
                assert!(batch.total_results() > 0, "{label}: degenerate");
                for q in 0..3 {
                    assert_eq!(
                        sorted_results(&online, q),
                        sorted_results(&batch, q),
                        "{label}: query {q} incremental != batch"
                    );
                    assert_eq!(
                        online.stats.per_query[q].tuples_emitted,
                        batch.stats.per_query[q].tuples_emitted,
                        "{label}: query {q} per-query emission count diverged"
                    );
                }
            }
        }
    }
}

#[test]
fn admission_faults_delay_but_never_desync() {
    let w = workload();
    let (r, t) = tables(1600, Distribution::Independent, 99);
    let exec = ExecConfig::default()
        .with_target_cells(1600, 2)
        .with_faults(FaultPlan::seeded(11).with_admission_faults(1.0));
    let events = churn_events();
    let mut base_sink = RecordingSink::new();
    let base = RunRequest::new("CAQE", &r, &t, &w, &exec, &EngineConfig::caqe())
        .events(&events)
        .try_run(&mut base_sink)
        .expect("clean input");
    let admit_faults = base_sink
        .events()
        .iter()
        .filter(
            |e| matches!(e, TraceEvent::FaultInjected { kind, .. } if kind.starts_with("admit")),
        )
        .count();
    assert!(admit_faults > 0, "admission fault hooks never fired");
    // A panicked admission retries with backoff *before* mutating state:
    // the recorded admit tick must sit past the scheduled tick.
    let first_admit = base_sink
        .events()
        .iter()
        .find_map(|e| match e {
            TraceEvent::Admit { tick, .. } => Some(*tick),
            _ => None,
        })
        .expect("no admit event");
    assert!(
        first_admit > 500_000,
        "admit panic backoff did not delay admission (tick {first_admit})"
    );
    // Delayed, not desynchronised: every query the departure spares ends
    // on the same result set as the fault-free churn run.
    let clean = RunRequest::new(
        "CAQE",
        &r,
        &t,
        &w,
        &ExecConfig::default().with_target_cells(1600, 2),
        &EngineConfig::caqe(),
    )
    .events(&events)
    .try_run(&mut NoopSink)
    .expect("clean input");
    assert_eq!(base.per_query.len(), clean.per_query.len());
    for q in (0..clean.per_query.len()).filter(|&q| q != 1) {
        assert_eq!(
            sorted_results(&base, q),
            sorted_results(&clean, q),
            "query {q} diverged under admission faults"
        );
    }
}

/// Satellite: `BadEventSpec` must render both the offending fragment and
/// a reason a user can act on — CI logs are where these surface.
#[test]
fn bad_event_specs_render_fragment_and_reason() {
    let pool = workload().queries().to_vec();
    for (spec, fragment, reason) in [
        ("admit@500", "admit@500", "expected key=value"),
        ("admit500=0", "admit500=0", "expected kind@tick"),
        ("admit@soon=0", "admit@soon=0", "tick must be a u64"),
        ("admit@500=99", "admit@500=99", "pool index out of range"),
        ("retire@500=0", "retire@500=0", "unknown event kind"),
        ("depart@500=x", "depart@500=x", "query id must be a u16"),
    ] {
        match EventStream::parse(spec, &pool) {
            Err(e @ caqe::types::EngineError::BadEventSpec { .. }) => {
                let rendered = e.to_string();
                assert!(
                    rendered.contains(fragment) && rendered.contains(reason),
                    "spec {spec:?} rendered as {rendered:?}, wanted fragment \
                     {fragment:?} and reason {reason:?}"
                );
            }
            other => panic!("spec {spec:?}: expected BadEventSpec, got {other:?}"),
        }
    }
}

/// Satellite: admitting the same pool spec twice creates two *distinct*
/// live queries — separate ids in the trace, separate result sets — and
/// departing one copy leaves the other emitting.
#[test]
fn duplicate_admit_creates_distinct_live_queries() {
    let w = workload();
    let pool = w.queries().to_vec();
    let (r, t) = tables(400, Distribution::Independent, 7);
    let exec = ExecConfig::default().with_target_cells(400, 8);
    // Same pool entry admitted twice; the first copy (global id 3) departs
    // later, the second (id 4) stays live to the end.
    let events =
        EventStream::parse("admit@100=0,admit@200=0,depart@2000000=3", &pool).expect("valid spec");
    let mut sink = RecordingSink::new();
    let out = RunRequest::new("CAQE", &r, &t, &w, &exec, &EngineConfig::caqe())
        .events(&events)
        .try_run(&mut sink)
        .expect("clean input");
    assert_eq!(out.per_query.len(), 5, "3 initial + 2 duplicate admits");
    let admitted: Vec<u16> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Admit { query, .. } => Some(*query),
            _ => None,
        })
        .collect();
    assert_eq!(admitted, vec![3, 4], "duplicate admits must get fresh ids");
    assert!(
        out.per_query[4].count() > 0,
        "surviving duplicate emitted nothing"
    );
    // The two copies ran the same spec: identical final result sets, held
    // independently (departure of one did not drain the other).
    assert_eq!(
        sorted_results(&out, 3),
        sorted_results(&out, 4),
        "duplicate admissions of one spec diverged"
    );
}

/// Satellite: at an equal tick, departures apply before admissions — the
/// trace shows the depart first, and a depart targeting the id being
/// admitted at that very tick is rejected up front by `validate`.
#[test]
fn equal_tick_departs_apply_before_admits() {
    let w = workload();
    let pool = w.queries().to_vec();
    let (r, t) = tables(400, Distribution::Independent, 7);
    let exec = ExecConfig::default().with_target_cells(400, 8);
    let tick = 500_000u64;
    let events =
        EventStream::parse(&format!("admit@{tick}=0,depart@{tick}=1"), &pool).expect("valid spec");
    // The stream itself already orders the depart first.
    assert!(
        matches!(events.events()[0], SessionEvent::Depart { .. }),
        "tie-break must order the depart before the admit"
    );
    let mut sink = RecordingSink::new();
    RunRequest::new("CAQE", &r, &t, &w, &exec, &EngineConfig::caqe())
        .events(&events)
        .try_run(&mut sink)
        .expect("clean input");
    let order: Vec<&'static str> = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Admit { .. } => Some("admit"),
            TraceEvent::Depart { .. } => Some("depart"),
            _ => None,
        })
        .collect();
    assert_eq!(
        order,
        vec!["depart", "admit"],
        "equal-tick depart must be applied (and traced) before the admit"
    );
    // Departing the id the admit itself creates at the same tick is
    // unsatisfiable under that ordering: typed error, not a hang.
    let bad =
        EventStream::parse(&format!("admit@{tick}=0,depart@{tick}=3"), &pool).expect("parses fine");
    match bad.validate(w.len()) {
        Err(caqe::types::EngineError::BadEventSpec { reason, .. }) => {
            assert!(
                reason.contains("departures apply before admissions"),
                "reason: {reason}"
            );
        }
        other => panic!("expected BadEventSpec, got {other:?}"),
    }
}

#[test]
fn bad_departures_surface_typed_errors() {
    let w = workload();
    let (r, t) = tables(400, Distribution::Independent, 7);
    let exec = ExecConfig::default().with_target_cells(400, 8);
    for events in [
        // Unknown query id.
        EventStream::new(vec![SessionEvent::Depart {
            at: 0,
            query: QueryId(40),
        }]),
        // Double departure of the same query.
        EventStream::new(vec![
            SessionEvent::Depart {
                at: 0,
                query: QueryId(0),
            },
            SessionEvent::Depart {
                at: 1,
                query: QueryId(0),
            },
        ]),
    ] {
        let res = RunRequest::new("CAQE", &r, &t, &w, &exec, &EngineConfig::caqe())
            .events(&events)
            .try_run(&mut NoopSink);
        match res {
            Err(caqe::types::EngineError::BadEventSpec { .. }) => {}
            other => panic!("expected BadEventSpec, got {other:?}"),
        }
    }
}
