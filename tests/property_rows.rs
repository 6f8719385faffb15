//! Best-first rows against Definitions 1–2. A region joins its best rows
//! first and row-tests the rest against them; an admission re-joins from the
//! skip record only what its fresh windows can use, keeps the rest on
//! record, and discards what its backfilled skyline dominates in the regions
//! it revived. On random small workloads, tied values included, a batch run
//! and a session run — two admissions in different subspaces and a
//! departure — must return, per query, exactly the definitional skyline.

use caqe::contract::Contract;
use caqe::core::{
    EngineConfig, EventStream, ExecConfig, QuerySpec, RunOutcome, RunRequest, SessionEvent,
    Workload,
};
use caqe::data::{Distribution, Table, TableGenerator};
use caqe::operators::MappingSet;
use caqe::trace::{NoopSink, RecordingSink, TraceEvent};
use caqe::types::{DimMask, QueryId};
use common::{expected_skylines, on_grid, tie_axis};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

mod common;

#[derive(Debug, Clone)]
struct Case {
    n: usize,
    dist: Distribution,
    sigma: f64,
    seed: u64,
    cells: usize,
    initial: Vec<DimMask>,
    /// Two arrivals in different subspaces.
    arrivals: [DimMask; 2],
    /// When the first arrival, the departure of query 0 and the second
    /// arrival are due.
    at: [u64; 3],
    /// Every query's mapping: mixed sums or pass-through columns (ties).
    mapping: MappingSet,
    /// Values on the integer grid (ties everywhere).
    grid: bool,
}

impl Case {
    fn spec(&self, pref: DimMask) -> QuerySpec {
        QuerySpec {
            join_col: 0,
            mapping: self.mapping.clone(),
            pref,
            priority: 1.0,
            contract: Contract::LogDecay,
        }
    }
}

fn mask(bits: u32) -> DimMask {
    match bits % 15 {
        0 => DimMask::full(4),
        m => DimMask(m),
    }
}

fn case_strategy() -> impl Strategy<Value = Case> {
    let dist = prop_oneof![
        Just(Distribution::Independent),
        Just(Distribution::Correlated),
        Just(Distribution::Anticorrelated),
    ];
    (
        // Up to 8 rows a table, every region is a seed with an empty rest.
        prop_oneof![4usize..=8, 9usize..60, 60usize..160],
        dist,
        prop_oneof![Just(0.05), Just(0.2), Just(0.5)],
        (any::<u64>(), tie_axis()),
        2usize..10,
        proptest::collection::vec(1u32..16, 1..3),
        (1u32..16, 1u32..15),
        (0u64..40_000, 0u64..40_000, 0u64..40_000),
    )
        .prop_map(
            |(n, dist, sigma, (seed, (mapping, grid)), cells, initial, (a, b), (t0, t1, t2))| {
                let first = mask(a);
                // A second subspace, never the first's.
                let second = mask(first.0 + b);
                Case {
                    n,
                    dist,
                    sigma,
                    seed,
                    cells,
                    initial: initial.into_iter().map(mask).collect(),
                    arrivals: [first, second],
                    at: [t0, t1, t2],
                    mapping,
                    grid,
                }
            },
        )
}

fn tables(case: &Case) -> (Table, Table) {
    let gen = TableGenerator::new(case.n, 2, case.dist)
        .with_selectivities(&[case.sigma, case.sigma])
        .with_seed(case.seed);
    let (r, t) = (gen.generate("R"), gen.generate("T"));
    match case.grid {
        true => (on_grid(&r), on_grid(&t)),
        false => (r, t),
    }
}

fn exec(case: &Case) -> ExecConfig {
    ExecConfig::default().with_target_cells(case.n, case.cells)
}

/// Per query, the result set — or an error naming the query that repeats
/// a result.
fn result_sets(out: &RunOutcome) -> Result<Vec<BTreeSet<(u64, u64)>>, String> {
    out.per_query
        .iter()
        .enumerate()
        .map(|(q, outcome)| {
            let set: BTreeSet<(u64, u64)> = outcome.results.iter().copied().collect();
            match set.len() == outcome.results.len() {
                true => Ok(set),
                false => Err(format!("query {q} repeats a result")),
            }
        })
        .collect()
}

/// Every query of a batch run of the initial queries and both arrivals,
/// against Definitions 1–2.
fn check_batch(case: &Case) -> Result<(), String> {
    let (r, t) = tables(case);
    let prefs = case.initial.iter().chain(&case.arrivals);
    let w = Workload::new(prefs.map(|&p| case.spec(p)).collect());
    let out = RunRequest::new("CAQE", &r, &t, &w, &exec(case), &EngineConfig::caqe())
        .try_run(&mut NoopSink)
        .map_err(|e| e.to_string())?;
    let want = expected_skylines(&r, &t, &w);
    match result_sets(&out)? == want {
        true => Ok(()),
        false => Err("batch run diverged from Def. 2".to_string()),
    }
}

/// A session of the initial queries: the first arrival, query 0's
/// departure and the second arrival, due at `case.at`. Every query but the
/// departed one must end with its definitional skyline.
fn check_session(case: &Case) -> Result<RunOutcome, String> {
    let (r, t) = tables(case);
    let w = Workload::new(case.initial.iter().map(|&p| case.spec(p)).collect());
    let events = EventStream::new(vec![
        SessionEvent::Admit {
            at: case.at[0],
            spec: case.spec(case.arrivals[0]),
        },
        SessionEvent::Depart {
            at: case.at[1],
            query: QueryId(0),
        },
        SessionEvent::Admit {
            at: case.at[2],
            spec: case.spec(case.arrivals[1]),
        },
    ]);
    let out = RunRequest::new("CAQE", &r, &t, &w, &exec(case), &EngineConfig::caqe())
        .events(&events)
        .try_run(&mut NoopSink)
        .map_err(|e| e.to_string())?;
    // Admissions take the next query ids in the order they apply.
    let mut effective: Vec<QuerySpec> = w.queries().to_vec();
    let mut admits = [(case.at[0], 0), (case.at[2], 1)];
    admits.sort_by_key(|&(at, i)| (at, i));
    effective.extend(admits.iter().map(|&(_, i)| case.spec(case.arrivals[i])));
    let want = expected_skylines(&r, &t, &Workload::new(effective));
    let got = result_sets(&out)?;
    for (q, (got, want)) in got.iter().zip(&want).enumerate().skip(1) {
        if got != want {
            return Err(format!("session: query {q} diverged from Def. 2"));
        }
    }
    Ok(out)
}

/// Regions whose every row with partners the look-ahead skipped: they join
/// nothing with it and something without it.
fn all_skipped_regions(case: &Case) -> Vec<(u32, u32)> {
    let (r, t) = tables(case);
    let w = Workload::new(case.initial.iter().map(|&p| case.spec(p)).collect());
    let joined = |engine: EngineConfig| {
        let mut sink = RecordingSink::new();
        RunRequest::new("CAQE", &r, &t, &w, &exec(case), &engine)
            .try_run(&mut sink)
            .expect("clean input");
        let audits = sink.events().iter().filter_map(|e| match e {
            TraceEvent::EstimateAudit {
                group,
                region,
                estimate,
                ..
            } => Some(((*group, *region), estimate.actual_join)),
            _ => None,
        });
        audits.collect::<BTreeMap<(u32, u32), u64>>()
    };
    let every_row = joined(EngineConfig {
        row_lookahead: false,
        ..EngineConfig::caqe()
    });
    let best_first = joined(EngineConfig::caqe());
    let skipped = best_first
        .iter()
        .filter(|&(unit, &made)| made == 0 && every_row.get(unit).is_some_and(|&made| made > 0));
    skipped.map(|(&unit, _)| unit).collect()
}

/// Join results an admission re-joined from the skip record: everything
/// joined, minus what the regions joined.
fn rejoined(case: &Case) -> u64 {
    let (r, t) = tables(case);
    let w = Workload::new(case.initial.iter().map(|&p| case.spec(p)).collect());
    let events = EventStream::new(vec![SessionEvent::Admit {
        at: case.at[0],
        spec: case.spec(case.arrivals[0]),
    }]);
    let mut sink = RecordingSink::new();
    let out = RunRequest::new("CAQE", &r, &t, &w, &exec(case), &EngineConfig::caqe())
        .events(&events)
        .try_run(&mut sink)
        .expect("clean input");
    let in_regions: u64 = sink
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::EstimateAudit { estimate, .. } => Some(estimate.actual_join),
            _ => None,
        })
        .sum();
    out.stats.join_results - in_regions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn best_first_rows_keep_every_mode_exact(case in case_strategy()) {
        check_batch(&case).map_err(TestCaseError::Fail)?;
        check_session(&case).map_err(TestCaseError::Fail)?;
    }
}

/// The cases the generator must reach, each pinned once.
#[test]
fn best_first_rows_cover_their_corner_cases() {
    let base = Case {
        n: 8,
        dist: Distribution::Independent,
        sigma: 0.5,
        seed: 3,
        cells: 4,
        initial: vec![DimMask(0b0011), DimMask(0b0110)],
        arrivals: [DimMask(0b1100), DimMask(0b1010)],
        at: [0, 0, 0],
        mapping: MappingSet::mixed(2, 2, 4),
        grid: false,
    };
    // Eight rows a table: every region is a seed with an empty rest.
    let seed_only = Case {
        at: [500, 900, 1_500],
        ..base.clone()
    };
    check_batch(&seed_only).unwrap();
    let out = check_session(&seed_only).unwrap();
    assert!(
        out.stats.join_results > 0,
        "the seed-only case joins nothing"
    );

    // Small regions late in the run, against full windows.
    let skipping = Case {
        n: 100,
        sigma: 0.05,
        cells: 16,
        ..base.clone()
    };
    assert!(
        !all_skipped_regions(&skipping).is_empty(),
        "no region skipped every row"
    );
    check_batch(&skipping).unwrap();
    check_session(&skipping).unwrap();

    // Two arrivals reading dimension 3 once the first two queries are
    // done: the first re-joins what its windows can use and leaves the
    // rest on record, where the second finds rows it needs.
    let two_admissions = Case {
        n: 400,
        sigma: 0.2,
        seed: 9,
        cells: 8,
        at: [1_000_000, 1_000_001, 1_000_002],
        ..base
    };
    assert!(
        rejoined(&two_admissions) > 0,
        "the first arrival re-joined nothing"
    );
    check_batch(&two_admissions).unwrap();
    check_session(&two_admissions).unwrap();
}
