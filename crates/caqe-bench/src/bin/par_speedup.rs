//! The measuring rig of the `parallelism` knob, plus the cost of turning
//! tracing on.
//!
//! **The knob is inert**: the four scoped-thread sites it used to drive
//! never reached 1.0× and are gone (EXPERIMENTS.md "Parallel layer
//! (PRs 1–17)"), so until ROADMAP item 4 lands both arms below run the same
//! serial engine and `speedup` reads ≈ 1.0 by construction. The rig stays
//! because item 4's remaining half will be judged on it.
//!
//! Runs CAQE on a multi-join-group workload at `parallelism: None` and at a
//! pinned worker count, verifies the outcomes are bit-identical, measures
//! the second run once more with a recording trace sink (the no-op sink is
//! the compiled-out default), and reports everything as one JSON object —
//! written to `--out <path>`, or printed to stdout without it.
//!
//! ```text
//! cargo run --release -p caqe-bench --bin par_speedup -- [--n <rows>]
//!     [--threads <k>] [--cells <per-table>] [--reps <r>] [--out <path>]
//!     [--trace <dir>] [--metrics <dir>] [--faults <spec>] [--events <spec>]
//!     [--validation reject|quarantine|clamp]
//! ```
//!
//! With `--trace`, the traced parallel run exports under the label
//! `parallel` — CI byte-diffs that JSONL across thread counts. With
//! `--metrics`, the same run's metrics snapshot exports under the same
//! label (CI byte-diffs it too). With `--events` (e.g.
//! `admit@500000=0,depart@900000=1`) the run becomes an online session:
//! admissions draw from the workload's own query pool by index, and the
//! bit-identity assertions then cover the churn path too.

use caqe_bench::json::ObjectWriter;
use caqe_bench::report::{cli_arg, cli_chaos, cli_metrics, cli_parse, cli_trace};
use caqe_contract::Contract;
use caqe_core::{
    EngineConfig, EventStream, ExecConfig, QuerySpec, RunOutcome, RunRequest, Workload,
};
use caqe_data::{Distribution, TableGenerator};
use caqe_operators::{MappingFn, MappingSet};
use caqe_trace::{NoopSink, RecordingSink};
use caqe_types::DimMask;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Four distinct mapping sets (4 output dims each): combined with two join
/// columns they split an eight-query workload into four join groups.
fn mapping_variant(v: usize) -> MappingSet {
    let fns = (0..4)
        .map(|j| {
            let mut wr = vec![0.0; 2];
            let mut wt = vec![0.0; 2];
            wr[j % 2] = 1.0 + 0.05 * v as f64;
            wt[(j + v) % 2] = 1.0 + 0.1 * j as f64;
            MappingFn::new(wr, wt, 0.0)
        })
        .collect();
    MappingSet::new(fns)
}

fn workload() -> Workload {
    let mut queries = Vec::new();
    for v in 0..4 {
        let mapping = mapping_variant(v);
        for (pref, priority) in [
            (DimMask::from_dims([0, 1]), 0.8),
            (DimMask::from_dims([2, 3]), 0.4),
        ] {
            queries.push(QuerySpec {
                join_col: v % 2,
                mapping: mapping.clone(),
                pref,
                priority,
                contract: Contract::LogDecay,
            });
        }
    }
    Workload::new(queries)
}

/// Best-of-`reps` wall seconds plus the (identical) outcome of the run.
fn measure(
    r: &caqe_data::Table,
    t: &caqe_data::Table,
    w: &Workload,
    events: &EventStream,
    exec: &ExecConfig,
    reps: usize,
) -> (f64, RunOutcome) {
    let mut best = f64::INFINITY;
    let mut outcome = None;
    for _ in 0..reps {
        let start = Instant::now();
        let o = RunRequest::new("CAQE", r, t, w, exec, &EngineConfig::caqe())
            .events(events)
            .try_run(&mut NoopSink)
            .expect("bench inputs are clean");
        best = best.min(start.elapsed().as_secs_f64());
        outcome = Some(o);
    }
    (best, outcome.expect("reps >= 1"))
}

/// Same as [`measure`] but with a live recording sink: the overhead of
/// tracing relative to the compiled-out no-op path.
fn measure_traced(
    r: &caqe_data::Table,
    t: &caqe_data::Table,
    w: &Workload,
    events: &EventStream,
    exec: &ExecConfig,
    reps: usize,
) -> (f64, RunOutcome, RecordingSink) {
    let mut best = f64::INFINITY;
    let mut outcome = None;
    let mut recorded = None;
    for _ in 0..reps {
        let mut sink = RecordingSink::new();
        let start = Instant::now();
        let o = RunRequest::new("CAQE", r, t, w, exec, &EngineConfig::caqe())
            .events(events)
            .try_run(&mut sink)
            .expect("bench inputs are clean");
        best = best.min(start.elapsed().as_secs_f64());
        outcome = Some(o);
        recorded = Some(sink);
    }
    (
        best,
        outcome.expect("reps >= 1"),
        recorded.expect("reps >= 1"),
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n: usize = cli_parse(&args, "--n", 2500);
    let threads: usize = cli_parse(&args, "--threads", 4);
    let cells: usize = cli_parse(&args, "--cells", 22);
    let reps: usize = cli_parse(&args, "--reps", 3);
    let out_path = cli_arg(&args, "--out");
    let trace_dir = cli_trace(&args);
    let metrics_dir = cli_metrics(&args);

    let gen = TableGenerator::new(n, 2, Distribution::Independent)
        .with_selectivities(&[0.02, 0.03])
        .with_seed(0xBE11C);
    let (r, t) = (gen.generate("R"), gen.generate("T"));
    let w = workload();
    let events = match cli_arg(&args, "--events") {
        Some(spec) => match EventStream::parse(&spec, w.queries()) {
            Ok(ev) => ev,
            Err(e) => {
                eprintln!("bad --events spec `{spec}`: {e}");
                std::process::exit(2);
            }
        },
        None => EventStream::empty(),
    };
    let (faults, validation) = cli_chaos(&args);
    let serial_exec = ExecConfig::default()
        .with_target_cells(n, cells)
        .with_faults(faults)
        .with_validation(validation);
    let par_exec = serial_exec.with_parallelism(Some(threads));

    let (serial_secs, serial_out) = measure(&r, &t, &w, &events, &serial_exec, reps);
    let (par_secs, par_out) = measure(&r, &t, &w, &events, &par_exec, reps);
    let (traced_secs, traced_out, sink) = measure_traced(&r, &t, &w, &events, &par_exec, reps);

    // Parallelism must not change a single observable number.
    assert_eq!(serial_out.stats, par_out.stats, "stats diverged");
    assert_eq!(
        serial_out.virtual_seconds.to_bits(),
        par_out.virtual_seconds.to_bits(),
        "virtual clock diverged"
    );
    for (a, b) in serial_out.per_query.iter().zip(&par_out.per_query) {
        assert_eq!(a.results, b.results, "results diverged");
        assert_eq!(a.emissions, b.emissions, "emissions diverged");
    }
    // Nor must the trace sink: recording is observation, not interference.
    assert_eq!(par_out.stats, traced_out.stats, "tracing changed stats");
    assert_eq!(
        par_out.virtual_seconds.to_bits(),
        traced_out.virtual_seconds.to_bits(),
        "tracing moved the virtual clock"
    );

    if let Some(dir) = &trace_dir {
        caqe_trace::write_trace(dir, "parallel", sink.events()).expect("trace export failed");
    }
    if let Some(dir) = &metrics_dir {
        let collector = caqe_bench::obs::collect(&w, sink.events(), &traced_out);
        caqe_bench::obs::write_snapshot(dir, "parallel", &collector)
            .expect("metrics export failed");
    }

    let groups = w
        .queries()
        .iter()
        .map(|q| (q.join_col, format!("{:?}", q.mapping)))
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let cores = std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1);
    let speedup = serial_secs / par_secs;
    let trace_overhead = traced_secs / par_secs;
    // On a host with fewer cores than workers the ratio measures pure
    // threading overhead (~1.0 is ideal), not scaling; the artifact says
    // which one it reports instead of leaving a meaningless "speedup".
    let measures = if cores < threads {
        "overhead"
    } else {
        "scaling"
    };
    let mut obj = ObjectWriter::new();
    obj.string("bench", "par_speedup")
        .uint("n", n as u64)
        .uint("cells_per_table", cells as u64)
        .uint("join_groups", groups as u64)
        .uint("queries", w.len() as u64)
        .uint("threads", threads as u64)
        .uint("host_cores", cores as u64)
        .uint("reps", reps as u64)
        .string("measures", measures)
        .number("serial_wall_seconds", serial_secs)
        .number("parallel_wall_seconds", par_secs)
        .number("speedup", speedup)
        .number("traced_wall_seconds", traced_secs)
        .number("trace_overhead", trace_overhead)
        .uint("trace_events", sink.events().len() as u64)
        .uint("session_events", events.len() as u64)
        .number("virtual_seconds", serial_out.virtual_seconds)
        .uint("join_results", serial_out.stats.join_results)
        .bool("bit_identical", true);
    let json = obj.finish();
    match &out_path {
        Some(path) => std::fs::write(path, format!("{json}\n")).expect("write bench json"),
        None => println!("{json}"),
    }
    println!(
        "{groups} join groups, n={n}, {cores} host cores ({measures}): serial {serial_secs:.3}s, \
         {threads} threads {par_secs:.3}s -> {speedup:.2}x; tracing {traced_secs:.3}s \
         (x{trace_overhead:.2}, {} events)",
        sink.events().len()
    );
}
