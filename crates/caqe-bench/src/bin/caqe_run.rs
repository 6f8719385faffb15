//! One traced, metered CAQE run on a four-join-group workload, optionally
//! as an online session.
//!
//! ```text
//! cargo run --release -p caqe-bench --bin caqe_run -- [--n <rows>]
//!     [--cells <per-table>] [--out <path>] [--trace <dir>] [--metrics <dir>]
//!     [--faults <spec>] [--events <spec>] [--validation reject|quarantine|clamp]
//! ```
//!
//! The run records its trace; with `--trace` it exports under the label
//! `caqe`, and with `--metrics` the same run's metrics snapshot exports
//! under the same label, so `trace_report --check` and
//! `obs_report --reconcile` can pair them. With `--events` (e.g.
//! `admit@500000=0,depart@900000=1`) the run becomes an online session:
//! admissions draw from the workload's own query pool by index. A summary
//! JSON object goes to `--out <path>`, or to stdout without it; its
//! `result_digest` fingerprints every query's result set (provenance pairs,
//! sorted), so two builds can be compared on what they answer, not only on
//! how many answers.

use caqe_bench::json::ObjectWriter;
use caqe_bench::report::{cli_arg, cli_args, cli_chaos, cli_metrics, cli_parse, cli_trace};
use caqe_contract::Contract;
use caqe_core::{EngineConfig, EventStream, ExecConfig, QuerySpec, RunRequest, Workload};
use caqe_data::{Distribution, TableGenerator};
use caqe_operators::{MappingFn, MappingSet};
use caqe_trace::RecordingSink;
use caqe_types::{DimMask, Fnv1a};

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

fn main() {
    let (args, _) = cli_args(
        "--n --cells --out --trace --metrics --faults --events --validation",
        "",
        "",
    );
    let n: usize = cli_parse(&args, "--n", 2500);
    let cells: usize = cli_parse(&args, "--cells", 22);
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
    let exec = ExecConfig::default()
        .with_target_cells(n, cells)
        .with_faults(faults)
        .with_validation(validation);

    let mut sink = RecordingSink::new();
    let outcome = RunRequest::new("CAQE", &r, &t, &w, &exec, &EngineConfig::caqe())
        .events(&events)
        .try_run(&mut sink)
        .expect("bench inputs are clean");

    if let Some(dir) = &trace_dir {
        caqe_trace::write_trace(dir, "caqe", sink.events()).expect("trace export failed");
    }
    if let Some(dir) = &metrics_dir {
        let collector = caqe_bench::obs::collect(&w, sink.events(), &outcome);
        caqe_bench::obs::write_snapshot(dir, "caqe", &collector).expect("metrics export failed");
    }

    let groups = w
        .queries()
        .iter()
        .map(|q| (q.join_col, format!("{:?}", q.mapping)))
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    let mut obj = ObjectWriter::new();
    obj.string("bench", "caqe_run")
        .uint("n", n as u64)
        .uint("cells_per_table", cells as u64)
        .uint("join_groups", groups as u64)
        .uint("queries", w.len() as u64)
        .uint("trace_events", sink.events().len() as u64)
        .uint("session_events", events.len() as u64)
        .number("virtual_seconds", outcome.virtual_seconds)
        .uint("join_results", outcome.stats.join_results)
        .uint("rows_skipped", outcome.stats.rows_skipped)
        .uint("skipped_join_results", outcome.stats.skipped_join_results)
        .uint("results", outcome.total_results() as u64)
        .string(
            "result_digest",
            &format!("{:016x}", result_digest(&outcome)),
        );
    let json = obj.finish();
    match &out_path {
        Some(path) => std::fs::write(path, format!("{json}\n")).expect("write bench json"),
        None => println!("{json}"),
    }
}

/// FNV-1a over each query's sorted result provenance, in query order:
/// independent of emission order and timing.
fn result_digest(outcome: &caqe_core::RunOutcome) -> u64 {
    let mut h = Fnv1a::new();
    for q in &outcome.per_query {
        let mut results = q.results.clone();
        results.sort_unstable();
        h.usize(results.len());
        for (rid, tid) in results {
            h.u64(rid).u64(tid);
        }
    }
    h.finish()
}
