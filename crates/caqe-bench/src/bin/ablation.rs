//! Ablation study: which of CAQE's ingredients buys what?
//!
//! Runs the Figure 9 workload with individual engine components disabled:
//!
//! * `no-lookahead`  — skip the coarse-level skyline pruning (§5.2);
//! * `no-discard`    — keep look-ahead but never discard dominated
//!   cells/regions during execution (§6);
//! * `no-feedback`   — freeze the Equation 11 weights at the priorities;
//! * `count-driven`  — replace the CSM by ProgXe+'s count-per-cost policy;
//! * `fifo`          — process regions in id order (scheduling off);
//! * `blocking`      — disable progressive emission (report at the end).
//!
//! ```text
//! cargo run --release -p caqe-bench --bin ablation -- [--dist independent]
//!     [--contract 3] [--n <rows>] [--json] [--trace <dir>] [--metrics <dir>]
//!     [--faults <spec>] [--validation reject|quarantine|clamp]
//! ```

use caqe_bench::report::{
    cli_chaos, cli_dist, cli_flag, cli_metrics, cli_parse, cli_parse_opt, cli_trace, render_jsonl,
    render_table,
};
use caqe_bench::{ComparisonRow, ExperimentConfig};
use caqe_core::{EngineConfig, RunRequest, SchedulingPolicy};
use caqe_data::Distribution;
use caqe_trace::{NoopSink, RecordingSink};

fn variants() -> Vec<(&'static str, EngineConfig)> {
    let full = EngineConfig::caqe();
    vec![
        ("CAQE", full),
        (
            "no-lookahead",
            EngineConfig {
                coarse_pruning: false,
                ..full
            },
        ),
        (
            "no-discard",
            EngineConfig {
                dominance_discard: false,
                ..full
            },
        ),
        (
            "no-feedback",
            EngineConfig {
                feedback: false,
                ..full
            },
        ),
        (
            "count-driven",
            EngineConfig {
                policy: SchedulingPolicy::CountDriven,
                feedback: false,
                ..full
            },
        ),
        (
            "fifo",
            EngineConfig {
                policy: SchedulingPolicy::Fifo,
                feedback: false,
                ..full
            },
        ),
        (
            "blocking",
            EngineConfig {
                progressive_emission: false,
                ..full
            },
        ),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dist = cli_dist(&args).unwrap_or(Distribution::Independent);
    let contract: usize = cli_parse(&args, "--contract", 3);
    let mut cfg = ExperimentConfig::new(dist, contract);
    let (faults, validation) = cli_chaos(&args);
    cfg.faults = faults;
    cfg.validation = validation;
    if let Some(n) = cli_parse_opt(&args, "--n") {
        cfg.n = n;
    } else if dist == Distribution::Anticorrelated {
        cfg.n = 1200;
    }
    cfg.reference_secs = Some(cfg.reference_seconds());

    let (r, t) = cfg.tables();
    let workload = cfg.workload();
    let exec = cfg.exec();
    let trace_dir = cli_trace(&args);
    let metrics_dir = cli_metrics(&args);

    let rows: Vec<ComparisonRow> = variants()
        .into_iter()
        .map(|(name, engine)| {
            let outcome = if trace_dir.is_some() || metrics_dir.is_some() {
                let mut sink = RecordingSink::new();
                let outcome = RunRequest::new(name, &r, &t, &workload, &exec, &engine)
                    .try_run(&mut sink)
                    .expect("engine run failed");
                let label = name.replace('-', "_");
                if let Some(dir) = &trace_dir {
                    caqe_trace::write_trace(dir, &label, sink.events())
                        .expect("trace export failed");
                }
                if let Some(dir) = &metrics_dir {
                    let collector = caqe_bench::obs::collect(&workload, sink.events(), &outcome);
                    caqe_bench::obs::write_snapshot(dir, &label, &collector)
                        .expect("metrics export failed");
                }
                outcome
            } else {
                RunRequest::new(name, &r, &t, &workload, &exec, &engine)
                    .try_run(&mut NoopSink)
                    .expect("engine run failed")
            };
            ComparisonRow::from_outcome(&outcome, &cfg)
        })
        .collect();

    if cli_flag(&args, "--json") {
        println!("{}", render_jsonl(&rows));
    } else {
        print!(
            "{}",
            render_table(
                &format!(
                    "Ablation ({}, contract C{contract}, |S_Q|={})",
                    dist.label(),
                    cfg.workload_size
                ),
                &rows
            )
        );
        let full = rows.first().expect("CAQE row");
        println!("\n-- deltas vs full CAQE --");
        for row in &rows[1..] {
            println!(
                "  {:<13} satisfaction {:+.3}  joins x{:.2}  comparisons x{:.2}  time x{:.2}",
                row.strategy,
                row.avg_satisfaction - full.avg_satisfaction,
                row.join_results as f64 / full.join_results.max(1) as f64,
                row.dom_comparisons as f64 / full.dom_comparisons.max(1) as f64,
                row.virtual_seconds / full.virtual_seconds.max(1e-9),
            );
        }
    }
}
