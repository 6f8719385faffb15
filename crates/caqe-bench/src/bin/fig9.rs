//! Figure 9: average contract satisfaction of CAQE, S-JFSL, JFSL, ProgXe+
//! and SSMJ under contracts C1–C5, per data distribution.
//!
//! ```text
//! cargo run --release -p caqe-bench --bin fig9 -- [--dist correlated|independent|anticorrelated]
//!                                                 [--n <rows>] [--queries <k>] [--json]
//!                                                 [--trace <dir>] [--metrics <dir>]
//!                                                 [--faults <spec>]
//!                                                 [--validation reject|quarantine|clamp]
//! ```
//!
//! Without `--dist`, all three panels (9.a correlated, 9.b independent,
//! 9.c anti-correlated) are produced. With `--trace`, every run exports
//! its deterministic trace into the directory (see `trace_report`); with
//! `--metrics`, its metrics snapshot (see `obs_report`).

use caqe_bench::report::{
    cli_chaos, cli_dist, cli_flag, cli_metrics, cli_parse_opt, cli_threads, cli_trace,
    render_jsonl, render_table,
};
use caqe_bench::{run_comparison_observed, ComparisonRow, ExperimentConfig};
use caqe_data::Distribution;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let dists = cli_dist(&args).map_or(Distribution::ALL.to_vec(), |d| vec![d]);
    let n: Option<usize> = cli_parse_opt(&args, "--n");
    let queries: Option<usize> = cli_parse_opt(&args, "--queries");
    let threads = cli_threads(&args);
    let json = cli_flag(&args, "--json");
    let trace_dir = cli_trace(&args);
    let metrics_dir = cli_metrics(&args);
    let (faults, validation) = cli_chaos(&args);

    for dist in dists {
        let panel = match dist {
            Distribution::Correlated => "Figure 9.a (correlated)",
            Distribution::Independent => "Figure 9.b (independent)",
            Distribution::Anticorrelated => "Figure 9.c (anti-correlated)",
        };
        let mut rows: Vec<ComparisonRow> = Vec::new();
        let mut reference: Option<f64> = None;
        for contract in 1..=5 {
            let mut cfg = ExperimentConfig::new(dist, contract);
            cfg.parallelism = threads;
            cfg.faults = faults;
            cfg.validation = validation;
            if let Some(n) = n {
                cfg.n = n;
            } else if dist == Distribution::Anticorrelated {
                // The skyline worst case: keep the default panel tractable.
                cfg.n = 1200;
            }
            if let Some(k) = queries {
                cfg.workload_size = k;
            }
            // One calibration probe per panel, shared across contracts.
            let r = *reference.get_or_insert_with(|| cfg.reference_seconds());
            cfg.reference_secs = Some(r);
            rows.extend(run_comparison_observed(
                &cfg,
                trace_dir.as_deref(),
                metrics_dir.as_deref(),
            ));
        }
        if json {
            println!("{}", render_jsonl(&rows));
        } else {
            print!("{}", render_table(panel, &rows));
            summarize(&rows);
        }
    }
}

/// Prints the per-contract satisfaction ranking — the bar heights of Fig. 9.
fn summarize(rows: &[ComparisonRow]) {
    for contract in ["C1", "C2", "C3", "C4", "C5"] {
        let mut per: Vec<(&str, f64)> = rows
            .iter()
            .filter(|r| r.contract == contract)
            .map(|r| (r.strategy.as_str(), r.avg_satisfaction))
            .collect();
        per.sort_by(|a, b| b.1.total_cmp(&a.1));
        let ranked: Vec<String> = per.iter().map(|(s, v)| format!("{s}={v:.3}")).collect();
        println!("  {contract}: {}", ranked.join("  "));
    }
    println!();
}
