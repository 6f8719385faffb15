//! Parameter sweeps over the evaluation's ranges (§7.1): table cardinality
//! `N` and join selectivity `σ`. No single figure in the paper plots these
//! directly, but the experimental settings call them out; this driver shows
//! how the five systems scale along both axes.
//!
//! ```text
//! cargo run --release -p caqe-bench --bin sweep -- [--axis n|sigma]
//!     [--dist independent] [--contract 2] [--json] [--trace <dir>]
//!     [--metrics <dir>] [--faults <spec>]
//!     [--validation reject|quarantine|clamp]
//! ```

use caqe_bench::report::{
    cli_arg, cli_chaos, cli_dist, cli_flag, cli_metrics, cli_parse, cli_trace, render_jsonl,
    render_table,
};
use caqe_bench::{run_comparison_observed, ComparisonRow, ExperimentConfig};
use caqe_data::Distribution;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let axis = cli_arg(&args, "--axis").unwrap_or_else(|| "n".to_string());
    let dist = cli_dist(&args).unwrap_or(Distribution::Independent);
    let contract: usize = cli_parse(&args, "--contract", 2);
    let json = cli_flag(&args, "--json");
    let (faults, validation) = cli_chaos(&args);
    let trace_dir = cli_trace(&args);
    let metrics_dir = cli_metrics(&args);
    // Sweep points share every label ingredient except the swept value, so
    // each point traces into its own subdirectory.
    let point_dir = |tag: &str| trace_dir.as_ref().map(|d| d.join(tag));
    let point_metrics = |tag: &str| metrics_dir.as_ref().map(|d| d.join(tag));

    let mut rows: Vec<ComparisonRow> = Vec::new();
    match axis.as_str() {
        "n" => {
            for n in [500usize, 1000, 2000, 4000] {
                let mut cfg = ExperimentConfig::new(dist, contract);
                cfg.faults = faults;
                cfg.validation = validation;
                cfg.n = n;
                cfg.reference_secs = Some(cfg.reference_seconds());
                let tag = format!("n{n}");
                rows.extend(run_comparison_observed(
                    &cfg,
                    point_dir(&tag).as_deref(),
                    point_metrics(&tag).as_deref(),
                ));
            }
        }
        "sigma" => {
            for sigma in [0.001f64, 0.01, 0.05, 0.1] {
                let mut cfg = ExperimentConfig::new(dist, contract);
                cfg.faults = faults;
                cfg.validation = validation;
                cfg.n = 1500;
                cfg.sigma = sigma;
                cfg.reference_secs = Some(cfg.reference_seconds());
                let tag = format!("sigma{}", sigma.to_string().replace('.', "p"));
                rows.extend(run_comparison_observed(
                    &cfg,
                    point_dir(&tag).as_deref(),
                    point_metrics(&tag).as_deref(),
                ));
            }
        }
        other => panic!("--axis must be n or sigma, got {other}"),
    }

    if json {
        println!("{}", render_jsonl(&rows));
    } else {
        print!(
            "{}",
            render_table(
                &format!("Scaling sweep over {axis} ({}, C{contract})", dist.label()),
                &rows
            )
        );
        // Time scaling summary: CAQE's advantage should grow with work.
        println!("-- CAQE time advantage over JFSL --");
        let caqe: Vec<&ComparisonRow> = rows.iter().filter(|r| r.strategy == "CAQE").collect();
        let jfsl: Vec<&ComparisonRow> = rows.iter().filter(|r| r.strategy == "JFSL").collect();
        for (c, j) in caqe.iter().zip(&jfsl) {
            println!(
                "  point: joins {:>9} vs {:>9}  time x{:>5.1}",
                c.join_results,
                j.join_results,
                j.virtual_seconds / c.virtual_seconds.max(1e-9)
            );
        }
    }
}
