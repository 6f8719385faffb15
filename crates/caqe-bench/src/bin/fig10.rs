//! Figure 10: resource statistics under contract C2 for all three data
//! distributions — (a) join results (memory), (b) pairwise skyline
//! comparisons (CPU), (c) total execution time.
//!
//! ```text
//! cargo run --release -p caqe-bench --bin fig10 -- [--n <rows>] [--json] [--trace <dir>]
//!                                                  [--metrics <dir>] [--faults <spec>]
//!                                                  [--validation reject|quarantine|clamp]
//! ```

use caqe_bench::report::{
    cli_chaos, cli_flag, cli_metrics, cli_parse_opt, cli_threads, cli_trace, render_jsonl,
    render_table,
};
use caqe_bench::{run_comparison_observed, ComparisonRow, ExperimentConfig};
use caqe_data::Distribution;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = cli_flag(&args, "--json");
    let trace_dir = cli_trace(&args);
    let metrics_dir = cli_metrics(&args);
    let (faults, validation) = cli_chaos(&args);
    let n: Option<usize> = cli_parse_opt(&args, "--n");
    let threads = cli_threads(&args);

    let mut rows: Vec<ComparisonRow> = Vec::new();
    for dist in Distribution::ALL {
        let mut cfg = ExperimentConfig::new(dist, 2);
        cfg.parallelism = threads;
        cfg.faults = faults;
        cfg.validation = validation;
        if let Some(n) = n {
            cfg.n = n;
        } else if dist == Distribution::Anticorrelated {
            cfg.n = 1200;
        }
        rows.extend(run_comparison_observed(
            &cfg,
            trace_dir.as_deref(),
            metrics_dir.as_deref(),
        ));
    }

    if json {
        println!("{}", render_jsonl(&rows));
        return;
    }
    print!(
        "{}",
        render_table("Figure 10 (statistics under C2, |S_Q|=11)", &rows)
    );
    for dist in Distribution::ALL {
        let label = dist.label();
        let caqe = rows
            .iter()
            .find(|r| r.distribution == label && r.strategy == "CAQE")
            .expect("CAQE row");
        println!("\n-- {label}: factors relative to CAQE --");
        for r in rows.iter().filter(|r| r.distribution == label) {
            println!(
                "  {:<9} joins x{:>6.1}  comparisons x{:>7.1}  time x{:>6.1}",
                r.strategy,
                r.join_results as f64 / caqe.join_results.max(1) as f64,
                r.dom_comparisons as f64 / caqe.dom_comparisons.max(1) as f64,
                r.virtual_seconds / caqe.virtual_seconds.max(1e-9),
            );
        }
    }
    println!();
}
