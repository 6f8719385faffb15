//! Figure 11: average satisfaction as the workload grows
//! (`|S_Q| ∈ {1, 3, 5, 7, 9, 11}`), independent data, contracts C2 (11.a)
//! and C3 (11.b).
//!
//! ```text
//! cargo run --release -p caqe-bench --bin fig11 -- [--n <rows>] [--json] [--trace <dir>]
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
    let sizes = [1usize, 3, 5, 7, 9, 11];

    for contract in [2usize, 3] {
        let mut rows: Vec<ComparisonRow> = Vec::new();
        // The paper fixes the contract parameters (t_C1 = t_C3 = 40 s)
        // across workload sizes; calibrate once against the full-size
        // workload and hold the deadline constant as |S_Q| shrinks.
        let mut reference: Option<f64> = None;
        for &size in &sizes {
            let mut cfg = ExperimentConfig::new(Distribution::Independent, contract);
            cfg.parallelism = threads;
            cfg.faults = faults;
            cfg.validation = validation;
            cfg.workload_size = size;
            if let Some(n) = n {
                cfg.n = n;
            }
            let r = *reference.get_or_insert_with(|| {
                let mut probe = cfg.clone();
                probe.workload_size = sizes.last().copied().unwrap_or(cfg.workload_size);
                probe.reference_seconds()
            });
            cfg.reference_secs = Some(r);
            rows.extend(run_comparison_observed(
                &cfg,
                trace_dir.as_deref(),
                metrics_dir.as_deref(),
            ));
        }
        if json {
            println!("{}", render_jsonl(&rows));
            continue;
        }
        let panel = if contract == 2 {
            "Figure 11.a (C2, independent)"
        } else {
            "Figure 11.b (C3, independent)"
        };
        print!("{}", render_table(panel, &rows));

        // The paper's headline: the relative satisfaction drop from
        // |S_Q| = 1 to |S_Q| = 11 per system.
        println!("-- satisfaction drop |S_Q|=1 → 11 --");
        for strat in ["CAQE", "S-JFSL", "JFSL", "ProgXe+", "SSMJ"] {
            let at = |k: usize| {
                rows.iter()
                    .find(|r| r.strategy == strat && r.workload_size == k)
                    .map(|r| r.avg_satisfaction)
                    .unwrap_or(f64::NAN)
            };
            let (s1, s11) = (at(1), at(11));
            println!(
                "  {:<9} {:.3} → {:.3}  (drop {:.0}%)",
                strat,
                s1,
                s11,
                100.0 * (s1 - s11) / s1.max(1e-9)
            );
        }
        println!();
    }
}
