//! The paper's evaluation (§7): Table 2, Figures 9–11, the scaling sweep
//! and the ablation matrix, printed as the markdown blocks EXPERIMENTS.md
//! embeds (see `caqe_bench::paper`).
//!
//! ```text
//! cargo run --release -p caqe-bench --bin paper -- [table2|fig9|fig10|fig11|sweep|ablation ...]
//!     [--json] [--trace <dir>] [--metrics <dir>] [--faults <spec>]
//!     [--validation reject|quarantine|clamp]
//! ```
//!
//! Without a section name every section runs, in the order above. `--json`
//! prints every run's row as JSON lines instead of the markdown. `--trace`
//! and `--metrics` export each run under `<dir>/<section>/` (the sweep one
//! subdirectory deeper per point), for `trace_report` and `obs_report`.

use caqe_bench::paper::{marked, PaperOptions, SECTIONS};
use caqe_bench::report::{cli_args, cli_chaos, cli_flag, cli_metrics, cli_trace, render_jsonl};

fn main() {
    let names: Vec<&str> = SECTIONS.iter().map(|(name, _)| *name).collect();
    let (args, picked) = cli_args(
        "--trace --metrics --faults --validation",
        "--json",
        &names.join(" "),
    );
    let (faults, validation) = cli_chaos(&args);
    let opts = PaperOptions {
        trace: cli_trace(&args),
        metrics: cli_metrics(&args),
        faults,
        validation,
    };
    let json = cli_flag(&args, "--json");
    for (name, run) in SECTIONS {
        if !picked.is_empty() && !picked.iter().any(|p| p == name) {
            continue;
        }
        let section = run(&opts);
        if !json {
            print!("{}", marked(name, &section.markdown));
        } else if !section.rows.is_empty() {
            let (jsonl, nulls) = render_jsonl(&section.rows);
            println!("{jsonl}");
            if nulls > 0 {
                eprintln!("{name}: {nulls} non-finite values written as null");
            }
        }
    }
}
