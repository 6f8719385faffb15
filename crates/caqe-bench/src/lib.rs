//! Experiment harness regenerating the paper's evaluation (§7).
//!
//! * [`workloads`] — the paper's query workload: `|S_Q|` skyline-over-join
//!   queries differing in their skyline dimensions (`d ∈ [2, 5]`), with the
//!   per-contract priority assignments of §7.2;
//! * [`experiment`] — one-stop comparison runner producing the rows behind
//!   Figures 9, 10 and 11 for all five systems;
//! * [`report`] — plain-text table rendering and JSON row emission so
//!   EXPERIMENTS.md can be regenerated verbatim.
//!
//! Binaries: `fig9`, `fig10`, `fig11`, `table2`, `ablation`, `sweep`,
//! `par_speedup`, `serve_soak`, `trace_report`, `obs_report` — see
//! DESIGN.md §5 for the per-experiment index; timing lives in the
//! repo-level `benchmark/` package, not here. All
//! execution drivers accept `--trace <dir>` to export the deterministic
//! trace of every run (DESIGN.md §11), `--faults <spec>` plus
//! `--validation <policy>` to run under a deterministic chaos plan
//! (DESIGN.md §13), and the comparison drivers take `--metrics <dir>` to
//! export deterministic metrics snapshots (DESIGN.md §16; see [`obs`]).

pub mod experiment;
pub mod json;
pub mod obs;
pub mod report;
pub mod workloads;

pub use experiment::{
    run_comparison, run_comparison_observed, run_comparison_traced, ComparisonRow, ExperimentConfig,
};
pub use workloads::{paper_workload, ContractParams, PriorityPolicy};
