//! Experiment harness regenerating the paper's evaluation (§7).
//!
//! * [`workloads`] — the paper's query workload: `|S_Q|` skyline-over-join
//!   queries differing in their skyline dimensions (`d ∈ [2, 5]`), with the
//!   per-contract priority assignments of §7.2;
//! * [`experiment`] — one-stop comparison runner producing the rows behind
//!   Figures 9, 10 and 11 for all five systems;
//! * [`paper`] — the `paper` driver's sections: Table 2, Figures 9–11,
//!   the scaling sweep and the ablation matrix as the markdown blocks
//!   EXPERIMENTS.md embeds;
//! * [`report`] — JSON row emission and the drivers' shared CLI parsing,
//!   which exits 2 naming any unknown flag;
//! * [`json`] — the JSON object writer behind the drivers' rows;
//! * [`audit`] — what the `report` binary checks: one fold over a trace's
//!   typed events, its rules, and the metrics reconcile.
//!
//! Binaries: `paper` (the evaluation), `caqe_run` (one traced, metered run
//! over four join groups, optionally an online session), `serve_soak` and
//! `report` (the offline trace check and metrics reconcile) — see
//! DESIGN.md §5 for the per-experiment index; timing lives in the repo-level `benchmark/`
//! package, not here. The execution drivers accept `--trace <dir>` to
//! export the deterministic trace of every run (DESIGN.md §11),
//! `--metrics <dir>` to export its metrics snapshot (DESIGN.md §16; see
//! [`obs`]), and `--faults <spec>` plus `--validation <policy>` to run
//! under a deterministic chaos plan (DESIGN.md §13).

pub mod audit;
pub mod experiment;
pub mod json;
pub mod obs;
pub mod paper;
pub mod report;
pub mod workloads;

pub use experiment::{run_comparison, ComparisonRow, ExperimentConfig};
pub use workloads::{paper_workload, ContractParams, PriorityPolicy};
