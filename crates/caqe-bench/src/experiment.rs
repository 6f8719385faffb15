//! One-stop comparison runner for the paper's figures.

use crate::workloads::{paper_workload, ContractParams, PriorityPolicy};
use caqe_baselines::all_strategies;
use caqe_core::{ExecConfig, ExecutionStrategy, RunOutcome, Workload};
use caqe_data::{Distribution, Table, TableGenerator, ValidationPolicy};
use caqe_faults::FaultPlan;
use caqe_trace::{write_trace, RecordingSink};
use std::path::Path;

/// Everything one experimental cell needs.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// Table cardinality `N` (both tables).
    pub n: usize,
    /// Attribute count of each base table.
    pub input_dims: usize,
    /// Attribute correlation regime.
    pub distribution: Distribution,
    /// Join selectivity `σ`.
    pub sigma: f64,
    /// Workload size `|S_Q|`.
    pub workload_size: usize,
    /// Table 2 contract id (1–5).
    pub contract_id: usize,
    /// Deadline as a fraction of the calibrated reference execution time.
    pub deadline_fraction: f64,
    /// Target quad-tree leaves per table.
    pub cells_per_table: usize,
    /// RNG seed.
    pub seed: u64,
    /// Pre-computed calibration reference (total virtual seconds of the
    /// non-shared blocking baseline). Computed on demand when `None`; set
    /// it once per (distribution, N) to share across contract cells.
    pub reference_secs: Option<f64>,
    /// The inert `ExecConfig::parallelism` knob (`--threads`): the engine
    /// is serial whatever it holds.
    pub parallelism: Option<usize>,
    /// Deterministic fault plan (inert by default); see the `--faults`
    /// flag on the bench drivers.
    pub faults: FaultPlan,
    /// Ingestion validation policy. Chaos cells with input corruption
    /// should pick `Quarantine` or `Clamp` — `Reject` aborts the run.
    pub validation: ValidationPolicy,
}

impl ExperimentConfig {
    /// A sensible default cell: the paper's 11-query workload at a
    /// laptop-scale cardinality.
    pub fn new(distribution: Distribution, contract_id: usize) -> Self {
        ExperimentConfig {
            n: 3000,
            input_dims: 3,
            distribution,
            sigma: 0.02,
            workload_size: 11,
            contract_id,
            deadline_fraction: 0.3,
            cells_per_table: 12,
            seed: 0xEDB7,
            reference_secs: None,
            parallelism: None,
            faults: FaultPlan::none(),
            validation: ValidationPolicy::default(),
        }
    }

    /// Generates the two base tables.
    pub fn tables(&self) -> (Table, Table) {
        let gen = TableGenerator::new(self.n, self.input_dims, self.distribution)
            .with_selectivities(&[self.sigma])
            .with_seed(self.seed);
        (gen.generate("R"), gen.generate("T"))
    }

    /// The execution environment shared by all compared systems.
    pub fn exec(&self) -> ExecConfig {
        ExecConfig::default()
            .with_target_cells(self.n, self.cells_per_table)
            .with_parallelism(self.parallelism)
            .with_faults(self.faults)
            .with_validation(self.validation)
    }

    /// Builds the workload, calibrating contract deadlines against the
    /// measured total runtime of the non-shared blocking baseline — the
    /// analogue of the paper picking 10 s / 40 s / 30 min per distribution.
    pub fn workload(&self) -> Workload {
        let reference = self
            .reference_secs
            .unwrap_or_else(|| self.reference_seconds());
        let params = ContractParams::from_reference(reference, self.deadline_fraction);
        paper_workload(
            self.workload_size,
            self.input_dims,
            self.contract_id,
            params,
            PriorityPolicy::for_contract(self.contract_id),
        )
    }

    /// Measures the total virtual runtime of JFSL — the priority-ordered,
    /// non-shared, blocking baseline — on this cell's tables and workload
    /// shape. The contract used for probing is irrelevant: utility functions
    /// never influence JFSL's processing order or cost.
    pub fn reference_seconds(&self) -> f64 {
        let (r, t) = self.tables();
        let probe = paper_workload(
            self.workload_size,
            self.input_dims,
            2, // C2: parameter-free
            ContractParams {
                t_param: 1.0,
                interval: 1.0,
            },
            PriorityPolicy::for_contract(self.contract_id),
        );
        // Calibration always runs on clean input: contract deadlines must
        // not shift with the chaos plan being evaluated against them.
        let clean = ExecConfig::default()
            .with_target_cells(self.n, self.cells_per_table)
            .with_parallelism(self.parallelism);
        caqe_baselines::JfslStrategy
            .run(&r, &t, &probe, &clean)
            .virtual_seconds
    }
}

/// One row of a comparison: the numbers the paper plots.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Strategy name.
    pub strategy: String,
    /// Distribution label.
    pub distribution: String,
    /// Contract label ("C1".."C5").
    pub contract: String,
    /// Workload size.
    pub workload_size: usize,
    /// Average per-query satisfaction (Figures 9 and 11).
    pub avg_satisfaction: f64,
    /// Cumulative progressiveness score (Equation 6).
    pub total_p_score: f64,
    /// Join results materialized (Figure 10.a — memory metric).
    pub join_results: u64,
    /// Tuple-level dominance comparisons (Figure 10.b — CPU metric).
    pub dom_comparisons: u64,
    /// Abstract region-level comparisons (look-ahead overhead).
    pub region_comparisons: u64,
    /// Total virtual execution time in seconds (Figure 10.c).
    pub virtual_seconds: f64,
    /// Wall-clock seconds of the run (informational).
    pub wall_seconds: f64,
    /// Results emitted across all queries.
    pub results: usize,
    /// Region processing attempts that failed and were retried.
    pub region_retries: u64,
    /// Regions quarantined after exhausting their retry budget.
    pub regions_quarantined: u64,
    /// Regions shed by contract-aware degradation.
    pub regions_shed: u64,
    /// Input records quarantined at ingestion.
    pub ingest_quarantined: u64,
    /// Input values clamped at ingestion.
    pub ingest_clamped: u64,
}

impl ComparisonRow {
    /// Extracts a row from a run outcome.
    pub fn from_outcome(outcome: &RunOutcome, cfg: &ExperimentConfig) -> Self {
        ComparisonRow {
            strategy: outcome.strategy.clone(),
            distribution: cfg.distribution.label().to_string(),
            contract: format!("C{}", cfg.contract_id),
            workload_size: cfg.workload_size,
            avg_satisfaction: outcome.avg_satisfaction(),
            total_p_score: outcome.total_p_score(),
            join_results: outcome.stats.join_results,
            dom_comparisons: outcome.stats.dom_comparisons,
            region_comparisons: outcome.stats.region_comparisons,
            virtual_seconds: outcome.virtual_seconds,
            wall_seconds: outcome.wall_seconds,
            results: outcome.total_results(),
            region_retries: outcome.stats.region_retries,
            regions_quarantined: outcome.stats.regions_quarantined,
            regions_shed: outcome.stats.regions_shed,
            ingest_quarantined: outcome.stats.ingest_quarantined,
            ingest_clamped: outcome.stats.ingest_clamped,
        }
    }

    /// Serializes the row as one JSON object (same field names as the
    /// struct, in declaration order).
    pub fn to_json(&self) -> String {
        self.to_json_counted().0
    }

    /// Like [`ComparisonRow::to_json`], additionally returning how many
    /// non-finite values were serialized as `null`.
    pub fn to_json_counted(&self) -> (String, u64) {
        let mut w = crate::json::ObjectWriter::new();
        w.string("strategy", &self.strategy)
            .string("distribution", &self.distribution)
            .string("contract", &self.contract)
            .uint("workload_size", self.workload_size as u64)
            .number("avg_satisfaction", self.avg_satisfaction)
            .number("total_p_score", self.total_p_score)
            .uint("join_results", self.join_results)
            .uint("dom_comparisons", self.dom_comparisons)
            .uint("region_comparisons", self.region_comparisons)
            .number("virtual_seconds", self.virtual_seconds)
            .number("wall_seconds", self.wall_seconds)
            .uint("results", self.results as u64)
            .uint("region_retries", self.region_retries)
            .uint("regions_quarantined", self.regions_quarantined)
            .uint("regions_shed", self.regions_shed)
            .uint("ingest_quarantined", self.ingest_quarantined)
            .uint("ingest_clamped", self.ingest_clamped);
        w.finish_counted()
    }
}

/// File-system-safe trace label for one (strategy, cell) pair.
fn trace_label(strategy: &str, cfg: &ExperimentConfig) -> String {
    format!(
        "{}_{}_c{}_q{}",
        strategy.to_lowercase(),
        cfg.distribution.label(),
        cfg.contract_id,
        cfg.workload_size
    )
    .chars()
    .map(|c| {
        if c.is_ascii_alphanumeric() || c == '_' {
            c
        } else {
            '-'
        }
    })
    .collect()
}

/// Runs all five systems on one experimental cell.
pub fn run_comparison(cfg: &ExperimentConfig) -> Vec<ComparisonRow> {
    run_comparison_traced(cfg, None)
}

/// Like [`run_comparison`], but when `trace_dir` is set each strategy runs
/// with a recording sink and its deterministic trace is exported under a
/// `<strategy>_<distribution>_c<contract>_q<size>` label.
pub fn run_comparison_traced(
    cfg: &ExperimentConfig,
    trace_dir: Option<&Path>,
) -> Vec<ComparisonRow> {
    run_comparison_observed(cfg, trace_dir, None)
}

/// The full observability variant: `trace_dir` exports deterministic
/// traces, `metrics_dir` exports per-strategy metrics snapshots
/// (`<label>.metrics.json` + `<label>.prom`, DESIGN.md §16) under the same
/// labels, so `obs_report --reconcile` can pair every snapshot with its
/// trace. With both `None` this is exactly [`run_comparison`].
pub fn run_comparison_observed(
    cfg: &ExperimentConfig,
    trace_dir: Option<&Path>,
    metrics_dir: Option<&Path>,
) -> Vec<ComparisonRow> {
    let (r, t) = cfg.tables();
    let workload = cfg.workload();
    let exec = cfg.exec();
    all_strategies()
        .iter()
        .map(|s| {
            let outcome = if trace_dir.is_some() || metrics_dir.is_some() {
                let mut sink = RecordingSink::new();
                let outcome = s.run_traced(&r, &t, &workload, &exec, &mut sink);
                let label = trace_label(s.name(), cfg);
                if let Some(dir) = trace_dir {
                    write_trace(dir, &label, sink.events()).expect("trace export failed");
                }
                if let Some(dir) = metrics_dir {
                    let collector = crate::obs::collect(&workload, sink.events(), &outcome);
                    crate::obs::write_snapshot(dir, &label, &collector)
                        .expect("metrics export failed");
                }
                outcome
            } else {
                s.run(&r, &t, &workload, &exec)
            };
            ComparisonRow::from_outcome(&outcome, cfg)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_produces_five_rows() {
        let mut cfg = ExperimentConfig::new(Distribution::Correlated, 1);
        cfg.n = 400;
        cfg.workload_size = 4;
        cfg.cells_per_table = 6;
        let rows = run_comparison(&cfg);
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(row.avg_satisfaction >= 0.0 && row.avg_satisfaction <= 1.0);
            assert!(row.results > 0, "{} emitted nothing", row.strategy);
            assert_eq!(row.contract, "C1");
        }
        // All systems agree on result counts per construction of the tests
        // elsewhere; here just check they all emitted the same total.
        let counts: std::collections::BTreeSet<usize> = rows.iter().map(|r| r.results).collect();
        assert_eq!(counts.len(), 1);
    }

    #[test]
    fn traced_comparison_exports_per_strategy_traces() {
        let mut cfg = ExperimentConfig::new(Distribution::Correlated, 2);
        cfg.n = 300;
        cfg.workload_size = 3;
        cfg.cells_per_table = 6;
        let dir = std::env::temp_dir().join("caqe_bench_trace_test");
        let _ = std::fs::remove_dir_all(&dir);
        let rows = run_comparison_traced(&cfg, Some(&dir));
        assert_eq!(rows.len(), 5);
        let jsonl: Vec<_> = std::fs::read_dir(&dir)
            .expect("trace dir exists")
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
            .collect();
        assert_eq!(jsonl.len(), 5, "one event stream per strategy");
        for p in &jsonl {
            let text = std::fs::read_to_string(p).unwrap();
            for line in text.lines() {
                crate::json::parse(line).expect("every trace line is valid JSON");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn observed_comparison_exports_metrics_snapshots() {
        let mut cfg = ExperimentConfig::new(Distribution::Correlated, 2);
        cfg.n = 300;
        cfg.workload_size = 3;
        cfg.cells_per_table = 6;
        let dir = std::env::temp_dir().join("caqe_bench_metrics_test");
        let _ = std::fs::remove_dir_all(&dir);
        let rows = run_comparison_observed(&cfg, None, Some(&dir));
        assert_eq!(rows.len(), 5);
        let snapshots: Vec<_> = std::fs::read_dir(&dir)
            .expect("metrics dir exists")
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.ends_with(".metrics.json"))
            })
            .collect();
        assert_eq!(snapshots.len(), 5, "one snapshot per strategy");
        for p in &snapshots {
            let text = std::fs::read_to_string(p).unwrap();
            let v = crate::json::parse(text.trim()).expect("snapshot is valid JSON");
            let emitted = v["counters"][caqe_obs::names::EMISSIONS]
                .as_f64()
                .expect("emission counter present");
            assert!(emitted > 0.0, "{}: no emissions collected", p.display());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reference_seconds_positive_and_scales() {
        let small = ExperimentConfig {
            n: 200,
            workload_size: 2,
            ..ExperimentConfig::new(Distribution::Independent, 2)
        };
        let large = ExperimentConfig {
            n: 800,
            workload_size: 2,
            ..ExperimentConfig::new(Distribution::Independent, 2)
        };
        let a = small.reference_seconds();
        let b = large.reference_seconds();
        assert!(a > 0.0);
        assert!(b > a, "reference did not scale: {a} vs {b}");
    }
}
