//! Engine and execution configuration.

use caqe_data::ValidationPolicy;
use caqe_faults::FaultPlan;
use caqe_partition::QuadTreeConfig;
use caqe_types::CostModel;

/// How the engine picks the next region for tuple-level processing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulingPolicy {
    /// CAQE proper: rank dependency-graph roots by the Cumulative
    /// Satisfaction Metric (Equation 8).
    ContractDriven,
    /// The count-driven policy of ProgXe+ [27]: maximize estimated
    /// progressive output per unit cost, ignoring contracts and weights.
    CountDriven,
    /// Blind pipelining in region-id order — the shared-plan S-JFSL
    /// baseline.
    Fifo,
}

/// Knobs that turn the shared engine into CAQE, S-JFSL or the core of
/// ProgXe+. Defaults are full CAQE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Region scheduling policy.
    pub policy: SchedulingPolicy,
    /// Run the coarse-level skyline during look-ahead, pruning regions that
    /// cannot contribute to any query (§5.2).
    pub coarse_pruning: bool,
    /// After processing a region, discard output cells / regions dominated
    /// by actually generated tuples (§6, "tuple level processing").
    pub dominance_discard: bool,
    /// Before joining an R row with its partners, test its best image — the
    /// mapping over the T cell's lower corner — against every kept window,
    /// and skip the row if it is strictly dominated in all of them (the §5
    /// look-ahead at row grain; DESIGN.md §4).
    pub row_lookahead: bool,
    /// Apply the satisfaction-based weight feedback (Equation 11).
    pub feedback: bool,
    /// Emit results progressively through the dependency-graph safety test
    /// (§6). When false the run is *blocking*: every query's skyline is
    /// reported only when all processing finishes (the S-JFSL profile).
    pub progressive_emission: bool,
}

impl EngineConfig {
    /// Full CAQE.
    pub fn caqe() -> Self {
        EngineConfig {
            policy: SchedulingPolicy::ContractDriven,
            coarse_pruning: true,
            dominance_discard: true,
            row_lookahead: true,
            feedback: true,
            progressive_emission: true,
        }
    }

    /// The S-JFSL baseline: shared min-max-cuboid plan, blind FIFO
    /// pipelining, no look-ahead pruning, no feedback, blocking output.
    pub fn s_jfsl() -> Self {
        EngineConfig {
            policy: SchedulingPolicy::Fifo,
            coarse_pruning: false,
            dominance_discard: false,
            row_lookahead: false,
            feedback: false,
            progressive_emission: false,
        }
    }

    /// The region engine underlying ProgXe+ [27]: progressive and
    /// output-space driven, but count-based and contract-blind.
    pub fn progxe_core() -> Self {
        EngineConfig {
            policy: SchedulingPolicy::CountDriven,
            coarse_pruning: true,
            dominance_discard: true,
            row_lookahead: false,
            feedback: false,
            progressive_emission: true,
        }
    }

    /// Whether a run under this configuration ever consults the dependency
    /// graph: blind blocking pipelines do not, everyone else needs it for
    /// scheduling, discarding or emission safety.
    pub fn needs_dependency_graph(&self) -> bool {
        self.progressive_emission || self.dominance_discard || self.policy != SchedulingPolicy::Fifo
    }
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig::caqe()
    }
}

/// Contract-aware load shedding (DESIGN.md §13): when the workload's mean
/// running satisfaction drops below `sat_floor` under load, the scheduler
/// sheds the lowest-CSM dependency-graph root region (re-invoking the
/// Alg. 1 ranking with the live Eq. 11 weights) instead of letting every
/// query stall behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPolicy {
    /// Mean running-satisfaction floor in `[0, 1]`. `0.0` (the default)
    /// disables shedding entirely — a strict no-op on the golden path.
    pub sat_floor: f64,
    /// Virtual ticks before the floor is first enforced, so startup (when
    /// no query has emitted yet) is not misread as degradation.
    pub grace_ticks: u64,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        DegradationPolicy {
            sat_floor: 0.0,
            grace_ticks: 20_000,
        }
    }
}

impl DegradationPolicy {
    /// Whether shedding can ever trigger.
    pub fn enabled(&self) -> bool {
        self.sat_floor > 0.0
    }
}

/// Environment shared by every execution strategy in a comparison: the
/// virtual-clock cost model and the input partitioning granularity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// Tick prices and the ticks→seconds rate.
    pub cost_model: CostModel,
    /// Quad-tree construction parameters.
    pub quadtree: QuadTreeConfig,
    /// Whether the Distinct Value Attributes assumption may be exploited
    /// (Theorem 1 shortcuts). True for the standard generators.
    pub assume_dva: bool,
    /// Host-side worker threads: `None` = serial (the default), `Some(0)` =
    /// all available cores, `Some(n)` = exactly `n` workers. **Inert**: the
    /// engine is serial whatever this holds. The field (and
    /// [`ExecConfig::with_parallelism`]) stays only because `benchmark/src`
    /// compiles against it; one test in `tests/golden_traces.rs` pins that
    /// setting it changes no trace byte.
    pub parallelism: Option<usize>,
    /// Deterministic fault plan ([`FaultPlan::none`] by default — every
    /// injection hook is then a strict no-op).
    pub faults: FaultPlan,
    /// Ingestion validation policy for non-finite values and duplicate
    /// record ids.
    pub validation: ValidationPolicy,
    /// Contract-aware load shedding (disabled by default).
    pub degradation: DegradationPolicy,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            cost_model: CostModel::default(),
            quadtree: QuadTreeConfig::default(),
            assume_dva: true,
            parallelism: None,
            faults: FaultPlan::none(),
            validation: ValidationPolicy::default(),
            degradation: DegradationPolicy::default(),
        }
    }
}

impl ExecConfig {
    /// Caps the partitioning at roughly `cells_per_table` leaves per table
    /// — the region count then stays near `cells_per_table²`, keeping the
    /// look-ahead's quadratic cost proportional to the tuple-level work it
    /// saves. (`n` is accepted for call-site readability; the quad-tree's
    /// largest-first budgeted splitting makes the bound size-independent.)
    pub fn with_target_cells(mut self, _n: usize, cells_per_table: usize) -> Self {
        self.quadtree = QuadTreeConfig::with_cell_budget(cells_per_table);
        self
    }

    /// Sets the (inert) worker-thread knob (see [`ExecConfig::parallelism`]).
    pub fn with_parallelism(mut self, parallelism: Option<usize>) -> Self {
        self.parallelism = parallelism;
        self
    }

    /// Installs a fault plan (see [`FaultPlan`]).
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the ingestion validation policy.
    pub fn with_validation(mut self, validation: ValidationPolicy) -> Self {
        self.validation = validation;
        self
    }

    /// Enables contract-aware shedding below the given satisfaction floor.
    pub fn with_degradation(mut self, degradation: DegradationPolicy) -> Self {
        self.degradation = degradation;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_where_it_matters() {
        let caqe = EngineConfig::caqe();
        let sj = EngineConfig::s_jfsl();
        let px = EngineConfig::progxe_core();
        assert_eq!(caqe.policy, SchedulingPolicy::ContractDriven);
        assert_eq!(sj.policy, SchedulingPolicy::Fifo);
        assert_eq!(px.policy, SchedulingPolicy::CountDriven);
        assert!(caqe.feedback && !sj.feedback && !px.feedback);
        assert!(caqe.row_lookahead && !sj.row_lookahead && !px.row_lookahead);
        assert!(!sj.coarse_pruning && px.coarse_pruning);
        assert!(caqe.progressive_emission && px.progressive_emission);
        assert!(!sj.progressive_emission);
        assert!(caqe.needs_dependency_graph() && px.needs_dependency_graph());
        assert!(!sj.needs_dependency_graph());
        assert_eq!(EngineConfig::default(), caqe);
    }

    #[test]
    fn target_cells_sets_cell_budget() {
        let c = ExecConfig::default().with_target_cells(10_000, 40);
        assert_eq!(c.quadtree.max_cells, 40);
        let tiny = ExecConfig::default().with_target_cells(10, 0);
        assert_eq!(tiny.quadtree.max_cells, 1);
    }

    #[test]
    fn fault_handling_defaults_are_inert() {
        let c = ExecConfig::default();
        assert!(!c.faults.is_active());
        assert_eq!(c.validation, ValidationPolicy::Reject);
        assert!(!c.degradation.enabled());
        let chaos = ExecConfig::default()
            .with_faults(FaultPlan::seeded(1).with_panics(0.5))
            .with_validation(ValidationPolicy::Clamp)
            .with_degradation(DegradationPolicy {
                sat_floor: 0.4,
                grace_ticks: 100,
            });
        assert!(chaos.faults.is_active());
        assert!(chaos.degradation.enabled());
        assert_ne!(chaos, ExecConfig::default());
    }
}
