//! Metrics-snapshot plumbing shared by the bench drivers (DESIGN.md §16).
//!
//! Builds the SLO monitor configuration from a workload's contracts,
//! folds a recorded trace plus end-of-run [`Stats`](caqe_types::Stats)
//! into an [`ObsCollector`], and writes the two snapshot files
//! (`<label>.metrics.json`, `<label>.prom`) every `--metrics <dir>` driver
//! produces. Snapshots derive only from virtual-clock observables, so they
//! are byte-identical from run to run.

use caqe_core::{RunOutcome, Workload};
use caqe_obs::{ObsCollector, ObsConfig};
use caqe_trace::TraceEvent;
use caqe_types::SimClock;
use std::path::Path;

/// Running-satisfaction floor the SLO monitor holds every query to.
///
/// Matches the spirit of the degradation policy's satisfaction floor: a
/// query projected to sit below half satisfaction past its contract budget
/// is flagged at risk.
pub const DEFAULT_SAT_TARGET: f64 = 0.5;

/// The monitor configuration for a workload, calibrated to the default
/// cost model's tick rate.
pub fn obs_config(workload: &Workload) -> ObsConfig {
    let tps = SimClock::default().model().ticks_per_second;
    let contracts: Vec<_> = workload
        .queries()
        .iter()
        .map(|q| q.contract.clone())
        .collect();
    ObsConfig::from_contracts(&contracts, tps, DEFAULT_SAT_TARGET)
}

/// Folds one run's recorded events and outcome into a fresh collector.
pub fn collect(workload: &Workload, events: &[TraceEvent], outcome: &RunOutcome) -> ObsCollector {
    let mut c = ObsCollector::new(obs_config(workload));
    c.ingest_events(events);
    c.ingest_stats(&outcome.stats);
    c
}

/// Writes `<label>.metrics.json` and `<label>.prom` into `dir`.
pub fn write_snapshot(dir: &Path, label: &str, collector: &ObsCollector) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join(format!("{label}.metrics.json")),
        format!("{}\n", collector.registry().to_json()),
    )?;
    std::fs::write(
        dir.join(format!("{label}.prom")),
        collector.registry().to_prometheus(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqe_contract::Contract;
    use caqe_core::QuerySpec;
    use caqe_operators::{MappingFn, MappingSet};
    use caqe_types::DimMask;

    #[test]
    fn obs_config_tracks_workload_contracts() {
        let mapping = MappingSet::new(vec![
            MappingFn::new(vec![1.0, 0.0], vec![0.0, 1.0], 0.0),
            MappingFn::new(vec![0.0, 1.0], vec![1.0, 0.0], 0.0),
        ]);
        let w = Workload::new(vec![
            QuerySpec {
                join_col: 0,
                mapping: mapping.clone(),
                pref: DimMask::from_dims([0, 1]),
                priority: 1.0,
                contract: Contract::Deadline { t_hard: 2.0 },
            },
            QuerySpec {
                join_col: 0,
                mapping,
                pref: DimMask::from_dims([0, 1]),
                priority: 1.0,
                contract: Contract::LogDecay,
            },
        ]);
        let cfg = obs_config(&w);
        assert_eq!(cfg.queries.len(), 2);
        // 2 s at the default 100k ticks/s.
        assert_eq!(cfg.queries[0].budget_ticks, Some(200_000));
        assert_eq!(cfg.queries[1].budget_ticks, None);
    }
}
