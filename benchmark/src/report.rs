//! The metric registry (names, units, direction, bounds) and the result
//! rows a run prints and stores.

use crate::json::Json;
use crate::stats::{fastest, median, quartiles};
use std::collections::BTreeMap;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees, measured with tracing off.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("e2e_wall_s", "s", "lower", 0.25),
    e2e("satisfaction_mean", "ratio", "higher", 0.12),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

/// One layer each (layer = crate / module name), from the traced run and
/// from replayed public-API calls on the workload's own inputs.
pub const PER_LAYER: [MetricDef; 69] = [
    layer("data.validate_s", "s", "lower"),
    layer("data.rows", "count", "higher"),
    layer("ingest.prepare_s", "s", "lower"),
    layer("partition.build_s", "s", "lower"),
    layer("partition.cells", "count", "lower"),
    layer("group.build_s", "s", "lower"),
    layer("regions.build_s", "s", "lower"),
    layer("regions.count", "count", "lower"),
    layer("regions.pruned_share", "ratio", "higher"),
    layer("depgraph.build_s", "s", "lower"),
    layer("depgraph.edges", "count", "lower"),
    layer("engine.traced_wall_s", "s", "lower"),
    layer("engine.build_s", "s", "lower"),
    layer("engine.decide_s", "s", "lower"),
    layer("engine.tuple_s", "s", "lower"),
    layer("engine.emit_s", "s", "lower"),
    layer("engine.admit_s", "s", "lower"),
    layer("engine.depart_s", "s", "lower"),
    layer("engine.decisions", "count", "lower"),
    layer("engine.decide_us_per_decision", "us", "lower"),
    layer("engine.regions_processed_share", "ratio", "lower"),
    layer("engine.first_result_wall_s", "s", "lower"),
    layer("engine.half_results_wall_s", "s", "lower"),
    layer("operators.join_s", "s", "lower"),
    layer("operators.join_results", "count", "lower"),
    layer("operators.sfs_s", "s", "lower"),
    layer("operators.sig_insert_ns", "ns", "lower"),
    layer("operators.inc_insert_ns", "ns", "lower"),
    layer("operators.dom_cmps_per_insert", "count", "lower"),
    layer("operators.presort_cache_hit_rate", "ratio", "higher"),
    layer("cuboid.insert_batch_s", "s", "lower"),
    layer("cuboid.insert_ns_per_tuple", "ns", "lower"),
    layer("cuboid.subspaces", "count", "lower"),
    layer("cuboid.admit_backfill_s", "s", "lower"),
    layer("clock.virtual_s", "s", "lower"),
    layer("clock.ns_per_tick_build", "ns", "lower"),
    layer("clock.ns_per_tick_tuple", "ns", "lower"),
    layer("clock.tick_wall_corr", "ratio", "higher"),
    layer("clock.uncharged_wall_share", "ratio", "lower"),
    layer("contract.pscore_total", "count", "higher"),
    layer("contract.min_query_satisfaction", "ratio", "higher"),
    layer("contract.emissions", "count", "higher"),
    layer("trace.events", "count", "lower"),
    layer("trace.overhead_share", "ratio", "lower"),
    layer("trace.to_jsonl_s", "s", "lower"),
    layer("obs.fold_s", "s", "lower"),
    layer("obs.events_per_s", "1/s", "higher"),
    layer("plan.build_s", "s", "lower"),
    layer("plan.save_s", "s", "lower"),
    layer("plan.load_s", "s", "lower"),
    layer("plan.bytes", "count", "lower"),
    layer("serve.session_latency_p50_ms", "ms", "lower"),
    layer("serve.session_latency_p90_ms", "ms", "lower"),
    layer("serve.sessions_per_s", "1/s", "higher"),
    layer("serve.restart_recovery_ms", "ms", "lower"),
    layer("serve.submit_us", "us", "lower"),
    layer("serve.queue_wait_ms", "ms", "lower"),
    layer("serve.epoch_ms", "ms", "lower"),
    layer("serve.epochs", "count", "lower"),
    layer("serve.queue_peak", "count", "lower"),
    layer("serve.snapshot_write_ms", "ms", "lower"),
    layer("serve.snapshot_bytes", "count", "lower"),
    layer("serve.snapshot_load_ms", "ms", "lower"),
    layer("serve.restore_ms", "ms", "lower"),
    layer("parallel.wall_t2_s", "s", "lower"),
    layer("parallel.speedup_t2", "ratio", "higher"),
    layer("baselines.sjfsl_wall_s", "s", "lower"),
    layer("baselines.sjfsl_satisfaction_mean", "ratio", "higher"),
    layer("baselines.jfsl_wall_s", "s", "lower"),
];

/// Metric values by name. A timing set from samples keeps its spread.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets `name` to the median of `samples` and keeps them for the row.
    pub fn set_samples(&mut self, name: &'static str, samples: Vec<f64>) {
        self.values.insert(name, median(&samples));
        self.samples.insert(name, samples);
    }

    /// Sets `name` to the fastest of `samples` (see [`fastest`]) — the gated
    /// timings — and keeps them for the row.
    pub fn set_fastest(&mut self, name: &'static str, samples: Vec<f64>) {
        self.values.insert(name, fastest(&samples));
        self.samples.insert(name, samples);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// The `metrics` object over exactly the metrics of `defs`, each
    /// `{"value": …, "unit": …}`; what was not measured on this workload
    /// reads 0. With `spread`, every value that came from samples also
    /// carries min, quartiles and the samples themselves.
    fn object(&self, defs: &[MetricDef], spread: bool) -> Json {
        Json::obj(defs.iter().map(|d| {
            let mut fields = vec![
                ("value", Json::Num(self.get(d.name))),
                ("unit", Json::str(d.unit)),
            ];
            let samples = self.samples.get(d.name).filter(|s| spread && !s.is_empty());
            if let Some(s) = samples {
                let [q1, q2, q3] = quartiles(s);
                fields.push(("min", Json::Num(fastest(s))));
                fields.push(("q1", Json::Num(q1)));
                fields.push(("median", Json::Num(q2)));
                fields.push(("q3", Json::Num(q3)));
                fields.push((
                    "samples",
                    Json::Arr(s.iter().map(|x| Json::Num(*x)).collect()),
                ));
            }
            (d.name, Json::obj(fields))
        }))
    }

    /// The `metrics` object of the result line the driver reads.
    pub fn result_object(&self, defs: &[MetricDef]) -> Json {
        self.object(defs, false)
    }

    /// Prints every metric of `defs` by name, with its unit.
    pub fn print(&self, defs: &[MetricDef]) {
        for d in defs {
            println!("  {:<36} {:>16.6} {}", d.name, self.get(d.name), d.unit);
        }
    }
}

/// Facts every result row carries.
#[derive(Debug, Clone)]
pub struct RowMeta {
    pub workload: String,
    pub trace: bool,
    pub n: usize,
    pub reps: usize,
    pub seed: u64,
    pub host_cores: usize,
    pub threads: usize,
    pub git_sha: String,
    /// The run's outcome digest (over the session digests on `serve_restart`).
    pub digest: String,
}

/// One stored result row: the facts, the verdict and the metrics.
pub fn row(
    meta: &RowMeta,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &Metrics,
    defs: &[MetricDef],
) -> Json {
    Json::obj([
        ("workload", Json::str(meta.workload.as_str())),
        ("trace", Json::Bool(meta.trace)),
        ("n", Json::Num(meta.n as f64)),
        ("reps", Json::Num(meta.reps as f64)),
        ("seed", Json::Num(meta.seed as f64)),
        ("host_cores", Json::Num(meta.host_cores as f64)),
        ("threads", Json::Num(meta.threads as f64)),
        ("git_sha", Json::str(meta.git_sha.as_str())),
        ("digest", Json::str(meta.digest.as_str())),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics.object(defs, true)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::SPECS;

    fn meta() -> RowMeta {
        RowMeta {
            workload: "anti_tuple".to_string(),
            trace: false,
            n: 3000,
            reps: 17,
            seed: 0xEDB7,
            host_cores: 2,
            threads: 1,
            git_sha: "unknown".to_string(),
            digest: "00000000deadbeef".to_string(),
        }
    }

    #[test]
    fn row_round_trips_through_the_parser() {
        let mut m = Metrics::default();
        m.set_fastest("e2e_wall_s", vec![0.41, 0.40, 0.44, 0.39, 0.42]);
        m.set("satisfaction_mean", 0.4163);
        let written = row(&meta(), true, 31, 0, &m, &END_TO_END);
        let parsed = Json::parse(&written.to_json()).unwrap();
        assert_eq!(parsed, written);
        let wall = parsed.get("metrics").unwrap().get("e2e_wall_s").unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(0.39));
        assert_eq!(wall.get("q1").and_then(Json::as_f64), Some(0.395));
        assert_eq!(wall.get("median").and_then(Json::as_f64), Some(0.41));
        assert_eq!(wall.get("min").and_then(Json::as_f64), Some(0.39));
        assert!(matches!(wall.get("samples"), Some(Json::Arr(s)) if s.len() == 5));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        // Not measured: present, zero, no spread fields.
        let rss = parsed.get("metrics").unwrap().get("peak_rss_mb").unwrap();
        assert_eq!(rss.get("value").and_then(Json::as_f64), Some(0.0));
        assert!(rss.get("min").is_none());
        assert_eq!(parsed.get("seed").and_then(Json::as_f64), Some(60855.0));
    }

    #[test]
    fn result_object_has_exactly_the_declared_metrics() {
        let mut m = Metrics::default();
        m.set("engine.tuple_s", 0.3);
        m.set("not.declared", 1.0);
        let obj = m.result_object(&PER_LAYER);
        let fields = obj.as_object().unwrap();
        assert_eq!(fields.len(), PER_LAYER.len());
        assert!(fields
            .iter()
            .all(|(_, v)| v.as_object().unwrap().len() == 2));
        assert_eq!(
            obj.get("engine.tuple_s")
                .unwrap()
                .get("value")
                .and_then(Json::as_f64),
            Some(0.3)
        );
    }

    /// `BENCHMARK.json` is written by hand; this keeps it and the binary's
    /// registry from drifting apart.
    #[test]
    fn benchmark_json_matches_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, SPECS.map(|s| s.name.to_string()));
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = list(key);
            assert_eq!(declared.len(), defs.len(), "{key}");
            for (got, want) in declared.iter().zip(defs) {
                assert_eq!(got.get("name").and_then(Json::as_str), Some(want.name));
                assert_eq!(got.get("unit").and_then(Json::as_str), Some(want.unit));
                assert_eq!(got.get("better").and_then(Json::as_str), Some(want.better));
                assert_eq!(
                    got.get("bound").and_then(Json::as_f64),
                    want.bound,
                    "{}",
                    want.name
                );
            }
        }
        let mut all: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(
            all.len(),
            END_TO_END.len() + PER_LAYER.len(),
            "a name is used twice"
        );
    }
}
