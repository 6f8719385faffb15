//! The five workloads: what they run and how their inputs are made.
//!
//! Every workload is `EngineConfig::caqe()` at `parallelism: None`. The
//! query menus are re-implemented here (not imported from `caqe-bench`) so
//! the benchmark depends only on the crates it measures.

use caqe_baselines::JfslStrategy;
use caqe_contract::Contract;
use caqe_core::{
    try_run_engine, try_run_engine_online_prepared, EngineConfig, EventStream, ExecConfig,
    ExecutionStrategy, PreparedPlan, QuerySpec, RunOutcome, SessionEvent, Workload,
};
use caqe_data::{Distribution, Record, Table, TableGenerator};
use caqe_operators::{MappingFn, MappingSet};
use caqe_trace::TraceSink;
use caqe_types::{DimMask, EngineError, QueryId};

/// How a workload is driven.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One `try_run_engine` call over a fixed 11-query workload.
    Batch,
    /// One `try_run_engine_online` call: 6 initial queries, 2 admissions
    /// and 1 departure on the virtual clock.
    Churn,
    /// Closed-loop sessions through `caqe-serve`, with a kill-and-restore.
    Serve,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub dist: Distribution,
    /// Rows per table. Scaled (and only this) to fit the run-time cap.
    pub n: usize,
    pub cells: usize,
    /// Table 2 contract id applied to every query (batch / churn).
    pub contract_id: usize,
}

/// The workload ladder. `n` is the only value tuned to the host: the
/// issue's sizing (8000 / 2000 / 20000 / 15000 / 3000) gives reps of 2–4 s
/// and set-ups of up to 13 s; the driver's cap of 114 runs in 3420 s leaves
/// ~10 s of measuring per run, so `n` is scaled until a rep takes 0.3–1.2 s
/// and one run holds about ten reps or more.
pub const SPECS: [Spec; 5] = [
    Spec {
        name: "anti_tuple",
        kind: Kind::Batch,
        dist: Distribution::Anticorrelated,
        n: 4000,
        cells: 12,
        contract_id: 3,
    },
    Spec {
        name: "anti_lookahead",
        kind: Kind::Batch,
        dist: Distribution::Anticorrelated,
        n: 1000,
        cells: 26,
        contract_id: 2,
    },
    Spec {
        name: "corr_join",
        kind: Kind::Batch,
        dist: Distribution::Correlated,
        n: 8000,
        cells: 12,
        contract_id: 4,
    },
    Spec {
        name: "indep_churn",
        kind: Kind::Churn,
        dist: Distribution::Independent,
        n: 6000,
        cells: 12,
        contract_id: 5,
    },
    Spec {
        name: "serve_restart",
        kind: Kind::Serve,
        dist: Distribution::Independent,
        n: 1000,
        cells: 8,
        contract_id: 2,
    },
];

pub fn spec_named(name: &str) -> Option<Spec> {
    SPECS.iter().copied().find(|s| s.name == name)
}

/// Join selectivity of the paper-style workloads.
const SIGMA: f64 = 0.02;
/// Deadline as a share of the JFSL reference run (`ExperimentConfig`'s
/// default).
const DEADLINE_FRACTION: f64 = 0.3;

/// The paper's `|S_Q| = 11` preference subspaces over the 5-dim output
/// space (the first eleven of `caqe_bench::workloads::PREF_MENU`).
const PREF_MENU: [&[usize]; 11] = [
    &[0, 1],
    &[1, 2, 3],
    &[0, 1, 2, 3, 4],
    &[2, 3],
    &[0, 2, 4],
    &[1, 2, 3, 4],
    &[3, 4],
    &[0, 1, 2],
    &[0, 1, 3, 4],
    &[1, 4],
    &[2, 3, 4],
];

/// The Table 2 contract `id` with its deadline at [`DEADLINE_FRACTION`] of
/// the reference run and its reporting interval at a tenth of that.
fn calibrated_contract(id: usize, reference_secs: f64) -> Contract {
    let t = (reference_secs * DEADLINE_FRACTION).max(1e-3);
    Contract::table2(id, t, t / 10.0)
}

/// Priority in `[0.1, 1.0]` by skyline dimensionality: C1/C2 favour more
/// dimensions, C3/C4 fewer, C5 is uniform (§7.2).
fn priority(contract_id: usize, dims: usize, min_d: usize, max_d: usize) -> f64 {
    if contract_id >= 5 || max_d == min_d {
        return 0.5;
    }
    let frac = (dims - min_d) as f64 / (max_d - min_d) as f64;
    let frac = if contract_id >= 3 { 1.0 - frac } else { frac };
    0.1 + 0.9 * frac
}

/// `size` paper-style queries over `MappingSet::mixed(3, 3, 5)`.
fn paper_queries(size: usize, contract_id: usize, contract: &Contract) -> Vec<QuerySpec> {
    let mapping = MappingSet::mixed(3, 3, 5);
    let chosen = &PREF_MENU[..size];
    let min_d = chosen.iter().map(|p| p.len()).min().unwrap_or(0);
    let max_d = chosen.iter().map(|p| p.len()).max().unwrap_or(0);
    chosen
        .iter()
        .map(|dims| QuerySpec {
            join_col: 0,
            mapping: mapping.clone(),
            pref: DimMask::from_dims(dims.iter().copied()),
            priority: priority(contract_id, dims.len(), min_d, max_d),
            contract: contract.clone(),
        })
        .collect()
}

/// The `bench_pr5` pool: four mapping variants × two preferences, join
/// column `v % 2` — four join groups of two queries each.
fn churn_pool(contract: &Contract) -> Vec<QuerySpec> {
    let mut queries = Vec::new();
    for v in 0..4 {
        let fns = (0..4)
            .map(|j| {
                let mut wr = vec![0.0; 2];
                let mut wt = vec![0.0; 2];
                wr[j % 2] = 1.0 + 0.05 * v as f64;
                wt[(j + v) % 2] = 1.0 + 0.1 * j as f64;
                MappingFn::new(wr, wt, 0.0)
            })
            .collect();
        let mapping = MappingSet::new(fns);
        for (pref, priority) in [
            (DimMask::from_dims([0, 1]), 0.8),
            (DimMask::from_dims([2, 3]), 0.4),
        ] {
            queries.push(QuerySpec {
                join_col: v % 2,
                mapping: mapping.clone(),
                pref,
                priority,
                contract: contract.clone(),
            });
        }
    }
    queries
}

/// Queries of the churn pool that start the session; the rest are admitted.
const CHURN_INITIAL: usize = 6;
/// The initial query that departs mid-session.
pub const CHURN_DEPARTS: QueryId = QueryId(2);
/// Admit / admit / depart at these shares of the static run's ticks. The
/// issue's 0.2 / 0.5 / 0.7 put the first admission on a region boundary:
/// 3 of 15 seeds applied it one region later and scheduled 126 regions
/// instead of 106 (+30 % wall). At these shares all 15 agree.
const CHURN_AT: [f64; 3] = [0.25, 0.5, 0.75];

/// Everything one workload runs on. Built by [`Inputs::build`], which is
/// what `setup_s` times.
pub struct Inputs {
    pub spec: Spec,
    pub r: Table,
    pub t: Table,
    pub exec: ExecConfig,
    /// Every query the run ever sees, in global-id order (for `Churn` the
    /// first six start, the last two are admitted; for `Serve` this is the
    /// prepared-statement catalog).
    pub pool: Vec<QuerySpec>,
    /// The initial workload handed to the engine.
    pub workload: Workload,
    /// Session events (empty for `Batch` and `Serve`).
    pub events: EventStream,
    /// The JFSL run over `pool` (join-first, shares no code path with the
    /// region engine): calibration reference and output-gate oracle.
    /// `None` only from [`Inputs::uncalibrated`].
    pub oracle: Option<RunOutcome>,
}

/// Default `--seed`, and the seed of the value multiset every run of a
/// workload shares whatever its `--seed`.
pub const DEFAULT_SEED: u64 = 0xEDB7;

/// splitmix64: the benchmark's only randomness, so inputs are a pure
/// function of `--seed` on every platform.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly random permutation of `0..n` (Fisher–Yates).
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        p
    }
}

/// Row order, record ids and join-key labels of `base`, re-drawn from `rng`.
/// `key_maps[c]` relabels join column `c` and must be shared by both tables.
fn permuted(base: &Table, key_maps: &[Vec<usize>], rng: &mut SplitMix) -> Table {
    let order = rng.permutation(base.len());
    let ids = rng.permutation(base.len());
    let records = order
        .iter()
        .zip(&ids)
        .map(|(&row, &id)| {
            let rec = base.record(row);
            let keys = rec
                .keys
                .iter()
                .zip(key_maps)
                .map(|(&k, map)| map[k as usize] as u32)
                .collect();
            Record::new(id as u64, rec.vals.clone(), keys)
        })
        .collect();
    Table::new(base.name(), base.dims(), base.join_cols(), records)
}

/// The workload's tables for `seed`.
///
/// The attribute values are one fixed draw per workload; `seed` re-draws
/// the row order, the record ids and the join-key labels. Skyline cost is
/// set by a handful of extreme points, so re-drawing the values moves wall
/// time by ±35 % and satisfaction by ×3 between seeds (measured) — more
/// than any regression bound — while a permutation changes every input the
/// program sees (scan, probe and insertion order, provenance, digests) and
/// keeps the amount of work within a few percent.
fn tables(spec: &Spec, n: usize, seed: u64) -> (Table, Table) {
    let (dims, sigmas): (usize, &[f64]) = match spec.kind {
        Kind::Churn => (2, &[0.02, 0.03]),
        Kind::Batch | Kind::Serve => (3, &[SIGMA]),
    };
    let gen = TableGenerator::new(n, dims, spec.dist)
        .with_selectivities(sigmas)
        .with_seed(DEFAULT_SEED);
    let mut rng = SplitMix(seed);
    let key_maps: Vec<Vec<usize>> = gen
        .key_domains
        .iter()
        .map(|&k| rng.permutation(k as usize))
        .collect();
    (
        permuted(&gen.generate("R"), &key_maps, &mut rng),
        permuted(&gen.generate("T"), &key_maps, &mut rng),
    )
}

fn exec_for(spec: &Spec, n: usize) -> ExecConfig {
    ExecConfig::default().with_target_cells(n, spec.cells)
}

fn pool_for(spec: &Spec, contract: &Contract) -> Vec<QuerySpec> {
    match spec.kind {
        Kind::Batch => paper_queries(11, spec.contract_id, contract),
        Kind::Churn => churn_pool(contract),
        Kind::Serve => paper_queries(8, spec.contract_id, contract),
    }
}

impl Inputs {
    /// Generates the tables from `seed`, runs the JFSL oracle, calibrates
    /// contract deadlines against it (as `ExperimentConfig::workload`
    /// does) and, for `Churn`, places the events on the static run's clock.
    pub fn build(spec: Spec, n: usize, seed: u64) -> Result<Inputs, EngineError> {
        let (r, t) = tables(&spec, n, seed);
        let exec = exec_for(&spec, n);
        // The probe contract is irrelevant to JFSL's order, cost and result
        // sets; C2 is parameter-free.
        let probe = Workload::new(pool_for(&spec, &Contract::LogDecay));
        let oracle = JfslStrategy.try_run(&r, &t, &probe, &exec)?;
        let contract = calibrated_contract(spec.contract_id, oracle.virtual_seconds);
        Inputs::assemble(spec, r, t, exec, &contract, Some(oracle))
    }

    /// The same inputs with parameter-free C2 contracts and no oracle run —
    /// for the memory probe, which must come before any oracle's
    /// materialized join can set the process's high-water mark.
    pub fn uncalibrated(spec: Spec, n: usize, seed: u64) -> Result<Inputs, EngineError> {
        let (r, t) = tables(&spec, n, seed);
        let exec = exec_for(&spec, n);
        Inputs::assemble(spec, r, t, exec, &Contract::LogDecay, None)
    }

    fn assemble(
        spec: Spec,
        r: Table,
        t: Table,
        exec: ExecConfig,
        contract: &Contract,
        oracle: Option<RunOutcome>,
    ) -> Result<Inputs, EngineError> {
        let pool = pool_for(&spec, contract);
        let (workload, events) = match spec.kind {
            Kind::Batch => (Workload::new(pool.clone()), EventStream::empty()),
            Kind::Churn => {
                let initial = Workload::new(pool[..CHURN_INITIAL].to_vec());
                let caqe = EngineConfig::caqe();
                let stat = try_run_engine("CAQE", &r, &t, &initial, &exec, &caqe, 0)?;
                let ticks = stat.virtual_seconds * exec.cost_model.ticks_per_second;
                let at = |share: f64| (ticks * share) as u64;
                let events = EventStream::new(vec![
                    SessionEvent::Admit {
                        at: at(CHURN_AT[0]),
                        spec: pool[CHURN_INITIAL].clone(),
                    },
                    SessionEvent::Admit {
                        at: at(CHURN_AT[1]),
                        spec: pool[CHURN_INITIAL + 1].clone(),
                    },
                    SessionEvent::Depart {
                        at: at(CHURN_AT[2]),
                        query: CHURN_DEPARTS,
                    },
                ]);
                (initial, events)
            }
            Kind::Serve => crate::serve::epoch(&pool, 0),
        };
        Ok(Inputs {
            spec,
            r,
            t,
            exec,
            pool,
            workload,
            events,
            oracle,
        })
    }

    /// One engine run over the workload's inputs — the call `e2e_wall_s`
    /// times on `Batch` and `Churn`, and the epoch the engine-layer metrics
    /// replay on `Serve`.
    pub fn run_engine<S: TraceSink>(
        &self,
        exec: &ExecConfig,
        plan: Option<&PreparedPlan>,
        sink: &mut S,
    ) -> Result<RunOutcome, EngineError> {
        self.run(&self.workload, &self.events, exec, plan, sink)
    }

    /// One engine run of `workload` and `events` over the workload's tables.
    pub fn run<S: TraceSink>(
        &self,
        workload: &Workload,
        events: &EventStream,
        exec: &ExecConfig,
        plan: Option<&PreparedPlan>,
        sink: &mut S,
    ) -> Result<RunOutcome, EngineError> {
        try_run_engine_online_prepared(
            "CAQE",
            &self.r,
            &self.t,
            workload,
            events,
            exec,
            &EngineConfig::caqe(),
            0,
            plan,
            sink,
        )
    }
}

/// The small copy the definitional check runs on and a static engine run
/// over the whole pool on it. A tenth of `n`, capped: Definitions 1–2 are
/// quadratic in the join size.
pub fn small_scale(
    spec: &Spec,
    n: usize,
    seed: u64,
    pool: &[QuerySpec],
) -> Result<(Table, Table, RunOutcome), EngineError> {
    let rows = (n / 10).clamp(20, 300);
    let (r, t) = tables(spec, rows, seed);
    let outcome = try_run_engine(
        "CAQE",
        &r,
        &t,
        &Workload::new(pool.to_vec()),
        &exec_for(spec, rows),
        &EngineConfig::caqe(),
        0,
    )?;
    Ok((r, t, outcome))
}
