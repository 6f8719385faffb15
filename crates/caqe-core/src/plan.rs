//! The in-process plan memo, and the plan file that names it.
//!
//! Building the shared plan — quad-tree partitionings, output regions,
//! dependency graph, min-max cuboid — is a pure function of the base
//! tables, the execution config and the workload's group keys. A
//! [`PreparedPlan`] memoizes that build so a server pays it once and every
//! epoch replays it (`CaqeServer::with_plan`).
//!
//! The plan *file* is a recipe, not the product (DESIGN.md §19): it holds
//! the three input fingerprints and the key of each memo, sealed in the
//! frame it shares with the serving snapshot ([`caqe_types::persist`]), and
//! [`PreparedPlan::load`] verifies frame and fingerprints and then rebuilds
//! with the code a cold start runs. A file of built structures cost as
//! much to parse as they cost to build, and could outlive the code that
//! built them; a recipe does neither.
//!
//! Correctness contract: a warm start must be *observationally
//! bit-identical* to a cold start. The memo therefore stores not just
//! the structures but the exact virtual-clock ticks and counter deltas
//! the cold build charged, and replay re-applies them together with the
//! same trace spans. Anything that cannot be proven current — a table
//! fingerprint mismatch, a config change, a corrupt file or one of another
//! format version — invalidates the whole plan and the caller falls back
//! to the cold path; there is never a partial apply.

use crate::config::ExecConfig;
use crate::group::{group_workload, open_group, GroupMemo};
use crate::workload::Workload;
use caqe_data::Table;
use caqe_operators::{MappingFn, MappingSet};
use caqe_partition::Partitioning;
use caqe_trace::NoopSink;
use caqe_types::persist::{self, Fields, FrameError};
use caqe_types::subspace::MAX_DIMS;
use caqe_types::{DimMask, Fnv1a, QueryId, SimClock, Stats};
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

/// The on-disk format version this build writes, and the only one it reads.
pub const PLAN_VERSION: u64 = 2;

const MAGIC: &str = "caqe-plan";

/// Why a persisted plan could not be used. Every variant is total: the
/// caller falls back to a cold rebuild, never to a partially applied plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The file could not be read or written.
    Io(String),
    /// The file exists but its contents are not a well-formed plan
    /// (not UTF-8, bad checksum, truncation, malformed or impossible key).
    Corrupt(String),
    /// The file is a plan of a format version other than [`PLAN_VERSION`].
    Version { found: u64 },
    /// The file is well-formed but was built against different inputs.
    Stale {
        /// Which fingerprint mismatched (`"table R"`, `"table T"`, `"config"`).
        what: &'static str,
        /// The fingerprint recorded in the file.
        expected: u64,
        /// The fingerprint of the current input.
        found: u64,
    },
}

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanError::Io(e) => write!(f, "plan io error: {e}"),
            PlanError::Corrupt(why) => write!(f, "corrupt plan: {why}"),
            PlanError::Version { found } => write!(
                f,
                "plan format v{found} is not the v{PLAN_VERSION} this build speaks"
            ),
            PlanError::Stale {
                what,
                expected,
                found,
            } => write!(
                f,
                "stale plan: {what} fingerprint {expected:016x} != current {found:016x}"
            ),
        }
    }
}

impl std::error::Error for PlanError {}

impl From<FrameError> for PlanError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Corrupt(why) => PlanError::Corrupt(why),
            FrameError::Version { found } => PlanError::Version { found },
        }
    }
}

fn corrupt(why: impl Into<String>) -> PlanError {
    PlanError::Corrupt(why.into())
}

/// Content fingerprint of a base table: FNV-1a over name, arities and
/// every record's id, value bits and join keys. Acts as the *table
/// version* a persisted plan is keyed on — any row change invalidates.
pub fn table_fingerprint(t: &Table) -> u64 {
    let mut h = Fnv1a::new();
    h.str(t.name());
    h.usize(t.dims());
    h.usize(t.join_cols());
    h.usize(t.len());
    for rec in t.records() {
        h.u64(rec.id);
        for &v in &rec.vals {
            h.f64(v);
        }
        for &k in &rec.keys {
            h.u64(u64::from(k));
        }
    }
    h.finish()
}

/// Fingerprint of the execution-config knobs the plan build depends on:
/// the quad-tree granularity and the full cost model. Other `ExecConfig`
/// fields (fault plans, parallelism, …) do not shape the built plan.
pub fn config_fingerprint(exec: &ExecConfig) -> u64 {
    let mut h = Fnv1a::new();
    h.usize(exec.quadtree.max_leaf_size);
    h.usize(exec.quadtree.max_depth);
    h.usize(exec.quadtree.max_cells);
    let m = &exec.cost_model;
    h.u64(m.join_probe);
    h.u64(m.map_eval);
    h.u64(m.dom_cmp);
    h.u64(m.emit);
    h.u64(m.region_overhead);
    h.f64(m.sort_cmp);
    h.f64(m.ticks_per_second);
    h.finish()
}

/// A fully memoized shared plan for one `(R, T, config)` triple. Built
/// once (cold) and consumed by the engine's warm path.
#[derive(Debug, Clone, PartialEq)]
pub struct PreparedPlan {
    /// Fingerprint of the R table the plan was built from.
    pub table_fp_r: u64,
    /// Fingerprint of the T table the plan was built from.
    pub table_fp_t: u64,
    /// Fingerprint of the build-relevant config knobs.
    pub config_fp: u64,
    /// Memoized R-side partitioning.
    pub part_r: Partitioning,
    /// Memoized T-side partitioning.
    pub part_t: Partitioning,
    /// Per-group build memos (regions, graph, tick/counter deltas).
    pub memos: Vec<GroupMemo>,
}

/// The inputs of one group build — a [`GroupMemo`] without what the build
/// produced, and all of a memo the plan file holds.
struct GroupKey {
    join_col: usize,
    mapping: MappingSet,
    queries: Vec<(QueryId, DimMask)>,
    coarse_pruning: bool,
    build_dg: bool,
    keep_empty: bool,
}

/// The current inputs' fingerprints, in the order of the file's `fp` line
/// and with the names [`PlanError::Stale`] reports them under.
fn fingerprints(r: &Table, t: &Table, exec: &ExecConfig) -> [(&'static str, u64); 3] {
    [
        ("table R", table_fingerprint(r)),
        ("table T", table_fingerprint(t)),
        ("config", config_fingerprint(exec)),
    ]
}

impl PreparedPlan {
    /// Builds the table-level plan state (partitionings + fingerprints).
    /// Group memos are added per workload via [`Self::memoize`].
    pub fn build(r: &Table, t: &Table, exec: &ExecConfig) -> Self {
        Self::partition(fingerprints(r, t, exec), r, t, exec)
    }

    /// [`Self::build`] under fingerprints already taken.
    fn partition(fp: [(&str, u64); 3], r: &Table, t: &Table, exec: &ExecConfig) -> Self {
        PreparedPlan {
            table_fp_r: fp[0].1,
            table_fp_t: fp[1].1,
            config_fp: fp[2].1,
            part_r: Partitioning::build(r, exec.quadtree),
            part_t: Partitioning::build(t, exec.quadtree),
            memos: Vec::new(),
        }
    }

    /// Whether this plan was built from exactly these inputs. The engine
    /// consults this before taking the warm path; any mismatch means a
    /// silent cold build.
    pub fn matches_inputs(&self, r: &Table, t: &Table, exec: &ExecConfig) -> bool {
        self.config_fp == config_fingerprint(exec)
            && self.table_fp_r == table_fingerprint(r)
            && self.table_fp_t == table_fingerprint(t)
    }

    /// Memoizes every join group of `workload` under the given engine
    /// toggles, running the real cold build against scratch clock/stats
    /// so the recorded deltas are exact. Groups already memoized under
    /// the same key are skipped, so catalogs with shared group keys pay
    /// each build once.
    pub fn memoize(
        &mut self,
        workload: &Workload,
        exec: &ExecConfig,
        coarse_pruning: bool,
        build_dg: bool,
        keep_empty: bool,
    ) {
        for (join_col, mapping, members) in group_workload(workload) {
            let queries = members
                .iter()
                .map(|&q| (q, workload.query(q).pref))
                .collect();
            let key = GroupKey {
                join_col,
                mapping,
                queries,
                coarse_pruning,
                build_dg,
                keep_empty,
            };
            self.memoize_group(exec, key);
        }
    }

    /// One cold `open_group` under `key`, recorded — unless a memo under
    /// the same key exists. The one way a memo comes into being, for
    /// [`Self::memoize`] and [`Self::from_text`] alike.
    fn memoize_group(&mut self, exec: &ExecConfig, key: GroupKey) {
        let GroupKey {
            join_col,
            mapping,
            queries,
            coarse_pruning,
            build_dg,
            keep_empty,
        } = key;
        let known = self.memos.iter().any(|m| {
            m.matches(
                join_col,
                &mapping,
                &queries,
                coarse_pruning,
                build_dg,
                keep_empty,
            )
        });
        if known {
            return;
        }
        let mut clock = SimClock::new(exec.cost_model);
        let mut stats = Stats::new();
        let group = open_group(
            &self.part_r,
            &self.part_t,
            exec,
            coarse_pruning,
            build_dg,
            keep_empty,
            &[],
            0,
            join_col,
            mapping,
            queries.clone(),
            &mut clock,
            &mut stats,
            &mut NoopSink,
        );
        debug_assert!(
            stats.per_query.is_empty(),
            "group builds must not touch per-query stats"
        );
        self.memos.push(GroupMemo {
            join_col,
            mapping: group.mapping,
            queries,
            coarse_pruning,
            build_dg,
            keep_empty,
            regions: group.regions,
            dg: group.dg,
            ticks: clock.ticks(),
            stats,
        });
    }

    // ------------------------------------------------------------------
    // On-disk format.
    // ------------------------------------------------------------------

    /// Serializes the plan's recipe in the [`persist`] frame:
    ///
    /// ```text
    /// caqe-plan v2
    /// fp <r> <t> <config>                                  (016x each)
    /// memo <join_col> <coarse> <dg> <keep_empty> <fns>     per memo, then
    /// fn <nr> <weight>… <nt> <weight>… <offset>            <fns> of these
    /// queries <n> <id> <pref mask> …                       and one of these
    /// checksum <016x>
    /// ```
    ///
    /// Floats are stored as exact bit patterns (16 hex digits). Nothing a
    /// build produces is stored — no partitioning, region, edge or counter.
    pub fn to_text(&self) -> String {
        let mut body = format!(
            "fp {:016x} {:016x} {:016x}\n",
            self.table_fp_r, self.table_fp_t, self.config_fp
        );
        for m in &self.memos {
            write_key(&mut body, m);
        }
        persist::seal(MAGIC, PLAN_VERSION, &body)
    }

    /// Reads a plan file's bytes and rebuilds the plan they name against
    /// `r`, `t` and `exec` — the inputs the caller is about to serve. In
    /// order: the frame ([`persist::open`]: UTF-8, version, checksum —
    /// [`PlanError::Corrupt`] or [`PlanError::Version`]), the fingerprints
    /// (any mismatch is [`PlanError::Stale`]), every memo key (`Corrupt` if
    /// one could not have come from these tables), and only then the
    /// build: [`Self::build`]'s partitionings and one cold group build per
    /// key, exactly what [`Self::memoize`] runs. So a loaded plan is what
    /// this build produces from these inputs, whatever build wrote the file.
    pub fn from_text<B: AsRef<[u8]> + ?Sized>(
        text: &B,
        r: &Table,
        t: &Table,
        exec: &ExecConfig,
    ) -> Result<Self, PlanError> {
        let mut lines = persist::open(text.as_ref(), MAGIC, PLAN_VERSION)?;
        let mut f = tagged(lines.next(), "fp")?;
        let current = fingerprints(r, t, exec);
        for (what, found) in current {
            let expected = f.hex64()?;
            if expected != found {
                return Err(PlanError::Stale {
                    what,
                    expected,
                    found,
                });
            }
        }
        f.end()?;
        let mut keys = Vec::new();
        while let Some(line) = lines.next() {
            keys.push(read_key(line, &mut lines, r, t)?);
        }
        let mut plan = Self::partition(current, r, t, exec);
        for key in keys {
            plan.memoize_group(exec, key);
        }
        Ok(plan)
    }

    /// Writes the plan to `path` through the crash-safe writer it shares
    /// with the serving snapshot ([`persist::write_atomic`]): a crash at
    /// any point leaves either the old plan or the new one, never a torn
    /// file.
    pub fn save(&self, path: &Path) -> Result<(), PlanError> {
        persist::write_atomic(path, self.to_text().as_bytes())
            .map_err(|e| PlanError::Io(e.to_string()))
    }

    /// Loads the plan file at `path` ([`Self::from_text`]). Every failure
    /// is typed; callers are expected to fall back to a cold build on any
    /// `Err`.
    pub fn load(path: &Path, r: &Table, t: &Table, exec: &ExecConfig) -> Result<Self, PlanError> {
        let bytes = fs::read(path).map_err(|e| PlanError::Io(e.to_string()))?;
        Self::from_text(&bytes, r, t, exec)
    }
}

fn write_key(out: &mut String, m: &GroupMemo) {
    let _ = writeln!(
        out,
        "memo {} {} {} {} {}",
        m.join_col,
        u8::from(m.coarse_pruning),
        u8::from(m.build_dg),
        u8::from(m.keep_empty),
        m.mapping.fns().len()
    );
    for f in m.mapping.fns() {
        out.push_str("fn");
        for weights in [&f.weights_r, &f.weights_t] {
            let _ = write!(out, " {}", weights.len());
            for w in weights {
                let _ = write!(out, " {:016x}", w.to_bits());
            }
        }
        let _ = writeln!(out, " {:016x}", f.offset.to_bits());
    }
    let _ = write!(out, "queries {}", m.queries.len());
    for (q, pref) in &m.queries {
        let _ = write!(out, " {} {}", q.0, pref.0);
    }
    out.push('\n');
}

/// A cursor over `line` past its leading `tag`; a missing line or another
/// tag is corruption.
fn tagged<'a>(line: Option<&'a str>, tag: &str) -> Result<Fields<'a>, PlanError> {
    let line = line.ok_or_else(|| corrupt(format!("file ends before its {tag:?} line")))?;
    let mut f = Fields::new(line);
    if f.word()? != tag {
        return Err(corrupt(format!("expected a {tag:?} line, got {line:?}")));
    }
    Ok(f)
}

/// Reads the key that starts at the `memo` line `head` and checks it
/// against the tables, so that building under it cannot panic: the file's
/// checksum vouches for its bytes, not for the sanity of whoever sealed it.
fn read_key<'a>(
    head: &'a str,
    lines: &mut impl Iterator<Item = &'a str>,
    r: &Table,
    t: &Table,
) -> Result<GroupKey, PlanError> {
    let mut f = tagged(Some(head), "memo")?;
    let join_col: usize = f.uint()?;
    let (coarse_pruning, build_dg, keep_empty) = (f.flag()?, f.flag()?, f.flag()?);
    let nfns: usize = f.uint()?;
    f.end()?;
    if join_col >= r.join_cols().min(t.join_cols()) {
        return Err(corrupt(format!("no join column {join_col} in the tables")));
    }
    if !(1..=MAX_DIMS).contains(&nfns) {
        return Err(corrupt(format!("a mapping of {nfns} functions")));
    }

    let mut fns = Vec::with_capacity(nfns);
    for _ in 0..nfns {
        let mut f = tagged(lines.next(), "fn")?;
        let mut side = |dims: usize| -> Result<Vec<f64>, PlanError> {
            if f.uint::<usize>()? != dims {
                return Err(corrupt("mapping arity differs from the tables'"));
            }
            (0..dims).map(|_| Ok(f.f64_bits()?)).collect()
        };
        let (weights_r, weights_t) = (side(r.dims())?, side(t.dims())?);
        let offset = f.f64_bits()?;
        f.end()?;
        // What `MappingFn::new` asserts, as a typed error.
        let weights = weights_r.iter().chain(&weights_t);
        if !offset.is_finite() || weights.into_iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(corrupt(
                "mapping weights must be finite and non-negative, the offset finite",
            ));
        }
        fns.push(MappingFn::new(weights_r, weights_t, offset));
    }

    let mut f = tagged(lines.next(), "queries")?;
    let nqueries: usize = f.uint()?;
    let mut queries = Vec::new();
    let (mut ids, mut dims) = (0u64, DimMask::EMPTY);
    for _ in 0..nqueries {
        let (q, pref): (u16, u32) = (f.uint()?, f.uint()?);
        let pref = DimMask(pref);
        // The limits of `QuerySet` and of the min-max cuboid, as typed errors.
        if q >= 64 || ids & (1 << q) != 0 {
            return Err(corrupt(format!("query id {q} repeated or out of range")));
        }
        if pref.is_empty() || !pref.is_subset_of(DimMask::full(nfns)) {
            return Err(corrupt(format!("preference {pref} outside the mapping")));
        }
        ids |= 1 << q;
        dims = dims.union(pref);
        queries.push((QueryId(q), pref));
    }
    f.end()?;
    if queries.is_empty() || dims.len() > 16 {
        return Err(corrupt("a group needs a query, and at most 16 dimensions"));
    }

    Ok(GroupKey {
        join_col,
        mapping: MappingSet::new(fns),
        queries,
        coarse_pruning,
        build_dg,
        keep_empty,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{QuerySpec, WorkloadBuilder};
    use caqe_contract::Contract;
    use caqe_data::{Distribution, TableGenerator};

    fn fixture() -> (Table, Table, Workload, ExecConfig) {
        let gen =
            TableGenerator::new(300, 2, Distribution::Independent).with_selectivities(&[0.1, 0.1]);
        let r = gen.generate("R");
        let t = gen.generate("T");
        let w = WorkloadBuilder::new()
            .query(QuerySpec {
                join_col: 0,
                mapping: MappingSet::concat(2, 2),
                pref: DimMask::from_dims([0, 1]),
                priority: 0.5,
                contract: Contract::LogDecay,
            })
            .query(QuerySpec {
                join_col: 1,
                mapping: MappingSet::concat(2, 2),
                pref: DimMask::from_dims([1, 2]),
                priority: 0.5,
                contract: Contract::LogDecay,
            })
            .query(QuerySpec {
                join_col: 0,
                mapping: MappingSet::concat(2, 2),
                pref: DimMask::from_dims([2, 3]),
                priority: 0.5,
                contract: Contract::LogDecay,
            })
            .build();
        let exec = ExecConfig::default().with_target_cells(300, 4);
        (r, t, w, exec)
    }

    fn built_plan() -> (Table, Table, Workload, ExecConfig, PreparedPlan) {
        let (r, t, w, exec) = fixture();
        let mut plan = PreparedPlan::build(&r, &t, &exec);
        plan.memoize(&w, &exec, true, true, false);
        (r, t, w, exec, plan)
    }

    #[test]
    fn fingerprints_track_content() {
        let (r, t, _, exec) = fixture();
        assert_ne!(table_fingerprint(&r), table_fingerprint(&t));
        let mut recs = r.records().to_vec();
        recs[0].vals[0] += 1.0;
        let r2 = Table::new(r.name(), r.dims(), r.join_cols(), recs);
        assert_ne!(table_fingerprint(&r), table_fingerprint(&r2));
        let mut exec2 = exec;
        exec2.quadtree.max_leaf_size += 1;
        assert_ne!(config_fingerprint(&exec), config_fingerprint(&exec2));
        let mut exec3 = exec;
        exec3.cost_model.sort_cmp += 0.5;
        assert_ne!(config_fingerprint(&exec), config_fingerprint(&exec3));
    }

    #[test]
    fn memoize_is_idempotent_and_grouped() {
        let (_, _, w, exec, plan) = {
            let (r, t, w, exec, plan) = built_plan();
            drop((r, t));
            ((), (), w, exec, plan)
        };
        // Two join columns -> two groups -> two memos.
        assert_eq!(plan.memos.len(), 2);
        let mut plan = plan;
        plan.memoize(&w, &exec, true, true, false);
        assert_eq!(plan.memos.len(), 2, "re-memoizing must not duplicate");
        // A different toggle combination is a distinct key.
        plan.memoize(&w, &exec, true, true, true);
        assert_eq!(plan.memos.len(), 4);
    }

    #[test]
    fn load_rebuilds_exactly_what_was_saved() {
        let (r, t, w, exec, mut plan) = built_plan();
        // Session-mode memos too: same keys but for one flag.
        plan.memoize(&w, &exec, true, true, true);
        let text = plan.to_text();
        let back = PreparedPlan::from_text(&text, &r, &t, &exec).expect("round trip");
        assert_eq!(back, plan, "field for field, memo deltas included");
        assert_eq!(back.to_text(), text);
        // The file is the recipe only: four keys of four passthrough
        // mappings each, a few hundred bytes apiece whatever the build made.
        assert!(text.len() < 4096, "{} bytes", text.len());
        assert_eq!(text.lines().count(), 2 + plan.memos.len() * 6 + 1);
    }

    #[test]
    fn any_other_version_is_named_before_the_checksum_is_read() {
        let (r, t, _, exec, plan) = built_plan();
        // Older or newer, and with a body this build could not parse: the
        // answer is Version, not Corrupt.
        for other in [1, 9] {
            let text = format!("caqe-plan v{other}\npart r 1\nchecksum 0\n");
            match PreparedPlan::from_text(&text, &r, &t, &exec) {
                Err(PlanError::Version { found }) if found == other => {}
                got => panic!("expected Version {other}, got {got:?}"),
            }
        }
        let relabelled = plan.to_text().replacen("caqe-plan v2", "caqe-plan v3", 1);
        assert_eq!(
            PreparedPlan::from_text(&relabelled, &r, &t, &exec),
            Err(PlanError::Version { found: 3 })
        );
    }

    #[test]
    fn corruption_is_typed_and_total() {
        let (r, t, _, exec, plan) = built_plan();
        let text = plan.to_text();
        let corrupt = |bytes: &[u8]| {
            matches!(
                PreparedPlan::from_text(bytes, &r, &t, &exec),
                Err(PlanError::Corrupt(_))
            )
        };
        // A flipped low bit and a flipped high bit (no longer UTF-8) in the
        // middle of the body.
        let mid = text.len() / 2;
        for mask in [0x01, 0x80] {
            let mut flipped = text.clone().into_bytes();
            flipped[mid] ^= mask;
            assert!(corrupt(&flipped), "flip {mask:#04x}");
        }
        // Truncation before the checksum footer.
        let cut = text.rfind("checksum").expect("footer");
        assert!(corrupt(&text.as_bytes()[..cut]));
        // Empty file.
        assert!(corrupt(b""));
    }

    /// `plan`'s text with the first `from` replaced by `to`, sealed again —
    /// so only the schema can object.
    fn resealed(plan: &PreparedPlan, from: &str, to: &str) -> String {
        let text = plan.to_text();
        assert!(text.contains(from), "{from:?} not in the plan text");
        let body_start = text.find('\n').expect("header") + 1;
        let body_end = text.rfind("checksum ").expect("footer");
        let body = text[body_start..body_end].replacen(from, to, 1);
        persist::seal(MAGIC, PLAN_VERSION, &body)
    }

    #[test]
    fn a_key_these_tables_could_not_have_produced_is_corrupt_not_a_panic() {
        let (r, t, _, exec, plan) = built_plan();
        let one = format!("{:016x}", 1f64.to_bits());
        let minus_one = format!("{:016x}", (-1f64).to_bits());
        let nan = format!("{:016x}", f64::NAN.to_bits());
        for (from, to) in [
            ("memo 0 ", "memo 2 "),                             // no such join column
            ("memo 0 1 1 0 4", "memo 0 1 1 0 3"), // a `fn` line where `queries` is due
            ("memo 0 1 1 0 4", "memo 0 1 1 0 5"), // and the reverse
            ("memo 0 1 1 0 4", "memo 0 1 1 0 0"), // an empty mapping
            ("memo 0 1 1 0 4", "memo 0 1 2 0 4"), // a flag that is neither 0 nor 1
            ("fn 2 ", "fn 3 "),                   // arity other than the tables'
            (one.as_str(), minus_one.as_str()),   // a negative weight
            (one.as_str(), nan.as_str()),         // a NaN weight
            ("queries 2 0 3 2 12", "queries 2 0 3 0 12"), // a repeated query id
            ("queries 2 0 3 2 12", "queries 2 0 3 64 12"), // one past `QuerySet`
            ("queries 2 0 3 2 12", "queries 2 0 0 2 12"), // an empty preference
            ("queries 2 0 3 2 12", "queries 2 0 3 2 16"), // a dimension no fn makes
            ("queries 2 0 3 2 12", "queries 3 0 3 2 12"), // fewer pairs than promised
            ("queries 2 0 3 2 12", "queries 1 0 3 2 12"), // and more
            ("queries 2 0 3 2 12", "queries 0"),  // a group of nobody
            ("queries 2 0 3 2 12\n", "queries 2 0 3 2 12\n\n"), // a blank line
            ("fp ", "pf "),
        ] {
            let text = resealed(&plan, from, to);
            match PreparedPlan::from_text(&text, &r, &t, &exec) {
                Err(PlanError::Corrupt(why)) => assert!(!why.contains("checksum"), "{why}"),
                got => panic!("{from:?} -> {to:?}: expected Corrupt, got {got:?}"),
            }
        }
        // A key written twice is one memo; the rest of the file still counts.
        let memo = plan
            .to_text()
            .lines()
            .skip(2)
            .take(6)
            .fold(String::new(), |s, l| s + l + "\n");
        let doubled = resealed(&plan, &memo, &format!("{memo}{memo}"));
        let back = PreparedPlan::from_text(&doubled, &r, &t, &exec).expect("loads");
        assert_eq!(back, plan);
    }

    #[test]
    fn stale_inputs_are_rejected() {
        let (r, t, _, exec, plan) = built_plan();
        let text = plan.to_text();
        let mut recs = r.records().to_vec();
        recs[0].vals[0] += 1.0;
        let r2 = Table::new(r.name(), r.dims(), r.join_cols(), recs);
        match PreparedPlan::from_text(&text, &r2, &t, &exec) {
            Err(PlanError::Stale {
                what: "table R", ..
            }) => {}
            other => panic!("expected stale table R, got {other:?}"),
        }
        let mut exec2 = exec;
        exec2.quadtree.max_leaf_size += 1;
        match PreparedPlan::from_text(&text, &r, &t, &exec2) {
            Err(PlanError::Stale { what: "config", .. }) => {}
            other => panic!("expected stale config, got {other:?}"),
        }
    }

    #[test]
    fn save_and_load_round_trip() {
        let (r, t, _, exec, plan) = built_plan();
        let dir = std::env::temp_dir().join("caqe_plan_test");
        std::fs::create_dir_all(&dir).expect("tmpdir");
        let path = dir.join("plan.caqeplan");
        plan.save(&path).expect("save");
        let back = PreparedPlan::load(&path, &r, &t, &exec).expect("load");
        assert_eq!(back, plan);
        assert!(back.matches_inputs(&r, &t, &exec));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sibling_plans_save_apart_and_a_failed_save_leaves_nothing() {
        let (r, t, _, exec, plan) = built_plan();
        let dir = std::env::temp_dir().join(format!("caqe_plan_siblings_{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("tmpdir");
        // `a.v1` and `a.v2` used to share the temp file `a.plan.tmp`.
        for name in ["a.v1", "a.v2"] {
            plan.save(&dir.join(name)).expect("save");
        }
        for name in ["a.v1", "a.v2"] {
            let back = PreparedPlan::load(&dir.join(name), &r, &t, &exec).expect("load");
            assert_eq!(back, plan);
        }
        match plan.save(&dir.join("missing/a.v1")) {
            Err(PlanError::Io(_)) => {}
            other => panic!("expected an io error, got {other:?}"),
        }
        let mut left: Vec<_> = std::fs::read_dir(&dir)
            .expect("readable dir")
            .map(|e| e.expect("entry").file_name())
            .collect();
        left.sort();
        assert_eq!(left, ["a.v1", "a.v2"]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
