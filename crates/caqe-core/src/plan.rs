//! Versioned on-disk plan persistence and warm-start restore.
//!
//! Building the shared plan — quad-tree partitionings, output regions,
//! dependency graph, min-max cuboid — is the dominant cost of a cold
//! start, yet every piece of it is a pure function of the base tables,
//! the execution config and the workload's group keys. This module
//! memoizes that build into a [`PreparedPlan`] that can be written to a
//! compact versioned text format with the crash-safe discipline of the
//! serving snapshot (temp file, fsync, atomic rename) and read back on
//! restart, skipping the rebuild entirely.
//!
//! Correctness contract: a warm start must be *observationally
//! bit-identical* to a cold start. The memo therefore stores not just
//! the structures but the exact virtual-clock ticks and counter deltas
//! the cold build charged, and replay re-applies them together with the
//! same trace spans. Anything that cannot be proven current — a table
//! fingerprint mismatch, a config change, a corrupt or future-version
//! file — invalidates the whole plan and the engine silently falls back
//! to the cold path; there is never a partial apply.

use crate::config::ExecConfig;
use crate::group::{group_workload, open_group, GroupMemo};
use crate::workload::Workload;
use caqe_cuboid::MinMaxCuboid;
use caqe_data::Table;
use caqe_operators::{MappingFn, MappingSet};
use caqe_partition::Partitioning;
use caqe_regions::depgraph::Edge;
use caqe_regions::{OutputRegion, RegionSet};
use caqe_trace::NoopSink;
use caqe_types::ids::QuerySet;
use caqe_types::{
    f64_hex, parse_f64_hex, CellId, DimMask, Fnv1a, QueryId, Rect, RegionId, SimClock, Stats,
};
use std::fmt;
use std::fs;
use std::path::Path;

/// On-disk format version this build writes and the highest it can read.
pub const PLAN_VERSION: u64 = 1;

/// The presort section of every v1 file: an empty cache. Written verbatim
/// so plan files stay byte-identical with those of earlier builds.
const EMPTY_PRESORT_SECTION: &str = "presort 1\npresortcache 0\n";

/// Why a persisted plan could not be used. Every variant is total: the
/// caller falls back to a cold rebuild, never to a partially applied plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanError {
    /// The file could not be read or written.
    Io(String),
    /// The file exists but its contents are not a well-formed plan
    /// (bad checksum, truncation, malformed section).
    Corrupt(String),
    /// The file declares a format version newer than this build supports.
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
                "plan format v{found} is newer than supported v{PLAN_VERSION}"
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
/// once (cold), persisted, and consumed by the engine's warm path.
#[derive(Debug, Clone)]
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
    /// Per-group build memos (regions, threats, tick/counter deltas).
    pub memos: Vec<GroupMemo>,
}

impl PreparedPlan {
    /// Builds the table-level plan state (partitionings + fingerprints).
    /// Group memos are added per workload via [`Self::memoize`].
    pub fn build(r: &Table, t: &Table, exec: &ExecConfig) -> Self {
        PreparedPlan {
            table_fp_r: table_fingerprint(r),
            table_fp_t: table_fingerprint(t),
            config_fp: config_fingerprint(exec),
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
            let queries: Vec<(QueryId, DimMask)> = members
                .iter()
                .map(|&q| (q, workload.query(q).pref))
                .collect();
            if self
                .find_memo(
                    join_col,
                    &mapping,
                    &queries,
                    coarse_pruning,
                    build_dg,
                    keep_empty,
                )
                .is_some()
            {
                continue;
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
                mapping.clone(),
                queries.clone(),
                &mut clock,
                &mut stats,
                &mut NoopSink,
            );
            let prefs: Vec<DimMask> = queries.iter().map(|(_, m)| *m).collect();
            debug_assert!(
                stats.per_query.is_empty(),
                "group builds must not touch per-query stats"
            );
            let region_ids = (0..group.regions.len()).map(|i| RegionId(i as u32));
            self.memos.push(GroupMemo {
                join_col,
                mapping,
                queries,
                coarse_pruning,
                build_dg,
                keep_empty,
                regions: group.regions,
                threats_in: region_ids
                    .map(|r| group.dg.threats_in(r).to_vec())
                    .collect(),
                cuboid_digest: MinMaxCuboid::build(&prefs).structure_digest(),
                ticks: clock.ticks(),
                stats,
            });
        }
    }

    /// The memo matching a group key, if any.
    pub fn find_memo(
        &self,
        join_col: usize,
        mapping: &MappingSet,
        queries: &[(QueryId, DimMask)],
        coarse_pruning: bool,
        build_dg: bool,
        keep_empty: bool,
    ) -> Option<&GroupMemo> {
        self.memos.iter().find(|m| {
            m.matches(
                join_col,
                mapping,
                queries,
                coarse_pruning,
                build_dg,
                keep_empty,
            )
        })
    }

    // ------------------------------------------------------------------
    // On-disk format.
    // ------------------------------------------------------------------

    /// Serializes the plan to the versioned text format. Layout:
    ///
    /// ```text
    /// caqe-plan v1
    /// fp <r> <t> <config>            (all 016x)
    /// part r <ncells> / cell <n> <rows...>
    /// part t <ncells> / cell <n> <rows...>
    /// memos <n> / per memo: memo/mapping/fn*/queries/stats/regions/
    ///                        region*/threats/tin*
    /// presort 1 / presortcache 0    (fixed: the v1 presort section, always empty)
    /// checksum <016x>                (FNV-1a over every body line)
    /// ```
    ///
    /// Floats are stored as exact bit patterns (16 hex digits), so a
    /// round-trip is bit-identical, NaN payloads included.
    pub fn to_text(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!(
            "fp {:016x} {:016x} {:016x}\n",
            self.table_fp_r, self.table_fp_t, self.config_fp
        ));
        write_partitioning(&mut body, "r", &self.part_r);
        write_partitioning(&mut body, "t", &self.part_t);
        body.push_str(&format!("memos {}\n", self.memos.len()));
        for m in &self.memos {
            write_memo(&mut body, m);
        }
        body.push_str(EMPTY_PRESORT_SECTION);
        let mut h = Fnv1a::new();
        h.bytes(body.as_bytes());
        format!(
            "caqe-plan v{PLAN_VERSION}\n{body}checksum {:016x}\n",
            h.finish()
        )
    }

    /// Parses a plan back from its text form. The header version is
    /// examined *first* (so a future format is reported as
    /// [`PlanError::Version`], never mis-parsed as corruption), then the
    /// checksum is verified over the body, then the sections are parsed
    /// with full validation. `r` and `t` are the tables the caller wants
    /// to serve: the stored fingerprints must match them (else
    /// [`PlanError::Stale`]) and the partitionings are reconstructed
    /// from the persisted row lists against them.
    pub fn from_text(
        text: &str,
        r: &Table,
        t: &Table,
        exec: &ExecConfig,
    ) -> Result<Self, PlanError> {
        // 1. Version gate, before anything else is trusted.
        let mut first = text.lines();
        let header = first.next().ok_or_else(|| corrupt("empty file"))?;
        let version: u64 = header
            .strip_prefix("caqe-plan v")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| corrupt("missing plan header"))?;
        if version > PLAN_VERSION {
            return Err(PlanError::Version { found: version });
        }

        // 2. Checksum over the body (everything between header and the
        //    trailing checksum line).
        let lines: Vec<&str> = text.lines().collect();
        let last = *lines.last().ok_or_else(|| corrupt("empty file"))?;
        let stored = last
            .strip_prefix("checksum ")
            .ok_or_else(|| corrupt("missing checksum footer"))?;
        let stored = u64::from_str_radix(stored, 16).map_err(|_| corrupt("malformed checksum"))?;
        let body = &lines[1..lines.len() - 1];
        let mut h = Fnv1a::new();
        for line in body {
            h.bytes(line.as_bytes());
            h.bytes(b"\n");
        }
        if h.finish() != stored {
            return Err(corrupt("checksum mismatch"));
        }

        // 3. Sections.
        let mut it = body.iter().copied();
        let fp = fields(
            it.next().ok_or_else(|| corrupt("missing fp line"))?,
            "fp",
            3,
        )?;
        let table_fp_r = parse_hex64(fp[0])?;
        let table_fp_t = parse_hex64(fp[1])?;
        let config_fp = parse_hex64(fp[2])?;
        // Staleness: the plan must have been built from exactly the
        // inputs the caller is about to serve.
        check_stale("config", config_fp, config_fingerprint(exec))?;
        check_stale("table R", table_fp_r, table_fingerprint(r))?;
        check_stale("table T", table_fp_t, table_fingerprint(t))?;

        let part_r = read_partitioning(&mut it, "r", r)?;
        let part_t = read_partitioning(&mut it, "t", t)?;

        let nmemos = parse_count(
            it.next().ok_or_else(|| corrupt("missing memos line"))?,
            "memos",
        )?;
        let mut memos = Vec::with_capacity(nmemos);
        for _ in 0..nmemos {
            memos.push(read_memo(&mut it)?);
        }

        // The v1 presort section: no build ever filled it, so the only
        // well-formed content is the empty cache, spelled exactly.
        for want in EMPTY_PRESORT_SECTION.lines() {
            if it.next() != Some(want) {
                return Err(corrupt(format!("expected {want:?} line")));
            }
        }
        if it.next().is_some() {
            return Err(corrupt("trailing data after presort section"));
        }

        Ok(PreparedPlan {
            table_fp_r,
            table_fp_t,
            config_fp,
            part_r,
            part_t,
            memos,
        })
    }

    /// Writes the plan to `path` through the crash-safe writer it shares
    /// with the serving snapshot ([`caqe_types::persist::write_atomic`]):
    /// a crash at any point leaves either the old plan or the new one,
    /// never a torn file.
    pub fn save(&self, path: &Path) -> Result<(), PlanError> {
        caqe_types::persist::write_atomic(path, self.to_text().as_bytes())
            .map_err(|e| PlanError::Io(e.to_string()))
    }

    /// Loads a plan from `path` and validates it against the current
    /// inputs. Every failure is typed; callers are expected to fall back
    /// to a cold build on any `Err`.
    pub fn load(path: &Path, r: &Table, t: &Table, exec: &ExecConfig) -> Result<Self, PlanError> {
        let text = fs::read_to_string(path).map_err(|e| PlanError::Io(e.to_string()))?;
        Self::from_text(&text, r, t, exec)
    }
}

fn check_stale(what: &'static str, expected: u64, found: u64) -> Result<(), PlanError> {
    if expected != found {
        return Err(PlanError::Stale {
            what,
            expected,
            found,
        });
    }
    Ok(())
}

// ----------------------------------------------------------------------
// Section writers.
// ----------------------------------------------------------------------

fn write_partitioning(out: &mut String, tag: &str, part: &Partitioning) {
    out.push_str(&format!("part {tag} {}\n", part.len()));
    for cell in part.cells() {
        out.push_str(&format!("cell {}", cell.rows.len()));
        for &row in &cell.rows {
            out.push_str(&format!(" {row}"));
        }
        out.push('\n');
    }
}

fn write_memo(out: &mut String, m: &GroupMemo) {
    out.push_str(&format!(
        "memo {} {} {} {} {} {:016x}\n",
        m.join_col,
        u8::from(m.coarse_pruning),
        u8::from(m.build_dg),
        u8::from(m.keep_empty),
        m.ticks,
        m.cuboid_digest
    ));
    out.push_str(&format!("mapping {}\n", m.mapping.fns().len()));
    for f in m.mapping.fns() {
        out.push_str(&format!("fn {}", f.weights_r.len()));
        for &w in &f.weights_r {
            out.push_str(&format!(" {}", f64_hex(w)));
        }
        out.push_str(&format!(" {}", f.weights_t.len()));
        for &w in &f.weights_t {
            out.push_str(&format!(" {}", f64_hex(w)));
        }
        out.push_str(&format!(" {}\n", f64_hex(f.offset)));
    }
    out.push_str(&format!("queries {}", m.queries.len()));
    for (q, mask) in &m.queries {
        out.push_str(&format!(" {}:{}", q.0, mask.0));
    }
    out.push('\n');
    let counters: Vec<(&str, u64)> = m
        .stats
        .counters()
        .into_iter()
        .filter(|(_, v)| *v != 0)
        .collect();
    out.push_str(&format!("stats {}", counters.len()));
    for (name, v) in counters {
        out.push_str(&format!(" {name}={v}"));
    }
    out.push('\n');
    let dims = m.regions.regions().first().map_or(0, |r| r.bounds.dims());
    out.push_str(&format!("regions {} {dims}\n", m.regions.len()));
    for reg in m.regions.regions() {
        out.push_str(&format!(
            "region {} {} {} {} {} {} {:016x}",
            reg.id.0,
            reg.r_cell.0,
            reg.t_cell.0,
            reg.n_r,
            reg.n_t,
            f64_hex(reg.est_join),
            reg.serving.0
        ));
        for &v in reg.bounds.lo() {
            out.push_str(&format!(" {}", f64_hex(v)));
        }
        for &v in reg.bounds.hi() {
            out.push_str(&format!(" {}", f64_hex(v)));
        }
        out.push('\n');
    }
    out.push_str(&format!("threats {}\n", m.threats_in.len()));
    for edges in &m.threats_in {
        out.push_str(&format!("tin {}", edges.len()));
        for e in edges {
            out.push_str(&format!(" {}:{:016x}", e.peer.0, e.queries.0));
        }
        out.push('\n');
    }
}

// ----------------------------------------------------------------------
// Section readers. Every parse failure is a typed `Corrupt`.
// ----------------------------------------------------------------------

fn parse_hex64(s: &str) -> Result<u64, PlanError> {
    u64::from_str_radix(s, 16).map_err(|_| corrupt(format!("bad hex field {s:?}")))
}

fn parse_dec<T: std::str::FromStr>(s: &str) -> Result<T, PlanError> {
    s.parse()
        .map_err(|_| corrupt(format!("bad numeric field {s:?}")))
}

fn parse_float(s: &str) -> Result<f64, PlanError> {
    parse_f64_hex(s).ok_or_else(|| corrupt(format!("bad float field {s:?}")))
}

/// Splits a line into fields after checking its tag; `want` counts the
/// fields after the tag (`usize::MAX` = variable).
fn fields<'a>(line: &'a str, tag: &str, want: usize) -> Result<Vec<&'a str>, PlanError> {
    let mut parts = line.split_whitespace();
    if parts.next() != Some(tag) {
        return Err(corrupt(format!("expected {tag:?} line, got {line:?}")));
    }
    let rest: Vec<&str> = parts.collect();
    if want != usize::MAX && rest.len() != want {
        return Err(corrupt(format!(
            "{tag:?} line has {} fields, expected {want}",
            rest.len()
        )));
    }
    Ok(rest)
}

fn parse_count(line: &str, tag: &str) -> Result<usize, PlanError> {
    let f = fields(line, tag, 1)?;
    parse_dec(f[0])
}

fn read_partitioning<'a>(
    it: &mut impl Iterator<Item = &'a str>,
    tag: &str,
    table: &Table,
) -> Result<Partitioning, PlanError> {
    let head = fields(
        it.next().ok_or_else(|| corrupt("missing part section"))?,
        "part",
        2,
    )?;
    if head[0] != tag {
        return Err(corrupt(format!(
            "expected part {tag}, got part {}",
            head[0]
        )));
    }
    let ncells: usize = parse_dec(head[1])?;
    let mut cell_rows = Vec::with_capacity(ncells);
    for _ in 0..ncells {
        let f = fields(
            it.next().ok_or_else(|| corrupt("truncated part section"))?,
            "cell",
            usize::MAX,
        )?;
        let n: usize = parse_dec(
            f.first()
                .copied()
                .ok_or_else(|| corrupt("empty cell line"))?,
        )?;
        if f.len() != n + 1 {
            return Err(corrupt("cell row count mismatch"));
        }
        let rows: Result<Vec<usize>, _> = f[1..].iter().map(|s| parse_dec(s)).collect();
        cell_rows.push(rows?);
    }
    Partitioning::from_cell_rows(table, cell_rows).map_err(corrupt)
}

fn read_memo<'a>(it: &mut impl Iterator<Item = &'a str>) -> Result<GroupMemo, PlanError> {
    let head = fields(
        it.next().ok_or_else(|| corrupt("missing memo line"))?,
        "memo",
        6,
    )?;
    let join_col: usize = parse_dec(head[0])?;
    let coarse_pruning = parse_flag(head[1])?;
    let build_dg = parse_flag(head[2])?;
    let keep_empty = parse_flag(head[3])?;
    let ticks: u64 = parse_dec(head[4])?;
    let cuboid_digest = parse_hex64(head[5])?;

    let nfns = parse_count(
        it.next().ok_or_else(|| corrupt("missing mapping line"))?,
        "mapping",
    )?;
    let mut fns = Vec::with_capacity(nfns);
    for _ in 0..nfns {
        let f = fields(
            it.next()
                .ok_or_else(|| corrupt("truncated mapping section"))?,
            "fn",
            usize::MAX,
        )?;
        let mut pos = 0usize;
        let take = |f: &[&str], pos: &mut usize, n: usize| -> Result<Vec<f64>, PlanError> {
            let end = pos.checked_add(n).filter(|&e| e <= f.len());
            let end = end.ok_or_else(|| corrupt("fn line truncated"))?;
            let vals: Result<Vec<f64>, _> = f[*pos..end].iter().map(|s| parse_float(s)).collect();
            *pos = end;
            vals
        };
        let nr: usize = parse_dec(f.first().copied().ok_or_else(|| corrupt("empty fn line"))?)?;
        pos += 1;
        let weights_r = take(&f, &mut pos, nr)?;
        let nt: usize = parse_dec(
            f.get(pos)
                .copied()
                .ok_or_else(|| corrupt("fn line truncated"))?,
        )?;
        pos += 1;
        let weights_t = take(&f, &mut pos, nt)?;
        let offset = parse_float(
            f.get(pos)
                .copied()
                .ok_or_else(|| corrupt("fn line truncated"))?,
        )?;
        pos += 1;
        if pos != f.len() {
            return Err(corrupt("trailing fields on fn line"));
        }
        // What `MappingFn::new` asserts, as a typed error.
        let weights = weights_r.iter().chain(weights_t.iter());
        if !offset.is_finite() || weights.into_iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(corrupt(
                "mapping weights must be finite and non-negative, the offset finite",
            ));
        }
        fns.push(MappingFn::new(weights_r, weights_t, offset));
    }
    if fns.is_empty() {
        return Err(corrupt("memo mapping has no functions"));
    }
    let mapping = MappingSet::new(fns);

    let qf = fields(
        it.next().ok_or_else(|| corrupt("missing queries line"))?,
        "queries",
        usize::MAX,
    )?;
    let nq: usize = parse_dec(
        qf.first()
            .copied()
            .ok_or_else(|| corrupt("empty queries line"))?,
    )?;
    if qf.len() != nq + 1 {
        return Err(corrupt("queries count mismatch"));
    }
    let mut queries = Vec::with_capacity(nq);
    for tok in &qf[1..] {
        let (q, mask) = tok
            .split_once(':')
            .ok_or_else(|| corrupt("malformed query token"))?;
        let q: u16 = parse_dec(q)?;
        let mask: u32 = parse_dec(mask)?;
        queries.push((QueryId(q), DimMask(mask)));
    }

    let sf = fields(
        it.next().ok_or_else(|| corrupt("missing stats line"))?,
        "stats",
        usize::MAX,
    )?;
    let nc: usize = parse_dec(
        sf.first()
            .copied()
            .ok_or_else(|| corrupt("empty stats line"))?,
    )?;
    if sf.len() != nc + 1 {
        return Err(corrupt("stats count mismatch"));
    }
    let mut stats = Stats::new();
    for tok in &sf[1..] {
        let (name, v) = tok
            .split_once('=')
            .ok_or_else(|| corrupt("malformed stat token"))?;
        let v: u64 = parse_dec(v)?;
        if !stats.set_counter(name, v) {
            return Err(corrupt(format!("unknown stat counter {name:?}")));
        }
    }

    let rf = fields(
        it.next().ok_or_else(|| corrupt("missing regions line"))?,
        "regions",
        2,
    )?;
    let nregions: usize = parse_dec(rf[0])?;
    let dims: usize = parse_dec(rf[1])?;
    let mut regions = Vec::with_capacity(nregions);
    for i in 0..nregions {
        let f = fields(
            it.next()
                .ok_or_else(|| corrupt("truncated regions section"))?,
            "region",
            7 + 2 * dims,
        )?;
        let id: u32 = parse_dec(f[0])?;
        if id as usize != i {
            return Err(corrupt("region ids must be dense and ordered"));
        }
        let r_cell: u32 = parse_dec(f[1])?;
        let t_cell: u32 = parse_dec(f[2])?;
        let n_r: usize = parse_dec(f[3])?;
        let n_t: usize = parse_dec(f[4])?;
        let est_join = parse_float(f[5])?;
        let serving = parse_hex64(f[6])?;
        let lo: Result<Vec<f64>, _> = f[7..7 + dims].iter().map(|s| parse_float(s)).collect();
        let hi: Result<Vec<f64>, _> = f[7 + dims..7 + 2 * dims]
            .iter()
            .map(|s| parse_float(s))
            .collect();
        let (lo, hi) = (lo?, hi?);
        // Pre-validate: `Rect::new` panics on inverted or NaN corners.
        if lo
            .iter()
            .zip(&hi)
            .any(|(l, h)| l.is_nan() || h.is_nan() || l > h)
        {
            return Err(corrupt("region bounds are not a valid box"));
        }
        regions.push(OutputRegion::new(
            RegionId(id),
            CellId(r_cell),
            CellId(t_cell),
            Rect::new(lo, hi),
            n_r,
            n_t,
            est_join,
            QuerySet(serving),
        ));
    }
    let region_set = RegionSet::new(regions, queries.clone());

    let nt = parse_count(
        it.next().ok_or_else(|| corrupt("missing threats line"))?,
        "threats",
    )?;
    if nt != nregions {
        return Err(corrupt("threat row count != region count"));
    }
    let mut threats_in = Vec::with_capacity(nt);
    for _ in 0..nt {
        let f = fields(
            it.next()
                .ok_or_else(|| corrupt("truncated threats section"))?,
            "tin",
            usize::MAX,
        )?;
        let ne: usize = parse_dec(
            f.first()
                .copied()
                .ok_or_else(|| corrupt("empty tin line"))?,
        )?;
        if f.len() != ne + 1 {
            return Err(corrupt("tin edge count mismatch"));
        }
        let mut edges = Vec::with_capacity(ne);
        for tok in &f[1..] {
            let (peer, qs) = tok
                .split_once(':')
                .ok_or_else(|| corrupt("malformed edge token"))?;
            let peer: u32 = parse_dec(peer)?;
            if peer as usize >= nregions {
                return Err(corrupt("edge peer out of range"));
            }
            edges.push(Edge {
                peer: RegionId(peer),
                queries: QuerySet(parse_hex64(qs)?),
            });
        }
        threats_in.push(edges);
    }

    // Cross-check: the min-max cuboid is a pure function of the stored
    // preferences; its structural digest must match what the cold build
    // recorded, or the queries section does not describe the plan that
    // was memoized.
    let prefs: Vec<DimMask> = queries.iter().map(|(_, m)| *m).collect();
    if MinMaxCuboid::build(&prefs).structure_digest() != cuboid_digest {
        return Err(corrupt("cuboid digest mismatch"));
    }

    Ok(GroupMemo {
        join_col,
        mapping,
        queries,
        coarse_pruning,
        build_dg,
        keep_empty,
        regions: region_set,
        threats_in,
        cuboid_digest,
        ticks,
        stats,
    })
}

fn parse_flag(s: &str) -> Result<bool, PlanError> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(corrupt(format!("bad flag field {s:?}"))),
    }
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
    fn text_round_trip_is_exact() {
        let (r, t, _, exec, plan) = built_plan();
        let text = plan.to_text();
        let back = PreparedPlan::from_text(&text, &r, &t, &exec).expect("round trip");
        assert_eq!(back.table_fp_r, plan.table_fp_r);
        assert_eq!(back.part_r, plan.part_r);
        assert_eq!(back.part_t, plan.part_t);
        assert_eq!(back.memos.len(), plan.memos.len());
        for (a, b) in plan.memos.iter().zip(&back.memos) {
            assert_eq!(a.join_col, b.join_col);
            assert_eq!(a.mapping, b.mapping);
            assert_eq!(a.queries, b.queries);
            assert_eq!(a.regions, b.regions);
            assert_eq!(a.threats_in, b.threats_in);
            assert_eq!(a.ticks, b.ticks);
            assert_eq!(a.cuboid_digest, b.cuboid_digest);
            assert_eq!(a.stats.counters(), b.stats.counters());
        }
        // Serialization itself is deterministic.
        assert_eq!(text, back.to_text());
    }

    #[test]
    fn version_gate_beats_checksum() {
        let (r, t, _, exec, plan) = built_plan();
        // A future version with a completely different body layout must
        // be reported as Version, not Corrupt.
        let future = plan.to_text().replacen("caqe-plan v1", "caqe-plan v9", 1);
        match PreparedPlan::from_text(&future, &r, &t, &exec) {
            Err(PlanError::Version { found: 9 }) => {}
            other => panic!("expected Version error, got {other:?}"),
        }
    }

    #[test]
    fn corruption_is_typed_and_total() {
        let (r, t, _, exec, plan) = built_plan();
        let text = plan.to_text();
        // Bit flip in the middle of the body.
        let mid = text.len() / 2;
        let mut flipped = text.clone().into_bytes();
        flipped[mid] = if flipped[mid] == b'0' { b'1' } else { b'0' };
        let flipped = String::from_utf8(flipped).expect("ascii");
        assert!(matches!(
            PreparedPlan::from_text(&flipped, &r, &t, &exec),
            Err(PlanError::Corrupt(_))
        ));
        // Truncation before the checksum footer.
        let cut = text.rfind("checksum").expect("footer");
        assert!(matches!(
            PreparedPlan::from_text(&text[..cut], &r, &t, &exec),
            Err(PlanError::Corrupt(_))
        ));
        // Empty file.
        assert!(matches!(
            PreparedPlan::from_text("", &r, &t, &exec),
            Err(PlanError::Corrupt(_))
        ));
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
        assert_eq!(back.to_text(), plan.to_text());
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
            assert_eq!(back.to_text(), plan.to_text());
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
