//! The paper's evaluation (§7) as the markdown EXPERIMENTS.md embeds.
//!
//! Six sections — Table 2, Figures 9–11, the §7.1 scaling sweep and the
//! component ablation — each render one block that the `paper` driver
//! prints between `<!-- paper:<section> -->` / `<!-- /paper:<section> -->`
//! markers. EXPERIMENTS.md holds the driver's output byte for byte and CI
//! diffs the two. Every cell is an [`ExperimentConfig`] at the paper's
//! scale and every number is virtual, so the blocks are deterministic.

use crate::experiment::{run_comparison, ComparisonRow, ExperimentConfig};
use caqe_baselines::all_strategies;
use caqe_contract::{Contract, EmissionCtx};
use caqe_core::{EngineConfig, EngineStrategy, ExecutionStrategy, SchedulingPolicy};
use caqe_data::{Distribution, ValidationPolicy};
use caqe_faults::FaultPlan;
use std::path::PathBuf;

/// What every section shares: where its runs export and the chaos plan
/// they run under.
#[derive(Debug, Clone)]
pub struct PaperOptions {
    /// Trace export root; a section exports under `<dir>/<section>/`.
    pub trace: Option<PathBuf>,
    /// Metrics-snapshot export root, laid out like `trace`.
    pub metrics: Option<PathBuf>,
    /// Fault plan of every run (inert by default).
    pub faults: FaultPlan,
    /// Ingestion validation policy of every run.
    pub validation: ValidationPolicy,
}

/// One section's markdown block (without its markers) and the rows it was
/// rendered from.
#[derive(Debug, Clone)]
pub struct Section {
    /// The block EXPERIMENTS.md embeds.
    pub markdown: String,
    /// Every run's row, in run order (empty for Table 2).
    pub rows: Vec<ComparisonRow>,
}

type SectionFn = fn(&PaperOptions) -> Section;

/// The sections, in the order the driver prints them and EXPERIMENTS.md
/// holds them.
pub const SECTIONS: [(&str, SectionFn); 6] = [
    ("table2", table2),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("sweep", sweep),
    ("ablation", ablation),
];

/// A section's block wrapped in its markers, each on a line of its own
/// between blank lines.
pub fn marked(name: &str, markdown: &str) -> String {
    let markdown = markdown.trim_end();
    format!("<!-- paper:{name} -->\n\n{markdown}\n\n<!-- /paper:{name} -->\n")
}

/// One experimental cell: a label and the rows of every system run on it.
type Cell = (String, Vec<ComparisonRow>);

impl PaperOptions {
    fn cell(&self, distribution: Distribution, contract_id: usize) -> ExperimentConfig {
        ExperimentConfig {
            faults: self.faults,
            validation: self.validation,
            ..ExperimentConfig::new(distribution, contract_id)
        }
    }

    /// The cell `label`: `systems` run on `cfg`, exporting under
    /// `<dir>/<path>`.
    fn run(
        &self,
        label: String,
        path: &str,
        cfg: &ExperimentConfig,
        systems: &[Box<dyn ExecutionStrategy>],
    ) -> Cell {
        let trace = self.trace.as_ref().map(|d| d.join(path));
        let metrics = self.metrics.as_ref().map(|d| d.join(path));
        let rows = run_comparison(cfg, systems, trace.as_deref(), metrics.as_deref());
        (label, rows)
    }
}

fn section(markdown: String, cells: Vec<Cell>) -> Section {
    let rows: Vec<ComparisonRow> = cells.into_iter().flat_map(|(_, rows)| rows).collect();
    let markdown = match degradation(&rows) {
        Some(line) => format!("{markdown}\n{line}\n"),
        None => markdown,
    };
    Section { markdown, rows }
}

/// Table 2: each contract's utility over a time grid, the shapes of
/// Figures 2–3.
fn table2(_: &PaperOptions) -> Section {
    let (t_param, interval, est_total) = (10.0, 1.0, 100.0);
    let lines = [1.0, 2.0, 5.0, 8.0, 10.0, 12.0, 20.0, 50.0, 100.0].map(|ts: f64| {
        // The k-th result of a steady reporter producing one per interval.
        let ctx = EmissionCtx::new(ts, (ts / interval).ceil().max(1.0) as u64, est_total);
        let utility = |id| Contract::table2(id, t_param, interval).utility(&ctx);
        let utilities = (1..=5).map(|id| format!("{:.3}", utility(id)));
        std::iter::once(format!("{ts}")).chain(utilities).collect()
    });
    let markdown = format!(
        "Utility of the k-th result at virtual time ts, k = ⌈ts / interval⌉ \
         (t_C1 = t_C3 = {t_param} s, interval = {interval} s, N_est = {est_total}):\n\n{}",
        table(&["ts", "C1", "C2", "C3", "C4", "C5"], lines)
    );
    section(markdown, Vec::new())
}

/// Figure 9: average satisfaction under C1–C5, one panel per distribution.
fn fig9(opts: &PaperOptions) -> Section {
    let mut markdown = String::new();
    let mut all = Vec::new();
    for (panel, dist) in ["9.a", "9.b", "9.c"].into_iter().zip(Distribution::ALL) {
        // One calibration probe per panel, shared across contracts.
        let reference = opts.cell(dist, 1).reference_seconds();
        let cells: Vec<Cell> = (1..=5)
            .map(|contract| {
                let cfg = ExperimentConfig {
                    reference_secs: Some(reference),
                    ..opts.cell(dist, contract)
                };
                opts.run(format!("C{contract}"), "fig9", &cfg, &all_strategies())
            })
            .collect();
        markdown += &format!(
            "**{panel} {}** (N = {}), average satisfaction:\n\n{}\n",
            dist.label(),
            opts.cell(dist, 1).n,
            satisfaction_pivot("contract", &cells)
        );
        all.extend(cells);
    }
    section(markdown, all)
}

/// Figure 10: join results, dominance comparisons and virtual time under
/// C2 for every distribution.
fn fig10(opts: &PaperOptions) -> Section {
    let cells: Vec<Cell> = Distribution::ALL
        .into_iter()
        .map(|dist| {
            let cfg = opts.cell(dist, 2);
            opts.run(dist.label().into(), "fig10", &cfg, &all_strategies())
        })
        .collect();
    let markdown = format!(
        "C2, |S_Q| = 11; × is relative to CAQE on the same data:\n\n{}",
        resource_table("distribution", &cells)
    );
    section(markdown, cells)
}

/// Figure 11: average satisfaction as the workload grows, independent data,
/// C2 (11.a) and C3 (11.b).
fn fig11(opts: &PaperOptions) -> Section {
    let mut markdown = String::new();
    let mut all = Vec::new();
    for (panel, contract) in [("11.a", 2), ("11.b", 3)] {
        // The paper fixes the contract parameters across workload sizes:
        // calibrate once against the full-size workload and hold the
        // deadline constant as |S_Q| shrinks.
        let reference = opts
            .cell(Distribution::Independent, contract)
            .reference_seconds();
        let cells: Vec<Cell> = [1, 3, 5, 7, 9, 11]
            .map(|size| {
                let cfg = ExperimentConfig {
                    workload_size: size,
                    reference_secs: Some(reference),
                    ..opts.cell(Distribution::Independent, contract)
                };
                opts.run(size.to_string(), "fig11", &cfg, &all_strategies())
            })
            .into();
        // The paper's headline: each system's relative drop from |S_Q| = 1
        // to |S_Q| = 11.
        let (first, last) = (&cells[0].1, &cells[cells.len() - 1].1);
        let drops = first.iter().zip(last).map(|(s1, s11)| {
            let (s1, s11) = (s1.avg_satisfaction, s11.avg_satisfaction);
            format!("{:.0}%", 100.0 * (s1 - s11) / s1.max(1e-9))
        });
        markdown += &format!(
            "**{panel} C{contract}**, average satisfaction:\n\n{}| drop 1 → 11 | {} |\n\n",
            satisfaction_pivot("\\|S_Q\\|", &cells),
            drops.collect::<Vec<_>>().join(" | ")
        );
        all.extend(cells);
    }
    section(markdown, all)
}

/// The §7.1 ranges: table cardinality N and join selectivity σ, independent
/// data under C2. Each point exports into its own subdirectory.
fn sweep(opts: &PaperOptions) -> Section {
    let base = opts.cell(Distribution::Independent, 2);
    let n_axis: Vec<Cell> = [500, 1000, 2000, 4000]
        .map(|n| {
            let cfg = ExperimentConfig { n, ..base.clone() };
            opts.run(
                n.to_string(),
                &format!("sweep/n{n}"),
                &cfg,
                &all_strategies(),
            )
        })
        .into();
    let sigma_axis: Vec<Cell> = [0.001, 0.01, 0.05, 0.1]
        .map(|sigma: f64| {
            let cfg = ExperimentConfig {
                n: 1500,
                sigma,
                ..base.clone()
            };
            let tag = sigma.to_string().replace('.', "p");
            let path = format!("sweep/sigma{tag}");
            opts.run(sigma.to_string(), &path, &cfg, &all_strategies())
        })
        .into();
    let markdown = format!(
        "**N** (σ = {}), × relative to CAQE at the same point:\n\n{}\n\
         **σ** (N = 1500), × relative to CAQE at the same point:\n\n{}",
        base.sigma,
        resource_table("N", &n_axis),
        resource_table("σ", &sigma_axis)
    );
    section(markdown, n_axis.into_iter().chain(sigma_axis).collect())
}

/// Full CAQE, then one variant per mechanism: the coarse look-ahead
/// (§5.2), the §6 discard, the row-level look-ahead, the Eq. 11 feedback,
/// the CSM ranking (replaced by ProgXe+'s count-per-cost, or by region-id
/// order), progressive emission, and sharing itself (`sequential`: full
/// CAQE run one query at a time in priority order on one clock).
fn variants() -> Vec<Box<dyn ExecutionStrategy>> {
    let variant = |name, off: fn(&mut EngineConfig)| {
        let mut engine = EngineConfig::caqe();
        off(&mut engine);
        Box::new(EngineStrategy {
            name,
            engine,
            one_at_a_time: false,
        }) as Box<dyn ExecutionStrategy>
    };
    vec![
        Box::new(EngineStrategy::CAQE),
        variant("no-lookahead", |e| e.coarse_pruning = false),
        variant("no-discard", |e| e.dominance_discard = false),
        variant("no-row-lookahead", |e| e.row_lookahead = false),
        variant("no-feedback", |e| e.feedback = false),
        variant("count-driven", |e| {
            (e.policy, e.feedback) = (SchedulingPolicy::CountDriven, false)
        }),
        variant("fifo", |e| {
            (e.policy, e.feedback) = (SchedulingPolicy::Fifo, false)
        }),
        variant("blocking", |e| e.progressive_emission = false),
        Box::new(EngineStrategy {
            name: "sequential",
            one_at_a_time: true,
            ..EngineStrategy::CAQE
        }),
    ]
}

/// The ablation: every variant on every distribution × contract cell.
fn ablation(opts: &PaperOptions) -> Section {
    let variants = variants();
    let cells: Vec<Cell> = Distribution::ALL
        .into_iter()
        .flat_map(|dist| (1..=5).map(move |contract| (dist, contract)))
        .map(|(dist, contract)| {
            let label = format!("{} C{contract}", dist.label());
            opts.run(label, "ablation", &opts.cell(dist, contract), &variants)
        })
        .collect();
    let deltas = pivot("cell", &cells, |row, line| {
        if std::ptr::eq(row, &line[0]) {
            format!("{:.3}", row.avg_satisfaction)
        } else {
            format!("{:+.3}", row.avg_satisfaction - line[0].avg_satisfaction)
        }
    });
    let resources = pivot("cell", &cells, |row, line| {
        if std::ptr::eq(row, &line[0]) {
            "—".to_string()
        } else {
            let [joins, comparisons, time] = factors(row, &line[0]);
            format!("{joins:.2} / {comparisons:.2} / {time:.2}")
        }
    });
    let markdown = format!(
        "|S_Q| = 11. Satisfaction of full CAQE, and each variant's Δ from it:\n\n{deltas}\n\
         Each variant's join results × / dominance comparisons × / virtual time × \
         relative to full CAQE:\n\n{resources}"
    );
    section(markdown, cells)
}

/// One line per cell, one column per system (in run order), each entry
/// rendered by `entry(row, line)`.
fn pivot(
    key_name: &str,
    cells: &[Cell],
    entry: impl Fn(&ComparisonRow, &[ComparisonRow]) -> String,
) -> String {
    let mut header = vec![key_name];
    header.extend(cells[0].1.iter().map(|r| r.strategy.as_str()));
    let lines = cells.iter().map(|(key, line)| {
        let mut out = vec![key.clone()];
        out.extend(line.iter().map(|row| entry(row, line)));
        out
    });
    table(&header, lines)
}

/// [`pivot`] of average satisfaction, the best entry of each line in bold.
fn satisfaction_pivot(key_name: &str, cells: &[Cell]) -> String {
    pivot(key_name, cells, |row, line| {
        let best = line
            .iter()
            .map(|r| r.avg_satisfaction)
            .fold(f64::MIN, f64::max);
        let value = format!("{:.3}", row.avg_satisfaction);
        if row.avg_satisfaction == best {
            format!("**{value}**")
        } else {
            value
        }
    })
}

/// `row`'s join results, dominance comparisons and virtual time as
/// multiples of `base`'s.
fn factors(row: &ComparisonRow, base: &ComparisonRow) -> [f64; 3] {
    [
        row.join_results as f64 / base.join_results.max(1) as f64,
        row.dom_comparisons as f64 / base.dom_comparisons.max(1) as f64,
        row.virtual_seconds / base.virtual_seconds.max(1e-9),
    ]
}

/// One line per (cell, system) with the Figure 10 resources, each also as
/// a multiple of the cell's first system (CAQE).
fn resource_table(key_name: &str, cells: &[Cell]) -> String {
    let columns = "system|satisfaction|joins|joins ×|comparisons|comparisons ×|time (s)|time ×";
    let header: Vec<&str> = std::iter::once(key_name)
        .chain(columns.split('|'))
        .collect();
    let lines = cells.iter().flat_map(|(key, line)| {
        line.iter().map(move |row| {
            let [joins, comparisons, time] = factors(row, &line[0]);
            vec![
                key.clone(),
                row.strategy.clone(),
                format!("{:.3}", row.avg_satisfaction),
                row.join_results.to_string(),
                format!("{joins:.1}"),
                row.dom_comparisons.to_string(),
                format!("{comparisons:.1}"),
                format!("{:.2}", row.virtual_seconds),
                format!("{time:.1}"),
            ]
        })
    });
    table(&header, lines)
}

/// A markdown table.
fn table(header: &[&str], lines: impl IntoIterator<Item = Vec<String>>) -> String {
    let mut out = format!(
        "| {} |\n|{}\n",
        header.join(" | "),
        "---|".repeat(header.len())
    );
    for line in lines {
        out += &format!("| {} |\n", line.join(" | "));
    }
    out
}

/// The degradation summary of `rows`, `None` unless fault handling fired —
/// so fault-free blocks carry no such line.
pub fn degradation(rows: &[ComparisonRow]) -> Option<String> {
    let (retries, quar, shed, iq, ic) = rows.iter().fold((0, 0, 0, 0, 0), |a, r| {
        (
            a.0 + r.region_retries,
            a.1 + r.regions_quarantined,
            a.2 + r.regions_shed,
            a.3 + r.ingest_quarantined,
            a.4 + r.ingest_clamped,
        )
    });
    (retries + quar + shed + iq + ic > 0).then(|| {
        format!(
            "-- degradation: {retries} retries, {quar} quarantined, {shed} shed, \
             {iq} records quarantined at ingest, {ic} values clamped"
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn row(strategy: &str, sat: f64, joins: u64) -> ComparisonRow {
        ComparisonRow::sample(strategy, sat, joins)
    }

    #[test]
    fn tables_contain_key_fields() {
        let cells = vec![(
            "independent".to_string(),
            vec![row("CAQE", 0.82, 1000), row("JFSL", 0.5, 16_400)],
        )];
        let pivot = satisfaction_pivot("contract", &cells);
        assert_eq!(
            pivot,
            "| contract | CAQE | JFSL |\n|---|---|---|\n| independent | **0.820** | 0.500 |\n"
        );
        let resources = resource_table("distribution", &cells);
        assert!(resources.contains("| independent | JFSL | 0.500 | 16400 | 16.4 | 5000 | 1.0 |"));
    }

    #[test]
    fn degradation_summary_only_when_faults_fired() {
        assert_eq!(degradation(&[row("CAQE", 0.8, 1)]), None);
        let mut r = row("CAQE", 0.8, 1);
        r.region_retries = 3;
        r.regions_quarantined = 1;
        let line = degradation(&[r]).expect("faults fired");
        assert!(line.starts_with("-- degradation: 3 retries, 1 quarantined"));
    }

    /// Every section the driver knows has exactly one balanced marker pair
    /// in EXPERIMENTS.md, in the driver's order, and no marker names an
    /// unknown section — so a renamed section or a hand-deleted marker
    /// fails here and not only in CI's regenerate-and-diff step.
    #[test]
    fn experiments_md_marks_every_section_once_in_order() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let text = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
        let found: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("<!-- paper:") || l.starts_with("<!-- /paper:"))
            .collect();
        let expected: Vec<String> = SECTIONS
            .iter()
            .flat_map(|(name, _)| {
                [
                    format!("<!-- paper:{name} -->"),
                    format!("<!-- /paper:{name} -->"),
                ]
            })
            .collect();
        assert_eq!(found, expected);
    }

    /// The docs that describe the system as built cite only what exists:
    /// every repo path with a file extension, every `--test <suite>`, and
    /// every `<suite>::<fn>`, `<file>.rs::<fn>` or `<module>::tests::<fn>`
    /// resolves to a `fn` in that file. CHANGES.md, ROADMAP.md and
    /// EXPERIMENTS.md keep their history and are not checked.
    #[test]
    fn docs_cite_only_existing_paths_suites_and_tests() {
        let root = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."));
        let mut sources = Vec::new();
        for dir in ["crates", "tests", "src", "examples"] {
            rust_files(&root.join(dir), &mut sources);
        }
        let defines = |p: &Path, f: &str| {
            let src = std::fs::read_to_string(p).unwrap_or_default();
            src.contains(&format!("fn {f}(")) || src.contains(&format!("fn {f}<"))
        };
        let suite = |name: &str| {
            let name = name.trim_end_matches(".rs");
            sources
                .iter()
                .find(|p| is_suite(p) && module(p) == Some(name))
        };
        let mut bad = Vec::new();
        for doc in ["DESIGN.md", "README.md", ".claude/skills/verify/SKILL.md"] {
            let text = std::fs::read_to_string(root.join(doc)).expect("doc is readable");
            for path in cited_paths(&text) {
                if !root.join(path).exists() {
                    bad.push(format!("{doc}: no file `{path}`"));
                }
            }
            for name in cited_suites(&text) {
                if suite(name).is_none() {
                    bad.push(format!("{doc}: no test suite `{name}`"));
                }
            }
            for segs in cited_items(&text) {
                let found = match segs.as_slice() {
                    [file, f] if file.ends_with(".rs") && file.contains('/') => {
                        defines(&root.join(file), f)
                    }
                    [file, f] => match suite(file) {
                        Some(p) => defines(p, f),
                        None => continue,
                    },
                    [m, "tests", f] => sources
                        .iter()
                        .any(|p| !is_suite(p) && module(p) == Some(m) && defines(p, f)),
                    _ => continue,
                };
                if !found {
                    bad.push(format!("{doc}: no test `{}`", segs.join("::")));
                }
            }
        }
        bad.sort();
        bad.dedup();
        assert!(bad.is_empty(), "{}", bad.join("\n"));
    }

    fn is_suite(p: &Path) -> bool {
        p.parent().is_some_and(|d| d.ends_with("tests"))
    }

    /// The module a source file defines: `engine/mod.rs` is `engine`.
    fn module(p: &Path) -> Option<&str> {
        match p.file_stem()?.to_str()? {
            "mod" => p.parent()?.file_name()?.to_str(),
            stem => Some(stem),
        }
    }

    fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for p in entries.flatten().map(|e| e.path()) {
            if p.is_dir() {
                rust_files(&p, out);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }

    fn is_path_char(c: char) -> bool {
        c.is_ascii_alphanumeric() || "_./-".contains(c)
    }

    /// Runs of path characters that start a word with a tracked top-level
    /// directory and end in a file name with an extension.
    fn cited_paths(text: &str) -> Vec<&str> {
        let mut out = Vec::new();
        for (i, _) in text.char_indices() {
            let rest = &text[i..];
            let starts = ["crates/", "tests/", "benchmark/", "src/", "examples/"]
                .iter()
                .any(|d| rest.starts_with(d));
            if !starts || text[..i].chars().next_back().is_some_and(is_path_char) {
                continue;
            }
            let end = rest.find(|c| !is_path_char(c)).unwrap_or(rest.len());
            let path = rest[..end].trim_end_matches('.');
            let file = path.rsplit('/').next().unwrap_or("");
            if file.rsplit_once('.').is_some_and(|(name, ext)| {
                !name.is_empty() && !ext.is_empty() && ext.chars().all(|c| c.is_ascii_alphabetic())
            }) {
                out.push(path);
            }
        }
        out
    }

    /// The `<suite>` of every `--test <suite>`.
    fn cited_suites(text: &str) -> Vec<&str> {
        text.split("--test ")
            .skip(1)
            .filter_map(|s| {
                s.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .next()
            })
            .filter(|s| !s.is_empty())
            .collect()
    }

    /// Every `a::b[::c…]` item path, split at `::`.
    fn cited_items(text: &str) -> Vec<Vec<&str>> {
        text.split(|c: char| !(is_path_char(c) || c == ':'))
            .map(|t| t.trim_end_matches('.'))
            .filter(|t| t.contains("::"))
            .map(|t| t.split("::").collect())
            .collect()
    }
}
