//! The stock-ticker scenario of the paper's introduction (Example 1):
//! one analytical backend serves watchers with wildly different
//! progressiveness expectations over the same Stocks ⋈ Signals join.
//!
//! * real-time watchers: refresh within a tight deadline;
//! * trend analysts: steady periodic delivery (cardinality quota);
//! * recommenders: batch consumers tolerating decay.
//!
//! The example sweeps the deadline parameter to show how CAQE's advantage
//! over the blocking baseline grows as contracts tighten — the essence of
//! contract-driven processing.
//!
//! ```text
//! cargo run --release --example stock_ticker
//! ```

use caqe::baselines::JfslStrategy;
use caqe::contract::Contract;
use caqe::core::{EngineStrategy, ExecConfig, ExecutionStrategy, QuerySpec, Workload};
use caqe::data::{Distribution, TableGenerator};
use caqe::operators::MappingSet;
use caqe::types::DimMask;

fn build_workload(deadline: f64) -> Workload {
    let mapping = MappingSet::mixed(3, 3, 5);
    Workload::new(vec![
        // Real-time watcher: volatility × momentum, hard deadline.
        QuerySpec {
            join_col: 0,
            mapping: mapping.clone(),
            pref: DimMask::from_dims([0, 1]),
            priority: 1.0,
            contract: Contract::Deadline { t_hard: deadline },
        },
        // Another watcher on different dimensions, same deadline.
        QuerySpec {
            join_col: 0,
            mapping: mapping.clone(),
            pref: DimMask::from_dims([2, 3]),
            priority: 0.9,
            contract: Contract::Deadline { t_hard: deadline },
        },
        // Trend analyst: steady 10%-per-interval quota.
        QuerySpec {
            join_col: 0,
            mapping: mapping.clone(),
            pref: DimMask::from_dims([0, 2, 4]),
            priority: 0.5,
            contract: Contract::Quota {
                frac: 0.1,
                interval: deadline / 4.0,
            },
        },
        // Portfolio recommender: tolerant log decay over 4 dimensions.
        QuerySpec {
            join_col: 0,
            mapping,
            pref: DimMask::from_dims([1, 2, 3, 4]),
            priority: 0.2,
            contract: Contract::LogDecay,
        },
    ])
}

fn main() {
    let gen = TableGenerator::new(2_500, 3, Distribution::Independent)
        .with_selectivities(&[0.02])
        .with_seed(99);
    let stocks = gen.generate("Stocks");
    let signals = gen.generate("Signals");
    let exec = ExecConfig::default().with_target_cells(2_500, 12);

    // Calibrate deadlines against the blocking baseline's total runtime.
    let probe = JfslStrategy.run(&stocks, &signals, &build_workload(1.0), &exec);
    let total = probe.virtual_seconds;
    println!("Stocks ⋈ Signals (independent attributes)");
    println!("blocking baseline total runtime: {total:.1} virtual seconds\n");
    println!(
        "{:<22} {:>10} {:>10} {:>12}",
        "deadline (frac of JFSL)", "CAQE", "JFSL", "CAQE factor"
    );
    for fraction in [0.8, 0.4, 0.2, 0.1, 0.05] {
        let w = build_workload(total * fraction);
        let caqe = EngineStrategy::CAQE.run(&stocks, &signals, &w, &exec);
        let jfsl = JfslStrategy.run(&stocks, &signals, &w, &exec);
        let (a, b) = (caqe.avg_satisfaction(), jfsl.avg_satisfaction());
        println!(
            "{:<22} {:>10.3} {:>10.3} {:>11.1}x",
            format!("{:.0}% ({:.1}s)", fraction * 100.0, total * fraction),
            a,
            b,
            a / b.max(1e-9)
        );
    }
}
