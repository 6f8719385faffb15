//! Quickstart: run a two-query contract-driven workload end to end.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use caqe::contract::Contract;
use caqe::core::{EngineStrategy, ExecConfig, ExecutionStrategy, QuerySpec, Workload};
use caqe::data::{Distribution, TableGenerator};
use caqe::operators::MappingSet;
use caqe::types::DimMask;

fn main() {
    // 1. Two base tables, 2 preference attributes each, join selectivity 5%.
    let gen = TableGenerator::new(2_000, 2, Distribution::Independent)
        .with_selectivities(&[0.05])
        .with_seed(42);
    let hotels = gen.generate("Hotels");
    let tours = gen.generate("Tours");

    // 2. Mapping functions produce a 4-dimensional output space; each
    //    output attribute mixes one hotel and one tour attribute
    //    (e.g. "total price", "combined inconvenience", …).
    let mapping = MappingSet::mixed(2, 2, 4);

    // 3. Two skyline-over-join queries with very different contracts:
    //    an interactive user needing answers within 3 virtual seconds, and
    //    a patient report generator happy with logarithmic decay.
    let workload = Workload::new(vec![
        QuerySpec {
            join_col: 0,
            mapping: mapping.clone(),
            pref: DimMask::from_dims([0, 1]),
            priority: 0.9,
            contract: Contract::Deadline { t_hard: 3.0 },
        },
        QuerySpec {
            join_col: 0,
            mapping,
            pref: DimMask::from_dims([1, 2, 3]),
            priority: 0.4,
            contract: Contract::LogDecay,
        },
    ]);

    // 4. Run CAQE.
    let exec = ExecConfig::default().with_target_cells(2_000, 10);
    let outcome = EngineStrategy::CAQE.run(&hotels, &tours, &workload, &exec);

    println!("strategy            : {}", outcome.strategy);
    println!("virtual time        : {:.2}s", outcome.virtual_seconds);
    println!("join results        : {}", outcome.stats.join_results);
    println!("skyline comparisons : {}", outcome.stats.dom_comparisons);
    println!("workload satisfaction: {:.3}", outcome.avg_satisfaction());
    println!();
    for q in &outcome.per_query {
        println!(
            "{}: {} results, first at {:.2}s, last at {:.2}s, pScore {:.1}, satisfaction {:.3}",
            q.query,
            q.count(),
            q.first_emission().unwrap_or(f64::NAN),
            q.last_emission().unwrap_or(f64::NAN),
            q.p_score,
            q.satisfaction,
        );
    }
}
