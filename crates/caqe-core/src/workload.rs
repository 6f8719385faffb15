//! Workload model: skyline-over-join queries with contracts and priorities.

use caqe_contract::Contract;
use caqe_operators::MappingSet;
use caqe_types::{DimMask, QueryId};

/// One skyline-over-join query `SJ_[JC, F, X, P](R, T)` (§2.2) augmented
/// with its contract and priority (§7.1).
#[derive(Debug, Clone)]
pub struct QuerySpec {
    /// The join condition: index of the join column.
    pub join_col: usize,
    /// The scalar mapping functions producing the output space `X`.
    pub mapping: MappingSet,
    /// The skyline preference subspace `P` over the output dimensions.
    pub pref: DimMask,
    /// Query priority `pr_i ∈ [0, 1]` (HIGH ≥ 0.7 > MEDIUM ≥ 0.4 > LOW).
    pub priority: f64,
    /// The progressiveness contract.
    pub contract: Contract,
}

impl QuerySpec {
    /// Validates internal consistency.
    ///
    /// # Panics
    /// Panics if the preference references output dimensions the mapping
    /// does not produce, or the priority leaves `[0, 1]`.
    pub fn validate(&self) {
        let out = DimMask::full(self.mapping.output_dims());
        assert!(
            self.pref.is_subset_of(out),
            "preference {} references dims outside the {}-dim output space",
            self.pref,
            self.mapping.output_dims()
        );
        assert!(!self.pref.is_empty(), "empty preference subspace");
        assert!(
            (0.0..=1.0).contains(&self.priority),
            "priority {} outside [0, 1]",
            self.priority
        );
    }
}

/// A workload `S_Q` of queries with contracts `S_C`.
#[derive(Debug, Clone)]
pub struct Workload {
    queries: Vec<QuerySpec>,
}

impl Workload {
    /// Creates a validated workload.
    ///
    /// # Panics
    /// Panics if empty or any query fails validation.
    pub fn new(queries: Vec<QuerySpec>) -> Self {
        assert!(!queries.is_empty(), "workload must contain a query");
        for q in &queries {
            q.validate();
        }
        Workload { queries }
    }

    /// The queries in workload order (`QueryId(i)` is `queries()[i]`).
    pub fn queries(&self) -> &[QuerySpec] {
        &self.queries
    }

    /// Number of queries `|S_Q|`.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Whether the workload is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }

    /// The query with the given id.
    pub fn query(&self, q: QueryId) -> &QuerySpec {
        &self.queries[q.index()]
    }

    /// Query ids sorted by descending priority — the processing order the
    /// paper's non-shared baselines use (§7.1).
    pub fn by_priority(&self) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> = (0..self.queries.len()).map(|i| QueryId(i as u16)).collect();
        ids.sort_by(|a, b| {
            self.queries[b.index()]
                .priority
                .total_cmp(&self.queries[a.index()].priority)
        });
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(pref: DimMask, priority: f64) -> QuerySpec {
        QuerySpec {
            join_col: 0,
            mapping: MappingSet::concat(2, 2),
            pref,
            priority,
            contract: Contract::LogDecay,
        }
    }

    #[test]
    fn accessors() {
        let w = Workload::new(vec![
            spec(DimMask::from_dims([0, 1]), 0.9),
            spec(DimMask::from_dims([2, 3]), 0.3),
        ]);
        assert_eq!(w.len(), 2);
        assert_eq!(w.query(QueryId(1)).priority, 0.3);
    }

    #[test]
    fn priority_ordering() {
        let w = Workload::new(vec![
            spec(DimMask::from_dims([0, 1]), 0.2),
            spec(DimMask::from_dims([1, 2]), 0.8),
            spec(DimMask::from_dims([2, 3]), 0.5),
        ]);
        assert_eq!(w.by_priority(), vec![QueryId(1), QueryId(2), QueryId(0)]);
    }

    #[test]
    #[should_panic]
    fn pref_outside_output_space_rejected() {
        spec(DimMask::from_dims([7]), 0.5).validate();
    }

    #[test]
    #[should_panic]
    fn empty_workload_rejected() {
        let _ = Workload::new(vec![]);
    }

    #[test]
    #[should_panic]
    fn priority_out_of_range_rejected() {
        spec(DimMask::from_dims([0]), 1.5).validate();
    }
}
