//! Typed engine errors.
//!
//! The library crates never abort the process on recoverable conditions:
//! fallible entry points return [`EngineError`] and the callers decide
//! whether to degrade or surface the failure. Only genuinely
//! unreachable states (documented invariant violations) remain panics.

use std::fmt;

/// Everything that can go wrong while running a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The input tables violate the schema contract (arity, join columns).
    InvalidInput {
        /// Which table ("R"/"T" or a table name).
        table: String,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// Ingestion validation rejected the input under the `Reject` policy:
    /// non-finite preference values or duplicate record identifiers.
    CorruptInput {
        /// Which table the violation was found in.
        table: String,
        /// Records carrying NaN or ±Inf preference values.
        non_finite: usize,
        /// Records whose identifier duplicates an earlier record.
        duplicates: usize,
    },
    /// The workload is structurally invalid (empty, bad mapping arity,
    /// out-of-range preference dimensions).
    InvalidWorkload {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// A fault specification string (`--faults <spec>`) failed to parse.
    BadFaultSpec {
        /// The offending fragment.
        fragment: String,
        /// What was expected instead.
        reason: String,
    },
    /// A session event specification (`--events <spec>`) failed to parse
    /// or referenced a query/pool slot that does not exist.
    BadEventSpec {
        /// The offending fragment.
        fragment: String,
        /// What was expected instead.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::InvalidInput { table, reason } => {
                write!(f, "invalid input table {table}: {reason}")
            }
            EngineError::CorruptInput {
                table,
                non_finite,
                duplicates,
            } => write!(
                f,
                "corrupt input table {table}: {non_finite} non-finite record(s), \
                 {duplicates} duplicate id(s) (policy: reject)"
            ),
            EngineError::InvalidWorkload { reason } => {
                write!(f, "invalid workload: {reason}")
            }
            EngineError::BadFaultSpec { fragment, reason } => {
                write!(f, "bad fault spec near {fragment:?}: {reason}")
            }
            EngineError::BadEventSpec { fragment, reason } => {
                write!(f, "bad event spec near {fragment:?}: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = EngineError::CorruptInput {
            table: "R".into(),
            non_finite: 3,
            duplicates: 1,
        };
        let s = e.to_string();
        assert!(s.contains('R') && s.contains('3') && s.contains('1'));
        let e = EngineError::BadFaultSpec {
            fragment: "spike".into(),
            reason: "missing rate".into(),
        };
        assert!(e.to_string().contains("spike"));
        let e = EngineError::BadEventSpec {
            fragment: "admit@x".into(),
            reason: "tick must be an integer".into(),
        };
        assert!(e.to_string().contains("admit@x"));
    }

    #[test]
    fn errors_compare_by_value() {
        let a = EngineError::InvalidWorkload {
            reason: "empty".into(),
        };
        assert_eq!(a.clone(), a);
    }
}
