//! Per-client contract negotiation.
//!
//! A submission carries the contract the client *wants*; the server grants
//! the closest contract it can serve. Negotiation is a pure function of the
//! requested contract, so the same submission stream always produces the
//! same granted workload — a precondition for the snapshot/restore
//! equivalence proof.

use caqe_contract::Contract;

/// Outcome of negotiating one submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Negotiated {
    /// The contract the server will actually hold itself to.
    pub granted: Contract,
    /// Whether `granted` differs from what the client asked for.
    pub adjusted: bool,
}

/// Grants the closest servable contract.
///
/// Table 2 classes (C1–C5) are granted as requested, except that a negative
/// deadline or interval is raised to 0. `Piecewise` and `Product` contracts
/// are not snapshot-serializable, so the serving layer downgrades them to
/// the parameter-free `LogDecay` (C2). Every change is flagged as adjusted.
pub fn negotiate(requested: &Contract) -> Negotiated {
    let mut adjusted = false;
    let mut raise = |v: f64| {
        let granted = if v < 0.0 { 0.0 } else { v };
        adjusted |= granted != v;
        granted
    };
    let granted = match requested {
        Contract::Deadline { t_hard } => Contract::Deadline {
            t_hard: raise(*t_hard),
        },
        Contract::SoftDeadline { t_soft } => Contract::SoftDeadline {
            t_soft: raise(*t_soft),
        },
        Contract::Quota { frac, interval } => Contract::Quota {
            frac: *frac,
            interval: raise(*interval),
        },
        Contract::Hybrid { frac, interval } => Contract::Hybrid {
            frac: *frac,
            interval: raise(*interval),
        },
        Contract::LogDecay => Contract::LogDecay,
        Contract::Piecewise { .. } | Contract::Product(..) => {
            adjusted = true;
            Contract::LogDecay
        }
    };
    Negotiated { granted, adjusted }
}

/// Contract negotiation as a [`ServeConfig`](crate::ServeConfig) field. It
/// carries no setting — every server grants what [`negotiate`] grants — and
/// is kept only because `benchmark/src` calls `cfg.negotiation.negotiate(..)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Negotiation;

impl Negotiation {
    /// [`negotiate`].
    pub fn negotiate(self, requested: &Contract) -> Negotiated {
        negotiate(requested)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn servable_contracts_pass_through_unchanged() {
        for c in [
            Contract::Deadline { t_hard: 30.0 },
            Contract::SoftDeadline { t_soft: 0.0 },
            Contract::Quota {
                frac: 0.1,
                interval: 9.0,
            },
            Contract::Hybrid {
                frac: 0.1,
                interval: 0.0,
            },
            Contract::LogDecay,
        ] {
            let n = negotiate(&c);
            assert_eq!(n.granted, c);
            assert!(!n.adjusted, "{c:?}");
        }
    }

    #[test]
    fn negative_deadlines_are_raised_to_zero() {
        let n = negotiate(&Contract::Deadline { t_hard: -1.0 });
        assert_eq!(n.granted, Contract::Deadline { t_hard: 0.0 });
        assert!(n.adjusted);
        let n = negotiate(&Contract::SoftDeadline { t_soft: -2.0 });
        assert_eq!(n.granted, Contract::SoftDeadline { t_soft: 0.0 });
        assert!(n.adjusted);
    }

    #[test]
    fn negative_intervals_are_raised_to_zero() {
        let n = negotiate(&Contract::Quota {
            frac: 0.1,
            interval: -1.0,
        });
        assert_eq!(
            n.granted,
            Contract::Quota {
                frac: 0.1,
                interval: 0.0,
            }
        );
        assert!(n.adjusted);
        let n = negotiate(&Contract::Hybrid {
            frac: 0.1,
            interval: -9.0,
        });
        assert_eq!(
            n.granted,
            Contract::Hybrid {
                frac: 0.1,
                interval: 0.0,
            }
        );
        assert!(n.adjusted);
    }

    #[test]
    fn unserializable_contracts_downgrade_to_log_decay() {
        let n = negotiate(&Contract::Piecewise {
            steps: vec![(5.0, 1.0)],
            tail: 0.0,
        });
        assert_eq!(n.granted, Contract::LogDecay);
        assert!(n.adjusted);
        let n = negotiate(&Contract::Product(
            Box::new(Contract::LogDecay),
            Box::new(Contract::LogDecay),
        ));
        assert_eq!(n.granted, Contract::LogDecay);
        assert!(n.adjusted);
    }

    #[test]
    fn negotiation_is_deterministic() {
        let req = Contract::Deadline { t_hard: -0.5 };
        assert_eq!(negotiate(&req), negotiate(&req));
    }
}
