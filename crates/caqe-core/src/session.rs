//! Online workload sessions: a deterministic stream of admission and
//! departure events keyed on the virtual clock.
//!
//! The batch engine processes a fixed workload `S_Q`; real decision-support
//! front-ends admit and retire queries while the shared plan is running.
//! A [`SessionEvent`] stream extends the engine to that regime without
//! giving up bit-determinism: events carry *virtual* ticks, are applied in
//! stream order at the first loop iteration whose clock reading has reached
//! them, and every piece of incremental plan maintenance they trigger
//! charges the same clock — so the whole session remains a pure function of
//! (workload, events, config).

use crate::workload::QuerySpec;
use caqe_types::{EngineError, QueryId, Ticks};

/// One dynamic workload change.
#[derive(Debug, Clone)]
pub enum SessionEvent {
    /// A query (with its contract, carried inside the spec) joins the
    /// running workload no earlier than virtual tick `at`.
    Admit {
        /// Earliest virtual tick the admission may be processed at.
        at: Ticks,
        /// The arriving query.
        spec: QuerySpec,
    },
    /// A query leaves the workload no earlier than virtual tick `at`; its
    /// sole-provider regions are retired the way shedding retires regions.
    Depart {
        /// Earliest virtual tick the departure may be processed at.
        at: Ticks,
        /// Global id of the departing query.
        query: QueryId,
    },
}

impl SessionEvent {
    /// The event's scheduled virtual tick.
    pub fn at(&self) -> Ticks {
        match self {
            SessionEvent::Admit { at, .. } => *at,
            SessionEvent::Depart { at, .. } => *at,
        }
    }

    /// Secondary sort key at equal ticks: departures apply before
    /// admissions (rank 0 vs 1), departures among themselves by ascending
    /// query id. Admissions share one key and keep textual order through
    /// the stable sort.
    fn tie_key(&self) -> (u8, u64) {
        match self {
            SessionEvent::Depart { query, .. } => (0, u64::from(query.0)),
            SessionEvent::Admit { .. } => (1, 0),
        }
    }
}

/// An ordered stream of [`SessionEvent`]s. Construction sorts stably by
/// scheduled tick with a *defined* tie-break — part of the determinism
/// contract:
///
/// 1. ascending scheduled tick;
/// 2. at equal ticks, **departures before admissions** (a slot freed by a
///    departure is available to a same-tick admission, never the reverse);
/// 3. departures at one tick by ascending query id;
/// 4. admissions at one tick in textual order (stable sort).
///
/// A consequence of rule 2: a departure naming a query that is only
/// admitted at the same (or a later) tick would apply before that query
/// exists. [`EventStream::validate`] rejects such streams up front as
/// [`EngineError::BadEventSpec`].
#[derive(Debug, Clone, Default)]
pub struct EventStream {
    events: Vec<SessionEvent>,
}

impl EventStream {
    /// The empty stream: the engine then behaves exactly like the batch
    /// engine, byte-for-byte.
    pub fn empty() -> Self {
        EventStream::default()
    }

    /// Builds a stream, stably sorting into application order (see the
    /// type-level tie-break rules).
    pub fn new(mut events: Vec<SessionEvent>) -> Self {
        events.sort_by_key(|e| {
            let (rank, id) = e.tie_key();
            (e.at(), rank, id)
        });
        EventStream { events }
    }

    /// Checks the stream against the engine's id-assignment rule (an
    /// admission receives global id `initial_queries + admission order`)
    /// and rejects any departure that would apply before its query is
    /// admitted: departures sort before admissions at equal ticks, so a
    /// depart-at-tick-T of a query admitted at tick ≥ T can never name a
    /// live query. The engine calls this once before the run loop.
    pub fn validate(&self, initial_queries: usize) -> Result<(), EngineError> {
        let admit_ticks: Vec<Ticks> = self
            .events
            .iter()
            .filter_map(|e| match e {
                SessionEvent::Admit { at, .. } => Some(*at),
                SessionEvent::Depart { .. } => None,
            })
            .collect();
        for e in &self.events {
            if let SessionEvent::Depart { at, query } = e {
                let admitted_at = (query.0 as usize)
                    .checked_sub(initial_queries)
                    .and_then(|i| admit_ticks.get(i).copied());
                if let Some(t) = admitted_at {
                    if t >= *at {
                        return Err(EngineError::BadEventSpec {
                            fragment: format!("depart@{at}={}", query.0),
                            reason: format!(
                                "query {} is only admitted at tick {t}; departures apply \
                                 before admissions at equal ticks",
                                query.0
                            ),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// The events in application order.
    pub fn events(&self) -> &[SessionEvent] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the stream is empty (the batch profile).
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Parses the CLI event grammar against a pool of admittable queries:
    ///
    /// ```text
    /// spec    := "" | "none" | event ("," event)*
    /// event   := "admit@" TICK "=" POOL_IDX    — admit pool[POOL_IDX]
    ///          | "depart@" TICK "=" QUERY_ID   — retire global query id
    /// ```
    ///
    /// Pool indices are validated here; departure ids are validated at
    /// runtime (a departure may name a query admitted by an earlier event,
    /// whose global id the parser can compute: initial workload size plus
    /// admission order).
    pub fn parse(spec: &str, pool: &[QuerySpec]) -> Result<EventStream, EngineError> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "none" {
            return Ok(EventStream::empty());
        }
        let mut events = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            let bad = |reason: &str| EngineError::BadEventSpec {
                fragment: part.to_string(),
                reason: reason.to_string(),
            };
            let (head, value) = part
                .split_once('=')
                .ok_or_else(|| bad("expected key=value"))?;
            let (kind, tick) = head
                .split_once('@')
                .ok_or_else(|| bad("expected kind@tick"))?;
            let at: Ticks = tick.parse().map_err(|_| bad("tick must be a u64"))?;
            match kind {
                "admit" => {
                    let idx: usize = value
                        .parse()
                        .map_err(|_| bad("pool index must be a usize"))?;
                    let spec = pool
                        .get(idx)
                        .ok_or_else(|| bad("pool index out of range"))?
                        .clone();
                    events.push(SessionEvent::Admit { at, spec });
                }
                "depart" => {
                    let qid: u16 = value.parse().map_err(|_| bad("query id must be a u16"))?;
                    events.push(SessionEvent::Depart {
                        at,
                        query: QueryId(qid),
                    });
                }
                _ => return Err(bad("unknown event kind (admit|depart)")),
            }
        }
        Ok(EventStream::new(events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caqe_contract::Contract;
    use caqe_operators::MappingSet;
    use caqe_types::DimMask;

    fn pool() -> Vec<QuerySpec> {
        vec![
            QuerySpec {
                join_col: 0,
                mapping: MappingSet::concat(2, 2),
                pref: DimMask::from_dims([0, 1]),
                priority: 0.5,
                contract: Contract::LogDecay,
            },
            QuerySpec {
                join_col: 0,
                mapping: MappingSet::concat(2, 2),
                pref: DimMask::from_dims([2, 3]),
                priority: 0.8,
                contract: Contract::Deadline { t_hard: 1.0 },
            },
        ]
    }

    #[test]
    fn parse_orders_by_tick_stably() {
        let s = EventStream::parse("depart@500=0,admit@100=1,admit@100=0", &pool()).expect("valid");
        assert_eq!(s.len(), 3);
        let ticks: Vec<Ticks> = s.events().iter().map(|e| e.at()).collect();
        assert_eq!(ticks, vec![100, 100, 500]);
        // Stable: the two tick-100 admits keep textual order (pool 1 first).
        match (&s.events()[0], &s.events()[1]) {
            (SessionEvent::Admit { spec: a, .. }, SessionEvent::Admit { spec: b, .. }) => {
                assert_eq!(a.priority, 0.8);
                assert_eq!(b.priority, 0.5);
            }
            other => panic!("expected two admits, got {other:?}"),
        }
        match &s.events()[2] {
            SessionEvent::Depart { query, .. } => assert_eq!(*query, QueryId(0)),
            other => panic!("expected depart, got {other:?}"),
        }
    }

    #[test]
    fn equal_tick_departs_sort_before_admits_and_by_id() {
        let s = EventStream::parse("admit@100=0,depart@100=1,admit@100=1,depart@100=0", &pool())
            .expect("valid");
        let kinds: Vec<(Ticks, Option<u16>)> = s
            .events()
            .iter()
            .map(|e| match e {
                SessionEvent::Depart { at, query } => (*at, Some(query.0)),
                SessionEvent::Admit { at, .. } => (*at, None),
            })
            .collect();
        // Departs first (ascending id), then admits in textual order.
        assert_eq!(
            kinds,
            vec![(100, Some(0)), (100, Some(1)), (100, None), (100, None)]
        );
        match (&s.events()[2], &s.events()[3]) {
            (SessionEvent::Admit { spec: a, .. }, SessionEvent::Admit { spec: b, .. }) => {
                assert_eq!(a.priority, 0.5, "first textual admit is pool 0");
                assert_eq!(b.priority, 0.8, "second textual admit is pool 1");
            }
            other => panic!("expected two admits, got {other:?}"),
        }
    }

    #[test]
    fn validate_rejects_same_tick_depart_of_admitted_query() {
        // Two initial queries: the first admission receives global id 2.
        // Departing id 2 at the same tick would apply before the admission
        // (departs-first tie-break) — rejected up front.
        let s = EventStream::parse("admit@500=0,depart@500=2", &pool()).expect("parses");
        match s.validate(2) {
            Err(EngineError::BadEventSpec { fragment, .. }) => {
                assert!(fragment.contains("depart@500=2"), "fragment: {fragment}");
            }
            other => panic!("expected BadEventSpec, got {other:?}"),
        }
        // Departing a query admitted strictly earlier is fine.
        let ok = EventStream::parse("admit@500=0,depart@600=2", &pool()).expect("parses");
        assert!(ok.validate(2).is_ok());
        // Departing an initial query at any tick is fine.
        let ok = EventStream::parse("depart@500=1,admit@500=0", &pool()).expect("parses");
        assert!(ok.validate(2).is_ok());
        // A depart scheduled *before* the admission is equally unsatisfiable.
        let bad = EventStream::parse("admit@900=0,depart@400=2", &pool()).expect("parses");
        assert!(bad.validate(2).is_err());
    }

    #[test]
    fn empty_and_none_yield_the_batch_profile() {
        assert!(EventStream::parse("", &pool()).expect("empty").is_empty());
        assert!(EventStream::parse("none", &pool())
            .expect("none")
            .is_empty());
        assert!(EventStream::empty().is_empty());
    }

    #[test]
    fn bad_specs_are_typed_errors() {
        for bad in [
            "admit@100",
            "admit=0",
            "admit@x=0",
            "admit@100=9",
            "admit@100=x",
            "depart@100=x",
            "retire@100=0",
        ] {
            match EventStream::parse(bad, &pool()) {
                Err(EngineError::BadEventSpec { .. }) => {}
                other => panic!("{bad:?} should fail to parse, got {other:?}"),
            }
        }
    }
}
