//! The two CLI grammars — `--faults` (`FaultPlan`) and `--events`
//! (`EventStream`) — under generated and mutated specs: every input gives
//! a typed `BadFaultSpec` / `BadEventSpec` or a value, never a panic, and
//! every value survives a render-and-reparse round trip. The JSONL trace
//! grammar likewise: generated events survive `to_jsonl` → `from_jsonl`
//! → `to_jsonl`, and any other text is a `TraceReadError`, never a panic.

use caqe::contract::Contract;
use caqe::core::{EventStream, QuerySpec, SessionEvent};
use caqe::faults::FaultPlan;
use caqe::operators::MappingSet;
use caqe::regions::ReconciledEstimate;
use caqe::trace::{from_jsonl, to_jsonl, SpanKind, TraceEvent};
use caqe::types::{DimMask, EngineError};
use proptest::prelude::*;

/// One of `items`, uniformly.
fn pick(items: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..items.len()).prop_map(move |i| items[i])
}

/// A spec of 1–5 comma-separated `head value` fragments, then one edit:
/// none, a character overwritten, or a cut — so valid, nearly valid and
/// broken specs all occur.
fn arb_spec(
    heads: &'static [&'static str],
    values: &'static [&'static str],
) -> impl Strategy<Value = String> {
    const NOISE: &[char] = &[',', '=', '@', 'x', '.', '-', '0', '9', ' ', 'é', '\u{0}'];
    let part = (pick(heads), pick(values)).prop_map(|(h, v)| format!("{h}{v}"));
    (
        proptest::collection::vec(part, 1..6),
        0usize..3,
        any::<usize>(),
        0..NOISE.len(),
    )
        .prop_map(|(parts, edit, at, c)| {
            let mut chars: Vec<char> = parts.join(",").chars().collect();
            match (edit, at.checked_rem(chars.len())) {
                (1, Some(at)) => chars[at] = NOISE[c],
                (2, Some(at)) => chars.truncate(at),
                _ => {}
            }
            chars.into_iter().collect()
        })
}

fn pool() -> Vec<QuerySpec> {
    [0.25, 0.5, 0.75]
        .iter()
        .map(|&priority| QuerySpec {
            join_col: 0,
            mapping: MappingSet::concat(2, 2),
            pref: DimMask::from_dims([0, 1]),
            priority,
            contract: Contract::LogDecay,
        })
        .collect()
}

/// What identifies an event: its tick and either the admitted pool entry
/// (by its distinct priority) or the departing query id.
fn event_keys(stream: &EventStream, pool: &[QuerySpec]) -> Vec<(u64, &'static str, usize)> {
    stream
        .events()
        .iter()
        .map(|e| match e {
            SessionEvent::Admit { at, spec } => {
                let idx = pool.iter().position(|p| p.priority == spec.priority);
                (
                    *at,
                    "admit",
                    idx.expect("admitted spec comes from the pool"),
                )
            }
            SessionEvent::Depart { at, query } => (*at, "depart", query.index()),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn fault_specs_are_typed_errors_or_round_trip(
        spec in arb_spec(
            &["seed=", "spike=", "est=", "panic=", "corrupt=", "admit=", "boom=", "spike", ""],
            &["0", "-0", "0.5", "1", "1.5", "1e-400", "7", "18446744073709551616", "nope", "",
              "0x3", "0.2x8", "1x0", "0.5x-2", "0xinf", "0.1x1e308", "x", "0x4"],
        ),
    ) {
        match FaultPlan::parse(&spec) {
            Ok(plan) => {
                let rendered = plan.to_spec();
                let again = FaultPlan::parse(&rendered);
                prop_assert!(
                    matches!(&again, Ok(p) if *p == plan),
                    "{spec:?} → {plan:?} renders {rendered:?} → {again:?}"
                );
            }
            Err(EngineError::BadFaultSpec { .. }) => {}
            Err(other) => prop_assert!(false, "{spec:?}: untyped error {other:?}"),
        }
    }

    #[test]
    fn event_specs_are_typed_errors_or_round_trip(
        spec in arb_spec(
            &["admit@", "depart@", "retire@", "admit", "@", ""],
            &["0=0", "100=1", "100=2", "5=3", "7=65535", "7=65536", "18446744073709551615=0",
              "-1=0", "x=0", "9", "=", "3=x", "500=0"],
        ),
    ) {
        let pool = pool();
        match EventStream::parse(&spec, &pool) {
            Ok(stream) => {
                let keys = event_keys(&stream, &pool);
                let rendered: Vec<String> =
                    keys.iter().map(|(at, kind, v)| format!("{kind}@{at}={v}")).collect();
                let rendered = rendered.join(",");
                match EventStream::parse(&rendered, &pool) {
                    Ok(again) => prop_assert_eq!(
                        event_keys(&again, &pool), keys, "{:?} renders {:?}", spec, rendered
                    ),
                    Err(e) => prop_assert!(false, "{spec:?} renders {rendered:?}: {e}"),
                }
            }
            Err(EngineError::BadEventSpec { .. }) => {}
            Err(other) => prop_assert!(false, "{spec:?}: untyped error {other:?}"),
        }
    }
}

/// Draws an event's fields from a word list: integers below 2^53 (where
/// a JSON number is exact), and floats that are often non-finite or -0.
struct Words(std::vec::IntoIter<u64>);

impl Words {
    fn word(&mut self) -> u64 {
        self.0.next().unwrap_or(0)
    }
    fn int(&mut self) -> u64 {
        self.word() >> 11
    }
    /// A value of the field's own width (and below 2^53).
    fn narrow<T: TryFrom<u64>>(&mut self) -> T {
        let w = self.int();
        [w, w as u32 as u64, w as u16 as u64]
            .into_iter()
            .find_map(|v| T::try_from(v).ok())
            .unwrap()
    }
    fn float(&mut self) -> f64 {
        let w = self.word();
        [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.5]
            .get(w as usize % 16)
            .copied()
            .unwrap_or(f64::from_bits(w))
    }
    fn of(&mut self, names: &[&'static str]) -> &'static str {
        names[self.word() as usize % names.len()]
    }
}

/// Event `kind` (0–14) built from `w`, with `text` for its string field.
fn event(kind: usize, w: &mut Words, text: String) -> TraceEvent {
    match kind {
        0 => TraceEvent::Meta {
            strategy: text,
            queries: w.narrow(),
            ticks_per_second: w.float(),
            start_tick: w.int(),
        },
        1 => TraceEvent::Span {
            kind: [
                SpanKind::PartitionBuild,
                SpanKind::GroupBuild,
                SpanKind::LookAhead,
                SpanKind::Region,
            ][w.word() as usize % 4],
            group: (w.word() % 2 == 0).then(|| w.narrow()),
            region: (w.word() % 2 == 0).then(|| w.narrow()),
            start_tick: w.int(),
            end_tick: w.int(),
        },
        2 => TraceEvent::Decision {
            tick: w.int(),
            group: w.narrow(),
            region: w.narrow(),
            policy: w.of(&["contract", "count", "fifo"]),
            root: w.word() % 2 == 0,
            score: w.float(),
            csm: w.float(),
            prog_est: w.float(),
            est_ticks: w.int(),
            weights: (0..w.word() % 4).map(|_| w.float()).collect(),
        },
        3 => TraceEvent::Emission {
            tick: w.int(),
            query: w.narrow(),
            seq: w.int(),
            rid: w.narrow(),
            tid: w.int(),
            utility: w.float(),
            satisfaction: w.float(),
        },
        4 => TraceEvent::EstimateAudit {
            scheduled_tick: w.int(),
            completed_tick: w.int(),
            group: w.narrow(),
            region: w.narrow(),
            estimate: ReconciledEstimate {
                est_join: w.float(),
                est_skyline: w.float(),
                est_ticks: w.int(),
                actual_join: w.int(),
                actual_skyline: w.int(),
                actual_ticks: w.int(),
            },
        },
        5 => TraceEvent::FaultInjected {
            tick: w.int(),
            group: w.narrow(),
            region: w.narrow(),
            kind: w.of(&[
                "cost_spike",
                "estimator",
                "panic",
                "admit_panic",
                "admit_est",
            ]),
            factor: w.float(),
        },
        6 => TraceEvent::RegionRetry {
            tick: w.int(),
            group: w.narrow(),
            region: w.narrow(),
            attempt: w.narrow(),
            backoff_ticks: w.int(),
        },
        7 => TraceEvent::RegionQuarantined {
            tick: w.int(),
            group: w.narrow(),
            region: w.narrow(),
            attempts: w.narrow(),
        },
        8 => TraceEvent::RegionShed {
            tick: w.int(),
            group: w.narrow(),
            region: w.narrow(),
            satisfaction: w.float(),
        },
        9 => TraceEvent::Admit {
            tick: w.int(),
            query: w.narrow(),
            contract: text,
            group: w.narrow(),
            incremental: w.word() % 2 == 0,
        },
        10 => TraceEvent::Depart {
            tick: w.int(),
            query: w.narrow(),
            regions_retired: w.narrow(),
        },
        11 => TraceEvent::AdmissionReject {
            tick: w.int(),
            session: w.int(),
            reason: w.of(&["full", "invalid"]),
            depth: w.narrow(),
            bound: w.narrow(),
        },
        12 => TraceEvent::ServerShutdown {
            tick: w.int(),
            queued: w.narrow(),
            drained: w.narrow(),
            snapshot_version: w.narrow(),
        },
        13 => TraceEvent::ServerRestore {
            tick: w.int(),
            snapshot_version: w.narrow(),
            queued: w.narrow(),
            completed: w.narrow(),
        },
        _ => TraceEvent::IngestAudit {
            tick: w.int(),
            table: text,
            policy: w.of(&["reject", "quarantine", "clamp"]),
            quarantined: w.int(),
            clamped: w.int(),
        },
    }
}

/// Characters that steer a JSON reader, plus arbitrary code points.
fn arb_char() -> impl Strategy<Value = char> {
    const STEER: &[char] = &[
        '{', '}', '[', ']', ',', ':', '"', '\\', 'u', '0', '-', '.', 'e', 'n', '\n', '\u{1}', 'é',
        '😀',
    ];
    prop_oneof![
        (0..STEER.len()).prop_map(|i| STEER[i]),
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
    ]
}

/// A trace of 1–8 generated events of any kind.
fn arb_trace() -> impl Strategy<Value = Vec<TraceEvent>> {
    let one = (
        0usize..15,
        proptest::collection::vec(any::<u64>(), 16..17),
        proptest::collection::vec(arb_char(), 0..6),
    );
    proptest::collection::vec(one, 1..9).prop_map(|evs| {
        evs.into_iter()
            .map(|(kind, words, text)| {
                event(
                    kind,
                    &mut Words(words.into_iter()),
                    text.into_iter().collect(),
                )
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn trace_lines_are_typed_errors_or_round_trip(
        events in arb_trace(),
        at in any::<usize>(),
        bit in 0u32..8,
        cut in any::<usize>(),
        noise in proptest::collection::vec(arb_char(), 0..64),
    ) {
        let text = to_jsonl(&events);
        match from_jsonl(&text) {
            Ok(back) => prop_assert_eq!(to_jsonl(&back), text),
            Err(e) => prop_assert!(false, "{text}: {e}"),
        }
        // A bit flip reads back or is refused; a line cut short is refused.
        let mut bytes = text.clone().into_bytes();
        bytes[at % text.len()] ^= 1 << bit;
        let _ = from_jsonl(&String::from_utf8_lossy(&bytes));
        let line: Vec<char> = text.lines().next().unwrap_or_default().chars().collect();
        let short: String = line[..1 + cut % (line.len() - 1)].iter().collect();
        prop_assert!(from_jsonl(&short).is_err(), "{short:?} read as an event");
        let _ = from_jsonl(&noise.into_iter().collect::<String>());
    }
}
