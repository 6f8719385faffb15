//! The two CLI grammars — `--faults` (`FaultPlan`) and `--events`
//! (`EventStream`) — under generated and mutated specs: every input gives
//! a typed `BadFaultSpec` / `BadEventSpec` or a value, never a panic, and
//! every value survives a render-and-reparse round trip.

use caqe::contract::Contract;
use caqe::core::{EventStream, QuerySpec, SessionEvent};
use caqe::faults::FaultPlan;
use caqe::operators::MappingSet;
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
