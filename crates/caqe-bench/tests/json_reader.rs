//! The bench JSON reader under size, depth and arbitrary input: linear in
//! the document, an `Err` (not a stack overflow) on runaway nesting, `Ok`
//! or `Err` — never a panic — on any text, and `ObjectWriter` output
//! always reads back.

use caqe_bench::json::ObjectWriter;
use caqe_trace::json::{parse, JsonValue};
use proptest::prelude::*;

#[test]
fn wide_objects_parse_in_linear_time() {
    // 20 000 metric-style keys (~1 MB): re-validating the rest of the
    // document for every string char took seconds at 16 000.
    let mut w = ObjectWriter::new();
    for i in 0..20_000 {
        w.number(&format!("layer_{i}.phase_wall_s"), i as f64 * 0.5);
    }
    let started = std::time::Instant::now();
    let v = parse(&w.finish()).unwrap();
    match &v {
        JsonValue::Object(map) => assert_eq!(map.len(), 20_000),
        other => panic!("expected object, got {other:?}"),
    }
    assert_eq!(v["layer_19999.phase_wall_s"], 9999.5);
    assert!(started.elapsed().as_secs() < 5, "parse is not linear");
}

#[test]
fn runaway_nesting_is_an_error() {
    // Deep enough to overflow the stack of an unbounded descent.
    assert!(parse(&"[".repeat(100_000)).is_err());
    assert!(parse(&("[".repeat(100_000) + &"]".repeat(100_000))).is_err());
}

/// Characters that steer the parser, plus arbitrary code points
/// (multi-byte ones included).
fn arb_char() -> impl Strategy<Value = char> {
    const STEER: &[char] = &[
        '{', '}', '[', ']', ',', ':', '"', '\\', 'u', '0', '9', 'a', 'F', '-', '+', '.', 'e', 't',
        'r', 'n', 'l', 'f', ' ', '\n', 'é', '😀',
    ];
    prop_oneof![
        (0..STEER.len()).prop_map(|i| STEER[i]),
        (0u32..0x11_0000).prop_map(|c| char::from_u32(c).unwrap_or('\u{fffd}')),
    ]
}

proptest! {
    #[test]
    fn any_text_parses_or_errs(chars in proptest::collection::vec(arb_char(), 0..64)) {
        // Reaching the end without a panic is the property.
        let text: String = chars.into_iter().collect();
        let _ = parse(&text);
    }

    #[test]
    fn any_mutation_of_a_report_parses_or_errs(
        at in any::<usize>(),
        c in arb_char(),
        cut in any::<usize>(),
    ) {
        let mut w = ObjectWriter::new();
        w.string("strategy", "CA\"QE\u{1}é").number("x", -1.5e-7).uint("n", 42);
        w.raw("nested", "[1,{\"a\":[null,true]},\"s\"]");
        let chars: Vec<char> = w.finish().chars().collect();
        let mut mutated = chars.clone();
        mutated[at % chars.len()] = c;
        let _ = parse(&mutated.iter().collect::<String>());
        let _ = parse(&chars[..cut % chars.len()].iter().collect::<String>());
    }

    #[test]
    fn writer_output_round_trips(
        fields in proptest::collection::vec(
            (proptest::collection::vec(arb_char(), 0..12), any::<u64>(), any::<u64>()),
            0..16,
        ),
    ) {
        let mut w = ObjectWriter::new();
        for (i, (text, bits, n)) in fields.iter().enumerate() {
            let text: String = text.iter().collect();
            w.string(&format!("s{i}{text}"), &text)
                .number(&format!("f{i}"), f64::from_bits(*bits))
                .uint(&format!("u{i}"), *n);
        }
        let v = parse(&w.finish()).map_err(TestCaseError::Fail)?;
        for (i, (text, bits, n)) in fields.iter().enumerate() {
            let text: String = text.iter().collect();
            prop_assert_eq!(&v[format!("s{i}{text}").as_str()], &JsonValue::String(text));
            let f = f64::from_bits(*bits);
            let want = if f.is_finite() { JsonValue::Number(f) } else { JsonValue::Null };
            prop_assert_eq!(&v[format!("f{i}").as_str()], &want);
            prop_assert_eq!(&v[format!("u{i}").as_str()], &JsonValue::Number(*n as f64));
        }
    }
}
