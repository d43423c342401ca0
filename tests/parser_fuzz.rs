//! Parser robustness as a property: `simq_query::parse` and
//! `parse_template` must never panic. Whatever bytes or token soup comes
//! in, the answer is `Ok(query)` or a *structured* error —
//! [`QueryError::Lex`] / [`QueryError::Parse`] with a byte offset inside
//! the input — never an index-out-of-bounds, a UTF-8 slice panic, or an
//! unwrap on malformed numbers.
//!
//! The template leg prepares random statement shapes whose constant slots
//! are literals or placeholders and binds random values (NaN, ±∞,
//! negative, fractional, 2⁵³ ± 1, empty and NaN series, wrong types): a
//! binding is `Ok` or [`QueryError::Bind`], never a panic, and an `Ok`
//! binding equals `parse` of the text with each value written in as a
//! literal.

use proptest::prelude::*;
use similarity_queries::query::session::{Session, Value};
use similarity_queries::query::{parse, parse_template, Database, ParamRef, ParamType, QueryError};
use similarity_queries::series::features::FeatureScheme;
use similarity_queries::storage::SeriesRelation;
use std::sync::OnceLock;

/// Parses (plainly and as a template) and checks the no-panic /
/// structured-error contract.
fn check(input: &str) {
    // `parse` fails as the template parse does, and refuses exactly the
    // statements with a placeholder, at the first one.
    match parse_template(input) {
        Err(err) => assert_eq!(parse(input), Err(err), "{input:?}"),
        Ok(parsed) => match (parsed.params.first(), parse(input)) {
            (None, Ok(query)) => assert_eq!(query, parsed.query, "{input:?}"),
            (Some(first), Err(QueryError::Parse { offset, .. })) => {
                assert_eq!(offset, Some(first.offset), "{input:?}")
            }
            (first, other) => panic!("{input:?}: placeholder {first:?}, parse gave {other:?}"),
        },
    }
    match parse(input) {
        Ok(_) => {}
        Err(QueryError::Lex { offset, .. }) => {
            assert!(
                offset <= input.len(),
                "lex offset {offset} outside input of {} bytes: {input:?}",
                input.len()
            );
        }
        Err(QueryError::Parse { offset, .. }) => {
            if let Some(o) = offset {
                assert!(
                    o <= input.len(),
                    "parse offset {o} outside input of {} bytes: {input:?}",
                    input.len()
                );
            }
        }
        Err(other) => panic!("parse returned a non-parser error for {input:?}: {other:?}"),
    }
}

/// One atom of a token-shaped stream: keywords, transformation names,
/// punctuation, numbers, identifiers and junk fragments, so the streams
/// exercise deep parser states (not just the lexer's first error).
fn atom() -> impl Strategy<Value = String> {
    prop_oneof![
        prop_oneof![
            Just("FIND"),
            Just("SIMILAR"),
            Just("TO"),
            Just("IN"),
            Just("EPSILON"),
            Just("NEAREST"),
            Just("PAIRS"),
            Just("USING"),
            Just("THEN"),
            Just("ON"),
            Just("BOTH"),
            Just("ONE"),
            Just("FORCE"),
            Just("SCAN"),
            Just("INDEX"),
            Just("ROW"),
            Just("NAME"),
            Just("MEAN"),
            Just("STD"),
            Just("WITHIN"),
            Just("METHOD"),
            Just("EXPLAIN"),
            Just("ANALYZE"),
            Just("MATCHING"),
            Just("AGAINST"),
            Just("?"),
            Just("$a"),
            Just("$b"),
        ]
        .prop_map(str::to_string),
        prop_oneof![
            Just("mavg"),
            Just("wmavg"),
            Just("reverse"),
            Just("identity"),
            Just("shift"),
            Just("scale"),
            Just("warp"),
            Just("("),
            Just(")"),
            Just("["),
            Just("]"),
            Just(","),
            Just("-"),
            Just("+"),
            Just("."),
            Just("e"),
            Just("E"),
            Just("--"),
            Just("1.2.3"),
            Just("1e"),
            Just(".e-"),
        ]
        .prop_map(str::to_string),
        "[a-z_]{1,8}".prop_map(|s| s),
        (-1.0e9f64..1.0e9).prop_map(|n| format!("{n}")),
        (0u32..5).prop_map(|n| "[".repeat(n as usize)),
    ]
}

/// Slot texts: a placeholder or a literal, valid or not.
const NUMBERS: [&str; 7] = ["?", "$a", "$b", "1.5", "0", "-1", "2"];
const INTEGERS: [&str; 7] = [
    "?",
    "$a",
    "$b",
    "3",
    "2.5",
    "9007199254740991",
    "9007199254740993",
];
const SOURCES: [&str; 8] = [
    "?", "$a", "$b", "ROW ?", "ROW $b", "ROW 2", "[1, 2.5]", "NAME S1",
];

/// A statement of any form, optionally under `EXPLAIN [ANALYZE]`, whose
/// slots come from the tables above and whose range clauses come in any
/// order (sometimes without `EPSILON`).
fn template() -> impl Strategy<Value = String> {
    (
        0usize..3,
        0..SOURCES.len(),
        0..INTEGERS.len(),
        (0..NUMBERS.len(), 0..NUMBERS.len(), 0..NUMBERS.len()),
        0usize..6,
        0usize..3,
    )
        .prop_map(|(form, source, k, (eps, mean, std), order, wrap)| {
            let body = match form {
                0 => {
                    let mut clauses = vec![
                        format!("EPSILON {}", NUMBERS[eps]),
                        format!("MEAN WITHIN {}", NUMBERS[mean]),
                        format!("STD WITHIN {}", NUMBERS[std]),
                    ];
                    clauses.rotate_left(order % 3);
                    if order >= 3 {
                        clauses.pop();
                    }
                    format!(
                        "FIND SIMILAR TO {} IN r {}",
                        SOURCES[source],
                        clauses.join(" ")
                    )
                }
                1 => format!(
                    "FIND {} NEAREST TO {} IN r USING mavg(2)",
                    INTEGERS[k], SOURCES[source]
                ),
                _ => format!("FIND PAIRS IN r EPSILON {} METHOD b", NUMBERS[eps]),
            };
            format!("{}{body}", ["", "EXPLAIN ", "EXPLAIN ANALYZE "][wrap])
        })
}

/// How one parameter is bound: two times in three a valid value of the
/// slot's type (chosen by the index), else the wild value.
type Pick = (u8, usize, Value);

fn pick() -> impl Strategy<Value = Pick> {
    (0u8..3, 0usize..3, wild())
}

fn bind_value((mode, i, wild): &Pick, ty: ParamType) -> Value {
    match (mode, ty) {
        (0, _) => wild.clone(),
        (_, ParamType::Number) => Value::from([0.0, 0.5, 3.0][*i]),
        (_, ParamType::Integer) => Value::from([0, 3, (1u64 << 53) - 1][*i]),
        (_, ParamType::Series) => Value::from([&[][..], &[1.0, 2.5], &[-3.0, 0.25]][*i]),
    }
}

/// A wild bind value: right and wrong types, in and out of every domain.
fn wild() -> impl Strategy<Value = Value> {
    let numbers = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -2.0,
        0.5,
        0.0,
        3.0,
    ];
    (0usize..14).prop_map(move |i| match i {
        0..=6 => Value::Number(numbers[i]),
        // 2⁵³ − 1, 2⁵³ and 2⁵³ + 1, through `From<u64>` as a caller binds them.
        7..=9 => Value::from((1u64 << 53) + i as u64 - 8),
        10 => Value::Series(vec![]),
        11 => Value::Series(vec![f64::NAN, 1.0]),
        12 => Value::Series(vec![1.0, 2.5]),
        _ => Value::Series(vec![-3.0, 0.25, 7.0]),
    })
}

/// The relation `r` every template names (4 rows of length 8).
fn database() -> &'static Database {
    static DB: OnceLock<Database> = OnceLock::new();
    DB.get_or_init(|| {
        let mut rel = SeriesRelation::new("r", 8, FeatureScheme::paper_default());
        for i in 0..4u32 {
            let series = (0..8)
                .map(|t| f64::from(t * (i + 1)).sin())
                .collect::<Vec<_>>();
            rel.insert(format!("S{i}"), series).unwrap();
        }
        let mut db = Database::new();
        db.add_relation_indexed(rel);
        db
    })
}

/// A bound value written as a literal (`Debug` round-trips an f64).
fn literal(value: &Value) -> String {
    match value {
        Value::Number(v) => format!("{v:?}"),
        Value::Series(s) => format!("{s:?}"),
    }
}

/// Prepares `text` and binds every parameter it takes by its `Pick`
/// (positional ones from `picks`, one too few when `short`; `$a` / `$b`
/// from `a` / `b`): `Ok` or a `Bind` error, and an `Ok` query equals the
/// literal text's.
fn check_binding(text: &str, picks: &[Pick], a: &Pick, b: &Pick, short: bool) {
    check(text);
    let session = Session::new(database());
    let prepared = match session.prepare(text) {
        Ok(p) => p,
        Err(QueryError::Bind(_)) => return, // one name used as two types
        Err(err) => {
            assert_eq!(Err(err), parse_template(text).map(|_| ()), "{text}");
            return;
        }
    };
    let (mut positional, mut named) = (Vec::new(), Vec::new());
    for slot in prepared.signature() {
        match slot.name.as_deref() {
            None => positional.push(bind_value(&picks[positional.len()], slot.ty)),
            Some(name) => named.push((name, bind_value(if name == "a" { a } else { b }, slot.ty))),
        }
    }
    if short {
        positional.pop();
    }
    let bound = match prepared.bind_all(&positional, &named) {
        Ok(bound) => bound,
        Err(QueryError::Bind(_)) => return,
        Err(other) => panic!("{text}: binding returned a non-bind error {other:?}"),
    };
    let mut substituted = text.to_string();
    for occ in parse_template(text).unwrap().params.iter().rev() {
        let (value, len) = match &occ.reference {
            ParamRef::Positional(i) => (&positional[*i], 1),
            ParamRef::Named(name) => {
                let (_, value) = named.iter().find(|(n, _)| n == name).unwrap();
                (value, 1 + name.len())
            }
        };
        substituted.replace_range(occ.offset..occ.offset + len, &literal(value));
    }
    assert_eq!(
        parse(&substituted).as_ref(),
        Ok(bound.query()),
        "{text} bound ≠ {substituted}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Random templates bound to random values: never a panic; a binding
    /// that succeeds equals its literal text.
    #[test]
    fn bound_templates_equal_their_literal_text(
        text in template(),
        picks in prop::collection::vec(pick(), 6),
        (a, b) in (pick(), pick()),
        short in 0u8..10,
    ) {
        check_binding(&text, &picks, &a, &b, short == 0);
    }

    /// Arbitrary byte soup (lossily decoded) never panics the pipeline.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..120)) {
        let input = String::from_utf8_lossy(&bytes);
        check(&input);
    }

    /// Arbitrary printable character soup — denser in the lexer's
    /// accepted alphabet than raw bytes, so it reaches the parser more
    /// often.
    #[test]
    fn printable_soup_never_panics(input in "[a-zA-Z0-9_()., \\-]{0,100}") {
        check(&input);
    }

    /// Token-shaped streams: structurally plausible but arbitrarily
    /// scrambled queries exercise every parser production and recovery
    /// path.
    #[test]
    fn token_streams_never_panic(parts in prop::collection::vec(atom(), 0..40)) {
        check(&parts.join(" "));
        // Also without separating spaces: adjacency changes tokenization.
        check(&parts.concat());
    }

    /// Mutations of a valid query (truncations at every byte) stay
    /// structured.
    #[test]
    fn truncations_of_valid_queries_never_panic(
        cut_frac in 0.0f64..1.0,
        row in 0u64..100,
        eps in 0.0f64..10.0,
    ) {
        let q = format!(
            "EXPLAIN FIND SIMILAR TO ROW {row} IN stocks USING reverse THEN mavg(8) \
             ON BOTH EPSILON {eps} MEAN WITHIN 1.5 STD WITHIN 0.5 FORCE INDEX"
        );
        let cut = ((q.len() as f64) * cut_frac) as usize;
        if q.is_char_boundary(cut) {
            check(&q[..cut]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]

    /// Long variant of the template leg (`--ignored`, release).
    #[test]
    #[ignore]
    fn bound_templates_equal_their_literal_text_long(
        text in template(),
        picks in prop::collection::vec(pick(), 6),
        (a, b) in (pick(), pick()),
        short in 0u8..10,
    ) {
        check_binding(&text, &picks, &a, &b, short == 0);
    }
}
