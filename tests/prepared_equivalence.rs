//! The prepared-statement contract as executable properties:
//!
//! * **(a)** `prepare` + `bind` + session execution is **bitwise
//!   identical** to executing the equivalent literal query text through
//!   `execute()` — same hits, names and distances — at 1 and 4 threads,
//!   against the in-memory database and against a snapshot-reloaded one.
//! * **(b)** draining a streaming [`Cursor`] yields exactly the hits of
//!   the materialized `QueryOutput`.
//! * **(c)** a partially consumed range cursor's `nodes_visited` is
//!   strictly below the full execution's on the Figure 9 corpus — early
//!   termination really does abandon index descent.
//!
//! Plus the acceptance regression: prepare once, execute N bindings,
//! with plan-cache hits ≥ N−1 reported in the session statistics.

mod common;

use common::{assert_outputs_bitwise_equal, corpus, db_with, indexed_db, walk_relation};
use proptest::prelude::*;
use similarity_queries::prelude::*;
use similarity_queries::query::QueryOutput;

/// One random parameterizable query: the template text, its positional
/// bindings, and the equivalent literal text.
#[derive(Debug, Clone)]
struct Case {
    template: String,
    params: Vec<Value>,
    literal: String,
}

fn transform_strategy() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just(""),
        Just(" USING mavg(5) ON BOTH"),
        Just(" USING reverse ON BOTH"),
    ]
}

fn force_strategy() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just(""), Just(" FORCE SCAN")]
}

fn case_strategy(rows: usize) -> impl Strategy<Value = Case> {
    prop_oneof![
        // Range by row id, parameterized (row, eps).
        (0..rows, 0.1f64..6.0, transform_strategy(), force_strategy()).prop_map(
            |(row, eps, t, f)| {
                Case {
                    template: format!("FIND SIMILAR TO ROW ? IN r{t} EPSILON ?{f}"),
                    params: vec![Value::from(row), Value::from(eps)],
                    literal: format!("FIND SIMILAR TO ROW {row} IN r{t} EPSILON {eps}{f}"),
                }
            }
        ),
        // kNN, parameterized (k, row).
        (1usize..8, 0..rows, force_strategy()).prop_map(|(k, row, f)| Case {
            template: format!("FIND $k NEAREST TO ROW $row IN r{f}"),
            params: vec![Value::from(k), Value::from(row)],
            literal: format!("FIND {k} NEAREST TO ROW {row} IN r{f}"),
        }),
        // Range with a MEAN window, parameterized (row, tol, eps) — the
        // window's lexical position precedes EPSILON, pinning positional
        // ordering.
        (0..rows, 0.1f64..3.0, 0.1f64..6.0, transform_strategy()).prop_map(|(row, tol, eps, t)| {
            Case {
                template: format!("FIND SIMILAR TO ROW ? IN r{t} MEAN WITHIN ? EPSILON ?"),
                params: vec![Value::from(row), Value::from(tol), Value::from(eps)],
                literal: format!(
                    "FIND SIMILAR TO ROW {row} IN r{t} MEAN WITHIN {tol} EPSILON {eps}"
                ),
            }
        }),
    ]
}

/// Executes a case both ways and asserts bitwise-identical outputs.
fn assert_case_equivalent(db: &Database, case: &Case, what: &str) {
    let session = Session::new(db);
    let prepared = session.prepare(&case.template).unwrap();
    let (positional, named): (Vec<_>, Vec<_>) = {
        // kNN templates use named parameters $k/$row (in that order).
        if case.template.contains("$k") {
            (
                Vec::new(),
                vec![
                    ("k", case.params[0].clone()),
                    ("row", case.params[1].clone()),
                ],
            )
        } else {
            (case.params.clone(), Vec::new())
        }
    };
    let bound = prepared.bind_all(&positional, &named).unwrap();
    let via_session = session.execute(&bound).unwrap();
    let via_text = execute(db, &case.literal).unwrap();
    assert_outputs_bitwise_equal(&via_session, &via_text, what);
    // The prepare planted the plan: execution must have hit the cache.
    assert_eq!(via_session.stats.plan_cache_hits, 1, "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// (a) prepared+bound == literal text, serial and at 4 threads,
    /// in memory and after a snapshot round-trip.
    #[test]
    fn prepared_equals_literal_execution(
        seed in 0u64..300,
        cases in prop::collection::vec(case_strategy(30), 1..6),
    ) {
        let series = corpus(seed, 30, 64);
        let mut db = db_with(&series, FeatureScheme::paper_default());
        let path = std::env::temp_dir().join(format!("simq-prep-eq-{seed}.simq"));
        db.save_snapshot(&path).unwrap();
        let mut reopened = Database::open_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for threads in [1usize, 4] {
            let parallelism = if threads == 1 {
                Parallelism::Serial
            } else {
                Parallelism::Fixed(threads)
            };
            db.set_parallelism(parallelism);
            reopened.set_parallelism(parallelism);
            for (i, case) in cases.iter().enumerate() {
                assert_case_equivalent(&db, case, &format!("case {i} ({threads} threads)"));
                assert_case_equivalent(
                    &reopened,
                    case,
                    &format!("case {i} ({threads} threads, reopened)"),
                );
            }
        }
    }

    /// (b) draining a cursor equals the materialized output, for index
    /// range, scan range and kNN paths.
    #[test]
    fn cursor_drain_equals_materialized_output(
        seed in 0u64..200,
        row in 0usize..25,
        eps in 0.5f64..8.0,
        k in 1usize..9,
        force_scan in prop_oneof![Just(false), Just(true)],
    ) {
        let series = corpus(seed.wrapping_add(131), 25, 64);
        let db = db_with(&series, FeatureScheme::paper_default());
        let session = Session::new(&db);
        let force = if force_scan { " FORCE SCAN" } else { "" };
        for text in [
            format!("FIND SIMILAR TO ROW {row} IN r EPSILON {eps}{force}"),
            format!("FIND {k} NEAREST TO ROW {row} IN r{force}"),
        ] {
            let materialized = execute(&db, &text).unwrap();
            let QueryOutput::Hits(want) = &materialized.output else {
                panic!("expected hits");
            };
            let mut cursor = session.cursor_text(&text).unwrap();
            let drained = cursor.drain_sorted();
            prop_assert_eq!(drained.len(), want.len(), "{}", text);
            for (a, b) in drained.iter().zip(want) {
                prop_assert_eq!(a.id, b.id, "{}", text);
                prop_assert_eq!(&a.name, &b.name, "{}", text);
                prop_assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "{}", text);
            }
        }
    }
}

/// (c) On the Figure 9 corpus (random walks, as in `repro fig9`), a
/// cursor consumed for only a handful of hits descends strictly fewer
/// index nodes than the full execution — and stops growing once dropped.
#[test]
fn partially_consumed_cursor_descends_less_of_the_index() {
    let db = indexed_db(walk_relation("r", 19970513, 2000, 64));
    let session = Session::new(&db);
    let prepared = session
        .prepare("FIND SIMILAR TO ROW ? IN r EPSILON ?")
        .unwrap();
    // A wide radius: many hits spread over many leaves.
    let bound = prepared
        .bind(&[Value::from(0usize), Value::from(60.0)])
        .unwrap();
    let full = session.execute(&bound).unwrap();
    let QueryOutput::Hits(full_hits) = &full.output else {
        panic!("expected hits");
    };
    assert!(
        full_hits.len() > 100,
        "corpus should produce many hits, got {}",
        full_hits.len()
    );
    assert!(full.stats.leaves_visited > 4, "{:?}", full.stats);

    let mut cursor = session.cursor(&bound).unwrap();
    for _ in 0..3 {
        assert!(cursor.next().is_some());
    }
    let partial = cursor.stats();
    assert!(
        partial.nodes_visited < full.stats.nodes_visited,
        "partial consumption visited {} nodes, full run {}",
        partial.nodes_visited,
        full.stats.nodes_visited
    );
    assert!(partial.verified == 3);
    // Dropping the cursor abandons the descent; a fully drained cursor
    // converges to the materializing traversal's node count.
    let mut drained = session.cursor(&bound).unwrap();
    let all = drained.drain_sorted();
    assert_eq!(all.len(), full_hits.len());
    assert_eq!(drained.stats().nodes_visited, full.stats.nodes_visited);
}

/// The acceptance regression: prepare once, bind/execute N times —
/// results bitwise-identical to N literal executions, plan-cache hits
/// ≥ N−1 in the session stats.
#[test]
fn prepare_once_execute_many_hits_the_plan_cache() {
    let series = corpus(42, 60, 64);
    let db = db_with(&series, FeatureScheme::paper_default());
    let session = Session::new(&db);
    let prepared = session
        .prepare("FIND SIMILAR TO ROW $row IN r USING mavg(5) ON BOTH EPSILON $eps")
        .unwrap();
    let n = 16u64;
    for i in 0..n {
        let row = (i * 7) % 60;
        let eps = 0.5 + i as f64 * 0.2;
        let bound = prepared
            .bind_named(&[("row", Value::from(row)), ("eps", Value::from(eps))])
            .unwrap();
        let via_session = session.execute(&bound).unwrap();
        let via_text = execute(
            &db,
            &format!("FIND SIMILAR TO ROW {row} IN r USING mavg(5) ON BOTH EPSILON {eps}"),
        )
        .unwrap();
        assert_outputs_bitwise_equal(&via_session, &via_text, &format!("binding {i}"));
    }
    let stats = session.stats();
    assert!(
        stats.plan_cache_hits >= n - 1,
        "expected ≥ {} plan-cache hits, got {}",
        n - 1,
        stats.plan_cache_hits
    );
    assert_eq!(stats.plan_cache_misses, 1); // the prepare itself
    assert_eq!(stats.executions, n);
}

/// A prepared batch through the session: plans come from the cache and
/// every slot — duplicate bindings included — equals its individual
/// execution bitwise.
#[test]
fn prepared_batch_equals_individual_execution() {
    let series = corpus(7, 120, 64);
    let db = db_with(&series, FeatureScheme::paper_default());
    let session = Session::new(&db);
    let prepared = session
        .prepare("FIND SIMILAR TO ROW ? IN r EPSILON ?")
        .unwrap();
    let bindings: Vec<(usize, f64)> = (0..12)
        .map(|i| ((i * 11) % 120, 0.8 + (i % 5) as f64 * 0.5))
        // Repeat the first four bindings: duplicates are ordinary slots.
        .chain((0..4).map(|i| ((i * 11) % 120, 0.8 + (i % 5) as f64 * 0.5)))
        .collect();
    let bounds: Vec<Bound> = bindings
        .iter()
        .map(|&(row, eps)| {
            prepared
                .bind(&[Value::from(row), Value::from(eps)])
                .unwrap()
        })
        .collect();
    let batch = session.execute_batch(&bounds);
    assert_eq!(batch.results.len(), bounds.len());
    assert!(batch.stats.plan_cache_hits >= bounds.len() as u64);
    for (i, &(row, eps)) in bindings.iter().enumerate() {
        let individual = execute(
            &db,
            &format!("FIND SIMILAR TO ROW {row} IN r EPSILON {eps}"),
        )
        .unwrap();
        assert_outputs_bitwise_equal(
            batch.results[i].as_ref().unwrap(),
            &individual,
            &format!("slot {i}"),
        );
    }
}
