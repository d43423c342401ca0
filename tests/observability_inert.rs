//! Observability must observe, never steer: toggling span tracing on
//! cannot change what any query computes — results stay bitwise
//! identical and every work counter stays *equal*, not merely close.
//!
//! Covered surface: range (index and forced scan), kNN, all-pairs joins,
//! prepared statements, streaming cursors and batches, each at 1 and 4
//! threads over 1 and 4 shards; plus `EXPLAIN ANALYZE`, whose inner
//! output must be bitwise identical to the uninstrumented run of the
//! same query.
//!
//! The global tracing toggle is process-wide, so every test that flips
//! it holds one mutex — the toggle tests serialize against each other
//! but not against the rest of the suite (whose correctness cannot
//! depend on the flag; that is the very property under test).
//!
//! No form's counters depend on a schedule (index descents and kNN run on
//! one thread; scans and joins split their rows statically or count per
//! row), so every comparison covers the merged and per-shard counters at
//! 4 threads as at 1.

mod common;

use common::{assert_outputs_bitwise_equal, corpus, db_over, QUERY_FORMS};
use similarity_queries::obs::span;
use similarity_queries::prelude::*;
use similarity_queries::query::{Hit, QueryResult};
use std::sync::Mutex;

static TRACE_LOCK: Mutex<()> = Mutex::new(());

/// A database over a seeded corpus: unsharded when `shards == 1`.
fn build_db(shards: usize, threads: usize) -> Database {
    db_over(&corpus(97, 60, 64), shards, threads)
}

/// Work counters that must not move when tracing turns on.
fn assert_stats_equal(off: &QueryResult, on: &QueryResult, what: &str) {
    assert_eq!(off.stats, on.stats, "{what}: merged stats moved");
    assert_eq!(off.per_shard, on.per_shard, "{what}: per-shard stats moved");
}

#[test]
fn tracing_is_inert_for_every_query_form() {
    let _guard = TRACE_LOCK.lock().unwrap();
    for shards in [1usize, 4] {
        for threads in [1usize, 4] {
            let db = build_db(shards, threads);
            for q in QUERY_FORMS {
                let label = format!("{q} (threads {threads}, shards {shards})");
                span::set_tracing(false);
                let off = execute(&db, q).expect("query runs with tracing off");
                span::set_tracing(true);
                let on = execute(&db, q).expect("query runs with tracing on");
                let records = span::take_records();
                span::set_tracing(false);
                assert!(
                    !records.is_empty(),
                    "{label}: tracing on collected no spans"
                );
                assert_outputs_bitwise_equal(&off, &on, &label);
                assert_stats_equal(&off, &on, &label);
            }
        }
    }
}

#[test]
fn tracing_is_inert_for_prepared_statements_and_cursors() {
    let _guard = TRACE_LOCK.lock().unwrap();
    for shards in [1usize, 4] {
        for threads in [1usize, 4] {
            let db = build_db(shards, threads);
            let label = format!("prepared/cursor (threads {threads}, shards {shards})");

            let run = |tracing: bool| -> (QueryResult, Vec<Hit>) {
                span::set_tracing(tracing);
                let session = Session::new(&db);
                let p = session
                    .prepare("FIND SIMILAR TO ROW ? IN r EPSILON ?")
                    .unwrap();
                let bound = p.bind(&[Value::from(0u64), Value::from(25.0)]).unwrap();
                let executed = session.execute(&bound).unwrap();
                let streamed: Vec<Hit> = session.cursor(&bound).unwrap().collect();
                let _ = span::take_records();
                span::set_tracing(false);
                (executed, streamed)
            };
            let (exec_off, stream_off) = run(false);
            let (exec_on, stream_on) = run(true);

            assert_outputs_bitwise_equal(&exec_off, &exec_on, &label);
            assert_stats_equal(&exec_off, &exec_on, &label);
            assert_eq!(stream_off.len(), stream_on.len(), "{label}");
            for (a, b) in stream_off.iter().zip(&stream_on) {
                assert_eq!(a.id, b.id, "{label}");
                assert_eq!(a.distance.to_bits(), b.distance.to_bits(), "{label}");
            }
        }
    }
}

#[test]
fn tracing_is_inert_for_batches() {
    let _guard = TRACE_LOCK.lock().unwrap();
    let texts = [
        "FIND SIMILAR TO ROW 0 IN r EPSILON 3.0",
        "FIND SIMILAR TO ROW 1 IN r EPSILON 3.0",
        "FIND SIMILAR TO ROW 2 IN r EPSILON 2.0",
        "FIND 4 NEAREST TO ROW 3 IN r",
    ];
    for shards in [1usize, 4] {
        for threads in [1usize, 4] {
            let db = build_db(shards, threads);
            let label = format!("batch (threads {threads}, shards {shards})");

            span::set_tracing(false);
            let off = execute_batch(&db, &texts);
            span::set_tracing(true);
            let on = execute_batch(&db, &texts);
            let _ = span::take_records();
            span::set_tracing(false);

            assert_eq!(off.stats, on.stats, "{label}");
            for (i, (a, b)) in off.results.iter().zip(&on.results).enumerate() {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                let what = format!("{label} [{i}]");
                assert_outputs_bitwise_equal(a, b, &what);
                assert_stats_equal(a, b, &what);
            }
        }
    }
}

/// A batch slot is an ordinary execution to the metrics registry and the
/// tracer: N executable statements move `query.executions` by exactly N
/// (and the shard work units by N × shards), and a traced serial batch
/// records every statement's own stages. (Every test of this binary that
/// executes queries holds `TRACE_LOCK`, so the deltas are exact.)
#[test]
fn batched_statements_count_and_trace_like_individual_ones() {
    use std::sync::atomic::Ordering;
    let _guard = TRACE_LOCK.lock().unwrap();
    let texts = [
        "FIND SIMILAR TO ROW 0 IN r EPSILON 3.0",
        "FIND SIMILAR TO ROW 1 IN r EPSILON 3.0",
        "FIND 4 NEAREST TO ROW 3 IN r",
        "FIND 4 NEAREST TO ROW 5 IN r",
        "FIND SIMILAR TO ROW 2 IN r EPSILON 2.0 FORCE SCAN",
        "NOT A QUERY",
    ];
    let m = similarity_queries::obs::metrics::registry();
    for (shards, threads) in [(1usize, 1usize), (4, 1), (4, 4)] {
        let db = build_db(shards, threads);
        let label = format!("threads {threads}, shards {shards}");
        let (executions, units, batched) = (
            m.query_executions.load(Ordering::Relaxed),
            m.query_shard_work_units.load(Ordering::Relaxed),
            m.batch_queries.load(Ordering::Relaxed),
        );
        span::set_tracing(threads == 1);
        let batch = execute_batch(&db, &texts);
        let records = span::take_records();
        span::set_tracing(false);
        assert_eq!(batch.results.iter().filter(|r| r.is_ok()).count(), 5);
        let moved = |now: u64, before: u64| now - before;
        assert_eq!(
            moved(m.query_executions.load(Ordering::Relaxed), executions),
            5,
            "{label}"
        );
        assert_eq!(
            moved(m.batch_queries.load(Ordering::Relaxed), batched),
            5,
            "{label}"
        );
        let per_statement = if shards > 1 { shards as u64 } else { 0 };
        assert_eq!(
            moved(m.query_shard_work_units.load(Ordering::Relaxed), units),
            5 * per_statement,
            "{label}"
        );
        if threads == 1 {
            let count = |name: &str| records.iter().filter(|r| r.name == name).count();
            assert_eq!(count("range.descend"), 2, "{label}");
            assert_eq!(count("range.verify"), 2, "{label}");
            assert_eq!(count("knn.rank"), 2, "{label}");
            assert_eq!(count("scan"), 1, "{label}");
        }
    }
}

#[test]
fn explain_analyze_output_is_bitwise_identical_to_plain_execution() {
    let _guard = TRACE_LOCK.lock().unwrap();
    span::set_tracing(false);
    for shards in [1usize, 4] {
        for threads in [1usize, 4] {
            let db = build_db(shards, threads);
            for q in QUERY_FORMS {
                let label = format!("ANALYZE {q} (threads {threads}, shards {shards})");
                let plain = execute(&db, q).expect("plain query runs");
                let analyzed =
                    execute(&db, &format!("EXPLAIN ANALYZE {q}")).expect("analyzed query runs");
                let QueryOutput::Analyzed { report, output } = &analyzed.output else {
                    panic!("{label}: expected an Analyzed output");
                };
                assert!(report.contains("operators:"), "{label}: report\n{report}");
                assert!(report.contains("total:"), "{label}");
                // The wrapper carries the inner run's counters verbatim.
                assert_stats_equal(&plain, &analyzed, &label);
                let unwrapped = QueryResult {
                    output: (**output).clone(),
                    plan: analyzed.plan.clone(),
                    stats: analyzed.stats,
                    per_thread: analyzed.per_thread.clone(),
                    per_shard: analyzed.per_shard.clone(),
                };
                assert_outputs_bitwise_equal(&plain, &unwrapped, &label);
            }
        }
    }
}

#[test]
fn analyze_in_a_batch_matches_plain_execution() {
    let _guard = TRACE_LOCK.lock().unwrap();
    span::set_tracing(false);
    let db = build_db(4, 4);
    let plain = execute(&db, "FIND SIMILAR TO ROW 0 IN r EPSILON 3.0").unwrap();
    let batch = execute_batch(
        &db,
        &[
            "EXPLAIN ANALYZE FIND SIMILAR TO ROW 0 IN r EPSILON 3.0",
            "FIND SIMILAR TO ROW 1 IN r EPSILON 3.0",
        ],
    );
    let analyzed = batch.results[0].as_ref().unwrap();
    let QueryOutput::Analyzed { output, .. } = &analyzed.output else {
        panic!("expected an Analyzed output from the batch");
    };
    let unwrapped = QueryResult {
        output: (**output).clone(),
        plan: analyzed.plan.clone(),
        stats: analyzed.stats,
        per_thread: analyzed.per_thread.clone(),
        per_shard: analyzed.per_shard.clone(),
    };
    assert_outputs_bitwise_equal(&plain, &unwrapped, "batched ANALYZE");
}

#[test]
fn spans_collect_nothing_while_tracing_is_off() {
    let _guard = TRACE_LOCK.lock().unwrap();
    span::set_tracing(false);
    let _ = span::take_records();
    let db = build_db(4, 4);
    for q in QUERY_FORMS {
        let _ = execute(&db, q).unwrap();
    }
    assert!(
        span::take_records().is_empty(),
        "spans were recorded with tracing off"
    );
}
