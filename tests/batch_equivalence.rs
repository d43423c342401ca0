//! The batched-execution contract as executable properties: a batch is
//! the single-query pipeline in a loop, so every slot of
//! [`execute_batch`] is exactly what one-at-a-time execution returns —
//! same hits, same names, bitwise-identical distances, same errors — for
//! range, kNN, `FORCE SCAN` and warp statements alike, at 1 and 4
//! threads, on 1 and 4 shards, with the signature tier on and off,
//! against the in-memory database and against a snapshot-reloaded one.
//! Under `Parallelism::Serial` a slot's `ExecStats` equal the individual
//! execution's too, and the batch's `stats` are always the sum of its
//! slots'.

mod common;

use common::{assert_outcomes_equal, corpus, db_with, relation_with};
use proptest::prelude::*;
use similarity_queries::prelude::*;
use similarity_queries::query::{execute_batch, BatchResult, ExecStats, QueryError, QueryResult};

fn set_threads(db: &mut Database, threads: usize) {
    db.set_parallelism(if threads == 1 {
        Parallelism::Serial
    } else {
        Parallelism::Fixed(threads)
    });
}

/// Executes `texts` one at a time — the reference the batch must match.
fn one_at_a_time(db: &Database, texts: &[&str]) -> Vec<Result<QueryResult, QueryError>> {
    texts.iter().map(|q| execute(db, q)).collect()
}

/// Asserts `batch.stats` is the sum of its slots' counters, with
/// `threads_used` the fan-out over `threads` (at least two workers and at
/// most one per slot once two slots can run, every slot serial inside).
fn assert_stats_are_the_slot_sum(batch: &BatchResult, threads: usize, what: &str) {
    let slots: Vec<&ExecStats> = batch.results.iter().flatten().map(|r| &r.stats).collect();
    let sum = |f: fn(&ExecStats) -> u64| slots.iter().map(|s| f(s)).sum::<u64>();
    let used = batch.stats.threads_used;
    if threads > 1 && slots.len() >= 2 {
        let most = threads.min(slots.len()) as u64;
        assert!((2..=most).contains(&used), "{what}: {used} workers");
        assert!(slots.iter().all(|s| s.threads_used == 1), "{what}");
    } else {
        assert_eq!(used, 1, "{what}");
    }
    let want = ExecStats {
        nodes_visited: sum(|s| s.nodes_visited),
        leaves_visited: sum(|s| s.leaves_visited),
        entries_tested: sum(|s| s.entries_tested),
        rows_scanned: sum(|s| s.rows_scanned),
        coefficients_compared: sum(|s| s.coefficients_compared),
        candidates: sum(|s| s.candidates),
        filtered_out: sum(|s| s.filtered_out),
        verified: sum(|s| s.verified),
        threads_used: used,
        ..ExecStats::default()
    };
    assert_eq!(batch.stats, want, "{what}");
}

/// Asserts batch results equal individual execution at 1 and 4 threads —
/// outputs always, `ExecStats` when serial.
fn assert_batch_equivalent(db: &mut Database, queries: &[String], what: &str) {
    let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
    for threads in [1usize, 4] {
        set_threads(db, threads);
        let what = format!("{what}, threads {threads}");
        let individual = one_at_a_time(db, &texts);
        let batch = execute_batch(db, &texts);
        assert_eq!(batch.results.len(), individual.len());
        for (i, (got, want)) in batch.results.iter().zip(&individual).enumerate() {
            assert_outcomes_equal(got, want, &format!("{} ({what})", texts[i]));
            if let (1, Ok(got), Ok(want)) = (threads, got, want) {
                assert_eq!(got.stats, want.stats, "{} ({what})", texts[i]);
                assert_eq!(got.per_thread, want.per_thread, "{} ({what})", texts[i]);
                assert_eq!(got.per_shard, want.per_shard, "{} ({what})", texts[i]);
            }
        }
        assert_stats_are_the_slot_sum(&batch, threads, &what);
    }
}

/// One random statement of a mix: range (either access path, optional
/// transformation — warp included), kNN (either access path), or an
/// all-pairs join.
fn query_strategy(rows: usize) -> impl Strategy<Value = String> {
    prop_oneof![
        (
            0..rows,
            0.1f64..6.0,
            prop_oneof![
                Just(""),
                Just(" USING mavg(5) ON BOTH"),
                Just(" USING reverse ON BOTH"),
                Just(" USING warp(2) ON BOTH"),
            ],
            prop_oneof![Just(""), Just(" FORCE SCAN")],
        )
            .prop_map(|(row, eps, t, f)| format!(
                "FIND SIMILAR TO ROW {row} IN r{t} EPSILON {eps}{f}"
            )),
        (
            1usize..8,
            0..rows,
            prop_oneof![Just(""), Just(" USING mavg(5) ON BOTH")],
            prop_oneof![Just(""), Just(" FORCE SCAN")]
        )
            .prop_map(|(k, row, t, f)| format!("FIND {k} NEAREST TO ROW {row} IN r{t}{f}")),
        (0.3f64..2.0, prop_oneof![Just('b'), Just('d')])
            .prop_map(|(eps, m)| format!("FIND PAIRS IN r USING mavg(8) EPSILON {eps} METHOD {m}")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random mixes against the in-memory database.
    #[test]
    fn batch_equals_one_at_a_time(
        seed in 0u64..300,
        queries in prop::collection::vec(query_strategy(30), 2..12),
    ) {
        let series = corpus(seed, 30, 64);
        let mut db = db_with(&series, FeatureScheme::paper_default());
        assert_batch_equivalent(&mut db, &queries, "in memory");
    }

    /// The same contract holds after a snapshot round-trip: the reopened
    /// database batches exactly like the built one executes individually.
    #[test]
    fn batch_equals_one_at_a_time_after_snapshot_reload(
        seed in 0u64..200,
        queries in prop::collection::vec(query_strategy(25), 2..8),
    ) {
        let series = corpus(seed.wrapping_add(47), 25, 64);
        let mut db = db_with(&series, FeatureScheme::paper_default());
        let path = std::env::temp_dir().join(format!("simq-batch-eq-{seed}.simq"));
        db.save_snapshot(&path).unwrap();
        let mut reopened = Database::open_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_batch_equivalent(&mut reopened, &queries, "reopened");
        // Cross-check: the reopened batch matches the in-memory originals.
        let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
        db.set_parallelism(Parallelism::Serial);
        reopened.set_parallelism(Parallelism::Serial);
        let built = one_at_a_time(&db, &texts);
        let batch = execute_batch(&reopened, &texts);
        for (i, (got, want)) in batch.results.iter().zip(&built).enumerate() {
            assert_outcomes_equal(got, want, &format!("{} (reopened)", texts[i]));
        }
    }
}

/// Every statement form — and every way a slot can fail — across threads
/// {1, 4} × shards {1, 4} × signature tier on/off.
#[test]
fn every_slot_is_its_individual_execution_across_the_matrix() {
    let series = corpus(20260927, 300, 64);
    let queries: Vec<String> = (0..24)
        .map(|i| {
            let row = (i * 11) % 300;
            match i % 8 {
                0 => format!(
                    "FIND SIMILAR TO ROW {row} IN r EPSILON {}",
                    2.0 + i as f64 * 0.2
                ),
                1 => format!("FIND SIMILAR TO ROW {row} IN r USING mavg(5) ON BOTH EPSILON 2.5"),
                2 => format!("FIND SIMILAR TO ROW {row} IN r USING warp(2) ON BOTH EPSILON 4"),
                3 => format!("FIND SIMILAR TO ROW {row} IN r EPSILON 3 FORCE SCAN"),
                4 => format!("FIND {} NEAREST TO ROW {row} IN r", 2 + i % 6),
                5 => format!("FIND 4 NEAREST TO ROW {row} IN r USING mavg(5) ON BOTH"),
                6 => format!("FIND {} NEAREST TO ROW {row} IN r FORCE SCAN", 2 + i % 6),
                _ => format!("FIND SIMILAR TO ROW {row} IN r EPSILON 4 MEAN WITHIN 2"),
            }
        })
        .chain(
            [
                "FIND PAIRS IN r USING mavg(8) EPSILON 1.0 METHOD d",
                "EXPLAIN FIND 3 NEAREST TO ROW 0 IN r",
                "FIND SIMILAR TO ROW 9999 IN r EPSILON 1",
                "THIS IS NOT A QUERY",
                "FIND SIMILAR TO ROW 0 IN nope EPSILON 1",
            ]
            .map(String::from),
        )
        .collect();
    for shards in [1usize, 4] {
        for filter in [true, false] {
            let rel = relation_with(&series, FeatureScheme::paper_default());
            let mut db = Database::new();
            if shards > 1 {
                db.add_relation_sharded(rel, shards);
            } else {
                db.add_relation_indexed(rel);
            }
            db.set_filter(filter);
            let what = format!("shards {shards}, filter {filter}");
            assert_batch_equivalent(&mut db, &queries, &what);
        }
    }
}

/// A batch of one is an ordinary query: it keeps its plan's intra-query
/// threads instead of spending the budget across slots.
#[test]
fn a_batch_of_one_keeps_intra_query_threads() {
    let series = corpus(5, 400, 64);
    let mut db = db_with(&series, FeatureScheme::paper_default());
    set_threads(&mut db, 4);
    let q = "FIND SIMILAR TO ROW 0 IN r EPSILON 3 FORCE SCAN";
    let alone = execute(&db, q).unwrap();
    let batch = execute_batch(&db, &[q, "garbage"]);
    let slot = batch.results[0].as_ref().unwrap();
    assert_eq!(slot.stats, alone.stats);
    assert_eq!(slot.stats.threads_used, 4);
    assert_eq!(batch.stats.threads_used, 4);
}
