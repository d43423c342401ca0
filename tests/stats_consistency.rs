//! The counter-breakdown contract of `QueryResult`: the `per_thread` and
//! `per_shard` vectors are *partitions* of the merged `stats`, not
//! estimates. Each search/scan counter lives in exactly one breakdown —
//! per-thread for single-relation parallel phases, per-shard for shard
//! fan-out — so across both vectors the shares sum exactly to the merged
//! totals. This hardens the one charging rule (`simq-query::verify`'s
//! `Ledger`) against silently dropping a phase — e.g. the exact-distance
//! work a kNN search does inside its descent, on whichever worker
//! surfaces the row.
//!
//! Coefficient comparisons hold the partition property too: sharded
//! executions that verify on the calling thread (serial, or parallel with
//! too few candidates to fan out) charge that work to a per-thread entry
//! created on demand, so the breakdown sum equals the merged count on
//! every path. (This suite used to document a `<=` gap exactly there.)

mod common;

use common::{corpus, db_over, QUERY_FORMS};
use proptest::prelude::*;
use similarity_queries::prelude::*;
use similarity_queries::query::QueryResult;

/// Asserts the partition property for one execution.
fn assert_breakdowns_sum(result: &QueryResult, label: &str) {
    let pt = &result.per_thread;
    let ps = &result.per_shard;
    if pt.is_empty() && ps.is_empty() {
        return; // fully serial, unsharded: no breakdowns to check
    }
    let sum = |f: fn(&similarity_queries::query::ExecStats) -> u64| -> u64 {
        pt.iter().map(f).sum::<u64>() + ps.iter().map(f).sum::<u64>()
    };
    assert_eq!(
        sum(|s| s.nodes_visited),
        result.stats.nodes_visited,
        "{label}: nodes_visited breakdown"
    );
    assert_eq!(
        sum(|s| s.leaves_visited),
        result.stats.leaves_visited,
        "{label}: leaves_visited breakdown"
    );
    assert_eq!(
        sum(|s| s.entries_tested),
        result.stats.entries_tested,
        "{label}: entries_tested breakdown"
    );
    assert_eq!(
        sum(|s| s.rows_scanned),
        result.stats.rows_scanned,
        "{label}: rows_scanned breakdown"
    );
    assert_eq!(
        sum(|s| s.coefficients_compared),
        result.stats.coefficients_compared,
        "{label}: coefficients_compared breakdown"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary corpora × shard counts × thread counts: per-thread and
    /// per-shard counters always partition the merged totals.
    #[test]
    fn breakdowns_partition_merged_stats(
        seed in 0u64..1_000,
        rows in 20usize..80,
        shards in 1usize..6,
        threads in 1usize..5,
    ) {
        let series = corpus(seed, rows, 64);
        let db = db_over(&series, shards, threads);
        for q in QUERY_FORMS {
            let result = execute(&db, q).expect("matrix query runs");
            assert_breakdowns_sum(
                &result,
                &format!("{q} (seed {seed}, rows {rows}, shards {shards}, threads {threads})"),
            );
        }
    }
}

#[test]
fn serial_unsharded_execution_reports_no_breakdowns() {
    let series = corpus(5, 40, 64);
    let db = db_over(&series, 1, 1);
    for q in QUERY_FORMS {
        let result = execute(&db, q).unwrap();
        assert!(result.per_thread.is_empty(), "{q}");
        assert!(result.per_shard.is_empty(), "{q}");
    }
}

#[test]
fn knn_refine_work_inside_search_workers_partitions_the_totals() {
    // Multi-step kNN has no verification phase of its own: rows are
    // exactly refined *inside* the ranked descent, by whichever
    // search worker surfaces them. That work must land in the same
    // breakdown cell as the worker's node reads — per shard when sharded,
    // per thread otherwise — or the breakdown undercounts exactly the
    // refine work.
    let series = corpus(11, 120, 64);
    for (shards, threads) in [(4, 4), (4, 1), (1, 4)] {
        let db = db_over(&series, shards, threads);
        let result = execute(&db, "FIND 10 NEAREST TO ROW 0 IN r").unwrap();
        let label = format!("kNN, shards {shards}, threads {threads}");
        assert!(
            result.stats.coefficients_compared > 0,
            "{label}: fixture does no refine work, so the test pins nothing"
        );
        let parts = if shards > 1 {
            assert!(result.per_thread.is_empty(), "{label}");
            &result.per_shard
        } else {
            assert!(result.per_shard.is_empty(), "{label}");
            &result.per_thread
        };
        assert_eq!(parts.len(), shards.max(threads), "{label}");
        assert_breakdowns_sum(&result, &label);
        type Field = fn(&similarity_queries::query::ExecStats) -> u64;
        let fields: [(&str, Field); 2] = [
            ("candidates", |s| s.candidates),
            ("coefficients", |s| s.coefficients_compared),
        ];
        for (what, field) in fields {
            assert_eq!(
                parts.iter().map(field).sum::<u64>(),
                field(&result.stats),
                "{label}: {what} breakdown"
            );
        }
    }
}

/// Counter golden: every `ExecStats` field (merged, per-thread and
/// per-shard) of the query matrix at `Parallelism::Serial`, over 1 and 4
/// shards of one fixed corpus, equals the checked-in fixture recorded
/// before the execution matrix was collapsed into one pipeline per query
/// form (the six `NEAREST` rows re-recorded when kNN became one ranked
/// multi-step descent and its scan began abandoning). Serial counters are schedule-independent, so any drift here is a
/// change in the work a plan does, not noise. (4 threads stay
/// answer-only: work-stealing node counts depend on the schedule.)
#[test]
fn serial_counters_match_the_recorded_golden() {
    let series = corpus(7, 400, 64);
    let mut actual = String::new();
    for shards in [1usize, 4] {
        let db = db_over(&series, shards, 1);
        for q in QUERY_FORMS {
            let r = execute(&db, q).expect("matrix query runs");
            actual.push_str(&format!(
                "shards={shards} | {q}\n  stats: {:?}\n  per_thread: {:?}\n  per_shard: {:?}\n",
                r.stats, r.per_thread, r.per_shard
            ));
        }
    }
    let golden = include_str!("fixtures/exec_stats_golden.txt");
    for (got, want) in actual.lines().zip(golden.lines()) {
        assert_eq!(got, want);
    }
    assert_eq!(actual.lines().count(), golden.lines().count());
}

/// The WAL counters mean the same on both write targets: against real
/// files and through the injectable in-memory `FailingStorage` (what the
/// `logged_ingest` benchmark logs to), `n` single inserts followed by one
/// `b`-row batch over `s` touched shards move `wal.appends` by `n + b` and
/// `wal.syncs` / `wal.group_commits` (one flush each) by `n + s`. No other
/// test of this binary writes a log, so the process-wide deltas are exact.
#[test]
fn wal_counters_move_alike_on_files_and_on_the_injected_sink() {
    use similarity_queries::storage::FailingStorage;
    use std::sync::atomic::Ordering::Relaxed;
    let m = similarity_queries::obs::metrics::registry();
    let series = corpus(11, 40, 64);
    let (base, rest) = series.split_at(20);
    let (singles, batch) = rest.split_at(3);
    for sink in [false, true] {
        let dir =
            std::env::temp_dir().join(format!("simq-stats-wal-{}-{sink}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let mut db = db_over(base, 4, 1);
        if sink {
            db.attach_wal_with_sink(&dir, FailingStorage::new(u64::MAX))
                .unwrap();
        } else {
            db.attach_wal(&dir).unwrap();
        }
        let counters =
            || [&m.wal_appends, &m.wal_syncs, &m.wal_group_commits].map(|c| c.load(Relaxed));
        let before = counters();
        for (i, s) in singles.iter().enumerate() {
            db.insert_into("r", format!("N{i}"), s.clone()).unwrap();
        }
        let rows = batch
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("B{i}"), s.clone()))
            .collect();
        let report = db.insert_batch("r", rows).unwrap();
        assert_eq!(report.shards_touched, 4, "sink {sink}");
        let (n, b, s) = (singles.len() as u64, batch.len() as u64, 4);
        let moved: Vec<u64> = counters().iter().zip(before).map(|(a, b)| a - b).collect();
        assert_eq!(moved, [n + b, n + s, n + s], "sink {sink}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
