//! The counter contract of `QueryResult`: `per_shard` is a *partition*
//! of the merged `stats`, not an estimate, for every counter a phase over
//! the relation's shards produces — index reads, scanned rows, scan
//! coefficients, and the candidates and refine work a kNN descent does
//! inside its trees. Work without shard affinity (verifying a merged
//! candidate list, pair work that crosses shards) is in the totals only.
//! This hardens the one charging rule (`simq-query::verify`'s `Ledger`)
//! against silently dropping a phase. And the merged counters are the
//! same at every thread budget: no form's work depends on a schedule.

mod common;

use common::{corpus, db_over, QUERY_FORMS};
use proptest::prelude::*;
use similarity_queries::prelude::*;
use similarity_queries::query::{ExecStats, QueryResult};

type Field = fn(&ExecStats) -> u64;

/// The counters every shard-affine phase charges to `per_shard`.
const FOREST_COUNTERS: [(&str, Field); 4] = [
    ("nodes_visited", |s| s.nodes_visited),
    ("leaves_visited", |s| s.leaves_visited),
    ("entries_tested", |s| s.entries_tested),
    ("rows_scanned", |s| s.rows_scanned),
];

/// Asserts `per_shard` sums to the merged totals on `fields`.
fn assert_shards_sum(result: &QueryResult, fields: &[(&str, Field)], label: &str) {
    for (what, field) in fields {
        let sum: u64 = result.per_shard.iter().map(field).sum();
        assert_eq!(sum, field(&result.stats), "{label}: {what} breakdown");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary corpora × shard counts × thread counts: per-shard
    /// counters partition the merged index and scan totals (the whole
    /// coefficient count too where no phase lacks shard affinity), one
    /// entry per shard, and no execution reports a per-thread breakdown.
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
            let label = format!("{q} (seed {seed}, rows {rows}, shards {shards}, threads {threads})");
            assert!(result.per_thread.is_empty(), "{label}");
            let pairs = q.contains("PAIRS");
            if shards == 1 || pairs {
                assert!(result.per_shard.is_empty(), "{label}");
                continue;
            }
            assert_eq!(result.per_shard.len(), shards, "{label}");
            assert_shards_sum(&result, &FOREST_COUNTERS, &label);
            // Range scans and kNN of either path do all their distance
            // work inside the per-shard phase; an index range verifies
            // its merged candidate list after it.
            if q.contains("FORCE SCAN") || q.contains("NEAREST") {
                assert_shards_sum(&result, &[("coefficients", |s| s.coefficients_compared)], &label);
            }
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
fn knn_refine_work_partitions_across_shards() {
    // Multi-step kNN has no verification phase of its own: rows are
    // exactly refined *inside* the ranked descent, in whichever shard's
    // tree they surface. That work must land in the same breakdown cell
    // as the shard's node reads, or the breakdown undercounts exactly the
    // refine work.
    let series = corpus(11, 120, 64);
    for threads in [1, 4] {
        let db = db_over(&series, 4, threads);
        let result = execute(&db, "FIND 10 NEAREST TO ROW 0 IN r").unwrap();
        let label = format!("kNN, 4 shards, threads {threads}");
        assert!(
            result.stats.coefficients_compared > 0,
            "{label}: fixture does no refine work, so the test pins nothing"
        );
        assert_eq!(result.per_shard.len(), 4, "{label}");
        assert_shards_sum(&result, &FOREST_COUNTERS, &label);
        let refine: [(&str, Field); 2] = [
            ("candidates", |s| s.candidates),
            ("coefficients", |s| s.coefficients_compared),
        ];
        assert_shards_sum(&result, &refine, &label);
    }
}

/// Counter golden: every `ExecStats` field (merged and per-shard) of the
/// query matrix at `Parallelism::Serial`, over 1 and 4 shards of one fixed
/// corpus, equals the checked-in fixture recorded before the execution
/// matrix was collapsed into one pipeline per query form (the six
/// `NEAREST` rows re-recorded when kNN became one ranked multi-step
/// descent and its scan began abandoning). Counters are
/// schedule-independent, so any drift here is a change in the work a plan
/// does, not noise — and at 4 threads each statement does exactly the
/// golden's work (the fan-out it reports aside).
#[test]
fn serial_counters_match_the_recorded_golden() {
    let series = corpus(7, 400, 64);
    let mut actual = String::new();
    for shards in [1usize, 4] {
        let mut db = db_over(&series, shards, 1);
        for q in QUERY_FORMS {
            db.set_parallelism(Parallelism::Serial);
            let r = execute(&db, q).expect("matrix query runs");
            actual.push_str(&format!(
                "shards={shards} | {q}\n  stats: {:?}\n  per_shard: {:?}\n",
                r.stats, r.per_shard
            ));
            db.set_parallelism(Parallelism::Fixed(4));
            let wide = execute(&db, q).expect("matrix query runs");
            let work = |s: ExecStats| ExecStats {
                threads_used: 0,
                ..s
            };
            let label = format!("shards={shards} | {q} at 4 threads");
            assert_eq!(work(wide.stats), work(r.stats), "{label}");
            assert_eq!(wide.per_shard, r.per_shard, "{label}");
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
