//! Plans that do sane amounts of work (ROADMAP item 2's invariant): an
//! index plan must never touch more rows than the scan it replaces, and a
//! batch must never do more work than its statements run one at a time.
//!
//! The equivalence suites pin *agreement between paths*; this one pins
//! that the cheaper-looking path is not secretly a superset of the other.
//! "Rows touched" is `candidates + rows_scanned` — the rows an execution
//! handed to verification plus the rows it read sequentially.

mod common;

use common::{corpus, relation_with};
use similarity_queries::prelude::*;
use similarity_queries::query::{execute_batch, QueryResult};

/// Every index-served form of the `shard_equivalence` matrix, paired with
/// the scan plan it replaces.
fn index_and_scan_forms() -> Vec<(String, String)> {
    let forced = |q: &str| (q.to_string(), format!("{q} FORCE SCAN"));
    vec![
        forced("FIND SIMILAR TO ROW 0 IN r EPSILON 3.0"),
        forced("FIND SIMILAR TO ROW 0 IN r EPSILON 25.0"),
        forced("FIND SIMILAR TO ROW 0 IN r USING mavg(5) ON BOTH EPSILON 2.0"),
        forced("FIND SIMILAR TO ROW 0 IN r EPSILON 4.0 MEAN WITHIN 2.0"),
        forced("FIND 5 NEAREST TO ROW 0 IN r"),
        forced("FIND 5 NEAREST TO ROW 0 IN r USING mavg(5) ON BOTH"),
        (
            "FIND PAIRS IN r USING mavg(5) EPSILON 3.0 METHOD d".into(),
            "FIND PAIRS IN r USING mavg(5) EPSILON 3.0 METHOD b".into(),
        ),
    ]
}

fn db_over(series: &[Vec<f64>], shards: usize, threads: usize) -> Database {
    let rel = relation_with(series, FeatureScheme::paper_default());
    let mut db = Database::new();
    if shards > 1 {
        db.add_relation_sharded(rel, shards);
    } else {
        db.add_relation_indexed(rel);
    }
    db.set_parallelism(if threads > 1 {
        Parallelism::Fixed(threads)
    } else {
        Parallelism::Serial
    });
    db
}

fn rows_touched(r: &QueryResult) -> u64 {
    r.stats.candidates + r.stats.rows_scanned
}

#[test]
fn index_plans_touch_no_more_rows_than_the_scans_they_replace() {
    let (rows, len) = (400u64, 64u64);
    let series = corpus(7, rows as usize, len as usize);
    for shards in [1usize, 4] {
        for threads in [1usize, 4] {
            let db = db_over(&series, shards, threads);
            for (index_q, scan_q) in index_and_scan_forms() {
                let what = format!("{index_q} (shards {shards}, threads {threads})");
                let via_index = execute(&db, &index_q).expect("index form runs");
                let via_scan = execute(&db, &scan_q).expect("scan form runs");
                assert!(
                    matches!(
                        via_index.plan.access,
                        AccessPath::IndexScan | AccessPath::IndexProbeJoin { .. }
                    ),
                    "{what}: planned {:?}",
                    via_index.plan.access
                );
                // A nested-loop join touches every ordered pair of the
                // rows it scans; every other scan touches each row once.
                let scan_touches = match via_scan.plan.access {
                    AccessPath::ScanJoin { .. } => via_scan.stats.rows_scanned.pow(2),
                    _ => rows_touched(&via_scan),
                };
                assert!(
                    rows_touched(&via_index) <= scan_touches,
                    "{what}: index plan touched {} rows, scan plan {scan_touches}",
                    rows_touched(&via_index),
                );
                if index_q.contains("NEAREST") {
                    assert!(
                        via_index.stats.coefficients_compared <= rows * len,
                        "{what}: {} coefficients for {rows} rows of {len}",
                        via_index.stats.coefficients_compared
                    );
                }
            }
        }
    }
}

/// The defect ROADMAP item 2 recorded — indexed kNN handing the whole
/// relation to verification with the signature tier idle — stays fixed:
/// on random walks, which the 6-d index separates poorly, 10-NN queries
/// still rank well under half the rows between them (a single query whose
/// leading coefficients say nothing about it may rank more) and the tier
/// dismisses some of every query's.
#[test]
fn indexed_knn_examines_a_minority_of_a_random_walk_corpus() {
    let rows = 1000u64;
    let series = corpus(20260927, rows as usize, 64);
    let queries: Vec<String> = (0..rows)
        .step_by(25)
        .map(|row| format!("FIND 10 NEAREST TO ROW {row} IN r"))
        .collect();
    for shards in [1usize, 4] {
        for threads in [1usize, 4] {
            let mut db = db_over(&series, shards, threads);
            let what = format!("shards {shards}, threads {threads}");
            let run = |db: &Database| -> Vec<QueryResult> {
                queries.iter().map(|q| execute(db, q).unwrap()).collect()
            };
            let on = run(&db);
            db.set_filter(false);
            let off = run(&db);
            for (q, (on, off)) in queries.iter().zip(on.iter().zip(&off)) {
                assert_eq!(on.plan.access, AccessPath::IndexScan);
                assert!(on.stats.candidates <= rows && off.stats.candidates <= rows);
                assert!(on.stats.filtered_out > 0, "{q} ({what}): tier idle");
                assert_eq!(off.stats.filtered_out, 0, "{q} ({what})");
            }
            let total =
                |rs: &[QueryResult], f: fn(&QueryResult) -> u64| -> u64 { rs.iter().map(f).sum() };
            let budget = queries.len() as u64 * rows / 2;
            for (tier, results) in [("on", &on), ("off", &off)] {
                let candidates = total(results, |r| r.stats.candidates);
                assert!(
                    candidates < budget,
                    "{what}, tier {tier}: {candidates} candidates, half the rows is {budget}"
                );
            }
            if threads == 1 {
                // Same ranked rows either way; the tier only removes exact work.
                assert!(
                    total(&on, |r| r.stats.coefficients_compared)
                        < total(&off, |r| r.stats.coefficients_compared),
                    "{what}: the tier saved no exact work"
                );
            }
        }
    }
}

/// A batch is the single-query pipeline in a loop, so it never compares
/// more coefficients than the same statements run one at a time — in
/// total or in any slot. (The shared one-pass kNN scan this replaced
/// computed every full distance while the lone scan abandoned against its
/// k-th best.)
#[test]
fn a_batch_compares_no_more_coefficients_than_its_statements_alone() {
    let series = corpus(20260927, 600, 64);
    let forms = [
        "FIND 10 NEAREST TO ROW {} IN r FORCE SCAN",
        "FIND 10 NEAREST TO ROW {} IN r",
        "FIND SIMILAR TO ROW {} IN r EPSILON 3.0",
        "FIND SIMILAR TO ROW {} IN r EPSILON 3.0 FORCE SCAN",
        "FIND SIMILAR TO ROW {} IN r USING warp(2) ON BOTH EPSILON 4.0",
    ];
    for shards in [1usize, 4] {
        let db = db_over(&series, shards, 1);
        for form in forms {
            let queries: Vec<String> = (0..16)
                .map(|i| form.replace("{}", &(i * 37 % 600).to_string()))
                .collect();
            let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
            let batch = execute_batch(&db, &texts);
            let mut alone = 0u64;
            for (q, slot) in texts.iter().zip(&batch.results) {
                let individual = execute(&db, q).unwrap().stats.coefficients_compared;
                let slot = slot.as_ref().unwrap().stats.coefficients_compared;
                assert!(
                    slot <= individual,
                    "{q} (shards {shards}): {slot} > {individual}"
                );
                alone += individual;
            }
            assert!(
                batch.stats.coefficients_compared <= alone,
                "{form} (shards {shards}): batch {} > one at a time {alone}",
                batch.stats.coefficients_compared
            );
        }
    }
}

/// A batch answers every slot from one catalog generation, whatever a
/// writer does to the live database meanwhile: each round pins a read
/// view, lets another thread start inserting into the live database, and
/// runs a batch — its slots spread over four workers — against the view.
/// Every slot must see exactly the view's rows although the live
/// database has moved on by the time the round ends.
#[test]
fn a_batch_under_concurrent_inserts_answers_every_slot_from_one_generation() {
    use std::sync::{mpsc, RwLock};

    let (rows, per_round, rounds) = (120usize, 10usize, 6usize);
    let series = corpus(11, rows + per_round * rounds, 64);
    let live = RwLock::new(db_over(&series[..rows], 4, 4));
    let live_rows = || live.read().unwrap().relation("r").unwrap().row_count();
    // Every row is within this radius of row 0, by either access path.
    let texts: Vec<&str> = [
        "FIND SIMILAR TO ROW 0 IN r EPSILON 1000000",
        "FIND SIMILAR TO ROW 0 IN r EPSILON 1000000 FORCE SCAN",
    ]
    .repeat(6);
    let hits = |r: &QueryResult| match &r.output {
        QueryOutput::Hits(h) => h.len(),
        other => panic!("expected hits, got {other:?}"),
    };
    let (go, start) = mpsc::channel::<()>();
    let (done, finished) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let (live, inserts) = (&live, &series[rows..]);
        scope.spawn(move || {
            for (round, chunk) in inserts.chunks(per_round).enumerate() {
                start.recv().unwrap();
                for (i, s) in chunk.iter().enumerate() {
                    let mut db = live.write().unwrap();
                    db.insert_into("r", format!("N{round}-{i}"), s.clone())
                        .unwrap();
                }
                done.send(()).unwrap();
            }
        });
        for round in 0..rounds {
            let view = live.read().unwrap().read_view();
            let pinned = view.database().relation("r").unwrap().row_count();
            assert_eq!(pinned, rows + round * per_round);
            go.send(()).unwrap();
            let batch = Session::new(view).execute_batch_texts(&texts);
            for (q, slot) in texts.iter().zip(&batch.results) {
                assert_eq!(hits(slot.as_ref().unwrap()), pinned, "{q} (round {round})");
            }
            finished.recv().unwrap();
            assert_eq!(live_rows(), pinned + per_round);
        }
    });
}
