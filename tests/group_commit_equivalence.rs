//! The serial-equivalence contract of the concurrent grouped write path:
//! `Database::insert_batch` — one WAL group append per touched shard,
//! per-shard writer threads under `Parallelism` > 1 — produces a database
//! **bitwise identical** to calling `Database::insert_into` once per row
//! in input order. Checked across the {1, 4} threads × {1, 4} shards
//! matrix: id/shard assignment, raw row bits, and a query battery
//! executed serially and at 4 threads against both databases.
//!
//! Also pinned here: the group-commit sync accounting (at most one sync
//! per touched shard) and the generation-stamped `ReadView` (readers see the
//! catalog exactly as of the generation they captured, no matter what
//! writers do afterwards).

mod common;

use common::assert_outputs_bitwise_equal;
use similarity_queries::prelude::*;
use similarity_queries::query::execute;
use similarity_queries::storage::FailingStorage;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const SERIES_LEN: usize = 32;
const BASE_ROWS: usize = 30;
const BATCH_ROWS: usize = 40;

fn unique_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "simq-group-commit-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed),
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// The deterministic batch every configuration inserts.
fn batch() -> Vec<(String, Vec<f64>)> {
    let mut gen = WalkGenerator::new(4242);
    (0..BATCH_ROWS)
        .map(|i| (format!("B{i:03}"), gen.series(SERIES_LEN)))
        .collect()
}

/// A fresh database: seeded indexed relation `r`, `shards` shards,
/// `threads` worker threads. No WAL unless the test attaches one.
fn fresh_db(shards: usize, threads: usize) -> Database {
    let mut gen = WalkGenerator::new(77);
    let mut rel = SeriesRelation::new("r", SERIES_LEN, FeatureScheme::paper_default());
    for i in 0..BASE_ROWS {
        rel.insert(format!("S{i:04}"), gen.series(SERIES_LEN))
            .unwrap();
    }
    let mut db = Database::new();
    db.add_relation_indexed(rel);
    if shards > 1 {
        db.shard_relation("r", shards).unwrap();
    }
    db.set_parallelism(if threads > 1 {
        Parallelism::Fixed(threads)
    } else {
        Parallelism::Serial
    });
    db
}

/// Asserts the two databases hold bitwise-identical rows and answer a
/// query battery bitwise-identically, serially and at 4 threads.
fn assert_databases_bitwise_equal(got: &mut Database, want: &mut Database, what: &str) {
    let queries = [
        "FIND SIMILAR TO ROW 0 IN r EPSILON 1.5".to_string(),
        "FIND SIMILAR TO ROW 5 IN r USING mavg(3) ON BOTH EPSILON 2.0".to_string(),
        format!("FIND 7 NEAREST TO NAME B{:03} IN r", BATCH_ROWS - 1),
        "FIND PAIRS IN r EPSILON 1.0 METHOD d".to_string(),
    ];
    {
        let g = got.relation("r").unwrap();
        let w = want.relation("r").unwrap();
        assert_eq!(g.row_count(), w.row_count(), "{what}: row count");
        assert_eq!(
            g.shard_row_counts(),
            w.shard_row_counts(),
            "{what}: shard occupancy"
        );
        for row in w.rows() {
            let other = g
                .row(row.id)
                .unwrap_or_else(|| panic!("{what}: id {} missing", row.id));
            assert_eq!(other.name, row.name, "{what}: name of id {}", row.id);
            for (a, b) in other.raw.iter().zip(&row.raw) {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: bits of id {}", row.id);
            }
        }
    }
    for threads in [Parallelism::Serial, Parallelism::Fixed(4)] {
        got.set_parallelism(threads);
        want.set_parallelism(threads);
        for q in &queries {
            let g = execute(got, q).unwrap();
            let w = execute(want, q).unwrap();
            assert_outputs_bitwise_equal(&g, &w, &format!("{what}: {q} @ {threads}"));
        }
    }
}

/// The tentpole matrix: batch insertion at {1, 4} threads × {1, 4} shards
/// is bitwise identical to the serial insert_into loop.
#[test]
fn batch_insert_matches_serial_loop_bitwise() {
    for shards in [1usize, 4] {
        for threads in [1usize, 4] {
            let what = format!("shards {shards} × threads {threads}");
            let mut serial = fresh_db(shards, 1);
            let mut serial_reports = Vec::new();
            for (name, series) in batch() {
                serial_reports.push(serial.insert_into("r", name, series).unwrap());
            }
            let mut batched = fresh_db(shards, threads);
            let report = batched.insert_batch("r", batch()).unwrap();
            assert_eq!(report.acked.len(), BATCH_ROWS, "{what}: all rows ack");
            assert!(report.failed.is_empty(), "{what}: no failures");
            assert_eq!(report.wal_records, 0, "{what}: no WAL attached");
            assert_eq!(report.wal_syncs, 0, "{what}: no WAL attached");
            for (k, (&(idx, got), want)) in report.acked.iter().zip(&serial_reports).enumerate() {
                assert_eq!(idx, k, "{what}: acked in input order");
                assert_eq!(got.id, want.id, "{what}: id of row {k}");
                assert_eq!(got.shard, want.shard, "{what}: shard of row {k}");
                assert_eq!(
                    got.nodes_built, want.nodes_built,
                    "{what}: tree maintenance of row {k}"
                );
            }
            let serial_nodes: u64 = serial_reports.iter().map(|r| r.nodes_built).sum();
            assert_eq!(report.nodes_built, serial_nodes, "{what}: nodes_built");
            assert_databases_bitwise_equal(&mut batched, &mut serial, &what);
        }
    }
}

/// With a WAL attached, a batch pays at most one sync per touched shard
/// (against one per row for the serial loop), and everything it
/// acknowledged survives reopen.
#[test]
fn batch_insert_groups_syncs_per_shard_and_is_durable() {
    for (shards, threads) in [(1usize, 1usize), (4, 4)] {
        let what = format!("shards {shards} × threads {threads}");
        let dir = unique_dir(&format!("s{shards}t{threads}"));
        let mut db = fresh_db(shards, threads);
        db.attach_wal(&dir).unwrap();
        let report = db.insert_batch("r", batch()).unwrap();
        assert_eq!(report.acked.len(), BATCH_ROWS, "{what}");
        assert_eq!(report.wal_records, BATCH_ROWS as u64, "{what}");
        assert!(
            report.wal_syncs <= shards as u64,
            "{what}: {} syncs for {} shards",
            report.wal_syncs,
            shards
        );
        assert_eq!(
            report.wal_syncs, report.shards_touched as u64,
            "{what}: one sync per touched shard"
        );
        let expected: Vec<(u64, String, Vec<f64>)> = report
            .acked
            .iter()
            .zip(batch())
            .map(|(&(_, r), (name, series))| (r.id, name, series))
            .collect();
        drop(db);
        let (reopened, _replay) = Database::open_durable(&dir).unwrap();
        let stored = reopened.relation("r").unwrap();
        assert_eq!(stored.row_count(), BASE_ROWS + BATCH_ROWS, "{what}");
        for (id, name, series) in &expected {
            let row = stored
                .row(*id)
                .unwrap_or_else(|| panic!("{what}: acked id {id} lost"));
            assert_eq!(&row.name, name, "{what}: name of id {id}");
            for (a, b) in row.raw.iter().zip(series) {
                assert_eq!(a.to_bits(), b.to_bits(), "{what}: bits of id {id}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// A `ReadView` is frozen at its generation: writers mutating the live
/// database afterwards (batch inserts included) never shift its answers,
/// and a fresh view sees the new rows.
#[test]
fn read_view_pins_a_catalog_generation() {
    let mut db = fresh_db(4, 4);
    let view = db.read_view();
    let gen_before = db.generation();
    assert_eq!(view.generation(), gen_before);
    let before = execute(view.database(), "FIND 5 NEAREST TO ROW 0 IN r").unwrap();

    let report = db.insert_batch("r", batch()).unwrap();
    assert_eq!(report.acked.len(), BATCH_ROWS);
    assert!(db.generation() > gen_before, "writer bumps the generation");

    // The old view still answers from the pre-insert catalog…
    assert_eq!(view.generation(), gen_before, "view generation is frozen");
    assert_eq!(
        view.database().relation("r").unwrap().row_count(),
        BASE_ROWS,
        "view rows are frozen"
    );
    let after = execute(view.database(), "FIND 5 NEAREST TO ROW 0 IN r").unwrap();
    assert_outputs_bitwise_equal(&before, &after, "view answers are frozen");

    // …while a fresh view sees everything the batch inserted.
    let fresh = db.read_view();
    assert_eq!(fresh.generation(), db.generation());
    assert_eq!(
        fresh.database().relation("r").unwrap().row_count(),
        BASE_ROWS + BATCH_ROWS
    );

    // Views are Send + Sync: reader threads can hold them while the
    // writer keeps inserting into the live database.
    std::thread::scope(|scope| {
        let view_ref = &view;
        let readers: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    execute(view_ref.database(), "FIND 5 NEAREST TO ROW 0 IN r").unwrap()
                })
            })
            .collect();
        db.insert_into("r", "straggler", batch()[0].1.clone())
            .unwrap();
        for reader in readers {
            let got = reader.join().unwrap();
            assert_outputs_bitwise_equal(&before, &got, "concurrent reader on a frozen view");
        }
    });
}

/// A batch whose WAL group append fails still consumes its ids — in the
/// single-relation form exactly as in the sharded one. The failed append
/// can leave a durable prefix of complete records on disk (a sync that
/// died after a partial write), which replay will apply after a crash;
/// were next_id left unchanged, a later insert would reuse those ids and
/// collide at replay.
#[test]
fn failed_batch_consumes_its_ids_in_both_relation_forms() {
    for shards in [1usize, 4] {
        let what = format!("shards {shards}");
        let dir = unique_dir(&format!("failed-ids-s{shards}"));
        let mut db = fresh_db(shards, 1);
        // A zero-byte budget: every append fails without writing, after
        // validation and id assignment.
        db.attach_wal_with_sink(&dir, FailingStorage::new(0))
            .unwrap();
        let before = db.relation("r").unwrap().next_id();
        db.insert_batch("r", batch())
            .expect_err("every shard's group append fails");
        assert_eq!(
            db.relation("r").unwrap().next_id(),
            before + BATCH_ROWS as u64,
            "{what}: failed batch must consume its ids"
        );
        // The single-record path defends identically.
        let (name, series) = batch().remove(0);
        db.insert_into("r", name, series)
            .expect_err("append still failing");
        assert_eq!(
            db.relation("r").unwrap().next_id(),
            before + BATCH_ROWS as u64 + 1,
            "{what}: failed insert_into must consume its id"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// An invalid row anywhere in the batch rejects the whole batch before
/// anything is logged or applied — validation is all-or-nothing.
#[test]
fn batch_validation_is_all_or_nothing() {
    let dir = unique_dir("validate");
    let mut db = fresh_db(4, 4);
    db.attach_wal(&dir).unwrap();
    let mut rows = batch();
    rows[BATCH_ROWS / 2].1 = vec![1.0; SERIES_LEN + 1]; // wrong dimension
    let err = db.insert_batch("r", rows).unwrap_err();
    assert!(
        err.to_string().contains("dimension") || err.to_string().contains("length"),
        "unexpected error: {err}"
    );
    assert_eq!(
        db.relation("r").unwrap().row_count(),
        BASE_ROWS,
        "nothing applied"
    );
    let status = db.wal_status().unwrap();
    assert_eq!(status.wal_records, 0, "nothing logged");
    std::fs::remove_dir_all(&dir).ok();
}
