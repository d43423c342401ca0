//! The batch-slot front end of the configuration lattice
//! (`tests/common/lattice.rs`): a batch is the single-query pipeline in a
//! loop, so every slot of [`execute_batch`] is exactly what one-at-a-time
//! execution returns — same hits, same names, bitwise-identical
//! distances, same errors, and under `Parallelism::Serial` the same
//! `ExecStats` — in memory and after a snapshot reload, on 1 and 4
//! shards. What only a batch has stays here: its `stats` are the sum of
//! its slots', and a batch of one keeps its plan's threads.

mod common;

use common::lattice::{world, Config, FrontEnd, Storage};
use common::{corpus, db_with};
use similarity_queries::prelude::*;
use similarity_queries::query::{execute_batch, BatchResult, ExecStats};

/// The batch-slot point at `threads` × `shards` over `storage`.
fn slots(storage: Storage, shards: usize) -> [Config; 2] {
    let front_end = FrontEnd::BatchSlot;
    [1, 4].map(|threads| Config {
        threads,
        shards,
        front_end,
        storage,
        ..Config::BASE
    })
}

#[test]
fn batch_equals_one_at_a_time() {
    world(31, 14, 32).check(&slots(Storage::Built, 1), |_| true);
}

#[test]
fn batch_equals_one_at_a_time_after_snapshot_reload() {
    world(32, 27, 16).check(&slots(Storage::SnapshotReload, 1), |_| true);
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

/// Every statement form — and every way a slot can fail — across threads
/// {1, 4} × shards {1, 4}: each slot its individual execution, the batch
/// the sum of its slots.
#[test]
fn every_slot_is_its_individual_execution_across_the_matrix() {
    let world = world(33, 36, 48);
    let texts: Vec<&str> = world.stmts.iter().map(|s| s.text.as_str()).collect();
    for shards in [1, 4] {
        world.check(&slots(Storage::Built, shards), |_| true);
        let (mut db, _scratch) = world.database(Storage::Built, shards, false);
        for threads in [1, 4] {
            db.set_parallelism(Parallelism::Fixed(threads));
            let what = format!("shards {shards}, threads {threads}");
            assert_stats_are_the_slot_sum(&execute_batch(&db, &texts), threads, &what);
        }
    }
}

/// A batch of one is an ordinary query: it keeps its plan's intra-query
/// threads instead of spending the budget across slots.
#[test]
fn a_batch_of_one_keeps_intra_query_threads() {
    let series = corpus(5, 400, 64);
    let mut db = db_with(&series, FeatureScheme::paper_default());
    db.set_parallelism(Parallelism::Fixed(4));
    let q = "FIND SIMILAR TO ROW 0 IN r EPSILON 3 FORCE SCAN";
    let alone = execute(&db, q).unwrap();
    let batch = execute_batch(&db, &[q, "garbage"]);
    let slot = batch.results[0].as_ref().unwrap();
    assert_eq!(slot.stats, alone.stats);
    assert_eq!(slot.stats.threads_used, 4);
    assert_eq!(batch.stats.threads_used, 4);
}
