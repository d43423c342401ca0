//! The shards axis of the configuration lattice
//! (`tests/common/lattice.rs`), and what only a sharded relation has.
//!
//! 1. **Bitwise equivalence**: every statement of the corpus answers over
//!    a sharded relation exactly as over its unsharded original: same
//!    ids, same names, same order, bitwise-equal distances. Pinned at 1
//!    and 4 threads, across shard counts.
//! 2. **Persistence**: a saved sharded database reopens with its shard
//!    layout and per-shard trees intact, and the reopened database
//!    answers every statement identically.
//! 3. **Surface parity**: batches, prepared statements and streaming
//!    cursors over sharded relations reproduce unsharded answers, and
//!    per-shard work counters sum to the merged totals.

mod common;

use common::lattice::{world, Config, FrontEnd, Storage, World};
use common::{corpus, db_over};
use similarity_queries::prelude::*;

/// `base` at 1 and 4 threads.
fn both_threads(base: Config) -> [Config; 2] {
    [1, 4].map(|threads| Config { threads, ..base })
}

fn sharded(shards: usize) -> Config {
    Config {
        shards,
        ..Config::BASE
    }
}

#[test]
fn sharded_results_equal_unsharded() {
    let points: Vec<Config> = (2..6)
        .flat_map(|shards| both_threads(sharded(shards)))
        .collect();
    // Five shards of one or two rows; five of a dozen.
    world(91, 8, 32).check(&points, |_| true);
    world(92, 57, 24).check(&points, |_| true);
}

/// Saving a sharded database and reopening it preserves the layout, the
/// per-shard trees, and every answer.
#[test]
fn sharded_snapshot_roundtrip_query_identical() {
    let reloaded = Config {
        storage: Storage::Reopened,
        ..sharded(3)
    };
    let world = world(93, 20, 32);
    let (reopened, _scratch) = world.database(reloaded.storage, 3, false);
    let stored = reopened.relation("r").expect("relation reopened");
    assert_eq!(stored.shard_count(), 3);
    assert_eq!(stored.row_count(), world.rows.len());
    world.check(&both_threads(reloaded), |_| true);
}

#[test]
fn shard_relation_reshards_and_merges_back() {
    let world = world(94, 31, 32);
    let rows = world.rows.len();
    let (mut db, _scratch) = world.database(Storage::Built, 1, false);
    // 1 → 4 → 2 → 1 shards; answers never change.
    for shards in [4usize, 2, 1] {
        db.shard_relation("r", shards).expect("reshard succeeds");
        let stored = db.relation("r").expect("relation exists");
        assert_eq!(stored.shard_count(), shards);
        assert_eq!(stored.row_count(), rows);
        if shards > 1 {
            // The modulo layout balances shard sizes within one row.
            let counts = stored.shard_row_counts();
            let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced shards: {counts:?}");
        }
        let resharded = Config {
            storage: Storage::Resharded,
            ..sharded(shards)
        };
        world.check_on(&mut db, &resharded, |_| true);
    }

    // Unknown relations and zero shard counts are rejected.
    assert!(db.shard_relation("nope", 2).is_err());
    assert!(db.shard_relation("r", 0).is_err());
}

#[test]
fn sharded_execution_reports_per_shard_counters() {
    let series = corpus(3, 96, 64);
    let db = db_over(&series, 4, 4);

    // Index range: per-shard node visits sum to the merged total.
    let r = execute(&db, "FIND SIMILAR TO ROW 0 IN r EPSILON 6.0").unwrap();
    assert_eq!(r.plan.shards, 4);
    assert_eq!(r.stats.shards_touched, 4);
    assert_eq!(r.per_shard.len(), 4);
    let node_sum: u64 = r.per_shard.iter().map(|s| s.nodes_visited).sum();
    assert_eq!(node_sum, r.stats.nodes_visited);
    assert!(r.stats.nodes_visited > 0);

    // Scan fallback: per-shard rows sum to the relation size.
    let r = execute(&db, "FIND SIMILAR TO ROW 0 IN r EPSILON 6.0 FORCE SCAN").unwrap();
    assert_eq!(r.per_shard.len(), 4);
    let row_sum: u64 = r.per_shard.iter().map(|s| s.rows_scanned).sum();
    assert_eq!(row_sum, 96);

    // EXPLAIN surfaces the fan-out.
    let r = execute(&db, "EXPLAIN FIND SIMILAR TO ROW 0 IN r EPSILON 6.0").unwrap();
    let QueryOutput::Plan(text) = &r.output else {
        panic!("expected plan output");
    };
    assert!(text.contains("shards: 4"), "{text}");

    // Unsharded execution reports no shard counters.
    let series = corpus(3, 16, 64);
    let single = db_over(&series, 1, 1);
    let r = execute(&single, "FIND SIMILAR TO ROW 0 IN r EPSILON 1.0").unwrap();
    assert_eq!(r.stats.shards_touched, 0);
    assert!(r.per_shard.is_empty());
}

/// Batch slots over shards: the individual execution's answers, work and
/// shard fan-out (`shards_touched` is part of the `ExecStats` compared).
#[test]
fn sharded_batches_equal_individual_execution() {
    let slots = Config {
        front_end: FrontEnd::BatchSlot,
        ..sharded(4)
    };
    world(95, 12, 32).check(&both_threads(slots), |_| true);
}

#[test]
fn sharded_cursors_and_prepared_statements_match_materialized() {
    let through = |front_end| Config {
        front_end,
        ..sharded(4)
    };
    world(96, 18, 16).check(
        &[through(FrontEnd::Prepared), through(FrontEnd::CursorDrain)],
        |_| true,
    );

    // A cursor's shard fan-out is stamped at open; an unsharded one has none.
    let series = corpus(33, 70, 64);
    let (single, sharded) = (db_over(&series, 1, 1), db_over(&series, 4, 1));
    let (session, reference) = (Session::new(&sharded), Session::new(&single));
    let text = "FIND SIMILAR TO ROW 0 IN r EPSILON 50.0";
    assert_eq!(session.cursor_text(text).unwrap().stats().shards_touched, 4);
    assert_eq!(
        reference.cursor_text(text).unwrap().stats().shards_touched,
        0
    );

    // Partial consumption of a wide sharded cursor descends strictly less
    // of the forest than a full drain.
    let full = {
        let mut c = session.cursor_text(text).unwrap();
        let _ = c.drain_sorted();
        c.stats().nodes_visited
    };
    let mut partial = session.cursor_text(text).unwrap();
    assert!(partial.next().is_some());
    assert!(
        partial.stats().nodes_visited < full,
        "partial {} vs full {}",
        partial.stats().nodes_visited,
        full
    );
}

#[test]
fn inserts_into_sharded_relations_stay_queryable() {
    let world = world(97, 52, 64);
    let (bulk, rest) = world.rows.split_at(40);
    let mut db = db_over(bulk, 4, 1);
    // Insert through the catalog: the owning shard's tree is updated.
    let stored = db.relation_mut("r").expect("relation exists");
    for (id, s) in (40u64..).zip(rest) {
        assert_eq!(stored.insert(format!("S{id}"), s.clone()).unwrap(), id);
    }
    for (shard, tree) in stored.stores().iter().zip(stored.trees()) {
        assert_eq!(shard.len(), tree.len(), "tree tracks its shard");
    }
    // The inserted rows are found like any others: the relation now holds
    // the lattice's rows and owes the lattice's answers.
    let grown = Config {
        storage: Storage::Incremental,
        ..sharded(4)
    };
    world.check_on(&mut db, &grown, |_| true);
}

/// Sharded relations under an all-linear (rectangular, no-stats) scheme —
/// the representation the paper's kNN MINDIST path exercises hardest —
/// and the oracle's verdict on the scan fallbacks that scheme forces.
#[test]
fn rectangular_scheme_sharded_equivalence() {
    let scheme = FeatureScheme::new(3, Representation::Rectangular, false);
    World::new(17, 64, 32, scheme).check(&both_threads(sharded(4)), |_| true);
}

/// Regression: re-sharding a relation that has *pending incremental
/// inserts* routes every row — bulk-loaded and inserted alike — through
/// the incremental index build, preserving bitwise query equivalence.
/// (The old path rebuilt from the bulk loader and could disagree with
/// the maintained trees' insertion outcome.)
#[test]
fn reshard_after_pending_inserts_preserves_equivalence() {
    let world = world(98, 40, 32);
    // Some rows bulk-loaded into 3 shards, the rest inserted since.
    let (mut db, _scratch) = world.database(Storage::Incremental, 3, false);
    let pending = Config {
        storage: Storage::Incremental,
        ..sharded(3)
    };
    world.check_on(&mut db, &pending, |_| true);
    // Re-shard with the inserts pending: 3 → 5 shards, then back to 1.
    for shards in [5, 1] {
        db.shard_relation("r", shards).unwrap();
        for point in both_threads(Config {
            storage: Storage::Resharded,
            ..sharded(shards)
        }) {
            world.check_on(&mut db, &point, |_| true);
        }
    }
    // And the resharded trees keep accepting incremental inserts: the
    // same row into an unsharded bulk-built twin, and the two still agree.
    let (mut single, _scratch) = world.database(Storage::Built, 1, false);
    let probe = WalkGenerator::new(5).series(32);
    single.insert_into("r", "P", probe.clone()).unwrap();
    db.insert_into("r", "P", probe).unwrap();
    world.assert_agree(&mut single, &mut db, "insert after reshard");
}

/// Regression: asking for the shard shape a relation already has is a
/// no-op — same layout, same tree bytes, and no generation bump (pinned
/// read views, such as the server's per-connection sessions, stay
/// current).
#[test]
fn same_shape_reshard_is_a_noop() {
    let series = corpus(29, 24, 32);
    let mut sharded = db_over(&series, 4, 1);
    let generation = sharded.generation();
    sharded.shard_relation("r", 4).unwrap();
    assert_eq!(
        sharded.generation(),
        generation,
        "same-shape reshard must not bump the generation"
    );
    assert_eq!(sharded.relation("r").unwrap().shard_count(), 4);

    // A single relation that already has its one index: `\shard r 1`
    // is likewise a no-op.
    let mut single = db_over(&series, 1, 1);
    let generation = single.generation();
    single.shard_relation("r", 1).unwrap();
    assert_eq!(single.generation(), generation);
}
