//! The sharding contract as executable properties.
//!
//! 1. **Bitwise equivalence**: every query form — range (identity and
//!    transformed, with MEAN/STD windows, forced to scan or index), kNN
//!    and all-pairs joins (scan and probe methods) — returns *identical*
//!    output over a sharded relation and its unsharded original: same
//!    ids, same names, same order, bitwise-equal distances. Pinned at 1
//!    and 4 threads, across shard counts.
//! 2. **Persistence**: a saved sharded database reopens with its shard
//!    layout and per-shard trees intact, and the reopened database
//!    answers every query identically.
//! 3. **Surface parity**: batches, prepared statements and streaming
//!    cursors over sharded relations reproduce unsharded answers, and
//!    per-shard work counters sum to the merged totals.

mod common;

use common::{assert_outputs_bitwise_equal, corpus, relation_with};
use proptest::prelude::*;
use similarity_queries::prelude::*;
use similarity_queries::query::StoredRelation;

/// The query forms the equivalence contract covers (row 0 always exists).
fn query_matrix() -> Vec<String> {
    vec![
        "FIND SIMILAR TO ROW 0 IN r EPSILON 3.0".into(),
        "FIND SIMILAR TO ROW 0 IN r EPSILON 25.0".into(),
        "FIND SIMILAR TO ROW 0 IN r USING mavg(5) ON BOTH EPSILON 2.0".into(),
        "FIND SIMILAR TO ROW 0 IN r EPSILON 4.0 MEAN WITHIN 2.0".into(),
        "FIND SIMILAR TO ROW 0 IN r EPSILON 3.0 FORCE SCAN".into(),
        "FIND 5 NEAREST TO ROW 0 IN r".into(),
        "FIND 5 NEAREST TO ROW 0 IN r USING mavg(5) ON BOTH".into(),
        "FIND 5 NEAREST TO ROW 0 IN r FORCE SCAN".into(),
        "FIND PAIRS IN r EPSILON 4.0 METHOD b".into(),
        "FIND PAIRS IN r USING mavg(5) EPSILON 3.0 METHOD d".into(),
    ]
}

/// An unsharded database and its sharded twin over the same corpus.
fn twin_dbs(series: &[Vec<f64>], shards: usize) -> (Database, Database) {
    let rel = relation_with(series, FeatureScheme::paper_default());
    let mut single = Database::new();
    single.add_relation_indexed(rel.clone());
    let mut sharded = Database::new();
    sharded.add_relation_sharded(rel, shards);
    (single, sharded)
}

fn assert_dbs_agree(single: &mut Database, sharded: &mut Database, label: &str) {
    for q in query_matrix() {
        for threads in [1usize, 4] {
            let p = if threads == 1 {
                Parallelism::Serial
            } else {
                Parallelism::Fixed(threads)
            };
            single.set_parallelism(p);
            sharded.set_parallelism(p);
            let a = execute(single, &q).expect("unsharded query runs");
            let b = execute(sharded, &q).expect("sharded query runs");
            assert_outputs_bitwise_equal(&a, &b, &format!("{label}: {q} (threads {threads})"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arbitrary corpora, shard counts and thread counts: sharded
    /// execution is bitwise identical to unsharded for every query form.
    #[test]
    fn sharded_results_equal_unsharded(
        seed in 0u64..10_000,
        rows in 8usize..80,
        shards in 2usize..6,
    ) {
        let series = corpus(seed, rows, 64);
        let (mut single, mut sharded) = twin_dbs(&series, shards);
        assert_dbs_agree(&mut single, &mut sharded, &format!("{shards} shards"));
    }

    /// Saving a sharded database and reopening it preserves the layout,
    /// the per-shard trees, and every query answer.
    #[test]
    fn sharded_snapshot_roundtrip_query_identical(
        seed in 0u64..10_000,
        rows in 8usize..50,
        shards in 2usize..5,
    ) {
        let series = corpus(seed, rows, 64);
        let (mut single, sharded) = twin_dbs(&series, shards);
        let dir = std::env::temp_dir().join("simq-shard-equivalence");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("db-{seed}-{rows}-{shards}.simq"));
        sharded.save_snapshot(&path).expect("snapshot saves");
        let mut reopened = Database::open_snapshot(&path).expect("snapshot reopens");
        std::fs::remove_file(&path).ok();
        // The layout survived.
        let stored = reopened.relation("r").expect("relation reopened");
        prop_assert_eq!(stored.shard_count(), shards);
        prop_assert_eq!(stored.row_count(), rows);
        assert_dbs_agree(&mut single, &mut reopened, "reopened sharded db");
    }
}

#[test]
fn shard_relation_reshards_and_merges_back() {
    let series = corpus(11, 60, 64);
    let rel = relation_with(&series, FeatureScheme::paper_default());
    let mut reference = Database::new();
    reference.add_relation_indexed(rel.clone());
    let mut db = Database::new();
    db.add_relation_indexed(rel);

    // 1 → 4 → 2 → 1 shards; answers never change.
    for shards in [4usize, 2, 1] {
        db.shard_relation("r", shards).expect("reshard succeeds");
        let stored = db.relation("r").expect("relation exists");
        assert_eq!(stored.shard_count(), shards);
        assert_eq!(stored.row_count(), 60);
        if shards > 1 {
            // The modulo layout balances shard sizes within one row.
            let counts = stored.shard_row_counts();
            let (min, max) = (*counts.iter().min().unwrap(), *counts.iter().max().unwrap());
            assert!(max - min <= 1, "unbalanced shards: {counts:?}");
        }
        assert_dbs_agree(&mut reference, &mut db, &format!("reshard to {shards}"));
    }

    // Unknown relations and zero shard counts are rejected.
    assert!(db.shard_relation("nope", 2).is_err());
    assert!(db.shard_relation("r", 0).is_err());
}

#[test]
fn sharded_execution_reports_per_shard_counters() {
    let series = corpus(3, 96, 64);
    let (_, mut db) = twin_dbs(&series, 4);
    db.set_parallelism(Parallelism::Fixed(4));

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
    let mut single = Database::new();
    single.add_relation_indexed(relation_with(&series, FeatureScheme::paper_default()));
    let r = execute(&single, "FIND SIMILAR TO ROW 0 IN r EPSILON 1.0").unwrap();
    assert_eq!(r.stats.shards_touched, 0);
    assert!(r.per_shard.is_empty());
}

#[test]
fn sharded_batches_equal_individual_execution() {
    let series = corpus(21, 80, 64);
    let (_, mut db) = twin_dbs(&series, 3);
    for threads in [1usize, 4] {
        db.set_parallelism(if threads == 1 {
            Parallelism::Serial
        } else {
            Parallelism::Fixed(threads)
        });
        let queries: Vec<String> = (0..6)
            .map(|i| format!("FIND SIMILAR TO ROW {i} IN r EPSILON {}", 1.0 + i as f64))
            .chain((0..3).map(|i| format!("FIND {} NEAREST TO ROW {i} IN r", 3 + i)))
            .chain((1..3).map(|i| format!("FIND SIMILAR TO ROW {i} IN r EPSILON 2 FORCE SCAN")))
            .collect();
        let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
        let batch = execute_batch(&db, &texts);
        for (i, q) in texts.iter().enumerate() {
            let individual = execute(&db, q).unwrap();
            let got = batch.results[i].as_ref().unwrap();
            assert_outputs_bitwise_equal(got, &individual, &format!("batch slot {i}: {q}"));
            // Batch slots stamp the same shard fan-out as individual runs.
            assert_eq!(got.stats.shards_touched, 3, "batch slot {i}: {q}");
        }
    }
}

#[test]
fn sharded_cursors_and_prepared_statements_match_materialized() {
    let series = corpus(33, 70, 64);
    let (single, sharded) = twin_dbs(&series, 4);
    let session = Session::new(&sharded);
    let reference = Session::new(&single);

    let p = session
        .prepare("FIND SIMILAR TO ROW ? IN r EPSILON ?")
        .unwrap();
    let q = reference
        .prepare("FIND SIMILAR TO ROW ? IN r EPSILON ?")
        .unwrap();
    for (row, eps) in [(0u64, 3.0), (5, 10.0), (12, 1.0)] {
        let bound = p.bind(&[Value::from(row), Value::from(eps)]).unwrap();
        let ref_bound = q.bind(&[Value::from(row), Value::from(eps)]).unwrap();
        let materialized = session.execute(&bound).unwrap();
        let expected = reference.execute(&ref_bound).unwrap();
        assert_outputs_bitwise_equal(
            &materialized,
            &expected,
            &format!("prepared row {row} eps {eps}"),
        );

        // A drained cursor reproduces the materialized output bitwise and
        // reports the same shard fan-out as materialized execution.
        let mut cursor = session.cursor(&bound).unwrap();
        assert_eq!(cursor.stats().shards_touched, 4, "stamped at open");
        let drained = cursor.drain_sorted();
        assert_eq!(
            cursor.stats().shards_touched,
            materialized.stats.shards_touched
        );
        assert_eq!(
            reference.cursor(&ref_bound).unwrap().stats().shards_touched,
            0
        );
        let QueryOutput::Hits(want) = &materialized.output else {
            panic!("expected hits");
        };
        assert_eq!(drained.len(), want.len());
        for (a, b) in drained.iter().zip(want) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.distance.to_bits(), b.distance.to_bits());
        }
    }

    // Partial consumption of a wide sharded cursor descends strictly less
    // of the forest than a full drain.
    let bound = p.bind(&[Value::from(0u64), Value::from(50.0)]).unwrap();
    let full = {
        let mut c = session.cursor(&bound).unwrap();
        let _ = c.drain_sorted();
        c.stats().nodes_visited
    };
    let mut partial = session.cursor(&bound).unwrap();
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
    let series = corpus(8, 40, 64);
    let rel = relation_with(&series, FeatureScheme::paper_default());
    let mut db = Database::new();
    db.add_relation_sharded(rel, 4);

    // Insert through the catalog: the owning shard's tree is updated.
    let extra = corpus(99, 8, 64);
    {
        let stored = db.relation_mut("r").expect("relation exists");
        for (i, s) in extra.iter().enumerate() {
            let id = stored.insert(format!("X{i}"), s.clone()).unwrap();
            assert_eq!(id, 40 + i as u64);
        }
    }
    let stored = db.relation("r").unwrap();
    assert_eq!(stored.row_count(), 48);
    if let StoredRelation::Sharded { relation, indexes } = stored {
        for (shard, tree) in relation.shards().iter().zip(indexes) {
            assert_eq!(shard.len(), tree.len(), "tree tracks its shard");
        }
    } else {
        panic!("expected sharded relation");
    }

    // The inserted rows are found by index-served queries, identically to
    // an unsharded relation built the same way.
    let mut single = Database::new();
    let mut rel = relation_with(&series, FeatureScheme::paper_default());
    for (i, s) in extra.iter().enumerate() {
        rel.insert(format!("X{i}"), s.clone()).unwrap();
    }
    single.add_relation_indexed(rel);
    for q in [
        "FIND SIMILAR TO ROW 44 IN r EPSILON 8.0",
        "FIND 6 NEAREST TO ROW 44 IN r",
    ] {
        let a = execute(&single, q).unwrap();
        let b = execute(&db, q).unwrap();
        assert_outputs_bitwise_equal(&a, &b, q);
    }
}

/// Sharded relations under an all-linear (rectangular, no-stats) scheme —
/// the representation the paper's kNN MINDIST path exercises hardest.
#[test]
fn rectangular_scheme_sharded_equivalence() {
    let series = corpus(17, 64, 32);
    let scheme = FeatureScheme::new(3, Representation::Rectangular, false);
    let rel = relation_with(&series, scheme);
    let mut single = Database::new();
    single.add_relation_indexed(rel.clone());
    let mut sharded = Database::new();
    sharded.add_relation_sharded(rel, 4);
    for q in [
        "FIND SIMILAR TO ROW 0 IN r EPSILON 5.0",
        "FIND 7 NEAREST TO ROW 3 IN r",
        "FIND PAIRS IN r EPSILON 6.0 METHOD d",
    ] {
        for threads in [1usize, 4] {
            let p = if threads == 1 {
                Parallelism::Serial
            } else {
                Parallelism::Fixed(threads)
            };
            single.set_parallelism(p);
            sharded.set_parallelism(p);
            let a = execute(&single, q).unwrap();
            let b = execute(&sharded, q).unwrap();
            assert_outputs_bitwise_equal(&a, &b, &format!("{q} (threads {threads})"));
        }
    }
}

/// Regression: re-sharding a relation that has *pending incremental
/// inserts* routes every row — bulk-loaded and inserted alike — through
/// the incremental index build, preserving bitwise query equivalence.
/// (The old path rebuilt from the bulk loader and could disagree with
/// the maintained trees' insertion outcome.)
#[test]
fn reshard_after_pending_inserts_preserves_equivalence() {
    let series = corpus(23, 40, 32);
    let (mut single, mut sharded) = twin_dbs(&series[..30], 3);
    // Ten pending inserts against both twins' live trees.
    for (i, s) in series[30..].iter().enumerate() {
        single
            .insert_into("r", format!("S{}", 30 + i), s.clone())
            .unwrap();
        sharded
            .insert_into("r", format!("S{}", 30 + i), s.clone())
            .unwrap();
    }
    assert_dbs_agree(&mut single, &mut sharded, "pending inserts");

    // Re-shard with the inserts pending: 3 → 5 shards, then back to 1.
    sharded.shard_relation("r", 5).unwrap();
    assert_dbs_agree(
        &mut single,
        &mut sharded,
        "resharded 3→5 with pending inserts",
    );
    sharded.shard_relation("r", 1).unwrap();
    assert_dbs_agree(&mut single, &mut sharded, "unsharded with pending inserts");

    // And the resharded trees keep accepting incremental inserts.
    let mut gen = WalkGenerator::new(5);
    let probe = gen.series(32);
    single.insert_into("r", "P", probe.clone()).unwrap();
    sharded.insert_into("r", "P", probe).unwrap();
    assert_dbs_agree(&mut single, &mut sharded, "insert after reshard");
}

/// Regression: asking for the shard shape a relation already has is a
/// no-op — same layout, same tree bytes, and no generation bump (cached
/// plans and prepared statements stay valid).
#[test]
fn same_shape_reshard_is_a_noop() {
    let series = corpus(29, 24, 32);
    let (_, mut sharded) = twin_dbs(&series, 4);
    let generation = sharded.generation();
    sharded.shard_relation("r", 4).unwrap();
    assert_eq!(
        sharded.generation(),
        generation,
        "same-shape reshard must not invalidate plans"
    );
    let StoredRelation::Sharded { relation, .. } = sharded.relation("r").unwrap() else {
        panic!("still sharded");
    };
    assert_eq!(relation.shard_count(), 4);

    // A single relation that already has its one index: `\shard r 1`
    // is likewise a no-op.
    let rel = relation_with(&series, FeatureScheme::paper_default());
    let mut single = Database::new();
    single.add_relation_indexed(rel);
    let generation = single.generation();
    single.shard_relation("r", 1).unwrap();
    assert_eq!(single.generation(), generation);
}
