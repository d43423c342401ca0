//! Incremental-insert equivalence: the maintenance write path (R*-tree
//! `insert_point` through `Database::insert_into`) must be observationally
//! identical to rebuilding from scratch.
//!
//! For random corpora, split points and insert orders, a database that
//! bulk-loads a prefix and *incrementally inserts* the rest answers every
//! query form bitwise-identically to a database that loads all rows up
//! front — serially and at 4 threads, sharded and not, before and after a
//! snapshot save/reload. The tree structures genuinely differ (incremental
//! splits vs STR packing); only the sorted query outputs are contractually
//! equal.
//!
//! The write path itself is one path: rows grown by live `insert_into`
//! calls, the same rows through one `insert_batch`, and the same rows
//! replayed from the log alone hold bitwise-equal rows and byte-equal
//! per-shard trees, and the log `insert_into` writes is the plain
//! concatenation of `wal::encode_record`.
//!
//! The companion property pins *incrementality* itself: each insert's
//! [`InsertReport::nodes_built`] — the number of freshly materialized
//! arena nodes — stays bounded by the split chain (root growth + one
//! split per level), nowhere near the node count a rebuild would report.

mod common;

use common::{assert_outputs_bitwise_equal, corpus};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use similarity_queries::prelude::*;
use similarity_queries::query::execute;
use similarity_queries::storage::wal::{encode_record, WalRecord};
use std::sync::atomic::{AtomicU64, Ordering};

const SERIES_LEN: usize = 32;

/// Upper bound on nodes materialized by one insert: one new node per
/// level of a split chain plus a root growth. Trees in these corpora are
/// ≤ 4 levels; a rebuild would materialize every node (dozens).
const MAX_NODES_PER_INSERT: u64 = 16;

/// The query battery both databases must agree on bitwise.
const QUERIES: &[&str] = &[
    "FIND SIMILAR TO ROW 0 IN r EPSILON 2.0",
    "FIND SIMILAR TO ROW 2 IN r USING mavg(3) ON BOTH EPSILON 2.5",
    "FIND 6 NEAREST TO ROW 1 IN r",
    "FIND PAIRS IN r EPSILON 1.2 METHOD d",
];

/// A deterministic shuffle of `0..n` (Fisher–Yates over the seeded rng).
fn shuffled(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

fn unique_snapshot_path() -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "simq-insert-equivalence-{}-{}.simq",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed),
    ))
}

/// Asserts the two databases answer the whole battery identically at 1
/// and 4 threads.
fn assert_equivalent(a: &mut Database, b: &mut Database, what: &str) {
    for threads in [Parallelism::Serial, Parallelism::Fixed(4)] {
        a.set_parallelism(threads);
        b.set_parallelism(threads);
        for q in QUERIES {
            let x = execute(a, q).unwrap();
            let y = execute(b, q).unwrap();
            assert_outputs_bitwise_equal(&x, &y, &format!("{what}: {q} @ {threads}"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random interleavings of bulk-loaded and incrementally inserted
    /// rows are indistinguishable from loading everything up front —
    /// including after the incrementally maintained tree round-trips
    /// through a snapshot and accepts one more insert.
    #[test]
    fn incremental_inserts_match_bulk_load(
        seed in 0u64..10_000,
        total in 8usize..60,
        split_frac in 0.0f64..1.0,
        sharded in prop_oneof![Just(false), Just(true)],
    ) {
        let series = corpus(seed, total, SERIES_LEN);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5EED);
        let order = shuffled(total, &mut rng);
        // At least one row bulk-loads (an empty relation cannot be
        // indexed) and at least one arrives through the write path.
        let split = 1 + ((total - 2) as f64 * split_frac) as usize;
        let shards = if sharded { 4 } else { 1 };

        // Incrementally maintained database: prefix at build time, the
        // rest through Database::insert_into against the live tree(s).
        let mut rel = SeriesRelation::new("r", SERIES_LEN, FeatureScheme::paper_default());
        for &row in &order[..split] {
            rel.insert(format!("S{row}"), series[row].clone()).unwrap();
        }
        let mut inc = Database::new();
        inc.add_relation_indexed(rel);
        if sharded {
            inc.shard_relation("r", shards).unwrap();
        }
        for &row in &order[split..] {
            let report = inc
                .insert_into("r", format!("S{row}"), series[row].clone())
                .unwrap();
            prop_assert!(
                report.nodes_built <= MAX_NODES_PER_INSERT,
                "insert of S{row} built {} nodes — that is a rebuild, not maintenance",
                report.nodes_built,
            );
        }

        // Oracle: the same rows in the same order, all present up front.
        let mut all = SeriesRelation::new("r", SERIES_LEN, FeatureScheme::paper_default());
        for &row in &order {
            all.insert(format!("S{row}"), series[row].clone()).unwrap();
        }
        let mut bulk = Database::new();
        bulk.add_relation_indexed(all);
        if sharded {
            bulk.shard_relation("r", shards).unwrap();
        }

        assert_equivalent(&mut inc, &mut bulk, "pre-reload");

        // The incrementally grown tree round-trips through a snapshot …
        let path = unique_snapshot_path();
        inc.save_snapshot(&path).unwrap();
        let mut reloaded = Database::open_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_equivalent(&mut reloaded, &mut bulk, "post-reload");

        // … and the decoded arena keeps accepting incremental inserts.
        let mut gen = WalkGenerator::new(seed.wrapping_add(1));
        let probe = gen.series(SERIES_LEN);
        let report = reloaded.insert_into("r", "PROBE", probe.clone()).unwrap();
        prop_assert!(report.nodes_built <= MAX_NODES_PER_INSERT);
        bulk.insert_into("r", "PROBE", probe).unwrap();
        assert_equivalent(&mut reloaded, &mut bulk, "post-reload insert");
    }
}

/// The headline incrementality measurement, deterministic: growing an
/// 800-row tree one insert at a time materializes a small bounded number
/// of nodes per insert, while each from-scratch rebuild re-materializes
/// the whole arena. This is the "demonstrably skips the full rebuild"
/// acceptance check.
#[test]
fn per_insert_node_cost_is_bounded_rebuild_is_not() {
    let series = corpus(77, 800, SERIES_LEN);
    let mut rel = SeriesRelation::new("r", SERIES_LEN, FeatureScheme::paper_default());
    rel.insert("S0", series[0].clone()).unwrap();
    let mut db = Database::new();
    db.add_relation_indexed(rel);

    let mut max_delta = 0u64;
    for (i, s) in series.iter().enumerate().skip(1) {
        let report = db.insert_into("r", format!("S{i}"), s.clone()).unwrap();
        max_delta = max_delta.max(report.nodes_built);
    }
    // Worst single insert: a full split chain, not a rebuild.
    assert!(
        max_delta <= MAX_NODES_PER_INSERT,
        "worst insert built {max_delta} nodes"
    );

    // A rebuild of the same 150 points materializes the entire arena —
    // an order of magnitude beyond the worst incremental step.
    let stored = db.relation("r").unwrap();
    let similarity_queries::query::StoredRelation::Single { relation, .. } = stored else {
        panic!("unsharded fixture");
    };
    let rebuilt = relation.build_index(RTreeConfig::default());
    assert!(
        rebuilt.nodes_built() > 5 * max_delta,
        "rebuild materialized {} nodes, worst insert {max_delta}",
        rebuilt.nodes_built()
    );
}

/// Single insert, batch insert and WAL replay share one WAL-then-apply
/// core, so for 1 and 4 shards they build the same relation bit for bit —
/// rows, derived features and the serialized per-shard R*-trees — the
/// third leg recovered by `open_durable` from an empty checkpoint plus the
/// log alone. The log `k` single inserts write is, per shard file, exactly
/// the concatenation of `wal::encode_record` of the records routed there
/// (one group of one per insert adds no framing).
#[test]
fn live_batched_and_replayed_inserts_build_identical_rows_and_trees() {
    let series = corpus(91, 60, SERIES_LEN);
    let rows = || {
        series
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("S{i}"), s.clone()))
    };
    for shards in [1usize, 4] {
        let empty_db = || {
            let mut db = Database::new();
            db.add_relation(SeriesRelation::new(
                "r",
                SERIES_LEN,
                FeatureScheme::paper_default(),
            ));
            db.shard_relation("r", shards).unwrap();
            db
        };
        let dir = unique_snapshot_path().with_extension("wal-dir");
        let mut live = empty_db();
        live.attach_wal(&dir).unwrap();
        for (name, s) in rows() {
            live.insert_into("r", name, s).unwrap();
        }
        let mut batched = empty_db();
        let report = batched.insert_batch("r", rows().collect()).unwrap();
        assert_eq!(report.acked.len(), series.len());

        for shard in 0..shards {
            let expected: Vec<u8> = rows()
                .enumerate()
                .filter(|(id, _)| id % shards == shard)
                .flat_map(|(id, (name, series))| {
                    encode_record(&WalRecord {
                        id: id as u64,
                        name,
                        series,
                    })
                })
                .collect();
            let log = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .find(|p| {
                    let name = p.file_name().unwrap().to_str().unwrap();
                    name.contains(&format!(".s{shard}.")) && name.ends_with(".wal")
                })
                .expect("every shard took rows, so every shard has a log");
            assert_eq!(
                std::fs::read(log).unwrap(),
                expected,
                "shards {shards}: log bytes of shard {shard}"
            );
        }

        let (recovered, replay) = Database::open_durable(&dir).unwrap();
        assert_eq!(replay.records_applied, series.len() as u64);
        std::fs::remove_dir_all(&dir).ok();
        let want = live.relation("r").unwrap();
        for (what, db) in [("batched", &batched), ("replayed", &recovered)] {
            let got = db.relation("r").unwrap();
            assert_eq!(got.next_id(), want.next_id(), "shards {shards}: {what}");
            assert_eq!(got.shard_count(), shards, "shards {shards}: {what}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (g, w) in got.rows().zip(want.rows()) {
                let what = format!("shards {shards}: {what} row {}", w.id);
                assert_eq!((g.id, &g.name), (w.id, &w.name), "{what}");
                assert_eq!(bits(&g.raw), bits(&w.raw), "{what}");
                assert_eq!(bits(&g.features.point), bits(&w.features.point), "{what}");
            }
            assert_eq!(got.row_count(), want.row_count(), "shards {shards}: {what}");
            for (shard, (g, w)) in got.trees().iter().zip(want.trees()).enumerate() {
                assert_eq!(
                    similarity_queries::index::serial::to_bytes(g),
                    similarity_queries::index::serial::to_bytes(w),
                    "shards {shards}: {what} tree of shard {shard}"
                );
            }
            assert_eq!(got.trees().len(), shards, "shards {shards}: {what}");
        }
    }
}
