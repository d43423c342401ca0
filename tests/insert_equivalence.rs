//! The incremental-storage points of the configuration lattice
//! (`tests/common/lattice.rs`), and what only the write path has.
//!
//! A database that bulk-loads a prefix and *incrementally inserts* the
//! rest answers every statement bitwise-identically to a database that
//! loads all rows up front — serially and at 4 threads, sharded and not,
//! before and after a save to a directory and its reopening, and after one
//! more insert into the reopened trees. The tree structures genuinely differ (incremental
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

use common::corpus;
use common::lattice::{world, Config, Scratch, Storage, MAX_NODES_PER_INSERT};
use similarity_queries::prelude::*;
use similarity_queries::query::QueryError;
use similarity_queries::series::features::SeriesFeatures;
use similarity_queries::series::SeriesError;
use similarity_queries::storage::wal::{encode_record, WalRecord};

const SERIES_LEN: usize = 32;

/// Bulk-loaded and incrementally inserted rows are indistinguishable from
/// loading everything up front, every insert within the node bound
/// (`World::database` asserts it) — whether one row was bulk-loaded
/// (seed 84: three of four shards start empty) or many — including after
/// the incrementally maintained tree round-trips through a saved directory
/// and accepts one more insert.
#[test]
fn incremental_inserts_match_bulk_load() {
    for (seed, rows, shards) in [(84, 8, 4), (82, 26, 1), (83, 59, 4), (81, 37, 1)] {
        let world = world(seed, rows, SERIES_LEN);
        let grown = Config {
            shards,
            storage: Storage::Incremental,
            ..Config::BASE
        };
        let points = [1, 4].map(|threads| Config { threads, ..grown });
        world.check(&points, |_| true);

        let (db, scratch) = world.database(Storage::Incremental, shards, false);
        let dir = scratch.0.join("grown");
        db.save_snapshot(&dir).unwrap();
        let (mut reloaded, _) = Database::open_durable(&dir).unwrap();
        for point in points {
            world.check_on(&mut reloaded, &point, |_| true);
        }
        // … and the decoded arena keeps accepting incremental inserts.
        let (mut bulk, _scratch) = world.database(Storage::Built, shards, false);
        let probe = WalkGenerator::new(seed + 1).series(SERIES_LEN);
        let report = reloaded.insert_into("r", "PROBE", probe.clone()).unwrap();
        assert!(report.nodes_built <= MAX_NODES_PER_INSERT);
        bulk.insert_into("r", "PROBE", probe).unwrap();
        world.assert_agree(&mut reloaded, &mut bulk, "post-reload insert");
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
/// rows, every derived feature, signatures and the serialized per-shard
/// R*-trees — the third leg recovered by `open_durable` from an empty
/// checkpoint plus the log alone. The live and batched legs store the
/// features admission extracted; replay extracts again, and so does a
/// fresh `extract` of each live row, which must agree bitwise. The log `k`
/// single inserts write is, per shard file, exactly the concatenation of
/// `wal::encode_record` of the records routed there (one group of one per
/// insert adds no framing).
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
        let scratch = Scratch::new();
        let dir = scratch.0.join("wal");
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
        let want = live.relation("r").unwrap();
        for row in want.rows() {
            let fresh = want.scheme().extract(&row.raw).unwrap();
            assert_eq!(
                feature_bits(&row.features),
                feature_bits(&fresh),
                "shards {shards}: live row {} against a fresh extraction",
                row.id
            );
        }
        for (what, db) in [("batched", &batched), ("replayed", &recovered)] {
            let got = db.relation("r").unwrap();
            assert_eq!(got.next_id(), want.next_id(), "shards {shards}: {what}");
            assert_eq!(got.shard_count(), shards, "shards {shards}: {what}");
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let sig_bits = |r: &StoredRelation, id| {
                let sig = r.signature(id).expect("every row has a signature");
                sig.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
            };
            for (g, w) in got.rows().zip(want.rows()) {
                let what = format!("shards {shards}: {what} row {}", w.id);
                assert_eq!((g.id, &g.name), (w.id, &w.name), "{what}");
                assert_eq!(bits(&g.raw), bits(&w.raw), "{what}");
                assert_eq!(
                    feature_bits(&g.features),
                    feature_bits(&w.features),
                    "{what}"
                );
                assert_eq!(sig_bits(got, w.id), sig_bits(want, w.id), "{what}");
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

/// Every bit a row's features hold: the index point, the mean, the
/// standard deviation and each spectrum coefficient's real and imaginary
/// parts.
fn feature_bits(f: &SeriesFeatures) -> Vec<u64> {
    let spectrum = f.spectrum.iter().flat_map(|c| [c.re, c.im]);
    (f.point.iter().copied())
        .chain([f.mean, f.std_dev])
        .chain(spectrum)
        .map(f64::to_bits)
        .collect()
}

/// A series with a NaN or infinite sample, or whose standard deviation
/// overflows, is refused at admission with a typed error: a single insert
/// and a 64-row batch holding one such row log no byte, apply nothing and
/// consume no id, and indexed kNN keeps answering.
#[test]
fn non_finite_rows_are_refused_before_anything_is_logged() {
    let series = corpus(93, 81, SERIES_LEN);
    let mut bad_rows: Vec<Vec<f64>> = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY]
        .into_iter()
        .map(|bad| {
            let mut s = series[0].clone();
            s[3] = bad;
            s
        })
        .collect();
    bad_rows.push(series[0].iter().map(|v| v * 1e300).collect());
    for shards in [1usize, 4] {
        let mut rel = SeriesRelation::new("r", SERIES_LEN, FeatureScheme::paper_default());
        for (i, s) in series[..16].iter().enumerate() {
            rel.insert(format!("S{i}"), s.clone()).unwrap();
        }
        let mut db = Database::new();
        db.add_relation_sharded(rel, shards);
        let scratch = Scratch::new();
        let dir = scratch.0.join("wal");
        db.attach_wal(&dir).unwrap();
        db.insert_into("r", "S16", series[16].clone()).unwrap();
        let wal_bytes = || -> u64 {
            (std::fs::read_dir(&dir).unwrap())
                .map(|e| e.unwrap().path())
                .filter(|p| p.extension().is_some_and(|x| x == "wal"))
                .map(|p| std::fs::metadata(p).unwrap().len())
                .sum()
        };
        let (bytes, next_id) = (wal_bytes(), db.relation("r").unwrap().next_id());
        assert!(bytes > 0, "shards {shards}: the valid insert was logged");
        for bad in &bad_rows {
            let single = db.insert_into("r", "BAD", bad.clone()).unwrap_err();
            let mut batch: Vec<(String, Vec<f64>)> = (17..81)
                .map(|i| (format!("S{i}"), series[i].clone()))
                .collect();
            batch[40].1 = bad.clone();
            let batched = db.insert_batch("r", batch).unwrap_err();
            for err in [single, batched] {
                assert!(
                    matches!(err, QueryError::Series(SeriesError::NonFiniteSeries)),
                    "shards {shards}: {err}"
                );
            }
            assert_eq!(wal_bytes(), bytes, "shards {shards}: nothing logged");
            let stored = db.relation("r").unwrap();
            assert_eq!(stored.next_id(), next_id, "shards {shards}: no id consumed");
            assert_eq!(stored.row_count(), 17, "shards {shards}: nothing applied");
        }
        let result = Session::new(&db)
            .execute_text("FIND 3 NEAREST TO ROW 0 IN r")
            .unwrap();
        let QueryOutput::Hits(hits) = result.output else {
            panic!("kNN answers hits");
        };
        assert_eq!(hits.len(), 3, "shards {shards}");
    }
}
