//! The persistence contract as executable properties.
//!
//! 1. **Bitwise round-trip**: an arbitrary relation saved to a snapshot and
//!    reopened reproduces every row — id, name, raw series, statistics,
//!    index point and normal-form spectrum — with identical `f64` bit
//!    patterns, and the reopened R*-tree has the identical node layout
//!    (pinned by byte-equal re-serialization).
//! 2. **Query equivalence**: a reopened database answers every statement
//!    of the lattice corpus identically to the in-memory build, serially
//!    and at 4 threads, with the index decoded rather than re-bulk-loaded.
//! 3. **Corruption safety**: flipping any byte of a snapshot makes loading
//!    return an error — never a panic, never silently wrong data.
//! 4. **WAL corruption safety**: flipping or truncating random bytes of a
//!    durable directory's write-ahead log never panics and never errors —
//!    reopening recovers the longest valid record prefix, reports what was
//!    dropped in the [`ReplayReport`], and repairs the log on disk so the
//!    next open is clean.

mod common;

use common::{corpus, relation_with};
use proptest::prelude::*;
use similarity_queries::index::serial;
use similarity_queries::prelude::*;
use similarity_queries::storage::snapshot;

fn f64_bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Saves `rel` (with a bulk-loaded index) to an in-memory snapshot and
/// loads it back, asserting the bitwise round-trip contract.
fn assert_snapshot_roundtrip(rel: &SeriesRelation) {
    let tree = rel.build_index(RTreeConfig::default());
    let file = snapshot::to_bytes(&[(rel, Some(&tree))]);
    let loaded = snapshot::from_bytes(&file).expect("valid snapshot loads");
    assert_eq!(loaded.len(), 1);
    let entry = loaded[0].single().expect("unsharded entry");
    let back = &entry.relation;

    assert_eq!(back.name(), rel.name());
    assert_eq!(back.series_len(), rel.series_len());
    assert_eq!(back.scheme(), rel.scheme());
    assert_eq!(back.len(), rel.len());
    for (a, b) in rel.rows().zip(back.rows()) {
        assert_eq!(a.id, b.id);
        assert_eq!(a.name, b.name);
        assert_eq!(f64_bits(&a.raw), f64_bits(&b.raw));
        assert_eq!(a.features.mean.to_bits(), b.features.mean.to_bits());
        assert_eq!(a.features.std_dev.to_bits(), b.features.std_dev.to_bits());
        assert_eq!(f64_bits(&a.features.point), f64_bits(&b.features.point));
        assert_eq!(a.features.spectrum.len(), b.features.spectrum.len());
        for (x, y) in a.features.spectrum.iter().zip(&b.features.spectrum) {
            assert_eq!(x.re.to_bits(), y.re.to_bits());
            assert_eq!(x.im.to_bits(), y.im.to_bits());
        }
    }

    // Identical node layout: the loaded tree re-serializes byte-for-byte.
    let back_tree = entry.index.as_ref().expect("index was saved");
    assert_eq!(serial::to_bytes(back_tree), serial::to_bytes(&tree));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary relations over both representations, with and without
    /// statistics dimensions, round-trip bitwise.
    #[test]
    fn snapshot_roundtrip_is_bitwise(
        seed in 0u64..10_000,
        rows in 1usize..60,
        len_pow in 4u32..8, // 16..128, power of two for the FFT
        k in 1usize..4,
        polar in prop_oneof![Just(true), Just(false)],
        stats in prop_oneof![Just(true), Just(false)],
    ) {
        let len = 1usize << len_pow;
        let rep = if polar { Representation::Polar } else { Representation::Rectangular };
        let series = corpus(seed, rows, len);
        let rel = relation_with(&series, FeatureScheme::new(k, rep, stats));
        assert_snapshot_roundtrip(&rel);
    }

    /// Any single corrupted byte makes the load fail cleanly.
    #[test]
    fn corrupted_snapshot_errors_never_panics(
        seed in 0u64..10_000,
        rows in 1usize..25,
        pos_frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let series = corpus(seed, rows, 32);
        let rel = relation_with(&series, FeatureScheme::paper_default());
        let tree = rel.build_index(RTreeConfig::default());
        let mut file = snapshot::to_bytes(&[(&rel, Some(&tree))]);
        let pos = ((file.len() - 1) as f64 * pos_frac) as usize;
        file[pos] ^= mask; // mask ≥ 1, so the byte really changes
        prop_assert!(
            snapshot::from_bytes(&file).is_err(),
            "flip of byte {pos} with mask {mask:#x} went undetected"
        );
    }

    /// Truncating a snapshot anywhere makes the load fail cleanly.
    #[test]
    fn truncated_snapshot_errors_never_panics(
        seed in 0u64..10_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let series = corpus(seed, 10, 32);
        let rel = relation_with(&series, FeatureScheme::paper_default());
        let file = snapshot::to_bytes(&[(&rel, None)]);
        let cut = ((file.len() - 1) as f64 * cut_frac) as usize;
        prop_assert!(snapshot::from_bytes(&file[..cut]).is_err());
    }
}

/// Builds a durable directory whose WAL tail holds `inserts` acknowledged
/// records beyond the base checkpoint, then simulates a crash (drops the
/// database). Returns the directory and the single on-disk WAL path.
fn durable_dir_with_wal(seed: u64, inserts: usize) -> (std::path::PathBuf, std::path::PathBuf) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "simq-wal-fuzz-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed),
    ));
    std::fs::remove_dir_all(&dir).ok();

    let series = corpus(seed, 8, 32);
    let rel = relation_with(&series, FeatureScheme::paper_default());
    let mut db = Database::new();
    db.add_relation_indexed(rel);
    db.attach_wal(&dir).unwrap();
    let mut gen = WalkGenerator::new(seed.wrapping_add(99));
    for i in 0..inserts {
        db.insert_into("r", format!("W{i}"), gen.series(32))
            .unwrap();
    }
    drop(db); // crash: the WAL tail is the only copy of the inserts

    let wal = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().is_some_and(|e| e == "wal"))
        .expect("acknowledged inserts leave a WAL file");
    (dir, wal)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Flipping any byte of the WAL never panics and never fails the
    /// open: the intact record prefix replays, the rest is reported
    /// dropped, and the repaired log opens cleanly the second time.
    #[test]
    fn corrupted_wal_recovers_longest_valid_prefix(
        seed in 0u64..10_000,
        inserts in 1usize..8,
        pos_frac in 0.0f64..1.0,
        mask in 1u8..=255,
    ) {
        let (dir, wal) = durable_dir_with_wal(seed, inserts);
        let mut bytes = std::fs::read(&wal).unwrap();
        let pos = ((bytes.len() - 1) as f64 * pos_frac) as usize;
        bytes[pos] ^= mask;
        std::fs::write(&wal, &bytes).unwrap();

        let (db, replay) = Database::open_durable(&dir).unwrap();
        let applied = replay.records_applied as usize;
        let lost = replay.records_dropped as usize;
        prop_assert!(applied <= inserts, "replayed more than was written");
        prop_assert!(
            applied + lost <= inserts,
            "accounted for more records than were written"
        );
        // A flip is always detected: at least the final record (or an
        // earlier one) stops replaying, and the loss is reported.
        prop_assert!(applied < inserts, "flip of byte {pos} went undetected");
        prop_assert_eq!(
            db.relation("r").unwrap().row_count(),
            8 + applied,
            "rows must match the replayed prefix exactly"
        );
        prop_assert!(replay.wal_files_repaired >= 1, "corrupt log was not repaired");

        // The repair truncated the log to the valid prefix: a second open
        // replays the same records with nothing further dropped.
        drop(db);
        let (_db2, second) = Database::open_durable(&dir).unwrap();
        prop_assert_eq!(second.records_applied as usize, applied);
        prop_assert_eq!(second.records_dropped, 0);
        prop_assert_eq!(second.bytes_dropped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Truncating the WAL anywhere never panics: exactly the records
    /// fully contained in the remaining bytes replay (a torn final
    /// record is dropped bytes, not a lost whole record).
    #[test]
    fn truncated_wal_recovers_complete_records(
        seed in 0u64..10_000,
        inserts in 1usize..8,
        cut_frac in 0.0f64..1.0,
    ) {
        let (dir, wal) = durable_dir_with_wal(seed, inserts);
        let bytes = std::fs::read(&wal).unwrap();
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        std::fs::write(&wal, &bytes[..cut]).unwrap();

        // The record stream is uniform, so the count surviving a cut is
        // derivable from the single-record length.
        let per_record = bytes.len() / inserts;
        let expect = cut / per_record;

        let (db, replay) = Database::open_durable(&dir).unwrap();
        prop_assert_eq!(replay.records_applied as usize, expect, "cut at {}", cut);
        prop_assert_eq!(replay.records_dropped, 0, "a torn record never parses whole");
        prop_assert_eq!(db.relation("r").unwrap().row_count(), 8 + expect);
        if !cut.is_multiple_of(per_record) {
            prop_assert!(replay.wal_files_repaired >= 1, "torn tail was not repaired");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The acceptance contract — the snapshot-reload points of the lattice
/// (`tests/common/lattice.rs`): a database saved and reopened from disk
/// answers every statement identically to the in-memory build, at 1 and 4
/// threads, and serially with identical work: the R*-tree is decoded, not
/// re-bulk-loaded, and arena-identical trees do identical work.
#[test]
fn reopened_database_is_query_for_query_identical() {
    use common::lattice::{world, Config, Storage};
    let reopened = Config {
        storage: Storage::SnapshotReload,
        ..Config::BASE
    };
    world(71, 22, 32).check(
        &[1, 4].map(|threads| Config {
            threads,
            ..reopened
        }),
        |_| true,
    );
}

/// The reopened index is the decoded structure, not a fresh bulk-load:
/// even after the original relation's tree is mutated, the snapshot keeps
/// the old structure (decoding preserves, rebuilding would diverge).
#[test]
fn open_snapshot_preserves_tree_structure_not_rebuilds() {
    let series = corpus(7, 80, 32);
    let rel = relation_with(&series, FeatureScheme::paper_default());
    // An *incrementally built* tree has a different node layout than a
    // bulk-loaded one over the same points.
    let incremental = rel.build_index_incremental(RTreeConfig::default());
    let bulk = rel.build_index(RTreeConfig::default());
    let inc_bytes = serial::to_bytes(&incremental);
    assert_ne!(inc_bytes, serial::to_bytes(&bulk));

    let file = snapshot::to_bytes(&[(&rel, Some(&incremental))]);
    let loaded = snapshot::from_bytes(&file).unwrap();
    let back = loaded[0]
        .single()
        .expect("unsharded entry")
        .index
        .as_ref()
        .unwrap();
    // If open re-bulk-loaded, this would equal `bulk`; it equals the
    // incremental original instead.
    assert_eq!(serial::to_bytes(back), inc_bytes);
}

/// A relation handed out mutably is all-dirty until its next checkpoint,
/// and a durable insert in between must not narrow that to the one shard
/// it touched: rows put into the other shards behind the write path's back
/// would be left out of an explicitly requested, successful checkpoint.
#[test]
fn an_insert_does_not_narrow_an_all_dirty_relation() {
    let series = corpus(31, 17, 32);
    let mut db = Database::new();
    db.add_relation_sharded(
        relation_with(&series[..8], FeatureScheme::paper_default()),
        4,
    );
    let dir = std::env::temp_dir().join(format!("simq-all-dirty-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    db.attach_wal(&dir).unwrap();
    let stored = db.relation_mut("r").unwrap();
    for (i, s) in series[8..16].iter().enumerate() {
        stored.insert(format!("X{i}"), s.clone()).unwrap();
    }
    db.insert_into("r", "logged", series[16].clone()).unwrap();
    let status = db.wal_status().unwrap();
    assert_eq!(status.dirty_shards, status.total_shards);
    assert_eq!(db.checkpoint().unwrap().shards_written, 4);
    drop(db);
    let (reopened, _) = Database::open_durable(&dir).unwrap();
    assert_eq!(reopened.relation("r").unwrap().row_count(), 17);
    std::fs::remove_dir_all(&dir).ok();
}
