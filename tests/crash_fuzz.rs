//! Crash-fuzz harness for the durable write path.
//!
//! The contract under test is the acknowledged-write guarantee: once
//! `Database::insert_into` returns `Ok`, that row's WAL record has been
//! written and synced, so the row survives a crash at **any** later
//! instant — including a crash in the middle of the very next append.
//!
//! The harness drives acknowledged-insert workloads against a database
//! whose WAL appends go through an injectable [`FailingStorage`] that
//! kills the process's write path after a seeded number of bytes (the
//! *kill point*). Appends before the kill point reach the (simulated)
//! disk; the append that crosses it is torn mid-record; everything after
//! it is lost. After the "crash" the surviving bytes are materialized to
//! the real directory and the database is reopened with
//! [`Database::open_durable`], which must:
//!
//! 1. recover **every acknowledged insert bit-for-bit** (names and raw
//!    f64 series compared by bit pattern), and
//! 2. answer every query form — range, kNN, join, prepared statements and
//!    streaming cursors, serially and at 4 threads, sharded and not —
//!    **bitwise identically** to an in-memory oracle built from exactly
//!    the acknowledged prefix of the workload.
//!
//! Kill points are seeded from `SIMQ_CRASH_SEED` (CI runs a fixed seed
//! matrix; the default seed keeps local runs deterministic) and include
//! the adversarial offsets by construction: 0, 1, each record boundary,
//! one byte either side of a boundary, and a spread of mid-record tears.
//! Two configurations × ≥100 kill points each ⇒ ≥200 kill points per run.

mod common;

use common::{assert_outputs_bitwise_equal, assert_same_database};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use similarity_queries::prelude::*;
use similarity_queries::query::{execute, QueryError};
use similarity_queries::storage::wal::encode_record;
use similarity_queries::storage::{FailingStorage, WalRecord};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const SERIES_LEN: usize = 16;
const BASE_ROWS: usize = 24;
const WORKLOAD_ROWS: usize = 20;
const KILL_POINTS_PER_CONFIG: usize = 100;

/// Base seed for the kill-point matrix. CI runs this test several times
/// with different fixed values; the default keeps plain `cargo test`
/// deterministic.
fn base_seed() -> u64 {
    std::env::var("SIMQ_CRASH_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(0xC0FF_EE00)
}

/// A unique empty directory for one simulated crash run.
fn unique_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "simq-crash-fuzz-{tag}-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed),
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

/// The deterministic insert stream every configuration replays.
fn workload() -> Vec<(String, Vec<f64>)> {
    let mut gen = WalkGenerator::new(9001);
    (0..WORKLOAD_ROWS)
        .map(|i| (format!("I{i:03}"), gen.series(SERIES_LEN)))
        .collect()
}

/// A fresh in-memory database with the seeded base relation, indexed,
/// partitioned into `shards` shards (1 = single R*-tree). No WAL.
fn fresh_db(shards: usize) -> Database {
    let mut gen = WalkGenerator::new(7);
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
    db
}

/// The WAL byte offsets worth killing at: the deterministic adversarial
/// set (start, every record boundary ± 1 byte, mid-header tears) plus
/// seeded uniform offsets up to `KILL_POINTS_PER_CONFIG` total.
fn kill_points(seed: u64) -> Vec<u64> {
    // Record lengths are data-independent of the assigned ids, so a
    // dummy id yields the exact on-disk boundaries.
    let mut boundaries = vec![0u64];
    for (name, series) in workload() {
        let len = encode_record(&WalRecord {
            id: 0,
            name,
            series,
        })
        .len() as u64;
        boundaries.push(boundaries.last().unwrap() + len);
    }
    let total = *boundaries.last().unwrap();
    let mut points: Vec<u64> = Vec::new();
    for b in &boundaries {
        points.push(*b);
        points.push(b + 1);
        points.push(b.saturating_sub(1));
        points.push(b + 6); // inside the length/checksum header
    }
    let mut rng = StdRng::seed_from_u64(seed);
    while points.len() < KILL_POINTS_PER_CONFIG {
        points.push(rng.gen_range(0..=total));
    }
    points.truncate(KILL_POINTS_PER_CONFIG.max(points.len()));
    points
}

/// Runs the workload against `db` until the first rejected insert (the
/// simulated crash) and returns the acknowledged prefix.
fn run_until_crash(db: &mut Database) -> Vec<(u64, String, Vec<f64>)> {
    let mut acked = Vec::new();
    for (name, series) in workload() {
        match db.insert_into("r", &name, series.clone()) {
            Ok(report) => acked.push((report.id, name, series)),
            Err(_) => break,
        }
    }
    acked
}

/// The query battery compared bitwise between the reopened database and
/// the oracle. Covers range (raw and transformed), kNN, and an index
/// join; `newest` pins a query at the most recently inserted row when
/// the crash acknowledged at least one.
fn query_battery(newest: Option<&str>) -> Vec<String> {
    let mut queries = vec![
        "FIND SIMILAR TO ROW 0 IN r EPSILON 1.5".to_string(),
        "FIND SIMILAR TO ROW 3 IN r USING mavg(3) ON BOTH EPSILON 2.0".to_string(),
        "FIND 5 NEAREST TO ROW 7 IN r".to_string(),
        "FIND PAIRS IN r EPSILON 1.0 METHOD d".to_string(),
    ];
    if let Some(name) = newest {
        queries.push(format!("FIND 3 NEAREST TO NAME {name} IN r"));
    }
    queries
}

/// Asserts `reopened` and `oracle` agree bitwise on the whole battery,
/// serially and at 4 threads, through plain execution, prepared
/// statements and drained cursors.
fn assert_query_equivalence(reopened: &mut Database, oracle: &mut Database, what: &str) {
    let newest_name;
    let newest = {
        let stored = oracle.relation("r").unwrap();
        let max = stored.rows().map(|r| r.id).max().unwrap();
        newest_name = stored.rows().find(|r| r.id == max).unwrap().name.clone();
        Some(newest_name.as_str())
    };
    for threads in [Parallelism::Serial, Parallelism::Fixed(4)] {
        reopened.set_parallelism(threads);
        oracle.set_parallelism(threads);
        for query in query_battery(newest) {
            let got = execute(reopened, &query).unwrap();
            let want = execute(oracle, &query).unwrap();
            assert_outputs_bitwise_equal(&got, &want, &format!("{what}: {query} @ {threads}"));
        }
        // Prepared-statement and cursor paths over the same session pair.
        let got_session = Session::new(&*reopened);
        let want_session = Session::new(&*oracle);
        let prepared_got = got_session.prepare("FIND ? NEAREST TO ROW 2 IN r").unwrap();
        let prepared_want = want_session
            .prepare("FIND ? NEAREST TO ROW 2 IN r")
            .unwrap();
        let bound_got = prepared_got.bind(&[Value::Number(4.0)]).unwrap();
        let bound_want = prepared_want.bind(&[Value::Number(4.0)]).unwrap();
        assert_outputs_bitwise_equal(
            &got_session.execute(&bound_got).unwrap(),
            &want_session.execute(&bound_want).unwrap(),
            &format!("{what}: prepared kNN @ {threads}"),
        );
        let cursor_query = "FIND SIMILAR TO ROW 1 IN r EPSILON 2.5";
        let got_hits = got_session
            .cursor_text(cursor_query)
            .unwrap()
            .drain_sorted();
        let want_hits = want_session
            .cursor_text(cursor_query)
            .unwrap()
            .drain_sorted();
        assert_eq!(
            got_hits.len(),
            want_hits.len(),
            "{what}: cursor @ {threads}"
        );
        for (h, g) in got_hits.iter().zip(&want_hits) {
            assert_eq!(h.id, g.id, "{what}: cursor @ {threads}");
            assert_eq!(
                h.distance.to_bits(),
                g.distance.to_bits(),
                "{what}: cursor @ {threads}"
            );
        }
    }
}

/// One simulated crash: run the workload with the write path killed after
/// `kill_after` WAL bytes, materialize the surviving bytes, reopen, and
/// check both halves of the contract.
fn crash_at(shards: usize, kill_after: u64, what: &str) {
    let dir = unique_dir(&format!("s{shards}"));
    let mut db = fresh_db(shards);
    let sink = FailingStorage::new(kill_after);
    db.attach_wal_with_sink(&dir, sink.clone()).unwrap();

    let acked = run_until_crash(&mut db);
    // The workload only stops early by exhausting the byte budget.
    assert!(
        acked.len() == WORKLOAD_ROWS || sink.crashed(),
        "{what}: workload stopped without a crash"
    );
    drop(db); // the process dies: in-memory state is gone

    // Whatever the torn write left behind becomes the real directory.
    sink.materialize().unwrap();
    let (reopened, replay) = Database::open_durable(&dir).unwrap();
    let mut reopened = reopened;

    // Half 1: every acknowledged insert survived, bit-for-bit.
    let stored = reopened.relation("r").expect("relation survives");
    assert_eq!(
        stored.row_count(),
        BASE_ROWS + acked.len(),
        "{what}: row count after reopen (replay {replay:?})"
    );
    for (id, name, series) in &acked {
        let row = stored
            .rows()
            .find(|r| r.id == *id)
            .unwrap_or_else(|| panic!("{what}: acknowledged id {id} lost"));
        assert_eq!(&row.name, name, "{what}: name of id {id}");
        assert_eq!(row.raw.len(), series.len(), "{what}: len of id {id}");
        for (a, b) in row.raw.iter().zip(series) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: bits of id {id}");
        }
    }

    // Half 2: bitwise query equivalence against the acknowledged oracle.
    let mut oracle = fresh_db(shards);
    for (id, name, series) in &acked {
        let report = oracle.insert_into("r", name, series.clone()).unwrap();
        assert_eq!(report.id, *id, "{what}: oracle id assignment");
    }
    assert_query_equivalence(&mut reopened, &mut oracle, what);

    std::fs::remove_dir_all(&dir).ok();
}

/// ≥100 seeded kill points against the single-tree configuration.
#[test]
fn crash_fuzz_single() {
    let seed = base_seed();
    for (i, kill_after) in kill_points(seed).into_iter().enumerate() {
        crash_at(
            1,
            kill_after,
            &format!("single[{i}] kill@{kill_after} seed {seed:#x}"),
        );
    }
}

/// ≥100 seeded kill points against the 4-shard configuration (routing:
/// each record must replay into the shard that owns its id).
#[test]
fn crash_fuzz_sharded() {
    let seed = base_seed().wrapping_add(1);
    for (i, kill_after) in kill_points(seed).into_iter().enumerate() {
        crash_at(
            4,
            kill_after,
            &format!("sharded[{i}] kill@{kill_after} seed {seed:#x}"),
        );
    }
}

/// A kill budget beyond the workload's total bytes never trips: all
/// inserts acknowledge, nothing is torn, and reopen replays them all.
#[test]
fn no_crash_when_budget_exceeds_workload() {
    crash_at(1, u64::MAX, "unbounded");
    crash_at(4, u64::MAX, "unbounded sharded");
}

// ---------------------------------------------------------------------------
// Concurrent writers: mid-group kill points
// ---------------------------------------------------------------------------

/// One simulated crash under `threads` per-shard writers: the whole
/// workload goes through `Database::insert_batch` (one WAL group append
/// per shard; at more than one thread, writers racing on distinct shards)
/// with the shared byte budget killed after `kill_after` bytes. The
/// contract is two-sided:
///
/// 1. every row the batch **acknowledged** survives reopen bit-for-bit;
/// 2. rows of a torn (unacknowledged) group are atomically
///    absent-or-present per shard according to the WAL prefix property —
///    the recovered subset of each shard's group is exactly a prefix of
///    that shard's records in id order, never a gap.
fn crash_batch_at(shards: usize, threads: usize, kill_after: u64, what: &str) {
    let dir = unique_dir(&format!("batch-s{shards}-t{threads}"));
    let mut db = fresh_db(shards);
    db.set_parallelism(Parallelism::Fixed(threads));
    let sink = FailingStorage::new(kill_after);
    db.attach_wal_with_sink(&dir, sink.clone()).unwrap();

    let rows = workload();
    let acked: Vec<(u64, usize)> = match db.insert_batch("r", rows.clone()) {
        Ok(report) => report.acked.iter().map(|&(idx, r)| (r.id, idx)).collect(),
        Err(_) => Vec::new(), // every shard's group append died
    };
    drop(db);
    sink.materialize().unwrap();
    let (reopened, _replay) = Database::open_durable(&dir).unwrap();
    let stored = reopened.relation("r").expect("relation survives");

    // Batch ids are assigned in input order from the base relation's
    // next_id, so workload row `idx` owns id BASE_ROWS + idx. An oracle
    // insert loop pins the shard routing.
    let mut oracle = fresh_db(shards);
    let mut shard_sequences: Vec<Vec<u64>> = vec![Vec::new(); shards];
    for (name, series) in &rows {
        let report = oracle.insert_into("r", name, series.clone()).unwrap();
        shard_sequences[report.shard].push(report.id);
    }

    // Half 1: acknowledged rows are present, bit-for-bit.
    for &(id, idx) in &acked {
        assert_eq!(id, (BASE_ROWS + idx) as u64, "{what}: id assignment");
        let row = stored
            .row(id)
            .unwrap_or_else(|| panic!("{what}: acknowledged id {id} lost"));
        let (name, series) = &rows[idx];
        assert_eq!(&row.name, name, "{what}: name of id {id}");
        for (a, b) in row.raw.iter().zip(series) {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: bits of id {id}");
        }
    }

    // Half 2: per shard, the recovered workload rows form a prefix of
    // that shard's group in id order (an acked shard recovers all of
    // them; a torn shard recovers exactly the records before the tear).
    let acked_ids: std::collections::BTreeSet<u64> = acked.iter().map(|&(id, _)| id).collect();
    for (shard, sequence) in shard_sequences.iter().enumerate() {
        let recovered: Vec<bool> = sequence
            .iter()
            .map(|&id| stored.row(id).is_some())
            .collect();
        let prefix_len = recovered.iter().take_while(|&&p| p).count();
        assert!(
            recovered[prefix_len..].iter().all(|&p| !p),
            "{what}: shard {shard} recovered a gapped subset {recovered:?} of {sequence:?}"
        );
        // Unacknowledged survivors are legal (the tear hit after their
        // bytes); acknowledged ones are mandatory, so the prefix covers
        // every acked id of the shard.
        for &id in sequence {
            if acked_ids.contains(&id) {
                assert!(
                    stored.row(id).is_some(),
                    "{what}: shard {shard} lost acked id {id}"
                );
            }
        }
        // Whatever survived must carry the workload's exact bits.
        for &id in &sequence[..prefix_len] {
            let row = stored.row(id).unwrap();
            let (name, series) = &rows[(id - BASE_ROWS as u64) as usize];
            assert_eq!(&row.name, name, "{what}: torn-group name of id {id}");
            for (a, b) in row.raw.iter().zip(series) {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "{what}: torn-group bits of id {id}"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Seeded mid-group kill points against the 4-shard configuration, plus
/// the single-tree one-group case, through both the sequential writer
/// loop (1 thread) and concurrent per-shard writers (4).
#[test]
fn crash_fuzz_concurrent_batch() {
    for threads in [1, 4] {
        let seed = base_seed().wrapping_add(2);
        for (i, kill_after) in kill_points(seed).into_iter().take(60).enumerate() {
            crash_batch_at(
                4,
                threads,
                kill_after,
                &format!("batch-sharded[{i}] @{threads} kill@{kill_after} seed {seed:#x}"),
            );
        }
        let seed = base_seed().wrapping_add(3);
        for (i, kill_after) in kill_points(seed).into_iter().take(30).enumerate() {
            crash_batch_at(
                1,
                threads,
                kill_after,
                &format!("batch-single[{i}] @{threads} kill@{kill_after} seed {seed:#x}"),
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Checkpoint commit point: crashes between rename and directory sync
// ---------------------------------------------------------------------------

/// Reads every file of a durable directory into memory.
fn dir_files(dir: &std::path::Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let entry = entry.unwrap();
        if entry.file_type().unwrap().is_file() {
            files.insert(
                entry.file_name().to_string_lossy().into_owned(),
                std::fs::read(entry.path()).unwrap(),
            );
        }
    }
    files
}

/// Materializes a simulated post-crash directory state.
fn write_dir(dir: &std::path::Path, files: &BTreeMap<String, Vec<u8>>) {
    std::fs::create_dir_all(dir).unwrap();
    for (name, bytes) in files {
        std::fs::write(dir.join(name), bytes).unwrap();
    }
}

/// Crashes at the checkpoint's commit point: the manifest rename is the
/// atomic switch, and the directory fsync after it is what makes the
/// switch durable. A crash on either side of that instant must leave a
/// directory that reopens to exactly one whole database — before the
/// rename becomes durable the old manifest still governs (old checkpoint
/// and intact WAL tails), after it the new one does (new checkpoint;
/// stale files are ignorable garbage). Two commits are crashed: the attached
/// database's own checkpoint, after which both sides hold every
/// acknowledged insert, and a different database B saved over that
/// directory as it stood before the checkpoint (A: checkpoints plus WAL
/// tails), in a new shard layout.
#[test]
fn checkpoint_commit_point_crash_recovers_every_acked_insert() {
    for shards in [1usize, 4] {
        let dir = unique_dir(&format!("commit-point-s{shards}"));
        let mut db = fresh_db(shards);
        db.attach_wal(&dir).unwrap();
        for (name, series) in workload() {
            db.insert_into("r", &name, series).unwrap();
        }
        let before = dir_files(&dir); // old manifest + old snaps + WAL tails
        db.checkpoint().unwrap();
        let after = dir_files(&dir); // new manifest + new snaps, tails absorbed
        let what = format!("checkpoint (shards {shards})");
        assert_commit_point(&what, &before, &after, &db, &db);

        let replaced = unique_dir(&format!("save-over-s{shards}"));
        write_dir(&replaced, &before);
        let mut b = fresh_db(5 - shards);
        b.insert_batch("r", workload().into_iter().rev().take(7).collect())
            .unwrap();
        b.save_snapshot(&replaced).unwrap();
        let what = format!("B saved over A (shards {shards})");
        assert_commit_point(&what, &before, &dir_files(&replaced), &db, &b);
        std::fs::remove_dir_all(&replaced).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Materializes the two crash states around one commit's manifest rename
/// and reopens each. Pre-rename — every new file synced, the rename not
/// yet durable — must open to `old`; post-rename — the rename durable,
/// the stale-file deletion not — must open to `new`.
fn assert_commit_point(
    what: &str,
    before: &BTreeMap<String, Vec<u8>>,
    after: &BTreeMap<String, Vec<u8>>,
    old: &Database,
    new: &Database,
) {
    assert_ne!(
        before.get("MANIFEST"),
        after.get("MANIFEST"),
        "{what}: the commit must swap the manifest"
    );
    let mut pre_rename = before.clone();
    for (name, bytes) in after {
        if name != "MANIFEST" {
            pre_rename
                .entry(name.clone())
                .or_insert_with(|| bytes.clone());
        }
    }
    let mut post_rename = before.clone();
    post_rename.extend(after.clone());
    for (tag, files, want) in [
        ("pre-rename", &pre_rename, old),
        ("post-rename", &post_rename, new),
    ] {
        let what = format!("{what} {tag}");
        let crash_dir = unique_dir(&format!("commit-point-{tag}"));
        write_dir(&crash_dir, files);
        let (reopened, _replay) = Database::open_durable(&crash_dir)
            .unwrap_or_else(|e| panic!("{what}: reopen failed: {e}"));
        assert_same_database(&reopened, want, &what);
        std::fs::remove_dir_all(&crash_dir).ok();
    }
}

/// Saving into the database's own attached directory is refused with a
/// typed error that points at the checkpoint, however the path is
/// spelled: a second handle's full checkpoint would delete the live log
/// tails under the attached one. The refusal changes nothing, so after a
/// drop the directory holds every acknowledged row.
#[test]
fn save_into_the_attached_directory_is_refused() {
    let dir = unique_dir("own-dir");
    let mut db = fresh_db(4);
    db.attach_wal(&dir).unwrap();
    let rows = workload();
    db.insert_batch("r", rows[..10].to_vec()).unwrap();
    let respelled = dir.join("..").join(dir.file_name().unwrap());
    for path in [dir.clone(), respelled] {
        match db.save_snapshot(&path) {
            Err(QueryError::Unsupported(why)) => assert!(why.contains("checkpoint()"), "{why}"),
            other => panic!("{}: {other:?}", path.display()),
        }
    }
    for (name, series) in &rows[10..] {
        db.insert_into("r", name, series.clone()).unwrap();
    }
    let acked = db.read_view();
    drop(db);
    let (reopened, _replay) = Database::open_durable(&dir).unwrap();
    assert_same_database(&reopened, acked.database(), "after the refused save");
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// Torn-tail repair: a crash between the repair and its sync
// ---------------------------------------------------------------------------

/// The WAL tail files of a durable directory, sorted by name.
fn wal_paths(dir: &std::path::Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "wal"))
        .collect();
    paths.sort();
    paths
}

/// Repairing a torn WAL tail truncates the garbage — and that truncation
/// is itself synced (`sync_all`: truncation is *metadata*) before replay
/// reports success. A crash between the repair and its sync resurfaces
/// the torn bytes; the next open must repair them again to the identical
/// state, for any seeded tear.
#[test]
fn torn_tail_repair_survives_a_crash_before_the_truncation_syncs() {
    let seed = base_seed().wrapping_add(4);
    let mut rng = StdRng::seed_from_u64(seed);
    for round in 0..8 {
        let dir = unique_dir(&format!("repair-{round}"));
        let mut db = fresh_db(1);
        db.attach_wal(&dir).unwrap();
        let mut acked = Vec::new();
        for (name, series) in workload().into_iter().take(6) {
            let report = db.insert_into("r", &name, series.clone()).unwrap();
            acked.push((report.id, name, series));
        }
        drop(db);

        // Tear the tail: a prefix of a valid record plus garbage.
        let wal = wal_paths(&dir)
            .into_iter()
            .next()
            .expect("one WAL tail exists");
        let clean = std::fs::read(&wal).unwrap();
        let mut torn_record = encode_record(&WalRecord {
            id: 9999,
            name: "torn".into(),
            series: vec![1.0; SERIES_LEN],
        });
        let keep = rng.gen_range(1..torn_record.len());
        torn_record.truncate(keep);
        torn_record.extend_from_slice(&[0xAB; 3]);
        let mut torn = clean.clone();
        torn.extend_from_slice(&torn_record);
        std::fs::write(&wal, &torn).unwrap();

        let verify = |what: &str| {
            let (reopened, replay) = Database::open_durable(&dir).unwrap();
            assert!(
                replay.wal_files_repaired >= 1,
                "{what}: tear not detected (round {round}, keep {keep})"
            );
            let stored = reopened.relation("r").unwrap();
            assert_eq!(
                stored.row_count(),
                BASE_ROWS + acked.len(),
                "{what}: row count (round {round})"
            );
            for (id, name, series) in &acked {
                let row = stored.row(*id).unwrap();
                assert_eq!(&row.name, name, "{what}: name of id {id}");
                for (a, b) in row.raw.iter().zip(series) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{what}: bits of id {id}");
                }
            }
        };
        // First open repairs the tear and truncates the tail…
        verify("first repair");
        assert_eq!(
            std::fs::read(&wal).unwrap(),
            clean,
            "repair truncates to the valid prefix (round {round})"
        );
        // …simulate the crash where that truncation never became durable
        // (the bug `truncate_to`'s sync_all closes: set_len is metadata):
        // the torn bytes reappear, and the next open repairs identically.
        std::fs::write(&wal, &torn).unwrap();
        verify("repair after lost truncation");
        assert_eq!(
            std::fs::read(&wal).unwrap(),
            clean,
            "second repair reaches the identical state (round {round})"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
