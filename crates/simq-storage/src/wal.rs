//! The per-shard write-ahead log under the paged snapshots.
//!
//! Snapshots are *checkpoints*: complete, checksummed images of a relation
//! (or one shard of it). The WAL is the *tail*: every acknowledged insert
//! since the last checkpoint, appended as one checksummed record. Reopening
//! a durable database loads the checkpoint and replays the tail, so an
//! insert whose append completed survives any crash — the acknowledged-write
//! guarantee (`tests/crash_fuzz.rs` kills the log at every byte offset and
//! checks exactly this).
//!
//! ## Record format
//!
//! All integers little-endian; one record per acknowledged insert:
//!
//! ```text
//! len       u32     payload length in bytes
//! checksum  u64     [`crate::pages::checksum`] of the payload
//! payload:
//!   tag        u8      record kind (1 = insert)
//!   id         u64     row id the insert was acknowledged under
//!   name       str     u32 length + UTF-8 bytes (the row's name attribute)
//!   series_len u32     number of samples
//!   samples    f64 × n exact IEEE-754 bit patterns
//! ```
//!
//! There is no file header: an empty (or absent) WAL is a valid empty tail,
//! and appends never rewrite existing bytes, so the on-disk state at any
//! instant is a prefix of the record stream plus at most one torn record.
//!
//! ## Replay
//!
//! [`replay`] walks records from the start and stops at the first one that
//! is short, fails its checksum, or carries an undecodable payload — the
//! *longest valid prefix* rule. Everything after that point is reported
//! (bytes dropped, plus a best-effort resynchronized count of complete
//! records that were lost) but never applied: records behind a gap cannot
//! be trusted to be crash-ordered. Replay never panics on any input.

use crate::pages;
use simq_index::serial::ByteReader;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;

/// Bytes of framing before each payload: `len: u32` + `checksum: u64`.
pub const RECORD_HEADER: usize = 4 + 8;
/// Record kind tag of an insert.
const TAG_INSERT: u8 = 1;
/// Upper bound on a single payload (defensive: a corrupted length field
/// must not drive a huge allocation during replay).
const MAX_PAYLOAD: usize = 1 << 30;

/// One logged operation: an insert acknowledged under a fixed row id.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WalRecord {
    /// Row id the insert was (or will be) acknowledged under.
    pub id: u64,
    /// The row's name attribute.
    pub name: String,
    /// The raw series, exact `f64` bit patterns.
    pub series: Vec<f64>,
}

/// The outcome of replaying one WAL byte stream.
#[derive(Debug, Clone, Default)]
pub struct WalReplay {
    /// Records of the longest valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// Byte length of that prefix (the truncation point for repair).
    pub valid_len: usize,
    /// Bytes beyond the valid prefix (torn or corrupted tail).
    pub dropped_bytes: usize,
    /// Complete, checksummed records found in the dropped tail by
    /// resynchronization — a best-effort count of whole records lost to a
    /// mid-log corruption (a torn final record adds nothing here; its
    /// bytes are only in [`WalReplay::dropped_bytes`]).
    pub dropped_records: usize,
}

/// Encodes one record (framing + payload).
pub fn encode_record(rec: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len(rec));
    encode_into(rec, &mut out);
    out
}

/// Exact encoded size of `rec`, so a record (or a whole group) is encoded
/// into a buffer allocated once.
fn encoded_len(rec: &WalRecord) -> usize {
    RECORD_HEADER + 1 + 8 + 4 + rec.name.len() + 4 + 8 * rec.series.len()
}

/// Appends `rec`'s encoding to `out`: the payload is written in place
/// behind a reserved header, which is filled in once the payload's length
/// and checksum are known. The fields are laid out as `ByteWriter` would
/// write them (the series as `put_series`), which `decode_record` reads.
fn encode_into(rec: &WalRecord, out: &mut Vec<u8>) {
    let header = out.len();
    out.extend_from_slice(&[0; RECORD_HEADER]);
    out.push(TAG_INSERT);
    out.extend_from_slice(&rec.id.to_le_bytes());
    out.extend_from_slice(&(rec.name.len() as u32).to_le_bytes());
    out.extend_from_slice(rec.name.as_bytes());
    out.extend_from_slice(&(rec.series.len() as u32).to_le_bytes());
    for v in &rec.series {
        out.extend_from_slice(&v.to_le_bytes());
    }
    let payload = header + RECORD_HEADER;
    let len = (out.len() - payload) as u32;
    let checksum = pages::checksum(&out[payload..]);
    out[header..header + 4].copy_from_slice(&len.to_le_bytes());
    out[header + 4..payload].copy_from_slice(&checksum.to_le_bytes());
}

/// Tries to decode one record at the start of `bytes`. Returns the record
/// and its total encoded length, or `None` when the bytes do not begin
/// with a complete, checksummed, decodable record.
fn decode_record(bytes: &[u8]) -> Option<(WalRecord, usize)> {
    if bytes.len() < RECORD_HEADER {
        return None;
    }
    let len = u32::from_le_bytes(bytes[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_PAYLOAD || bytes.len() < RECORD_HEADER + len {
        return None;
    }
    let stored_sum = u64::from_le_bytes(bytes[4..12].try_into().expect("8 bytes"));
    let payload = &bytes[RECORD_HEADER..RECORD_HEADER + len];
    if pages::checksum(payload) != stored_sum {
        return None;
    }
    let mut r = ByteReader::new(payload);
    let tag = r.get_u8().ok()?;
    if tag != TAG_INSERT {
        return None;
    }
    let id = r.get_u64().ok()?;
    let name = r.get_str().ok()?;
    let series = r.get_series().ok()?;
    if r.remaining() != 0 {
        return None;
    }
    Some((WalRecord { id, name, series }, RECORD_HEADER + len))
}

/// Replays a WAL byte stream: decodes the longest valid prefix of records
/// and accounts for everything after it. Never panics, never errors — a
/// corrupt or torn log yields a shorter prefix, not a failure.
pub fn replay(bytes: &[u8]) -> WalReplay {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some((rec, consumed)) = decode_record(&bytes[pos..]) {
        records.push(rec);
        pos += consumed;
    }
    let dropped_bytes = bytes.len() - pos;
    // Best-effort accounting of whole records lost beyond the prefix: scan
    // forward for the next position that parses as a valid record and keep
    // counting from there. These records are *not* applied — order across
    // the gap is unknowable — only counted.
    let mut dropped_records = 0usize;
    let mut scan = pos;
    while scan < bytes.len() {
        if let Some((_, consumed)) = decode_record(&bytes[scan..]) {
            dropped_records += 1;
            scan += consumed;
        } else {
            scan += 1;
        }
    }
    WalReplay {
        records,
        valid_len: pos,
        dropped_bytes,
        dropped_records,
    }
}

/// Appends one encoded record to the log at `path` (creating the file if
/// absent) and flushes it to the OS — a group of one. Returns the number
/// of bytes appended.
///
/// # Errors
/// I/O errors from the filesystem. On error the log may hold a torn tail;
/// replay truncates it.
pub fn append(path: &Path, rec: &WalRecord) -> io::Result<usize> {
    append_group(path, std::slice::from_ref(rec))
}

/// Appends a whole group of records with **one** write and **one** sync —
/// the group-commit fast path. The records become durable together: after a
/// crash the log holds a prefix of the group (possibly empty, possibly all
/// of it), never an interleaving, so unacknowledged group members are
/// atomically absent-or-present in append order. Returns the bytes
/// appended. An empty group is a no-op (no write, no sync).
///
/// The write is one `write_all` + one `sync_data` and — when this append
/// *created* the log file — a parent directory fsync, because a brand-new
/// file's directory entry is not durable until the directory itself is
/// synced (an acknowledged insert could otherwise vanish with its whole
/// log on power loss).
///
/// # Errors
/// I/O errors from the filesystem. On error the log may hold a torn tail;
/// replay truncates it.
pub fn append_group(path: &Path, records: &[WalRecord]) -> io::Result<usize> {
    append_group_to(records, |bytes| {
        // Detecting creation via a metadata probe is race-free here: each
        // log file has exactly one writer (the owning shard's commit).
        let created = !path.exists();
        let mut file = OpenOptions::new().create(true).append(true).open(path)?;
        file.write_all(bytes)?;
        file.sync_data()?;
        if created {
            pages::fsync_parent_dir(path)?;
        }
        Ok(())
    })
}

/// [`append_group`] against an arbitrary write target: `write` receives the
/// whole group's bytes once and must not return `Ok` before they are
/// synced. The file path and the injectable [`crate::FailingStorage`] both
/// commit through here, so both move the same process-wide WAL metrics
/// (appends, syncs, flushed groups, sync latency).
pub(crate) fn append_group_to(
    records: &[WalRecord],
    write: impl FnOnce(&[u8]) -> io::Result<()>,
) -> io::Result<usize> {
    if records.is_empty() {
        return Ok(0);
    }
    let mut bytes = Vec::with_capacity(records.iter().map(encoded_len).sum());
    for rec in records {
        encode_into(rec, &mut bytes);
    }
    let record_count = records.len() as u64;
    let append_span = simq_obs::span::span("wal.append");
    let started = std::time::Instant::now();
    write(&bytes)?;
    let sync_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let m = simq_obs::metrics::registry();
    m.wal_appends.fetch_add(record_count, Relaxed);
    m.wal_syncs.fetch_add(1, Relaxed);
    m.wal_group_commits.fetch_add(1, Relaxed);
    m.wal_sync_latency.record(sync_ns);
    m.wal_last_sync_ns.store(sync_ns, Relaxed);
    append_span.note("records", record_count);
    append_span.note("bytes", bytes.len() as u64);
    Ok(bytes.len())
}

/// Reads and replays the log at `path`. A missing file is an empty tail.
///
/// # Errors
/// I/O errors other than the file not existing.
pub fn load(path: &Path) -> io::Result<WalReplay> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    Ok(replay(&bytes))
}

/// Truncates the log at `path` to `valid_len` bytes — the repair step after
/// a replay found a torn or corrupted tail. A missing file is a no-op.
///
/// The new length must be synced with `sync_all`, not `sync_data`: a
/// truncation is a *metadata* change (the file's size), and `sync_data` is
/// allowed to skip metadata. Without it a crash after repair could bring
/// the torn tail back, and replay would silently re-repair — harmless for
/// the record stream (the valid prefix is unchanged) but a lie in the
/// replay report, which claimed the repair was durable.
///
/// # Errors
/// I/O errors from the filesystem.
pub fn truncate_to(path: &Path, valid_len: usize) -> io::Result<()> {
    match OpenOptions::new().write(true).open(path) {
        Ok(file) => {
            file.set_len(valid_len as u64)?;
            file.sync_all()
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

/// Deletes the log at `path` — checkpoint truncation (the snapshot now
/// covers everything the tail held). A missing file is a no-op.
///
/// # Errors
/// I/O errors from the filesystem.
pub fn remove(path: &Path) -> io::Result<()> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: usize) -> Vec<WalRecord> {
        (0..n)
            .map(|i| WalRecord {
                id: i as u64 * 3 + 1,
                name: format!("row-{i}"),
                series: (0..16).map(|t| (t * i) as f64 * 0.25 - 3.0).collect(),
            })
            .collect()
    }

    fn stream(records: &[WalRecord]) -> Vec<u8> {
        records.iter().flat_map(encode_record).collect()
    }

    #[test]
    fn roundtrip_preserves_bits() {
        let records = sample(7);
        let replayed = replay(&stream(&records));
        assert_eq!(replayed.records, records);
        assert_eq!(replayed.dropped_bytes, 0);
        assert_eq!(replayed.dropped_records, 0);
        for (a, b) in replayed.records.iter().zip(&records) {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.series), bits(&b.series));
        }
    }

    #[test]
    fn empty_stream_is_empty_tail() {
        let replayed = replay(&[]);
        assert!(replayed.records.is_empty());
        assert_eq!(replayed.valid_len, 0);
    }

    #[test]
    fn torn_tail_truncates_to_complete_records() {
        let records = sample(5);
        let bytes = stream(&records);
        let third = stream(&records[..3]).len();
        // Every cut inside record 3 replays exactly records 0..3.
        for cut in third..stream(&records[..4]).len() {
            let replayed = replay(&bytes[..cut]);
            assert_eq!(replayed.records.len(), 3, "cut at {cut}");
            assert_eq!(replayed.valid_len, third);
            assert_eq!(replayed.dropped_bytes, cut - third);
            assert_eq!(replayed.dropped_records, 0, "a torn record never parses");
        }
    }

    #[test]
    fn mid_log_corruption_stops_replay_and_counts_losses() {
        let records = sample(6);
        let bytes = stream(&records);
        let two = stream(&records[..2]).len();
        let mut corrupt = bytes.clone();
        corrupt[two + RECORD_HEADER + 3] ^= 0xFF; // payload of record 2
        let replayed = replay(&corrupt);
        assert_eq!(replayed.records, records[..2]);
        assert_eq!(replayed.valid_len, two);
        assert_eq!(replayed.dropped_bytes, bytes.len() - two);
        // Records 3..6 are whole and resynchronizable; record 2 is not.
        assert_eq!(replayed.dropped_records, 3);
    }

    #[test]
    fn every_single_byte_flip_is_contained() {
        let records = sample(4);
        let bytes = stream(&records);
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x10;
            let replayed = replay(&corrupt);
            // The prefix before the corrupted record always survives.
            let boundary = records
                .iter()
                .scan(0usize, |acc, r| {
                    *acc += encode_record(r).len();
                    Some(*acc)
                })
                .take_while(|end| *end <= pos)
                .count();
            assert!(
                replayed.records.len() >= boundary,
                "flip at {pos} lost intact prefix records"
            );
            for (a, b) in replayed.records.iter().take(boundary).zip(&records) {
                assert_eq!(a, b, "flip at {pos} altered a prefix record");
            }
        }
    }

    #[test]
    fn file_append_load_truncate() {
        let dir = std::env::temp_dir().join("simq-wal-unit");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.wal");
        std::fs::remove_file(&path).ok();

        assert!(load(&path).unwrap().records.is_empty());
        let records = sample(3);
        for r in &records {
            append(&path, r).unwrap();
        }
        assert_eq!(load(&path).unwrap().records, records);

        // Tear the tail on disk; load reports it, repair truncates it.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&encode_record(&records[0])[..9]);
        std::fs::write(&path, &bytes).unwrap();
        let replayed = load(&path).unwrap();
        assert_eq!(replayed.records, records);
        assert_eq!(replayed.dropped_bytes, 9);
        truncate_to(&path, replayed.valid_len).unwrap();
        let clean = load(&path).unwrap();
        assert_eq!(clean.records, records);
        assert_eq!(clean.dropped_bytes, 0);

        remove(&path).unwrap();
        remove(&path).unwrap(); // idempotent
        assert!(load(&path).unwrap().records.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
