//! The durable directory store: per-shard checkpoints plus WAL tails.
//!
//! This is the one on-disk form of a database. A saved database and a
//! write-ahead-logged one are the same directory, written by the same
//! checkpoint and opened by [`DurableDir::open`]:
//!
//! ```text
//! dir/
//!   MANIFEST                  paged, checksummed catalog of the directory
//!   r<id>.s<j>.e<E>.snap      shard j's checkpoint, written at epoch E
//!   r<id>.s<j>.e<E>.wal       shard j's WAL tail since that checkpoint
//! ```
//!
//! Every shard checkpoint is one image of the [`crate::snapshot`] codec:
//! that shard's store and tree. An unsharded relation is the one-shard
//! special case. `<id>` is a stable per-relation file id assigned at first
//! checkpoint (names stay valid when relations are added or dropped), and
//! `<E>` is the epoch the shard's checkpoint was written at.
//!
//! ## Checkpoint protocol
//!
//! 1. Write every **dirty** shard's state to a *new* file name (next
//!    epoch). Clean shards keep their existing files — this is the
//!    only-rewrite-changed-shards property.
//! 2. Atomically rewrite `MANIFEST` to reference the new files.
//! 3. Delete files the new manifest no longer references (superseded
//!    checkpoints and the WAL tails they absorbed).
//!
//! The manifest rename in step 2 is the only commit point, also when a
//! database replaces another in the same directory: [`DurableDir::create`]
//! reads the manifest already there, so the new files take the next epoch
//! and the old set stays whole until the rename.
//!
//! A crash at any point leaves an openable directory: before step 2 the old
//! manifest still references the complete old file set (new-epoch files are
//! orphans, cleaned on next open); after step 2 the new set is committed
//! and stale files are at worst re-deleted. A crash *between* a shard's
//! checkpoint commit and its WAL deletion makes replay see records the
//! checkpoint already contains — they deterministically collide on their row
//! id and are skipped (and counted) rather than double-applied.
//!
//! ## Replay invariants
//!
//! On open, each shard's WAL is replayed onto its checkpoint under the
//! longest-valid-prefix rule of [`crate::wal`]; torn tails are truncated on
//! disk so the next append continues from a clean boundary. Replayed
//! inserts re-extract features from the logged raw series — bit-identical
//! to the original extraction, since extraction is deterministic.

use crate::pages::{self, PageError};
use crate::relation::SeriesRelation;
use crate::shard::{ShardLayout, ShardedRelation};
use crate::snapshot::{self, SnapshotError, SnapshotRelation};
use crate::wal::{self, WalRecord};
use simq_index::serial::{ByteReader, ByteWriter};
use simq_index::RTree;
use std::collections::BTreeSet;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const MANIFEST_NAME: &str = "MANIFEST";
const MANIFEST_MAGIC: &[u8; 8] = b"SIMQWMAN";
const MANIFEST_VERSION: u32 = 1;

/// Errors from the durable store.
#[derive(Debug)]
pub enum DurableError {
    /// I/O failure.
    Io(io::Error),
    /// The manifest failed page verification.
    Page(PageError),
    /// A shard checkpoint failed to load.
    Snapshot(SnapshotError),
    /// The directory's contents are structurally inconsistent.
    Format(String),
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(e) => write!(f, "i/o error: {e}"),
            DurableError::Page(e) => write!(f, "manifest: {e}"),
            DurableError::Snapshot(e) => write!(f, "shard checkpoint: {e}"),
            DurableError::Format(m) => write!(f, "durable store error: {m}"),
        }
    }
}

impl std::error::Error for DurableError {}

impl From<io::Error> for DurableError {
    fn from(e: io::Error) -> Self {
        DurableError::Io(e)
    }
}

impl From<PageError> for DurableError {
    fn from(e: PageError) -> Self {
        DurableError::Page(e)
    }
}

impl From<SnapshotError> for DurableError {
    fn from(e: SnapshotError) -> Self {
        DurableError::Snapshot(e)
    }
}

/// One relation's row in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Stable file id (survives relation additions and drops).
    pub file_id: u64,
    /// Relation name.
    pub name: String,
    /// Whether the relation is stored in its sharded form.
    pub sharded: bool,
    /// Per shard, the epoch its current checkpoint was written at.
    pub shard_epochs: Vec<u64>,
}

/// The decoded manifest: the authoritative list of files in the directory.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Epoch of the most recent checkpoint commit.
    pub epoch: u64,
    /// Next file id to assign.
    pub next_file_id: u64,
    /// One entry per relation, in catalog order.
    pub entries: Vec<ManifestEntry>,
}

fn manifest_to_bytes(m: &Manifest) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(MANIFEST_MAGIC);
    w.put_u32(MANIFEST_VERSION);
    w.put_u64(m.epoch);
    w.put_u64(m.next_file_id);
    w.put_u32(m.entries.len() as u32);
    for e in &m.entries {
        w.put_u64(e.file_id);
        w.put_str(&e.name);
        w.put_u8(u8::from(e.sharded));
        w.put_u32(e.shard_epochs.len() as u32);
        for epoch in &e.shard_epochs {
            w.put_u64(*epoch);
        }
    }
    pages::to_file_bytes(&w.into_bytes())
}

fn manifest_from_bytes(file: &[u8]) -> Result<Manifest, DurableError> {
    let stream = pages::from_file_bytes(file)?;
    let mut r = ByteReader::new(&stream);
    let bad = |m: &str| DurableError::Format(m.to_string());
    let fmt = |e: simq_index::serial::SerialError| DurableError::Format(format!("manifest: {e}"));
    if r.take(8).map_err(fmt)? != MANIFEST_MAGIC {
        return Err(bad("bad manifest magic"));
    }
    let version = r.get_u32().map_err(fmt)?;
    if version != MANIFEST_VERSION {
        return Err(DurableError::Format(format!(
            "unsupported manifest version {version} (expected {MANIFEST_VERSION})"
        )));
    }
    let epoch = r.get_u64().map_err(fmt)?;
    let next_file_id = r.get_u64().map_err(fmt)?;
    let count = r.get_u32().map_err(fmt)? as usize;
    r.check_count(count, 8 + 4 + 1 + 4).map_err(fmt)?;
    let mut entries = Vec::with_capacity(count);
    let mut names = BTreeSet::new();
    let mut ids = BTreeSet::new();
    for _ in 0..count {
        let file_id = r.get_u64().map_err(fmt)?;
        let name = r.get_str().map_err(fmt)?;
        let sharded = match r.get_u8().map_err(fmt)? {
            0 => false,
            1 => true,
            tag => return Err(DurableError::Format(format!("unknown sharded flag {tag}"))),
        };
        let shards = r.get_u32().map_err(fmt)? as usize;
        if shards == 0 || (!sharded && shards != 1) {
            return Err(bad("inconsistent shard count"));
        }
        r.check_count(shards, 8).map_err(fmt)?;
        let mut shard_epochs = Vec::with_capacity(shards);
        for _ in 0..shards {
            let e = r.get_u64().map_err(fmt)?;
            if e > epoch {
                return Err(bad("shard epoch beyond manifest epoch"));
            }
            shard_epochs.push(e);
        }
        if file_id >= next_file_id || !ids.insert(file_id) {
            return Err(bad("invalid or duplicate file id"));
        }
        if !names.insert(name.clone()) {
            return Err(DurableError::Format(format!(
                "duplicate relation name {name:?}"
            )));
        }
        entries.push(ManifestEntry {
            file_id,
            name,
            sharded,
            shard_epochs,
        });
    }
    if r.remaining() != 0 {
        return Err(bad("trailing bytes after manifest"));
    }
    Ok(Manifest {
        epoch,
        next_file_id,
        entries,
    })
}

/// One relation of an opened directory: a plain relation or a sharded one
/// with its per-shard trees.
#[derive(Debug, Clone)]
pub enum SnapshotEntry {
    /// An unsharded relation.
    Single(SnapshotRelation),
    /// A sharded relation with one decoded R*-tree per shard.
    Sharded {
        /// The sharded relation, rows restored bit-for-bit per shard.
        relation: ShardedRelation,
        /// One decoded tree per shard, in shard order.
        indexes: Vec<RTree>,
    },
}

/// The injectable WAL write target for the crash-fuzz harness.
///
/// Instead of the filesystem, appends go to an in-memory byte buffer per
/// log file, with a global byte budget that simulates the process dying at
/// a seeded offset of the WAL write stream: the append that crosses the
/// budget writes only the bytes that "made it to disk" and fails — the
/// insert is **not acknowledged** — and every later append fails without
/// writing. [`FailingStorage::materialize`] then writes the surviving
/// bytes to the real paths, reproducing exactly the directory state a
/// crash at that byte would have left.
#[derive(Debug)]
pub struct FailingStorage {
    files: Mutex<Vec<(PathBuf, Vec<u8>)>>,
    /// Bytes that may still be written before the simulated crash.
    remaining: AtomicU64,
    dead: AtomicU64,
}

impl FailingStorage {
    /// A storage that kills the process after `kill_after` appended bytes.
    pub fn new(kill_after: u64) -> Arc<Self> {
        Arc::new(FailingStorage {
            files: Mutex::new(Vec::new()),
            remaining: AtomicU64::new(kill_after),
            dead: AtomicU64::new(0),
        })
    }

    /// Appends `bytes` to the in-memory log at `path`, honouring the kill
    /// budget. Fails (torn or zero-length write) once the budget is spent.
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut files = self.files.lock().expect("sink lock");
        if self.dead.load(Ordering::SeqCst) != 0 {
            return Err(io::Error::new(
                io::ErrorKind::BrokenPipe,
                "simulated crash: storage is gone",
            ));
        }
        let remaining = self.remaining.load(Ordering::SeqCst);
        let write = (bytes.len() as u64).min(remaining) as usize;
        let buf = match files.iter_mut().find(|(p, _)| p == path) {
            Some((_, buf)) => buf,
            None => {
                files.push((path.to_path_buf(), Vec::new()));
                &mut files.last_mut().expect("just pushed").1
            }
        };
        buf.extend_from_slice(&bytes[..write]);
        self.remaining
            .store(remaining - write as u64, Ordering::SeqCst);
        if write < bytes.len() {
            self.dead.store(1, Ordering::SeqCst);
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "simulated crash mid-append",
            ));
        }
        Ok(())
    }

    /// True once the kill budget has been hit.
    pub fn crashed(&self) -> bool {
        self.dead.load(Ordering::SeqCst) != 0
    }

    /// Writes every surviving in-memory log to its real path — the state
    /// the crash left on disk, ready for [`DurableDir::open`].
    ///
    /// # Errors
    /// I/O errors from the filesystem.
    pub fn materialize(&self) -> io::Result<()> {
        let files = self.files.lock().expect("sink lock");
        let mut dirs: BTreeSet<PathBuf> = BTreeSet::new();
        for (path, bytes) in files.iter() {
            let mut f = fs::File::create(path)?;
            f.write_all(bytes)?;
            f.sync_data()?;
            if let Some(parent) = path.parent() {
                dirs.insert(parent.to_path_buf());
            }
        }
        // The new files' directory entries must be durable too — same rule
        // as the real WAL path: a created file without a directory fsync
        // can vanish wholesale on power loss.
        for dir in dirs {
            pages::fsync_dir(&dir)?;
        }
        Ok(())
    }
}

/// What one [`DurableDir::checkpoint`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointReport {
    /// Epoch the checkpoint committed as.
    pub epoch: u64,
    /// Shard checkpoints rewritten (they were dirty).
    pub shards_written: u64,
    /// Shard checkpoints left untouched (clean — the dirty-tracking win).
    pub shards_clean: u64,
    /// Superseded files removed after the manifest commit.
    pub files_removed: u64,
}

/// What replay did while opening a directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// WAL records applied on top of the checkpoints.
    pub records_applied: u64,
    /// Records skipped because their row id was already in the checkpoint
    /// (a crash landed between a shard's checkpoint commit and its WAL
    /// truncation).
    pub records_already_applied: u64,
    /// Whole records lost to torn or corrupted tails (best-effort count).
    pub records_dropped: u64,
    /// Bytes truncated off torn or corrupted tails.
    pub bytes_dropped: u64,
    /// WAL files that needed on-disk repair (tail truncation).
    pub wal_files_repaired: u64,
}

/// A durable database directory: the manifest plus the file layout rules.
///
/// This type owns the *mechanics* — manifest round-trips, checkpoint
/// commits, WAL routing, replay; the catalog semantics (which relations
/// exist, what is dirty) live with the `Database` in `simq-query`.
#[derive(Debug, Clone)]
pub struct DurableDir {
    dir: PathBuf,
    manifest: Manifest,
    /// Test-injectable WAL write target ([`FailingStorage`]); `None`
    /// appends to the real files.
    sink: Option<Arc<FailingStorage>>,
}

/// One relation's current state, as the checkpoint writer needs it: the
/// per-shard sources plus per-shard dirty flags.
pub struct CheckpointSource<'a> {
    /// Relation name.
    pub name: &'a str,
    /// Whether the relation is in its sharded form.
    pub sharded: bool,
    /// Per shard: the shard's store, its optional tree, and whether it
    /// changed since the last checkpoint.
    pub shards: Vec<(&'a SeriesRelation, Option<&'a RTree>, bool)>,
}

impl DurableDir {
    /// A handle for writing a whole database into `dir`, which is created
    /// if absent. The caller follows up with a full checkpoint, which
    /// creates the database there or replaces the one already there.
    /// Nothing is written here: an existing manifest is read (not loaded)
    /// so the checkpoint's files take the next epoch, and its manifest
    /// rename is the one instant the directory switches databases.
    ///
    /// # Errors
    /// I/O errors from the filesystem, and [`DurableError`] when a
    /// manifest exists but is unreadable.
    pub fn create(dir: impl Into<PathBuf>) -> Result<Self, DurableError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let manifest = match fs::read(dir.join(MANIFEST_NAME)) {
            Ok(bytes) => manifest_from_bytes(&bytes)?,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Manifest::default(),
            Err(e) => return Err(e.into()),
        };
        Ok(DurableDir {
            dir,
            manifest,
            sink: None,
        })
    }

    /// Opens an existing durable directory: reads the manifest, loads
    /// every shard checkpoint, repairs and replays every WAL tail, and
    /// cleans up orphan files from an interrupted checkpoint.
    ///
    /// # Errors
    /// [`DurableError`] when the manifest is missing or invalid, or a
    /// referenced checkpoint is missing or corrupt. WAL corruption is
    /// *not* an error — torn tails are truncated and reported.
    pub fn open(
        dir: impl Into<PathBuf>,
    ) -> Result<(Self, Vec<SnapshotEntry>, ReplayReport), DurableError> {
        let dir = dir.into();
        let manifest_bytes = fs::read(dir.join(MANIFEST_NAME)).map_err(|e| {
            if matches!(
                e.kind(),
                io::ErrorKind::NotFound | io::ErrorKind::NotADirectory
            ) {
                DurableError::Format(format!("no durable database at {}", dir.display()))
            } else {
                DurableError::Io(e)
            }
        })?;
        let manifest = manifest_from_bytes(&manifest_bytes)?;
        let store = DurableDir {
            dir,
            manifest,
            sink: None,
        };

        let mut entries = Vec::with_capacity(store.manifest.entries.len());
        let mut report = ReplayReport::default();
        {
            let replay_span = simq_obs::span::span("wal.replay");
            for entry in &store.manifest.entries {
                entries.push(store.load_entry(entry, &mut report)?);
            }
            replay_span.note("applied", report.records_applied);
            replay_span.note("dropped", report.records_dropped);
        }
        let m = simq_obs::metrics::registry();
        m.wal_replay_applied
            .fetch_add(report.records_applied, Ordering::Relaxed);
        m.wal_replay_dropped
            .fetch_add(report.records_dropped, Ordering::Relaxed);
        store.remove_unreferenced().ok(); // best-effort orphan cleanup
        Ok((store, entries, report))
    }

    /// Routes WAL appends through `sink` instead of the filesystem (the
    /// crash-fuzz hook). Checkpoints still write real files.
    pub fn set_sink(&mut self, sink: Option<Arc<FailingStorage>>) {
        self.sink = sink;
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current manifest (read-only view).
    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST_NAME)
    }

    fn snap_path(&self, file_id: u64, shard: usize, epoch: u64) -> PathBuf {
        self.dir.join(format!("r{file_id}.s{shard}.e{epoch}.snap"))
    }

    fn wal_path(&self, file_id: u64, shard: usize, epoch: u64) -> PathBuf {
        self.dir.join(format!("r{file_id}.s{shard}.e{epoch}.wal"))
    }

    /// The WAL path an insert into `name`'s shard `shard` appends to.
    ///
    /// # Errors
    /// [`DurableError::Format`] when the relation or shard is not in the
    /// manifest (the caller must checkpoint new relations first).
    pub fn wal_path_for(&self, name: &str, shard: usize) -> Result<PathBuf, DurableError> {
        let entry = self
            .manifest
            .entries
            .iter()
            .find(|e| e.name == name)
            .ok_or_else(|| {
                DurableError::Format(format!("relation {name:?} has no checkpoint yet"))
            })?;
        let epoch = *entry.shard_epochs.get(shard).ok_or_else(|| {
            DurableError::Format(format!("relation {name:?} has no shard {shard}"))
        })?;
        Ok(self.wal_path(entry.file_id, shard, epoch))
    }

    /// Appends a group of insert records — one for a single insert, a
    /// shard's whole slice of a batch — to `name`'s shard `shard` WAL with
    /// **one** write and **one** sync. Returns only after the bytes are
    /// synced on the write target: an `Ok` here *is* the acknowledged-write
    /// guarantee for every record of the group; after a crash the log
    /// holds a prefix of the group in append order, never an interleaving.
    /// Returns the records made durable (the group size).
    ///
    /// # Errors
    /// Routing errors ([`DurableError::Format`]) and write failures; on a
    /// write failure the log may hold a torn tail, which replay truncates.
    pub fn append_insert_group(
        &self,
        name: &str,
        shard: usize,
        records: &[WalRecord],
    ) -> Result<u64, DurableError> {
        let path = self.wal_path_for(name, shard)?;
        match &self.sink {
            Some(sink) => wal::append_group_to(records, |bytes| sink.append(&path, bytes))?,
            None => wal::append_group(&path, records)?,
        };
        Ok(records.len() as u64)
    }

    /// Commits a checkpoint: writes every dirty shard under the next
    /// epoch, atomically rewrites the manifest, then deletes superseded
    /// files (old checkpoints and the WAL tails they absorbed).
    ///
    /// `sources` is the complete catalog in its desired order; relations
    /// absent from it are dropped from the manifest and their files
    /// removed. New relations and shape changes (shard count, sharded
    /// flag) are detected against the old manifest and treated as fully
    /// dirty.
    ///
    /// # Errors
    /// I/O errors. On error before the manifest commit, the directory
    /// still opens to its previous state.
    pub fn checkpoint(
        &mut self,
        sources: &[CheckpointSource<'_>],
    ) -> Result<CheckpointReport, DurableError> {
        let epoch = self.manifest.epoch + 1;
        let mut next_file_id = self.manifest.next_file_id;
        let mut report = CheckpointReport {
            epoch,
            ..CheckpointReport::default()
        };
        let m = simq_obs::metrics::registry();
        let write_span = simq_obs::span::span("checkpoint.write");
        let mut bytes_written: u64 = 0;
        let mut entries = Vec::with_capacity(sources.len());
        for src in sources {
            let old = self.manifest.entries.iter().find(|e| e.name == src.name);
            let shape_changed = old.is_none_or(|e| {
                e.sharded != src.sharded || e.shard_epochs.len() != src.shards.len()
            });
            let file_id = match old {
                Some(e) if !shape_changed => e.file_id,
                // A shape change moves to a fresh file id so its new files
                // can never collide with the old layout's.
                _ => {
                    let id = next_file_id;
                    next_file_id += 1;
                    id
                }
            };
            let mut shard_epochs = Vec::with_capacity(src.shards.len());
            for (shard, (relation, index, dirty)) in src.shards.iter().enumerate() {
                if *dirty || shape_changed {
                    let bytes = snapshot::to_bytes(relation, *index);
                    pages::write_atomic(&self.snap_path(file_id, shard, epoch), &bytes)?;
                    bytes_written += bytes.len() as u64;
                    shard_epochs.push(epoch);
                    report.shards_written += 1;
                } else {
                    shard_epochs
                        .push(old.expect("clean shard implies an old entry").shard_epochs[shard]);
                    report.shards_clean += 1;
                }
            }
            entries.push(ManifestEntry {
                file_id,
                name: src.name.to_string(),
                sharded: src.sharded,
                shard_epochs,
            });
        }
        write_span.note("shards", report.shards_written);
        write_span.note("bytes", bytes_written);
        drop(write_span);
        let manifest = Manifest {
            epoch,
            next_file_id,
            entries,
        };
        {
            let _commit_span = simq_obs::span::span("checkpoint.commit");
            // `write_atomic` fsyncs the manifest's parent directory after
            // the rename: only then is the new epoch a *durable* commit
            // point, and only then may step 3 delete the old files.
            pages::write_atomic(&self.manifest_path(), &manifest_to_bytes(&manifest))?;
            self.manifest = manifest;
        }
        {
            let clean_span = simq_obs::span::span("checkpoint.clean");
            report.files_removed = self.remove_unreferenced()?;
            clean_span.note("removed", report.files_removed);
        }
        m.checkpoint_count.fetch_add(1, Ordering::Relaxed);
        m.checkpoint_shards_written
            .fetch_add(report.shards_written, Ordering::Relaxed);
        m.checkpoint_bytes
            .fetch_add(bytes_written, Ordering::Relaxed);
        Ok(report)
    }

    /// Deletes every `r*.s*.e*.snap|wal` file the manifest does not
    /// reference. Returns how many were removed.
    fn remove_unreferenced(&self) -> Result<u64, DurableError> {
        let mut keep: BTreeSet<PathBuf> = BTreeSet::new();
        for e in &self.manifest.entries {
            for (shard, epoch) in e.shard_epochs.iter().enumerate() {
                keep.insert(self.snap_path(e.file_id, shard, *epoch));
                keep.insert(self.wal_path(e.file_id, shard, *epoch));
            }
        }
        let mut removed = 0;
        for dirent in fs::read_dir(&self.dir)? {
            let path = dirent?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let ours = name.starts_with('r')
                && (name.ends_with(".snap") || name.ends_with(".wal"))
                && name.matches('.').count() == 3;
            if ours && !keep.contains(&path) {
                fs::remove_file(&path)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Loads one manifest entry: shard checkpoints + WAL replay.
    fn load_entry(
        &self,
        entry: &ManifestEntry,
        report: &mut ReplayReport,
    ) -> Result<SnapshotEntry, DurableError> {
        let shard_count = entry.shard_epochs.len();
        let mut shards: Vec<(SeriesRelation, Option<RTree>)> = Vec::with_capacity(shard_count);
        for (shard, epoch) in entry.shard_epochs.iter().enumerate() {
            let path = self.snap_path(entry.file_id, shard, *epoch);
            let SnapshotRelation {
                mut relation,
                mut index,
            } = snapshot::load(&path).map_err(|e| match e {
                SnapshotError::Io(io) if io.kind() == io::ErrorKind::NotFound => {
                    DurableError::Format(format!(
                        "checkpoint {} referenced by the manifest is missing",
                        path.display()
                    ))
                }
                other => DurableError::Snapshot(other),
            })?;
            if relation.name() != entry.name {
                return Err(DurableError::Format(format!(
                    "checkpoint {} stores relation {:?}, manifest says {:?}",
                    path.display(),
                    relation.name(),
                    entry.name
                )));
            }
            self.replay_wal_into(entry, shard, &mut relation, index.as_mut(), report)?;
            shards.push((relation, index));
        }

        if !entry.sharded {
            let (relation, index) = shards.pop().expect("manifest guarantees one shard");
            return Ok(SnapshotEntry::Single(SnapshotRelation { relation, index }));
        }
        let layout = ShardLayout::Hash {
            shards: shard_count,
        };
        let mut stores = Vec::with_capacity(shard_count);
        let mut indexes = Vec::with_capacity(shard_count);
        for (shard, (store, index)) in shards.into_iter().enumerate() {
            if let Some(row) = store.rows().find(|r| layout.shard_of(r.id) != shard) {
                return Err(DurableError::Format(format!(
                    "relation {:?}: row id {} stored in shard {shard} but routes elsewhere",
                    entry.name, row.id
                )));
            }
            stores.push(store);
            indexes.push(index.ok_or_else(|| {
                DurableError::Format(format!(
                    "relation {:?}: sharded checkpoint {shard} has no tree",
                    entry.name
                ))
            })?);
        }
        let relation = ShardedRelation::from_shard_stores(entry.name.clone(), layout, stores)
            .map_err(DurableError::Format)?;
        Ok(SnapshotEntry::Sharded { relation, indexes })
    }

    /// Replays (and repairs) one shard's WAL tail into its loaded store.
    fn replay_wal_into(
        &self,
        entry: &ManifestEntry,
        shard: usize,
        relation: &mut SeriesRelation,
        mut index: Option<&mut RTree>,
        report: &mut ReplayReport,
    ) -> Result<(), DurableError> {
        let path = self.wal_path(entry.file_id, shard, entry.shard_epochs[shard]);
        let replayed = wal::load(&path)?;
        if replayed.dropped_bytes > 0 {
            wal::truncate_to(&path, replayed.valid_len)?;
            report.wal_files_repaired += 1;
            report.bytes_dropped += replayed.dropped_bytes as u64;
            report.records_dropped += replayed.dropped_records as u64;
        }
        let layout = ShardLayout::Hash {
            shards: entry.shard_epochs.len(),
        };
        for rec in replayed.records {
            if entry.sharded && layout.shard_of(rec.id) != shard {
                return Err(DurableError::Format(format!(
                    "relation {:?}: WAL record id {} in shard {shard}'s log routes elsewhere",
                    entry.name, rec.id
                )));
            }
            if relation.row(rec.id).is_some() {
                // The checkpoint absorbed this record before the crash
                // could truncate the log; replay is idempotent.
                report.records_already_applied += 1;
                continue;
            }
            let id = rec.id;
            (relation.scheme().extract(&rec.series))
                .and_then(|features| relation.apply_insert(rec, features, index.as_deref_mut()))
                .map_err(|e| {
                    DurableError::Format(format!(
                        "relation {:?}: WAL record id {id} fails to apply: {e}",
                        entry.name
                    ))
                })?;
            report.records_applied += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simq_index::RTreeConfig;
    use simq_series::features::FeatureScheme;

    fn sample_relation(name: &str, rows: usize) -> SeriesRelation {
        let mut rel = SeriesRelation::new(name, 32, FeatureScheme::paper_default());
        for i in 0..rows {
            let series: Vec<f64> = (0..32)
                .map(|t| 20.0 + i as f64 * 0.7 + ((t + i) as f64 * 0.37).sin() * 3.0)
                .collect();
            rel.insert(format!("D{i}"), series).unwrap();
        }
        rel
    }

    fn single(entry: &SnapshotEntry) -> &SnapshotRelation {
        let SnapshotEntry::Single(s) = entry else {
            panic!("unsharded entry expected");
        };
        s
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("simq-durable-unit-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn checkpoint_open_roundtrip_single() {
        let dir = tmp("single");
        let rel = sample_relation("r", 20);
        let tree = rel.build_index(RTreeConfig::default());
        let mut store = DurableDir::create(&dir).unwrap();
        let report = store
            .checkpoint(&[CheckpointSource {
                name: "r",
                sharded: false,
                shards: vec![(&rel, Some(&tree), true)],
            }])
            .unwrap();
        assert_eq!(report.shards_written, 1);

        let (_, entries, replay) = DurableDir::open(&dir).unwrap();
        assert_eq!(replay, ReplayReport::default());
        assert_eq!(entries.len(), 1);
        let single = single(&entries[0]);
        assert_eq!(single.relation.len(), 20);
        assert_eq!(
            simq_index::serial::to_bytes(single.index.as_ref().unwrap()),
            simq_index::serial::to_bytes(&tree)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_records_replay_on_open() {
        let dir = tmp("replay");
        let rel = sample_relation("r", 5);
        let tree = rel.build_index(RTreeConfig::default());
        let mut store = DurableDir::create(&dir).unwrap();
        store
            .checkpoint(&[CheckpointSource {
                name: "r",
                sharded: false,
                shards: vec![(&rel, Some(&tree), true)],
            }])
            .unwrap();
        let extra = sample_relation("x", 8);
        for row in extra.rows().skip(5) {
            store
                .append_insert_group(
                    "r",
                    0,
                    &[WalRecord {
                        id: row.id,
                        name: row.name.clone(),
                        series: row.raw.clone(),
                    }],
                )
                .unwrap();
        }
        let (_, entries, replay) = DurableDir::open(&dir).unwrap();
        assert_eq!(replay.records_applied, 3);
        assert_eq!(replay.records_dropped, 0);
        let single = single(&entries[0]);
        assert_eq!(single.relation.len(), 8);
        assert_eq!(single.index.as_ref().unwrap().len(), 8);
        assert_eq!(single.relation.row(6).unwrap().name, "D6");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn clean_shards_keep_their_files() {
        let dir = tmp("clean");
        let rel = sample_relation("r", 12);
        let sharded = ShardedRelation::from_single(rel, 3);
        let trees = sharded.build_indexes(RTreeConfig::default());
        let src = |dirty: [bool; 3]| CheckpointSource {
            name: "r",
            sharded: true,
            shards: sharded
                .shards()
                .iter()
                .zip(&trees)
                .zip(dirty)
                .map(|((s, t), d)| (s, Some(t), d))
                .collect(),
        };
        let mut store = DurableDir::create(&dir).unwrap();
        store.checkpoint(&[src([true, true, true])]).unwrap();
        let before: Vec<u64> = store.manifest().entries[0].shard_epochs.clone();
        let report = store.checkpoint(&[src([false, true, false])]).unwrap();
        assert_eq!(report.shards_written, 1);
        assert_eq!(report.shards_clean, 2);
        let after = &store.manifest().entries[0].shard_epochs;
        assert_eq!(after[0], before[0]);
        assert_ne!(after[1], before[1]);
        assert_eq!(after[2], before[2]);
        // Reopen still sees all rows.
        let (_, entries, _) = DurableDir::open(&dir).unwrap();
        let SnapshotEntry::Sharded { relation, .. } = &entries[0] else {
            panic!("sharded entry");
        };
        assert_eq!(relation.len(), 12);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn interrupted_checkpoint_leaves_old_state_openable() {
        let dir = tmp("interrupt");
        let rel = sample_relation("r", 6);
        let tree = rel.build_index(RTreeConfig::default());
        let mut store = DurableDir::create(&dir).unwrap();
        store
            .checkpoint(&[CheckpointSource {
                name: "r",
                sharded: false,
                shards: vec![(&rel, Some(&tree), true)],
            }])
            .unwrap();
        // Simulate a crash mid-checkpoint: a new-epoch snap file exists
        // but the manifest was never rewritten.
        let bigger = sample_relation("r", 9);
        let bytes = snapshot::to_bytes(&bigger, None);
        let orphan = store.snap_path(store.manifest().entries[0].file_id, 0, 99);
        std::fs::write(&orphan, &bytes).unwrap();
        let (_, entries, _) = DurableDir::open(&dir).unwrap();
        assert_eq!(single(&entries[0]).relation.len(), 6);
        assert!(!orphan.exists(), "orphan cleaned on open");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `create` over a database writes nothing and continues its epochs;
    /// a missing manifest is an empty one and a garbled one an error.
    #[test]
    fn create_reads_an_existing_manifest_and_writes_nothing() {
        let dir = tmp("create");
        let mut store = DurableDir::create(&dir).unwrap();
        assert_eq!(store.manifest(), &Manifest::default());
        assert!(!dir.join(MANIFEST_NAME).exists());
        let rel = sample_relation("r", 4);
        store
            .checkpoint(&[CheckpointSource {
                name: "r",
                sharded: false,
                shards: vec![(&rel, None, true)],
            }])
            .unwrap();
        let committed = std::fs::read(dir.join(MANIFEST_NAME)).unwrap();
        let again = DurableDir::create(&dir).unwrap();
        assert_eq!(again.manifest(), store.manifest());
        assert_eq!(std::fs::read(dir.join(MANIFEST_NAME)).unwrap(), committed);
        std::fs::write(dir.join(MANIFEST_NAME), b"not a manifest").unwrap();
        assert!(DurableDir::create(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failing_storage_tears_exactly_at_budget() {
        let rec = WalRecord {
            id: 7,
            name: "n".into(),
            series: vec![1.0, 2.0, 3.0],
        };
        let bytes = wal::encode_record(&rec);
        let sink = FailingStorage::new(bytes.len() as u64 + 5);
        let path = PathBuf::from("/x/y.wal");
        sink.append(&path, &bytes).unwrap();
        assert!(!sink.crashed());
        assert!(sink.append(&path, &bytes).is_err());
        assert!(sink.crashed());
        assert!(sink.append(&path, &bytes).is_err());
        let files = sink.files.lock().unwrap();
        assert_eq!(files[0].1.len(), bytes.len() + 5);
        let replayed = wal::replay(&files[0].1);
        assert_eq!(replayed.records.len(), 1);
        assert_eq!(replayed.records[0], rec);
        assert_eq!(replayed.dropped_bytes, 5);
    }
}
