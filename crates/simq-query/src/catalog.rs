//! The database catalog: stored relations, the [`Database`] that names
//! them, generation-stamped [`ReadView`]s for readers, and the durable
//! write path (WAL appends before apply, incremental checkpoints).
//!
//! The planner ([`crate::plan`]) reads the catalog; nothing here depends
//! on planning or execution.
//!
//! ## The ack contract
//!
//! [`Database::insert_into`] and [`Database::insert_batch`] are one write
//! path: a shared prologue (`admit`, which extracts each row's features
//! once), one per-shard commit (`commit_shard`, which applies them) and a
//! shared epilogue (`finish_commit`). With a WAL attached, a row's `Ok` is
//! returned only after the group append holding its record — a group of
//! one for a single insert — returned from its `write_all` + `sync_data`
//! (and the parent-directory fsync when the append created the log), and
//! only then is the row applied. A failed append applies nothing and still
//! consumes the id(s), because a durable prefix of the failed group may be
//! replayed after a crash. Applying a record is the same routine
//! ([`SeriesRelation::apply_insert`]) live and at replay, which re-extracts
//! deterministically, so recovery rebuilds exactly the acknowledged state.

use crate::error::QueryError;
use simq_index::{RTree, RTreeConfig};
use simq_series::error::SeriesError;
use simq_series::features::{FeatureScheme, SeriesFeatures};
use simq_storage::durable::{
    CheckpointReport, CheckpointSource, DurableDir, DurableError, FailingStorage, ReplayReport,
    SnapshotEntry,
};
use simq_storage::wal::WalRecord;
use simq_storage::{SeriesRelation, SeriesRow, ShardedRelation};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A catalog entry: a relation stored whole with an optional index, or
/// partitioned into shards with one R*-tree per shard.
///
/// Execution treats the two forms identically at the row level (row
/// lookups route through the shard layout). An index descent reads the
/// sharded form's trees one after another on the calling thread, scans
/// and joins split rows rather than shards across threads, and only
/// `insert_batch` writes shards on separate threads. Sharded results are
/// bitwise identical to unsharded execution
/// (`tests/shard_equivalence.rs`).
#[derive(Debug, Clone)]
pub enum StoredRelation {
    /// One store, one optional R*-tree — the default form.
    Single {
        /// The relation.
        relation: SeriesRelation,
        /// The R*-tree over the relation's feature points, if built.
        index: Option<RTree>,
    },
    /// The row space hash-partitioned by row id, one R*-tree per shard.
    Sharded {
        /// The sharded relation (each shard owns its series store).
        relation: ShardedRelation,
        /// One bulk-loaded R*-tree per shard, in shard order.
        indexes: Vec<RTree>,
    },
}

impl StoredRelation {
    /// Relation name.
    pub fn name(&self) -> &str {
        match self {
            StoredRelation::Single { relation, .. } => relation.name(),
            StoredRelation::Sharded { relation, .. } => relation.name(),
        }
    }

    /// Length every stored series must have.
    pub fn series_len(&self) -> usize {
        match self {
            StoredRelation::Single { relation, .. } => relation.series_len(),
            StoredRelation::Sharded { relation, .. } => relation.series_len(),
        }
    }

    /// The feature scheme rows are extracted under.
    pub fn scheme(&self) -> &FeatureScheme {
        match self {
            StoredRelation::Single { relation, .. } => relation.scheme(),
            StoredRelation::Sharded { relation, .. } => relation.scheme(),
        }
    }

    /// The relation's series stores: one for the single form, one per
    /// shard for the sharded one. Query execution runs over this slice —
    /// a single store is a forest of one.
    pub fn stores(&self) -> &[SeriesRelation] {
        match self {
            StoredRelation::Single { relation, .. } => std::slice::from_ref(relation),
            StoredRelation::Sharded { relation, .. } => relation.shards(),
        }
    }

    /// The relation's R*-trees, parallel to [`StoredRelation::stores`]
    /// (empty for an unindexed single relation).
    pub fn trees(&self) -> &[RTree] {
        match self {
            StoredRelation::Single { index, .. } => index.as_slice(),
            StoredRelation::Sharded { indexes, .. } => indexes,
        }
    }

    /// Total number of rows.
    pub fn row_count(&self) -> usize {
        self.stores().iter().map(SeriesRelation::len).sum()
    }

    /// Row access by id (routed through the shard layout when sharded).
    pub fn row(&self, id: u64) -> Option<&SeriesRow> {
        match self {
            StoredRelation::Single { relation, .. } => relation.row(id),
            StoredRelation::Sharded { relation, .. } => relation.row(id),
        }
    }

    /// Coefficients each filter-tier signature keeps — fixed by the
    /// series length, so single and sharded forms always agree.
    pub fn sig_coeffs(&self) -> usize {
        self.series_len().min(simq_storage::SIG_COEFFS)
    }

    /// First row whose name attribute equals `name` — first in insertion
    /// order for the single form, smallest id for the sharded one. The
    /// two coincide for sequentially built relations (the only kind whose
    /// insertion order differs from id order is one assembled with
    /// out-of-order [`SeriesRelation::insert_with_id`] calls).
    pub fn find_row_named(&self, name: &str) -> Option<&SeriesRow> {
        match self {
            StoredRelation::Single { relation, .. } => relation.rows().find(|r| r.name == name),
            StoredRelation::Sharded { relation, .. } => {
                // One linear pass keeping the smallest-id match — same
                // winner as scanning in id order, without materializing
                // and sorting the whole row set.
                let mut best: Option<&SeriesRow> = None;
                for row in relation.rows() {
                    if row.name == name && best.is_none_or(|b| row.id < b.id) {
                        best = Some(row);
                    }
                }
                best
            }
        }
    }

    /// Iterates rows: insertion order for the single form, shard-major
    /// for the sharded one.
    pub fn rows(&self) -> Box<dyn Iterator<Item = &SeriesRow> + '_> {
        Box::new(self.stores().iter().flat_map(SeriesRelation::rows))
    }

    /// True when index-based plans are available (sharded relations
    /// always carry per-shard trees).
    pub fn has_index(&self) -> bool {
        !self.trees().is_empty()
    }

    /// Number of shards (1 for the single form).
    pub fn shard_count(&self) -> usize {
        self.stores().len()
    }

    /// Rows per shard (one entry, the row count, for the single form) —
    /// the `\relations` listing.
    pub fn shard_row_counts(&self) -> Vec<usize> {
        self.stores().iter().map(SeriesRelation::len).collect()
    }

    /// Inserts a series, keeping the index (or the owning shard's index)
    /// in sync: exactly one tree receives the new point — for sharded
    /// relations a small per-shard tree, which is the insert-locality win
    /// sharding exists for.
    ///
    /// # Errors
    /// As [`SeriesRelation::insert`].
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        series: Vec<f64>,
    ) -> Result<u64, SeriesError> {
        let id = self.next_id();
        self.insert_with_id(id, name, series).map(|_| id)
    }

    /// The row id the next insert will assign.
    pub fn next_id(&self) -> u64 {
        match self {
            StoredRelation::Single { relation, .. } => relation.next_id(),
            StoredRelation::Sharded { relation, .. } => relation.next_id(),
        }
    }

    /// Records that ids up to `id` were consumed without storing rows —
    /// the durable write path's defense after a failed WAL append, whose
    /// durable prefix replay may still apply (see
    /// [`SeriesRelation::note_inserted`]).
    pub fn note_inserted(&mut self, id: u64) {
        match self {
            StoredRelation::Single { relation, .. } => relation.note_inserted(id),
            StoredRelation::Sharded { relation, .. } => relation.note_inserted(id),
        }
    }

    /// The shard a row id routes to (0 for the single form).
    pub fn shard_of(&self, id: u64) -> usize {
        match self {
            StoredRelation::Single { .. } => 0,
            StoredRelation::Sharded { relation, .. } => relation.shard_of(id),
        }
    }

    /// The write side's view of the relation, the mutable twin of
    /// [`StoredRelation::stores`] / [`StoredRelation::trees`]: shard `j`
    /// is `stores[j]` with `trees.get_mut(j)` (no tree for an unindexed
    /// single relation). Writers that go through it follow up with
    /// [`StoredRelation::note_inserted`] so id assignment stays consistent.
    fn write_parts(&mut self) -> (&mut [SeriesRelation], &mut [RTree]) {
        match self {
            StoredRelation::Single { relation, index } => {
                (std::slice::from_mut(relation), index.as_mut_slice())
            }
            StoredRelation::Sharded { relation, indexes } => (relation.shards_mut(), indexes),
        }
    }

    /// Inserts a series under an explicit row id, keeping the owning
    /// shard's index in sync incrementally (no rebuild). Returns the
    /// shard that took the row and how many tree nodes the insert
    /// materialized (node splits and root growth; 0 for the common
    /// no-split insert and for unindexed relations).
    ///
    /// # Errors
    /// As [`SeriesRelation::insert_with_id`].
    pub fn insert_with_id(
        &mut self,
        id: u64,
        name: impl Into<String>,
        series: Vec<f64>,
    ) -> Result<(usize, u64), SeriesError> {
        let features = self.scheme().extract(&series)?;
        let shard = self.shard_of(id);
        let (stores, trees) = self.write_parts();
        let record = WalRecord {
            id,
            name: name.into(),
            series,
        };
        let nodes_built = stores[shard].apply_insert(record, features, trees.get_mut(shard))?;
        self.note_inserted(id);
        Ok((shard, nodes_built))
    }
}

impl From<SnapshotEntry> for StoredRelation {
    fn from(entry: SnapshotEntry) -> Self {
        match entry {
            SnapshotEntry::Single(s) => StoredRelation::Single {
                relation: s.relation,
                index: s.index,
            },
            SnapshotEntry::Sharded { relation, indexes } => {
                StoredRelation::Sharded { relation, indexes }
            }
        }
    }
}

/// How many threads execution may use.
///
/// The budget goes to the work that reads every row or pair, or that
/// holds many independent units: a range `SeqScan`'s row spans, the two
/// joins' outer rows, a batch's slots and [`Database::insert_batch`]'s
/// per-shard writers. An index descent and every kNN run on the calling
/// thread whatever the setting (EXPLAIN prints the count a plan uses).
///
/// The default is [`Parallelism::Serial`]: no thread is ever spawned.
/// Every setting returns *identical* results (hit sets, distances,
/// ordering) and work counters for every query form — the equivalence
/// suites pin this — so the knob is purely a throughput decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Single-threaded execution (the default).
    #[default]
    Serial,
    /// Exactly this many worker threads (values < 1 behave as 1).
    Fixed(usize),
    /// One worker per available hardware thread.
    Auto,
}

impl Parallelism {
    /// The concrete thread count this setting resolves to. `Auto` asks the
    /// OS on every call, which costs more than planning a query, so
    /// [`Database::set_parallelism`] resolves it once and the planner and
    /// batch writers reuse that count.
    pub fn threads(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::Serial => write!(f, "serial"),
            Parallelism::Fixed(n) => write!(f, "{} threads", n.max(&1)),
            Parallelism::Auto => write!(f, "auto ({} threads)", self.threads()),
        }
    }
}

/// The durable-write-path state of an attached database: the directory
/// store plus the bookkeeping the checkpoint protocol needs.
#[derive(Debug, Clone)]
struct Durability {
    store: DurableDir,
    /// Per relation, per shard: changed since the last checkpoint. A
    /// relation missing from the map is conservatively all-dirty.
    dirty: BTreeMap<String, Vec<bool>>,
    /// WAL records appended since attach/open.
    wal_records: u64,
    /// What replay did when this database was opened (zeroes after
    /// [`Database::attach_wal`]).
    replay: ReplayReport,
    /// A failed automatic checkpoint (after DDL) poisons the write path:
    /// no further insert is acknowledged until [`Database::checkpoint`]
    /// succeeds, so `Ok` from an insert always means "durable".
    pending_error: Option<String>,
}

/// What one acknowledged [`Database::insert_into`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertReport {
    /// The assigned row id.
    pub id: u64,
    /// The shard that took the row (0 for unsharded relations).
    pub shard: usize,
    /// R*-tree nodes this insert materialized (splits and root growth;
    /// usually 0 — the incremental-maintenance win over a rebuild).
    pub nodes_built: u64,
    /// Whether a WAL record was appended (false when no WAL is attached).
    pub wal_appended: bool,
}

/// What one [`Database::insert_batch`] call did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InsertBatchReport {
    /// Acknowledged rows as `(input index, report)`, in input order.
    /// Every acked row's WAL group flush returned from its sync (when a
    /// WAL is attached) **before** the in-memory apply, exactly the
    /// [`Database::insert_into`] guarantee.
    pub acked: Vec<(usize, InsertReport)>,
    /// Rows that failed after validation, as `(input index, error)`.
    /// Failure is per shard: a shard whose WAL group append fails fails
    /// every row routed to it, while other shards still commit.
    pub failed: Vec<(usize, String)>,
    /// Distinct shards that took at least one acknowledged row.
    pub shards_touched: usize,
    /// WAL records appended (= acked rows when a WAL is attached).
    pub wal_records: u64,
    /// WAL syncs issued — at most one per touched shard, the group-commit
    /// win over [`Database::insert_into`]'s one sync per row.
    pub wal_syncs: u64,
    /// R*-tree nodes materialized across all shards.
    pub nodes_built: u64,
}

/// The `\wal` status line: where the durable state lives and what the
/// write path has done so far.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalStatus {
    /// The durable directory.
    pub dir: PathBuf,
    /// Epoch of the last committed checkpoint.
    pub epoch: u64,
    /// WAL records appended since attach/open.
    pub wal_records: u64,
    /// What replay did at open time.
    pub replay: ReplayReport,
    /// Shards changed since the last checkpoint.
    pub dirty_shards: usize,
    /// Total shards across all relations.
    pub total_shards: usize,
    /// A failed automatic checkpoint poisoning the write path, if any.
    pub pending_error: Option<String>,
}

/// A named collection of relations.
///
/// Relations are held behind [`Arc`]s so a [`ReadView`] is a cheap,
/// generation-stamped shallow copy of the catalog: writers mutate through
/// [`Arc::make_mut`] (copy-on-write — in place when no view holds the
/// relation, a clone when one does), so readers never block on writers and
/// a view's answers never shift mid-query.
#[derive(Debug, Clone)]
pub struct Database {
    relations: BTreeMap<String, Arc<StoredRelation>>,
    parallelism: Parallelism,
    /// What `parallelism` resolved to when it was set.
    threads: usize,
    /// Catalog generation: bumped by every mutation a pinned read view
    /// would not see (relations added/replaced/mutated, inserts,
    /// parallelism changed).
    generation: u64,
    /// The durable write path, when a WAL directory is attached.
    durability: Option<Durability>,
}

impl Default for Database {
    fn default() -> Self {
        Database {
            relations: BTreeMap::new(),
            parallelism: Parallelism::Serial,
            threads: 1,
            generation: 0,
            durability: None,
        }
    }
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Database::default()
    }

    /// The catalog generation counter. It increases on every mutation a
    /// pinned [`ReadView`] would not see: adding or replacing a relation,
    /// handing out mutable access to one, an acknowledged insert, or
    /// changing the execution parallelism. The server
    /// re-pins a connection's session when it moves.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Puts `stored` in the catalog under its own name (replacing a
    /// same-named relation) and runs the after-DDL hook.
    fn register(&mut self, stored: StoredRelation) {
        self.generation += 1;
        let name = stored.name().to_string();
        self.relations.insert(name.clone(), Arc::new(stored));
        self.after_ddl(&name);
    }

    /// Registers a relation without an index.
    pub fn add_relation(&mut self, relation: SeriesRelation) {
        self.register(StoredRelation::Single {
            relation,
            index: None,
        });
    }

    /// Registers a relation and bulk-loads an index over it.
    pub fn add_relation_indexed(&mut self, relation: SeriesRelation) {
        let index = Some(relation.build_index(RTreeConfig::default()));
        self.register(StoredRelation::Single { relation, index });
    }

    /// Registers a relation partitioned into `shards` shards, with one
    /// bulk-loaded R*-tree per shard (`shards` ≤ 1 registers the single
    /// indexed form). Rows move bit-for-bit, so query answers equal the
    /// unsharded relation's.
    pub fn add_relation_sharded(&mut self, relation: SeriesRelation, shards: usize) {
        if shards <= 1 {
            self.add_relation_indexed(relation);
            return;
        }
        let relation = ShardedRelation::from_single(relation, shards);
        let indexes = relation.build_indexes(RTreeConfig::default());
        self.register(StoredRelation::Sharded { relation, indexes });
    }

    /// Re-partitions an existing relation into `shards` shards (the CLI's
    /// `\shard <relation> <n>`): `shards` ≥ 2 produces the sharded form
    /// with one tree per shard; `shards` = 1 merges a sharded relation
    /// back into a single indexed store. Rows move bit-for-bit either way
    /// (without cloning raw series or spectra), so query answers are
    /// unchanged, and the new per-shard trees are built through the
    /// incremental insert path — the same code every later insert
    /// exercises, so a relation with pending (post-bulk-load) inserts
    /// re-shards into exactly the structures continued inserting produces.
    ///
    /// Asking for the shape the relation already has is a **no-op**: no
    /// rows move, no trees rebuild, the catalog generation stays put.
    ///
    /// # Errors
    /// [`QueryError::UnknownRelation`] when no such relation exists;
    /// [`QueryError::Unsupported`] for a shard count of 0.
    pub fn shard_relation(&mut self, name: &str, shards: usize) -> Result<(), QueryError> {
        if shards == 0 {
            return Err(QueryError::Unsupported(
                "shard count must be at least 1".into(),
            ));
        }
        match self.relations.get(name).map(Arc::as_ref) {
            None => return Err(QueryError::UnknownRelation(name.to_string())),
            // Already the requested shape (a Single with an index counts
            // as "1 shard" only if it actually has a tree — `\shard r 1`
            // on an unindexed relation builds its index).
            Some(StoredRelation::Sharded { relation, .. }) if relation.shard_count() == shards => {
                return Ok(())
            }
            Some(StoredRelation::Single { index: Some(_), .. }) if shards == 1 => return Ok(()),
            Some(_) => {}
        }
        let stored = self.relations.remove(name).expect("presence checked above");
        // A live read view may still hold this relation; take the value
        // out of the Arc when we are the only owner, clone otherwise.
        let stored = Arc::try_unwrap(stored).unwrap_or_else(|shared| (*shared).clone());
        let single = match stored {
            StoredRelation::Single { relation, .. } => relation,
            StoredRelation::Sharded { relation, .. } => relation.into_single(),
        };
        let rebuilt = if shards == 1 {
            let index = single.build_index_incremental(RTreeConfig::default());
            StoredRelation::Single {
                relation: single,
                index: Some(index),
            }
        } else {
            let sharded = ShardedRelation::from_single(single, shards);
            let indexes = sharded
                .shards()
                .iter()
                .map(|s| s.build_index_incremental(RTreeConfig::default()))
                .collect();
            StoredRelation::Sharded {
                relation: sharded,
                indexes,
            }
        };
        self.register(rebuilt);
        Ok(())
    }

    /// Looks a relation up by name.
    pub fn relation(&self, name: &str) -> Option<&StoredRelation> {
        self.relations.get(name).map(Arc::as_ref)
    }

    /// Mutable lookup (to build or drop indexes). When the relation
    /// exists, this conservatively bumps the catalog
    /// [generation](Database::generation) — the borrow may mutate the
    /// relation or its index; a missed lookup leaves it alone.
    pub fn relation_mut(&mut self, name: &str) -> Option<&mut StoredRelation> {
        if self.relations.contains_key(name) {
            self.generation += 1;
            // The borrow may change anything about the relation; with a
            // WAL attached, conservatively mark every shard dirty so the
            // next checkpoint rewrites it (a missing entry means
            // all-dirty).
            if let Some(d) = &mut self.durability {
                d.dirty.remove(name);
            }
        }
        self.relations.get_mut(name).map(Arc::make_mut)
    }

    /// Names of all relations.
    pub fn relation_names(&self) -> Vec<&str> {
        self.relations.keys().map(String::as_str).collect()
    }

    /// The current execution parallelism.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The worker-thread count [`Database::parallelism`] resolved to when
    /// it was set — what every plan and batch insert uses.
    pub(crate) fn threads(&self) -> usize {
        self.threads
    }

    /// Sets the execution parallelism for subsequent queries, resolving
    /// it to a thread count once, here. Bumps the catalog generation: a
    /// read view copies the setting, so one pinned before it is stale.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.generation += 1;
        self.parallelism = parallelism;
        self.threads = parallelism.threads();
    }

    /// Builder-style [`Database::set_parallelism`].
    #[must_use]
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.set_parallelism(parallelism);
        self
    }

    /// Saves the whole database — every relation with its index
    /// structure(s), sharded or not — into the durable directory `dir`: a
    /// full checkpoint, the same one [`Database::attach_wal`] writes.
    /// Creates the database at `dir` or replaces the one already there;
    /// the replacement commits at the manifest rename, so a failure or
    /// crash before it leaves the old database whole. Reopen it with
    /// [`Database::open_durable`]: rows, spectra and index points come
    /// back bit-for-bit and indexes are decoded, not re-bulk-loaded.
    ///
    /// # Errors
    /// [`QueryError::Unsupported`] when `dir` is this database's own
    /// attached WAL directory: a second handle's full checkpoint there
    /// would delete the live log tails under the attached one, so save it
    /// with [`Database::checkpoint`] instead. [`QueryError::Storage`] on
    /// filesystem failure.
    pub fn save_snapshot(&self, dir: impl AsRef<Path>) -> Result<CheckpointReport, QueryError> {
        self.save_to(dir.as_ref()).map(|(_, report)| report)
    }

    /// The full checkpoint behind [`Database::save_snapshot`] and
    /// [`Database::attach_wal`]; returns the directory handle it wrote
    /// through.
    fn save_to(&self, dir: &Path) -> Result<(DurableDir, CheckpointReport), QueryError> {
        if let Some(d) = &self.durability {
            let canonical = |p: &Path| std::fs::canonicalize(p).ok();
            if canonical(d.store.dir()).is_some_and(|own| Some(own) == canonical(dir)) {
                return Err(QueryError::Unsupported(format!(
                    "{} is this database's attached WAL directory; use checkpoint() to save it",
                    dir.display()
                )));
            }
        }
        let mut store = DurableDir::create(dir)?;
        let report = store.checkpoint(&checkpoint_sources(&self.relations, &BTreeMap::new()))?;
        Ok((store, report))
    }

    /// [`Database::open_durable`] without the replay report. Kept only
    /// because the benchmark's layer probe (`bench/src/ingest.rs`) calls
    /// it; new code calls `open_durable`.
    ///
    /// # Errors
    /// As [`Database::open_durable`].
    pub fn open_snapshot(dir: impl AsRef<Path>) -> Result<Self, QueryError> {
        Database::open_durable(dir.as_ref()).map(|(db, _)| db)
    }

    /// Attaches a durable write path to `dir`: writes a full checkpoint of
    /// the current catalog there (creating the database, or replacing the
    /// one already there exactly as [`Database::save_snapshot`] does), and
    /// from then on appends every acknowledged insert to the owning
    /// shard's WAL before applying it. Returns what the checkpoint wrote.
    ///
    /// # Errors
    /// [`QueryError::Unsupported`] when a WAL is already attached;
    /// [`QueryError::Storage`] on filesystem failure, after which no WAL
    /// is attached and `dir` still holds what it held before.
    pub fn attach_wal(&mut self, dir: impl Into<PathBuf>) -> Result<CheckpointReport, QueryError> {
        if self.durability.is_some() {
            return Err(QueryError::Unsupported(
                "a WAL directory is already attached".into(),
            ));
        }
        let (store, report) = self.save_to(&dir.into())?;
        self.durability = Some(Durability {
            store,
            dirty: clean_flags(&self.relations),
            wal_records: 0,
            replay: ReplayReport::default(),
            pending_error: None,
        });
        Ok(report)
    }

    /// [`Database::attach_wal`] with WAL appends routed through an
    /// injectable [`FailingStorage`] — the crash-fuzz hook. Checkpoints
    /// still write real files; only the log tail goes to the sink.
    ///
    /// # Errors
    /// As [`Database::attach_wal`].
    pub fn attach_wal_with_sink(
        &mut self,
        dir: impl Into<PathBuf>,
        sink: Arc<FailingStorage>,
    ) -> Result<CheckpointReport, QueryError> {
        let report = self.attach_wal(dir)?;
        if let Some(d) = &mut self.durability {
            d.store.set_sink(Some(sink));
        }
        Ok(report)
    }

    /// Opens a durable directory: loads every shard checkpoint, replays
    /// (and repairs) the WAL tails, and attaches the write path so
    /// subsequent inserts keep appending. The returned report says what
    /// replay recovered; it stays queryable via [`Database::wal_status`].
    ///
    /// # Errors
    /// [`QueryError::Storage`] when the directory is missing, its
    /// manifest is invalid, or a referenced checkpoint is corrupt. WAL
    /// corruption is *not* an error — torn tails are truncated and
    /// counted in the report.
    pub fn open_durable(dir: impl Into<PathBuf>) -> Result<(Self, ReplayReport), QueryError> {
        let (store, entries, replay) = DurableDir::open(dir.into())?;
        let mut db = Database::new();
        db.generation = 1;
        for entry in entries {
            let stored = StoredRelation::from(entry);
            db.relations
                .insert(stored.name().to_string(), Arc::new(stored));
        }
        // Checkpoints + logs already hold everything replay applied, so
        // every shard starts clean.
        db.durability = Some(Durability {
            store,
            dirty: clean_flags(&db.relations),
            wal_records: 0,
            replay,
            pending_error: None,
        });
        Ok((db, replay))
    }

    /// True when a durable write path is attached.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// The durable write path's status, when one is attached.
    pub fn wal_status(&self) -> Option<WalStatus> {
        self.durability.as_ref().map(|d| {
            let mut dirty_shards = 0;
            let mut total_shards = 0;
            for s in self.relations.values() {
                let shards = s.shard_count();
                total_shards += shards;
                dirty_shards += match d.dirty.get(s.name()) {
                    Some(flags) => flags.iter().filter(|&&f| f).count(),
                    None => shards, // missing entry = conservatively dirty
                };
            }
            WalStatus {
                dir: d.store.dir().to_path_buf(),
                epoch: d.store.manifest().epoch,
                wal_records: d.wal_records,
                replay: d.replay,
                dirty_shards,
                total_shards,
                pending_error: d.pending_error.clone(),
            }
        })
    }

    /// Inserts a series through the durable write path under the
    /// [ack contract](self#the-ack-contract): an `Ok` means the insert
    /// survives any subsequent crash. Without an attached WAL this is a
    /// plain in-memory insert with incremental index maintenance.
    ///
    /// # Errors
    /// [`QueryError::UnknownRelation`], domain errors
    /// ([`QueryError::Series`] — wrong length, constant series), and
    /// [`QueryError::Storage`] when the WAL append fails (the insert is
    /// **not** applied, so an error also never loses the guarantee) or the
    /// write path is poisoned.
    pub fn insert_into(
        &mut self,
        relation: &str,
        name: impl Into<String>,
        series: Vec<f64>,
    ) -> Result<InsertReport, QueryError> {
        let (stored, mut features) = self.admit(relation, std::iter::once(series.as_slice()))?;
        let id = stored.next_id();
        let shard = stored.shard_of(id);
        let mut record = WalRecord {
            id,
            name: name.into(),
            series,
        };
        let dur = self.durability.as_ref().map(|d| &d.store);
        let (stores, trees) = admitted_mut(&mut self.relations, relation).write_parts();
        let outcome = commit_shard(
            dur,
            relation,
            &mut ShardWork {
                shard,
                idxs: &[0],
                records: std::slice::from_mut(&mut record),
                features: &mut features,
                store: &mut stores[shard],
                tree: trees.get_mut(shard),
            },
        );
        let mut report = self.finish_commit(relation, id, [outcome])?;
        Ok(report.acked.pop().expect("an Ok commit acked its row").1)
    }

    /// Inserts a batch of series through the durable write path with one
    /// WAL group append (one write + one sync) per touched shard, and —
    /// for sharded relations under [`Parallelism`] > 1 — concurrent
    /// per-shard writers: each shard is owned by exactly one scoped
    /// worker thread, so inserts to distinct shards proceed in parallel
    /// while rows within a shard apply strictly in id order.
    ///
    /// Ids are assigned in input order from the relation's `next_id`, and
    /// every shard commits through the same core as
    /// [`Database::insert_into`], so the resulting database state is
    /// **bitwise identical** to calling it once per row in order (pinned
    /// by `tests/insert_equivalence.rs`), at a fraction of the syncs.
    ///
    /// The whole batch is validated before anything is logged. After
    /// validation, failure is per shard: a shard whose group append fails
    /// fails every row routed to it (none applied — atomically absent),
    /// while other shards commit. The call errors only when *no* row was
    /// acknowledged.
    ///
    /// # Errors
    /// [`QueryError::UnknownRelation`], domain errors for any invalid row
    /// (nothing logged or applied), and [`QueryError::Storage`] when
    /// every shard's WAL append failed or the write path is poisoned.
    pub fn insert_batch(
        &mut self,
        relation: &str,
        rows: Vec<(String, Vec<f64>)>,
    ) -> Result<InsertBatchReport, QueryError> {
        if rows.is_empty() {
            return Ok(InsertBatchReport::default());
        }
        let (stored, features) =
            self.admit(relation, rows.iter().map(|(_, series)| series.as_slice()))?;
        let base_id = stored.next_id();
        let last_id = base_id + rows.len() as u64 - 1;
        // Ids are assigned in input order (serial-equivalent) and routed
        // by the shard layout; within a shard records stay id-ascending.
        let mut per_shard: Vec<(Vec<usize>, Vec<WalRecord>, Vec<SeriesFeatures>)> =
            vec![Default::default(); stored.shard_count()];
        for (i, ((name, series), f)) in rows.into_iter().zip(features).enumerate() {
            let id = base_id + i as u64;
            let (idxs, records, features) = &mut per_shard[stored.shard_of(id)];
            idxs.push(i);
            records.push(WalRecord { id, name, series });
            features.push(f);
        }
        let threads = self.threads;
        let dur = self.durability.as_ref().map(|d| &d.store);
        let (stores, trees) = admitted_mut(&mut self.relations, relation).write_parts();
        let mut trees = trees.iter_mut();
        let mut work: Vec<ShardWork<'_>> = stores
            .iter_mut()
            .zip(&mut per_shard)
            .enumerate()
            .map(|(shard, (store, (idxs, records, features)))| ShardWork {
                shard,
                idxs,
                records,
                features,
                store,
                tree: trees.next(),
            })
            .filter(|w| !w.idxs.is_empty())
            .collect();
        let outcomes: Vec<ShardCommit> = if threads > 1 && work.len() > 1 {
            // One scoped worker per chunk of busy shards: the `&mut`
            // borrows are disjoint per shard, so inserts to distinct
            // shards proceed in parallel. Workers join before the scope
            // returns, so readers of the catalog never observe a shard
            // mid-apply.
            let per = work.len().div_ceil(threads.min(work.len()));
            std::thread::scope(|scope| {
                let handles: Vec<_> = work
                    .chunks_mut(per)
                    .map(|chunk| {
                        scope.spawn(move || {
                            chunk
                                .iter_mut()
                                .map(|w| commit_shard(dur, relation, w))
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().expect("shard writer panicked"))
                    .collect()
            })
        } else {
            work.iter_mut()
                .map(|w| commit_shard(dur, relation, w))
                .collect()
        };
        self.finish_commit(relation, last_id, outcomes)
    }

    /// The write path's shared prologue: refuses while the path is
    /// poisoned, finds the relation, and validates every series the apply
    /// could reject *before* anything is logged — a WAL record is written
    /// only for an insert that will succeed, so replay never manufactures
    /// rows a crash-free run rejected. Validation is extraction, and the
    /// features come back in input order for the commit to apply.
    fn admit<'a>(
        &self,
        relation: &str,
        rows: impl Iterator<Item = &'a [f64]>,
    ) -> Result<(&StoredRelation, Vec<SeriesFeatures>), QueryError> {
        let poisoned = self
            .durability
            .as_ref()
            .and_then(|d| d.pending_error.as_ref());
        if let Some(e) = poisoned {
            return Err(QueryError::Storage(format!(
                "write path poisoned by a failed checkpoint: {e} (run a checkpoint to recover)"
            )));
        }
        let stored = self
            .relation(relation)
            .ok_or_else(|| QueryError::UnknownRelation(relation.to_string()))?;
        let features = rows
            .map(|series| {
                if series.len() != stored.series_len() {
                    return Err(SeriesError::DimensionMismatch {
                        expected: stored.series_len(),
                        actual: series.len(),
                    });
                }
                stored.scheme().extract(series)
            })
            .collect::<Result<_, _>>()?;
        Ok((stored, features))
    }

    /// The write path's shared epilogue, run once per commit over its
    /// per-shard outcomes: consumes the commit's ids, folds the outcomes
    /// into one report, poisons the path on an apply failure, and — when
    /// any row was acknowledged — bumps the generation, marks the touched
    /// shards dirty and counts the inserts.
    fn finish_commit(
        &mut self,
        relation: &str,
        last_id: u64,
        outcomes: impl IntoIterator<Item = ShardCommit>,
    ) -> Result<InsertBatchReport, QueryError> {
        // Every id of the commit is consumed, acked or not: a failed
        // append can still have left its records durable (the sync died
        // after the write, or they rode a torn group prefix), so no later
        // insert may collide with what replay may apply.
        admitted_mut(&mut self.relations, relation).note_inserted(last_id);
        let mut report = InsertBatchReport::default();
        let mut first_error: Option<String> = None;
        let mut poison: Option<String> = None;
        let mut dirty = self
            .durability
            .as_mut()
            .and_then(|d| d.dirty.get_mut(relation));
        for mut o in outcomes {
            report.wal_syncs += u64::from(o.wal_synced);
            if !o.acked.is_empty() {
                report.shards_touched += 1;
                // A relation without flags is already all-dirty.
                if let Some(flag) = dirty.as_mut().and_then(|flags| flags.get_mut(o.shard)) {
                    *flag = true;
                }
            }
            if report.acked.is_empty() {
                report.acked = o.acked; // the common one-shard commit: no copy
            } else {
                report.acked.append(&mut o.acked);
            }
            if let Some(e) = o.error {
                report
                    .failed
                    .extend(o.failed.iter().map(|&idx| (idx, e.clone())));
                // An error after the sync is a logged record that failed
                // to apply.
                if o.wal_synced {
                    poison.get_or_insert_with(|| e.clone());
                }
                first_error.get_or_insert(e);
            }
        }
        // A validated row that fails to apply is unreachable by
        // construction; poison the write path rather than leave a
        // logged-but-unapplied row behind.
        if let (Some(e), Some(d)) = (poison, &mut self.durability) {
            d.pending_error = Some(e);
        }
        report.acked.sort_by_key(|&(i, _)| i);
        report.failed.sort_by_key(|&(i, _)| i);
        if report.acked.is_empty() {
            return Err(QueryError::Storage(
                first_error.unwrap_or_else(|| "insert failed".into()),
            ));
        }
        self.generation += 1;
        report.nodes_built = report.acked.iter().map(|(_, r)| r.nodes_built).sum();
        if let Some(d) = &mut self.durability {
            report.wal_records = report.acked.len() as u64;
            d.wal_records += report.wal_records;
        }
        let m = simq_obs::metrics::registry();
        m.insert_count.fetch_add(
            report.acked.len() as u64,
            std::sync::atomic::Ordering::Relaxed,
        );
        m.insert_nodes_built
            .fetch_add(report.nodes_built, std::sync::atomic::Ordering::Relaxed);
        Ok(report)
    }

    /// An immutable, generation-stamped view of the catalog for readers.
    ///
    /// The view shallow-copies the relation map (per-relation [`Arc`]
    /// bumps — no row data is cloned) and drops the durable write path,
    /// so queries against it never block on writers and always see the
    /// catalog exactly as of [`ReadView::generation`]: a writer mutating
    /// the live database copy-on-writes any relation the view still
    /// holds.
    pub fn read_view(&self) -> ReadView {
        ReadView {
            db: Database {
                relations: self.relations.clone(),
                parallelism: self.parallelism,
                threads: self.threads,
                generation: self.generation,
                durability: None,
            },
        }
    }

    /// Commits a checkpoint: every dirty shard's store and tree are
    /// written to new checkpoint files, the manifest flips atomically, and
    /// absorbed WAL tails are deleted. Clean shards keep their files
    /// untouched — the incremental-maintenance win `\save` inherits.
    /// A successful checkpoint also clears a poisoned write path.
    ///
    /// # Errors
    /// [`QueryError::Unsupported`] when no WAL is attached;
    /// [`QueryError::Storage`] on filesystem failure (the directory still
    /// opens to its previous state).
    pub fn checkpoint(&mut self) -> Result<CheckpointReport, QueryError> {
        if self.durability.is_none() {
            return Err(QueryError::Unsupported(
                "no WAL directory attached (use \\wal <dir>)".into(),
            ));
        }
        let report = self.checkpoint_inner().map_err(QueryError::from)?;
        if let Some(d) = &mut self.durability {
            d.pending_error = None;
        }
        Ok(report)
    }

    /// The checkpoint mechanics, shared by the public entry point and the
    /// automatic after-DDL checkpoints.
    fn checkpoint_inner(&mut self) -> Result<CheckpointReport, DurableError> {
        let d = self.durability.as_mut().expect("caller checked attachment");
        let report = d
            .store
            .checkpoint(&checkpoint_sources(&self.relations, &d.dirty))?;
        d.dirty = clean_flags(&self.relations);
        Ok(report)
    }

    /// Runs the automatic checkpoint DDL requires (the manifest must know
    /// every relation before its WAL can take appends). A failure poisons
    /// the write path instead of propagating — DDL entry points predate
    /// durability and cannot all return errors — and the next insert
    /// surfaces it.
    fn auto_checkpoint(&mut self) {
        if self.durability.is_none() {
            return;
        }
        if let Err(e) = self.checkpoint_inner() {
            if let Some(d) = &mut self.durability {
                d.pending_error = Some(e.to_string());
            }
        }
    }

    /// The after-DDL hook: the named relation's durable image is stale in
    /// shape or content, so forget its dirty flags (missing = all-dirty)
    /// and re-checkpoint.
    fn after_ddl(&mut self, name: &str) {
        if let Some(d) = &mut self.durability {
            d.dirty.remove(name);
            self.auto_checkpoint();
        }
    }
}

/// An immutable snapshot of a [`Database`]'s catalog, stamped with the
/// generation it was taken at.
///
/// Produced by [`Database::read_view`]. Queries run against
/// [`ReadView::database`] see exactly the relations (and rows) that
/// existed at that generation, no matter what writers do to the live
/// database afterwards — relations are shared via [`Arc`] and writers
/// mutate copy-on-write. The view carries no durable write path, so it
/// cannot write. `Send + Sync`, so views can be handed to reader threads.
#[derive(Debug, Clone)]
pub struct ReadView {
    db: Database,
}

impl ReadView {
    /// The catalog generation this view was taken at. Compare with the
    /// live [`Database::generation`] to detect staleness.
    pub fn generation(&self) -> u64 {
        self.db.generation()
    }

    /// The frozen catalog, usable everywhere a `&Database` is.
    pub fn database(&self) -> &Database {
        &self.db
    }
}

/// A view can stand in wherever a `&Database` holder is generic over
/// [`Borrow`](std::borrow::Borrow) — most importantly
/// `Session<ReadView>`, the server's per-connection session: the
/// session owns a frozen catalog and is swapped wholesale when the
/// live generation moves on.
impl std::borrow::Borrow<Database> for ReadView {
    fn borrow(&self) -> &Database {
        &self.db
    }
}

/// The checkpoint writer's view of the catalog: every relation's shards,
/// each dirty unless `dirty` flags it clean. A relation missing from
/// `dirty` is all-dirty, so an empty map asks for a full checkpoint.
fn checkpoint_sources<'a>(
    relations: &'a BTreeMap<String, Arc<StoredRelation>>,
    dirty: &BTreeMap<String, Vec<bool>>,
) -> Vec<CheckpointSource<'a>> {
    relations
        .values()
        .map(|s| {
            let flags = dirty.get(s.name());
            let dirty_at = |j: usize| flags.is_none_or(|f| f.get(j).copied().unwrap_or(true));
            CheckpointSource {
                name: s.name(),
                sharded: matches!(s.as_ref(), StoredRelation::Sharded { .. }),
                shards: (s.stores().iter().enumerate())
                    .map(|(j, store)| (store, s.trees().get(j), dirty_at(j)))
                    .collect(),
            }
        })
        .collect()
}

/// Every shard of every relation flagged clean: the state right after a
/// checkpoint commits or a directory opens.
fn clean_flags(relations: &BTreeMap<String, Arc<StoredRelation>>) -> BTreeMap<String, Vec<bool>> {
    relations
        .values()
        .map(|s| (s.name().to_string(), vec![false; s.shard_count()]))
        .collect()
}

/// The relation a writer has already admitted, un-shared from any read
/// view that still holds it (copy-on-write).
fn admitted_mut<'a>(
    relations: &'a mut BTreeMap<String, Arc<StoredRelation>>,
    name: &str,
) -> &'a mut StoredRelation {
    Arc::make_mut(relations.get_mut(name).expect("relation admitted above"))
}

/// One shard's slice of a commit: the rows routed to it (a slice of one
/// for [`Database::insert_into`]) and the shard's own mutable state.
struct ShardWork<'a> {
    shard: usize,
    /// Input index of each record, parallel to `records`.
    idxs: &'a [usize],
    /// The shard's records in id order; the apply takes them.
    records: &'a mut [WalRecord],
    /// Admission's features, parallel to `records`; the apply takes them.
    features: &'a mut [SeriesFeatures],
    store: &'a mut SeriesRelation,
    tree: Option<&'a mut RTree>,
}

/// What [`commit_shard`] did with one [`ShardWork`].
struct ShardCommit {
    shard: usize,
    /// `(input index, report)` for each row applied, in id order.
    acked: Vec<(usize, InsertReport)>,
    /// Input indexes of rows that were not applied.
    failed: Vec<usize>,
    /// Why `failed` failed: the WAL append's error (nothing applied, no
    /// sync) or a validated row's apply error.
    error: Option<String>,
    /// The shard's group append issued (and returned from) its one sync.
    wal_synced: bool,
}

/// The write path's one commit: WALs the shard's records as a single
/// group append (one write, one sync), then applies them in id order with
/// admission's features and incremental index maintenance — the
/// WAL-then-apply half of the [ack contract](self#the-ack-contract). Runs on the caller's thread or a
/// scoped worker: it takes only the shard's own `&mut` state plus a shared
/// [`DurableDir`] handle.
fn commit_shard(dur: Option<&DurableDir>, relation: &str, work: &mut ShardWork<'_>) -> ShardCommit {
    let shard = work.shard;
    let mut out = ShardCommit {
        shard,
        acked: Vec::with_capacity(work.records.len()),
        failed: Vec::new(),
        error: None,
        wal_synced: false,
    };
    if let Some(d) = dur {
        // WAL first: the group is durable (or rejected whole) before any
        // row of it becomes visible. A crash mid-append leaves a prefix
        // of the group on disk — replay applies exactly that prefix.
        if let Err(e) = d.append_insert_group(relation, shard, work.records) {
            out.error = Some(e.to_string());
            out.failed.extend_from_slice(work.idxs);
            return out;
        }
        out.wal_synced = true;
    }
    let rows = work.records.iter_mut().zip(work.features.iter_mut());
    for (k, (&idx, (rec, features))) in work.idxs.iter().zip(rows).enumerate() {
        let id = rec.id;
        let (rec, features) = (std::mem::take(rec), std::mem::take(features));
        match work
            .store
            .apply_insert(rec, features, work.tree.as_deref_mut())
        {
            Ok(nodes_built) => out.acked.push((
                idx,
                InsertReport {
                    id,
                    shard,
                    nodes_built,
                    wal_appended: dur.is_some(),
                },
            )),
            Err(e) => {
                out.error = Some(format!("validated insert failed to apply: {e}"));
                out.failed.extend_from_slice(&work.idxs[k..]);
                break;
            }
        }
    }
    out
}
