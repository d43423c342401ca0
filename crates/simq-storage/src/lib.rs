//! # simq-storage — relations and scan baselines
//!
//! In-memory unary relations of time series, stored simultaneously in the
//! time domain (raw), the frequency domain (normal-form spectra — what the
//! paper's improved sequential scan reads), and the feature space (index
//! points).
//!
//! * [`relation`] — [`SeriesRelation`]: rows, feature extraction on
//!   insert, index construction (bulk-loaded or incremental).
//! * [`scan`] — sequential-scan query evaluation with and without early
//!   abandoning (methods *a*/*b* of the paper's Table 1).
//! * [`persist`] — a tiny dependency-free text format with exact `f64`
//!   round-tripping (the import/export path).
//! * [`pages`] — the checksummed fixed-size page layer under snapshots.
//! * [`snapshot`] — the shard checkpoint codec: one relation with its
//!   precomputed spectra and serialized R*-tree, so cold starts skip
//!   feature extraction and index bulk-loading.
//! * [`shard`] — [`ShardedRelation`]: the row space hash-partitioned by
//!   row id into independent shards (each an ordinary [`SeriesRelation`]),
//!   plus sharded scan entry points whose merged results are bitwise
//!   identical to the unsharded scans.
//! * [`sig`] — the quantized filter tier: [`SignatureArray`] (contiguous
//!   reduced-precision leading spectrum coefficients per relation/shard)
//!   and [`FilterProbe`] (a no-false-dismissal lower bound on the
//!   verification distance, scanned before full verification).
//! * [`wal`] — checksummed, length-prefixed write-ahead-log records, the
//!   grouped append (one write + one sync for a group of records),
//!   longest-valid-prefix replay and torn-tail repair.
//! * [`durable`] — the durable directory store, the one on-disk form of
//!   a database: per-shard checkpoint files under an atomically
//!   committed manifest, WAL tails on top, and the injectable
//!   [`FailingStorage`] the crash-fuzz harness kills at seeded byte
//!   offsets.

#![warn(missing_docs)]

pub mod durable;
pub mod pages;
pub mod persist;
pub mod relation;
pub mod scan;
pub mod shard;
pub mod sig;
pub mod snapshot;
pub mod wal;

pub use durable::{
    CheckpointReport, CheckpointSource, DurableDir, DurableError, FailingStorage, Manifest,
    ManifestEntry, ReplayReport, SnapshotEntry,
};
pub use relation::{SeriesRelation, SeriesRow};
pub use scan::{
    scan_all_pairs, scan_all_pairs_over, scan_all_pairs_two, scan_knn, scan_knn_over, scan_range,
    scan_range_over, ScanFanStats, ScanHit, ScanStats,
};
pub use shard::{ShardLayout, ShardedRelation};
pub use sig::{deflate_sq, FilterProbe, SignatureArray, SIG_COEFFS};
pub use snapshot::{SnapshotError, SnapshotRelation};
pub use wal::{WalRecord, WalReplay};
