//! Sharded relations: the row space partitioned across independent
//! shards, each with its own series store (and, one level up, its own
//! R*-tree).
//!
//! A [`ShardedRelation`] splits a relation's rows by row id under a
//! [`ShardLayout`]. Each shard is an ordinary [`SeriesRelation`], so
//! everything that works on a relation — feature extraction, scans,
//! index bulk-loading — works per shard unchanged. What sharding buys:
//!
//! * **Insert locality** — an insert touches exactly one shard's store
//!   and one shard's (small) R*-tree instead of one monolithic tree.
//! * **Parallel insert writers** — `insert_batch` writes the shards a
//!   batch touches on separate threads. Queries do not fan out per
//!   shard: an index descent reads a sharded relation's trees one after
//!   another on the calling thread, and scans and joins split *rows*
//!   (not shards) across threads. Either way sharded results are
//!   bitwise identical to unsharded execution (pinned by
//!   `tests/shard_equivalence.rs`).
//!
//! Queries see a sharded relation as its slice of stores
//! ([`ShardedRelation::shards`]): a scan, and each outer row of a join,
//! is one `simq_index::Descent` over a flat source of that slice's rows,
//! store after store, and the index side one over the shards' trees.

use crate::relation::{SeriesRelation, SeriesRow};
use simq_index::{RTree, RTreeConfig};
use simq_series::error::SeriesError;
use simq_series::features::FeatureScheme;

/// How row ids map to shards.
///
/// The layout is a pure function of the row id and the shard count, so a
/// persisted sharded relation can be reconstructed from its flattened
/// rows without storing a per-row shard assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardLayout {
    /// Row id modulo the shard count — the default: sequential inserts
    /// round-robin across shards, which keeps shard sizes balanced for
    /// both dense and gappy id spaces.
    Hash {
        /// Number of shards (≥ 1).
        shards: usize,
    },
}

impl ShardLayout {
    /// Number of shards the layout produces.
    pub fn shard_count(&self) -> usize {
        match self {
            ShardLayout::Hash { shards } => (*shards).max(1),
        }
    }

    /// The shard a row id belongs to.
    pub fn shard_of(&self, id: u64) -> usize {
        match self {
            ShardLayout::Hash { shards } => (id % (*shards).max(1) as u64) as usize,
        }
    }
}

impl std::fmt::Display for ShardLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardLayout::Hash { shards } => write!(f, "hash(id) mod {shards}"),
        }
    }
}

/// A relation partitioned into independent shards by row id.
///
/// All shards share the relation's name, series length and feature
/// scheme; each shard owns its rows (raw series, statistics, index
/// points, normal-form spectra). Row ids are globally unique — the
/// layout routes every id to exactly one shard.
#[derive(Debug, Clone)]
pub struct ShardedRelation {
    name: String,
    series_len: usize,
    scheme: FeatureScheme,
    layout: ShardLayout,
    shards: Vec<SeriesRelation>,
    /// Id the next [`ShardedRelation::insert`] will assign.
    next_id: u64,
}

impl ShardedRelation {
    /// An empty sharded relation with `shards` shards.
    ///
    /// # Panics
    /// Panics if `shards` is 0 or `series_len` cannot support the scheme
    /// (same contract as [`SeriesRelation::new`]).
    pub fn new(
        name: impl Into<String>,
        series_len: usize,
        scheme: FeatureScheme,
        shards: usize,
    ) -> Self {
        assert!(shards >= 1, "a sharded relation needs at least one shard");
        let name = name.into();
        let shards_vec = (0..shards)
            .map(|_| SeriesRelation::new(name.clone(), series_len, scheme.clone()))
            .collect();
        ShardedRelation {
            name,
            series_len,
            scheme,
            layout: ShardLayout::Hash { shards },
            shards: shards_vec,
            next_id: 0,
        }
    }

    /// Re-partitions an existing relation into `shards` shards. Rows move
    /// bit-for-bit (no feature re-extraction), so every query answer over
    /// the sharded form is identical to the unsharded one; each shard keeps
    /// its rows in their relative order.
    pub fn from_single(relation: SeriesRelation, shards: usize) -> Self {
        let name = relation.name().to_string();
        let series_len = relation.series_len();
        let scheme = relation.scheme().clone();
        let layout = ShardLayout::Hash {
            shards: shards.max(1),
        };
        let mut per_shard: Vec<Vec<SeriesRow>> =
            (0..layout.shard_count()).map(|_| Vec::new()).collect();
        let mut next_id = 0u64;
        for row in relation.into_rows() {
            next_id = next_id.max(row.id + 1);
            per_shard[layout.shard_of(row.id)].push(row);
        }
        let shards = per_shard
            .into_iter()
            .map(|rows| {
                SeriesRelation::from_validated_parts(name.clone(), series_len, scheme.clone(), rows)
            })
            .collect();
        ShardedRelation {
            name,
            series_len,
            scheme,
            layout,
            shards,
            next_id,
        }
    }

    /// Reassembles a sharded relation from already-routed shard stores
    /// (the durable-open path: each shard was persisted separately, so no
    /// rows need to move). The caller has verified routing; this
    /// constructor validates the shared header fields.
    pub(crate) fn from_shard_stores(
        name: String,
        layout: ShardLayout,
        stores: Vec<SeriesRelation>,
    ) -> Result<Self, String> {
        if stores.len() != layout.shard_count() {
            return Err(format!(
                "{} shard stores for a {}-shard layout",
                stores.len(),
                layout.shard_count()
            ));
        }
        let first = stores.first().expect("layouts have at least one shard");
        let (series_len, scheme) = (first.series_len(), first.scheme().clone());
        for s in &stores {
            if s.name() != name || s.series_len() != series_len || s.scheme() != &scheme {
                return Err(format!(
                    "shard stores of {name:?} disagree on name, series length or scheme"
                ));
            }
        }
        let next_id = stores
            .iter()
            .map(SeriesRelation::next_id)
            .max()
            .unwrap_or(0);
        Ok(ShardedRelation {
            name,
            series_len,
            scheme,
            layout,
            shards: stores,
            next_id,
        })
    }

    /// Merges the shards back into one relation, rows ordered by id.
    pub fn to_single(&self) -> SeriesRelation {
        let mut rows: Vec<SeriesRow> = self.shards.iter().flat_map(|s| s.rows().cloned()).collect();
        rows.sort_by_key(|r| r.id);
        SeriesRelation::from_validated_parts(
            self.name.clone(),
            self.series_len,
            self.scheme.clone(),
            rows,
        )
    }

    /// Consumes the sharded relation, merging the shards back into one
    /// relation with rows ordered by id — the re-partitioning path
    /// ([`crate::shard`] → different shard count) moves every row
    /// bit-for-bit without cloning raw series or spectra.
    pub fn into_single(self) -> SeriesRelation {
        let mut rows: Vec<SeriesRow> = self
            .shards
            .into_iter()
            .flat_map(SeriesRelation::into_rows)
            .collect();
        rows.sort_by_key(|r| r.id);
        SeriesRelation::from_validated_parts(self.name, self.series_len, self.scheme, rows)
    }

    /// The id the next [`ShardedRelation::insert`] will assign.
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Relation name (shared by every shard).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Length every stored series must have.
    pub fn series_len(&self) -> usize {
        self.series_len
    }

    /// The feature scheme rows are extracted under.
    pub fn scheme(&self) -> &FeatureScheme {
        &self.scheme
    }

    /// The id → shard mapping.
    pub fn layout(&self) -> ShardLayout {
        self.layout
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in shard order.
    pub fn shards(&self) -> &[SeriesRelation] {
        &self.shards
    }

    /// One shard's store.
    pub fn shard(&self, i: usize) -> &SeriesRelation {
        &self.shards[i]
    }

    /// The shards, mutably — the concurrent write path's entry point: the
    /// slice is split into disjoint `&mut` borrows so each shard's owning
    /// writer thread applies its routed rows independently. Callers must
    /// respect the id → shard routing of [`ShardedRelation::layout`] and
    /// follow up with [`ShardedRelation::note_inserted`] so id assignment
    /// stays consistent.
    pub fn shards_mut(&mut self) -> &mut [SeriesRelation] {
        &mut self.shards
    }

    /// Records that rows up to `id` were inserted directly into the shard
    /// stores (via [`ShardedRelation::shards_mut`]), advancing the next-id
    /// watermark exactly as the routed insert would have.
    pub fn note_inserted(&mut self, id: u64) {
        self.next_id = self.next_id.max(id + 1);
    }

    /// Total rows across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(SeriesRelation::len).sum()
    }

    /// True when no shard has any rows.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(SeriesRelation::is_empty)
    }

    /// Rows per shard, in shard order (the `\relations` listing).
    pub fn shard_row_counts(&self) -> Vec<usize> {
        self.shards.iter().map(SeriesRelation::len).collect()
    }

    /// Inserts a series; returns its row id. Exactly one shard's store is
    /// touched — the insert-locality property sharding exists for.
    ///
    /// # Errors
    /// As [`SeriesRelation::insert`].
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        series: Vec<f64>,
    ) -> Result<u64, SeriesError> {
        let id = self.next_id;
        self.insert_with_id(id, name, series)
    }

    /// Inserts a series under an explicit row id (the restore path).
    ///
    /// # Errors
    /// As [`SeriesRelation::insert_with_id`].
    pub fn insert_with_id(
        &mut self,
        id: u64,
        name: impl Into<String>,
        series: Vec<f64>,
    ) -> Result<u64, SeriesError> {
        let shard = self.layout.shard_of(id);
        let id = self.shards[shard].insert_with_id(id, name, series)?;
        self.next_id = self.next_id.max(id + 1);
        Ok(id)
    }

    /// The shard a row id routes to.
    pub fn shard_of(&self, id: u64) -> usize {
        self.layout.shard_of(id)
    }

    /// Row access by id — one shard lookup.
    pub fn row(&self, id: u64) -> Option<&SeriesRow> {
        self.shards[self.layout.shard_of(id)].row(id)
    }

    /// Iterates rows shard-major (shard 0's rows in insertion order, then
    /// shard 1's, …).
    pub fn rows(&self) -> impl Iterator<Item = &SeriesRow> {
        self.shards.iter().flat_map(|s| s.rows())
    }

    /// Bulk-loads one R*-tree per shard over the shard's feature points,
    /// each row's slot its position in its shard.
    pub fn build_indexes(&self, config: RTreeConfig) -> Vec<RTree> {
        self.shards
            .iter()
            .map(|s| s.build_index(config.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn single_relation(rows: usize) -> SeriesRelation {
        let mut rel = SeriesRelation::new("r", 64, FeatureScheme::paper_default());
        for i in 0..rows {
            let series: Vec<f64> = (0..64)
                .map(|t| {
                    20.0 + (t as f64 * (0.1 + i as f64 * 0.013)).sin() * 4.0
                        + (t as f64 * 0.31).cos() * (i % 5) as f64
                })
                .collect();
            rel.insert(format!("S{i}"), series).unwrap();
        }
        rel
    }

    #[test]
    fn partitioning_routes_every_row_once() {
        let rel = single_relation(53);
        let sharded = ShardedRelation::from_single(rel.clone(), 4);
        assert_eq!(sharded.len(), 53);
        assert_eq!(sharded.shard_count(), 4);
        for id in 0..53u64 {
            let row = sharded.row(id).expect("row routed");
            assert_eq!(row.id, id);
            assert_eq!(row.name, format!("S{id}"));
            assert_eq!(sharded.shard_of(id), (id % 4) as usize);
        }
        // Shard sizes are balanced by the modulo layout.
        let counts = sharded.shard_row_counts();
        assert_eq!(counts.iter().sum::<usize>(), 53);
        assert!(counts.iter().all(|&c| (13..=14).contains(&c)));
    }

    #[test]
    fn roundtrip_to_single_is_bitwise() {
        let rel = single_relation(37);
        let sharded = ShardedRelation::from_single(rel.clone(), 3);
        let back = sharded.to_single();
        assert_eq!(back.len(), rel.len());
        for (a, b) in rel.rows().zip(back.rows()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.name, b.name);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.raw), bits(&b.raw));
            assert_eq!(bits(&a.features.point), bits(&b.features.point));
        }
    }

    #[test]
    fn inserts_route_and_ids_stay_global() {
        let mut sharded = ShardedRelation::new("r", 64, FeatureScheme::paper_default(), 3);
        for i in 0..10 {
            let series: Vec<f64> = (0..64)
                .map(|t| (t as f64 * 0.2 + i as f64).sin() * 3.0 + 30.0)
                .collect();
            let id = sharded.insert(format!("S{i}"), series).unwrap();
            assert_eq!(id, i as u64);
        }
        assert_eq!(sharded.len(), 10);
        assert_eq!(sharded.shard_row_counts(), vec![4, 3, 3]);
        // Duplicate explicit ids are rejected by the owning shard.
        let series: Vec<f64> = (0..64).map(|t| (t as f64 * 0.3).cos() + 10.0).collect();
        assert!(matches!(
            sharded.insert_with_id(3, "dup", series),
            Err(SeriesError::DuplicateRowId(3))
        ));
    }

    #[test]
    fn per_shard_indexes_cover_all_rows() {
        let rel = single_relation(60);
        let sharded = ShardedRelation::from_single(rel, 4);
        let trees = sharded.build_indexes(RTreeConfig::default());
        assert_eq!(trees.len(), 4);
        let mut ids: Vec<u64> = (0..4)
            .flat_map(|s| {
                let rows = sharded.shard(s).row_slice();
                trees[s]
                    .items()
                    .into_iter()
                    .map(|(_, pos)| rows[pos as usize].id)
            })
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..60).collect::<Vec<u64>>());
        for (i, tree) in trees.iter().enumerate() {
            assert_eq!(tree.len(), sharded.shard(i).len());
        }
    }
}
