//! Relations of time series.
//!
//! "We assume relations are unary, that is, they are simply sets of
//! sequences; in practice of course they may have other attributes, such
//! as source of the data, time period covered, etc." — each row carries a
//! name attribute alongside the sequence.
//!
//! A relation stores, per row, the raw series, the extracted features
//! (index point, mean, standard deviation) and the full normal-form
//! spectrum — the frequency-domain storage the paper's improved sequential
//! scan operates on.

use crate::sig::SignatureArray;
use crate::wal::WalRecord;
use simq_index::geom::Rect;
use simq_index::{RTree, RTreeConfig};
use simq_series::error::SeriesError;
use simq_series::features::{FeatureScheme, SeriesFeatures};
use simq_series::UnitRoots;
use std::collections::HashMap;

/// One stored series with its derived data.
#[derive(Debug, Clone)]
pub struct SeriesRow {
    /// Row identifier, unique within the relation.
    pub id: u64,
    /// Name attribute (ticker, station id, …).
    pub name: String,
    /// The raw series as inserted.
    pub raw: Vec<f64>,
    /// Extracted features: index point, statistics, normal-form spectrum.
    pub features: SeriesFeatures,
}

/// A unary relation of equal-length time series.
#[derive(Debug, Clone)]
pub struct SeriesRelation {
    name: String,
    series_len: usize,
    scheme: FeatureScheme,
    rows: Vec<SeriesRow>,
    /// Id the next [`SeriesRelation::insert`] will assign (one past the
    /// largest id ever stored, so explicit-id restores never collide).
    next_id: u64,
    /// Id → row position. `None` while ids are *dense* (`rows[i].id == i`,
    /// the invariant every sequentially built relation keeps), where
    /// positions double as ids; built lazily the first time an explicit-id
    /// insert breaks density, keeping [`SeriesRelation::row`] O(1) either
    /// way.
    by_id: Option<HashMap<u64, usize>>,
    /// Quantized filter-tier signatures, position-parallel to `rows`.
    /// Derived data — maintained on every insert, rebuilt on restore,
    /// never persisted.
    sigs: SignatureArray,
    /// The roots of unity of `series_len`, which a statement's
    /// transformation reads its multipliers from. Derived data — built by
    /// both constructors, never persisted.
    roots: UnitRoots,
}

impl SeriesRelation {
    /// Creates an empty relation for series of length `series_len` indexed
    /// under `scheme`.
    ///
    /// # Panics
    /// Panics if `series_len` cannot support the scheme (`series_len ≤ k`).
    pub fn new(name: impl Into<String>, series_len: usize, scheme: FeatureScheme) -> Self {
        assert!(
            series_len > scheme.k,
            "series of length {series_len} cannot provide {} coefficients",
            scheme.k
        );
        SeriesRelation {
            name: name.into(),
            series_len,
            scheme,
            rows: Vec::new(),
            next_id: 0,
            by_id: None,
            sigs: SignatureArray::for_series_len(series_len),
            roots: UnitRoots::new(series_len),
        }
    }

    /// Rebuilds a relation from fully materialized rows (the snapshot
    /// restore path) — no feature extraction is run, so row contents are
    /// restored bit-for-bit. The caller (the snapshot decoder) has already
    /// validated the parts; this constructor only `debug_assert`s them.
    pub(crate) fn from_validated_parts(
        name: String,
        series_len: usize,
        scheme: FeatureScheme,
        rows: Vec<SeriesRow>,
    ) -> Self {
        debug_assert!(series_len > scheme.k);
        debug_assert!(rows.iter().all(|r| r.raw.len() == series_len));
        let next_id = rows.iter().map(|r| r.id + 1).max().unwrap_or(0);
        let dense = rows.iter().enumerate().all(|(i, r)| r.id == i as u64);
        let by_id = (!dense).then(|| {
            rows.iter()
                .enumerate()
                .map(|(i, r)| (r.id, i))
                .collect::<HashMap<u64, usize>>()
        });
        // Signatures (and their mirror slack) and the roots of unity are
        // derived, not persisted: recompute them here so every restore path
        // (snapshot decode, durable open, reshard) carries a filter tier and
        // a roots table bit-identical to a freshly built one.
        let mut sigs = SignatureArray::for_series_len(series_len);
        rows.iter().for_each(|r| sigs.push(&r.features.spectrum));
        SeriesRelation {
            name,
            series_len,
            scheme,
            rows,
            next_id,
            by_id,
            sigs,
            roots: UnitRoots::new(series_len),
        }
    }

    /// Relation name.
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

    /// The roots of unity of the relation's series length, tabulated.
    pub fn roots(&self) -> &UnitRoots {
        &self.roots
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts a series; returns its row id.
    ///
    /// # Errors
    /// [`SeriesError::DimensionMismatch`] when the length differs from the
    /// relation's; feature-extraction errors otherwise (constant series
    /// have no normal form).
    pub fn insert(
        &mut self,
        name: impl Into<String>,
        series: Vec<f64>,
    ) -> Result<u64, SeriesError> {
        let id = self.next_id;
        self.insert_with_id(id, name, series)
    }

    /// Inserts a series under an explicit row id (the persistence restore
    /// path: the v2 text format and snapshots carry ids, so save → load
    /// keeps id-based references valid).
    ///
    /// # Errors
    /// [`SeriesError::DimensionMismatch`] on wrong length,
    /// [`SeriesError::DuplicateRowId`] when `id` is already taken,
    /// feature-extraction errors otherwise.
    pub fn insert_with_id(
        &mut self,
        id: u64,
        name: impl Into<String>,
        series: Vec<f64>,
    ) -> Result<u64, SeriesError> {
        self.check_slot(id, &series)?;
        let features = self.scheme.extract(&series)?;
        let name = name.into();
        self.apply_insert(WalRecord { id, name, series }, features, None)
            .map(|_| id)
    }

    /// Applies one insert with its extracted features: the row under the
    /// record's id at the next position, then — when the store is indexed —
    /// its feature point into `tree` with that position as its slot
    /// (incremental maintenance, no rebuild). Returns the tree nodes the
    /// insert materialized (splits and root growth; 0 without a tree).
    ///
    /// This is the write side's one apply and one row push. The live
    /// commit passes the features its admission extracted; explicit-id
    /// inserts and WAL replay extract first. Extraction is deterministic,
    /// so replay applies exactly what the live path applied.
    ///
    /// # Errors
    /// [`SeriesError::DimensionMismatch`] on wrong length,
    /// [`SeriesError::DuplicateRowId`] when the id is taken; nothing is
    /// applied on error.
    pub fn apply_insert(
        &mut self,
        record: WalRecord,
        features: SeriesFeatures,
        tree: Option<&mut RTree>,
    ) -> Result<u64, SeriesError> {
        self.check_slot(record.id, &record.series)?;
        debug_assert!(
            features.point.len() == self.scheme.dims()
                && features.spectrum.len() == self.series_len,
            "features of another scheme or length"
        );
        let WalRecord { id, name, series } = record;
        let pos = self.rows.len();
        self.sigs.push(&features.spectrum);
        self.rows.push(SeriesRow {
            id,
            name,
            raw: series,
            features,
        });
        match &mut self.by_id {
            Some(map) => {
                map.insert(id, pos);
            }
            None if id != pos as u64 => {
                // Density just broke; index every row from here on.
                self.by_id = Some(
                    self.rows
                        .iter()
                        .enumerate()
                        .map(|(i, r)| (r.id, i))
                        .collect(),
                );
            }
            None => {}
        }
        self.next_id = self.next_id.max(id + 1);
        let Some(tree) = tree else {
            return Ok(0);
        };
        let before = tree.nodes_built();
        tree.insert_point(&self.rows[pos].features.point, pos as u64);
        Ok(tree.nodes_built() - before)
    }

    /// Refuses a row this relation cannot take: a series of the wrong
    /// length or an id already stored.
    fn check_slot(&self, id: u64, series: &[f64]) -> Result<(), SeriesError> {
        if series.len() != self.series_len {
            return Err(SeriesError::DimensionMismatch {
                expected: self.series_len,
                actual: series.len(),
            });
        }
        // Ids at or above `next_id` have never been assigned, so only
        // smaller ids can collide — sequential inserts skip the lookup.
        if id < self.next_id && self.row(id).is_some() {
            return Err(SeriesError::DuplicateRowId(id));
        }
        Ok(())
    }

    /// Consumes the relation, returning its rows in insertion order (the
    /// shard re-partitioning path: rows move bit-for-bit, no feature
    /// re-extraction).
    pub(crate) fn into_rows(self) -> Vec<SeriesRow> {
        self.rows
    }

    /// The id the next [`SeriesRelation::insert`] will assign (one past
    /// the largest id ever stored).
    pub fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Records that ids up to `id` were consumed without necessarily
    /// storing rows, advancing the next-id watermark past them. The
    /// durable write path calls this after a *failed* WAL group append:
    /// the failure can still leave a durable prefix of complete records
    /// on disk (e.g. the sync died after a partial write), and replay
    /// will apply that prefix — so no later insert may ever reuse an id
    /// the failed group carried.
    pub fn note_inserted(&mut self, id: u64) {
        self.next_id = self.next_id.max(id + 1);
    }

    /// The position of the row with id `id` — O(1) whether ids are dense
    /// (sequential inserts: position doubles as id) or explicit with gaps
    /// (id map).
    fn position(&self, id: u64) -> Option<usize> {
        match &self.by_id {
            Some(map) => map.get(&id).copied(),
            None => Some(id as usize).filter(|&pos| pos < self.rows.len()),
        }
    }

    /// Row access by id (a query's `ROW <id>`, an answer's name): the
    /// engine reads rows a descent reaches by position.
    pub fn row(&self, id: u64) -> Option<&SeriesRow> {
        self.rows.get(self.position(id)?)
    }

    /// Iterates over rows in insertion order (equal to id order for
    /// sequentially built relations; explicit-id inserts and persisted
    /// files keep whatever order rows were added/stored in).
    pub fn rows(&self) -> impl Iterator<Item = &SeriesRow> {
        self.rows.iter()
    }

    /// The rows as a slice, in insertion order: position `p` holds the row
    /// whose signature is `signatures().row(p)` and whose index slot is
    /// `p`.
    pub fn row_slice(&self) -> &[SeriesRow] {
        &self.rows
    }

    /// The quantized filter-tier signature of the row with id `id`, found
    /// like [`SeriesRelation::row`].
    pub fn signature(&self, id: u64) -> Option<&[f32]> {
        self.sigs.row(self.position(id)?)
    }

    /// The relation's signature array (contiguous, position-parallel to
    /// insertion order).
    pub fn signatures(&self) -> &SignatureArray {
        &self.sigs
    }

    /// Builds an R*-tree over the feature points (bulk-loaded), each
    /// row's slot its position. STR cuts only the coefficient dimensions,
    /// the ones a distance reads.
    pub fn build_index(&self, config: RTreeConfig) -> RTree {
        let items = self.rows.iter().enumerate();
        let items = items.map(|(pos, r)| (Rect::point(&r.features.point), pos as u64));
        let cut = self.scheme.coefficient_dims();
        RTree::bulk_load(self.scheme.space(), config, items.collect(), cut)
    }

    /// Builds the index by repeated insertion, each row's slot its
    /// position (the resharding path, and the ablation comparing
    /// insertion-built and bulk-loaded trees).
    pub fn build_index_incremental(&self, config: RTreeConfig) -> RTree {
        let mut tree = RTree::new(self.scheme.space(), config);
        for (pos, r) in self.rows.iter().enumerate() {
            tree.insert_point(&r.features.point, pos as u64);
        }
        tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simq_series::features::Representation;

    fn test_relation(n_rows: usize) -> SeriesRelation {
        let scheme = FeatureScheme::paper_default();
        let mut rel = SeriesRelation::new("stocks", 64, scheme);
        for i in 0..n_rows {
            let series: Vec<f64> = (0..64)
                .map(|t| 30.0 + (i as f64) + ((t * (i + 2)) as f64 * 0.1).sin() * 5.0)
                .collect();
            rel.insert(format!("S{i}"), series).unwrap();
        }
        rel
    }

    #[test]
    fn insert_and_lookup() {
        let rel = test_relation(10);
        assert_eq!(rel.len(), 10);
        let row = rel.row(3).unwrap();
        assert_eq!(row.name, "S3");
        assert_eq!(row.raw.len(), 64);
        assert_eq!(row.features.point.len(), 6);
    }

    #[test]
    fn wrong_length_rejected() {
        let mut rel = test_relation(1);
        let err = rel.insert("bad", vec![1.0; 32]).unwrap_err();
        assert!(matches!(err, SeriesError::DimensionMismatch { .. }));
    }

    #[test]
    fn constant_series_rejected() {
        let mut rel = test_relation(0);
        assert!(matches!(
            rel.insert("flat", vec![5.0; 64]),
            Err(SeriesError::ZeroVariance)
        ));
    }

    #[test]
    fn explicit_ids_roundtrip_and_collide() {
        let mut rel = test_relation(0);
        let series: Vec<f64> = (0..64).map(|t| (t as f64 * 0.2).sin() + 40.0).collect();
        assert_eq!(rel.insert_with_id(7, "seven", series.clone()).unwrap(), 7);
        assert_eq!(rel.row(7).unwrap().name, "seven");
        assert!(rel.row(0).is_none());
        // Duplicate ids are rejected.
        assert!(matches!(
            rel.insert_with_id(7, "again", series.clone()),
            Err(SeriesError::DuplicateRowId(7))
        ));
        // Sequential insertion continues past the largest explicit id.
        let id = rel.insert("next", series).unwrap();
        assert_eq!(id, 8);
        assert_eq!(rel.row(8).unwrap().name, "next");
    }

    #[test]
    fn index_contains_every_row() {
        let rel = test_relation(50);
        let tree = rel.build_index(RTreeConfig::default());
        assert_eq!(tree.len(), 50);
        let mut slots: Vec<u64> = tree.items().into_iter().map(|(_, slot)| slot).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..50).collect::<Vec<u64>>());
    }

    #[test]
    fn incremental_and_bulk_index_agree_on_queries() {
        let rel = test_relation(80);
        let bulk = rel.build_index(RTreeConfig::default());
        let incr = rel.build_index_incremental(RTreeConfig::default());
        let q = &rel.row(5).unwrap().features.point;
        let rect = rel.scheme().search_rect(q, 2.0);
        let (mut a, _) = bulk.range(&rect);
        let (mut b, _) = incr.range(&rect);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn rect_scheme_relation() {
        let scheme = FeatureScheme::new(3, Representation::Rectangular, false);
        let mut rel = SeriesRelation::new("r", 32, scheme);
        let id = rel
            .insert(
                "x",
                (0..32)
                    .map(|t| (t as f64 * 0.5).cos() * 3.0 + 10.0)
                    .collect(),
            )
            .unwrap();
        assert_eq!(rel.row(id).unwrap().features.point.len(), 6);
    }

    #[test]
    #[should_panic(expected = "cannot provide")]
    fn scheme_too_wide_for_length() {
        let scheme = FeatureScheme::new(64, Representation::Polar, false);
        let _ = SeriesRelation::new("bad", 64, scheme);
    }
}
