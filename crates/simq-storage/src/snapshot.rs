//! Versioned binary snapshots of whole databases.
//!
//! A snapshot holds a catalog of named relations, and per relation
//! everything the in-memory form stores: the feature scheme, every row with
//! its id, name, raw series, statistics, index point and precomputed
//! normal-form spectrum, plus (when present) the complete R*-tree structure
//! via [`simq_index::serial`]. Since format version 2 a catalog entry may
//! also be a **sharded** relation ([`crate::shard::ShardedRelation`]): the
//! rows are stored flattened shard-major together with the shard layout
//! and one serialized R*-tree per shard, so `\save`/`\open` round-trip
//! sharded databases without re-partitioning work, feature extraction or
//! index bulk-loading. Version-1 snapshots (unsharded only) still load.
//!
//! On disk the catalog is one logical byte stream (little-endian, exact
//! `f64` bit patterns) wrapped into the checksummed fixed-size pages of
//! [`crate::pages`]. Decoding is defensive end-to-end: any flipped byte is
//! caught by a page checksum, and a structurally inconsistent catalog
//! (wrong spectrum lengths, duplicate row ids, an index whose space or
//! items disagree with its relation or shard) produces a
//! [`SnapshotError`], never a panic.
//!
//! The v2 text format of [`crate::persist`] remains the human-readable
//! import/export path; snapshots are the cold-start path.

use crate::pages::{self, PageError};
use crate::relation::{SeriesRelation, SeriesRow};
use crate::shard::{ShardLayout, ShardedRelation};
use simq_dsp::complex::Complex;
use simq_index::serial::{self, ByteReader, ByteWriter, SerialError};
use simq_index::RTree;
use simq_series::features::{FeatureScheme, Representation, SeriesFeatures};
use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::Path;

const MAGIC: &[u8; 8] = b"SIMQSNAP";
/// Snapshot catalog version written by the encoders. Version 1 (no
/// sharded entries) is still accepted by the decoder.
const VERSION: u32 = 2;

/// Errors from reading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    /// I/O failure.
    Io(io::Error),
    /// The page layer rejected the file.
    Page(PageError),
    /// The catalog stream is structurally invalid.
    Format(String),
    /// An embedded R*-tree failed to decode.
    Tree(SerialError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "i/o error: {e}"),
            SnapshotError::Page(e) => write!(f, "{e}"),
            SnapshotError::Format(m) => write!(f, "snapshot format error: {m}"),
            SnapshotError::Tree(e) => write!(f, "index decode error: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<PageError> for SnapshotError {
    fn from(e: PageError) -> Self {
        SnapshotError::Page(e)
    }
}

impl From<SerialError> for SnapshotError {
    fn from(e: SerialError) -> Self {
        SnapshotError::Tree(e)
    }
}

/// One unsharded catalog entry of a decoded snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotRelation {
    /// The relation, restored bit-for-bit.
    pub relation: SeriesRelation,
    /// Its R*-tree, decoded (not re-bulk-loaded), when one was saved.
    pub index: Option<RTree>,
}

/// One catalog entry of a decoded snapshot: a plain relation or a sharded
/// one with its per-shard trees.
#[derive(Debug, Clone)]
pub enum SnapshotEntry {
    /// An unsharded relation (the only entry kind of format version 1).
    Single(SnapshotRelation),
    /// A sharded relation with one decoded R*-tree per shard.
    Sharded {
        /// The sharded relation, rows restored bit-for-bit per shard.
        relation: ShardedRelation,
        /// One decoded tree per shard, in shard order.
        indexes: Vec<RTree>,
    },
}

impl SnapshotEntry {
    /// The entry's relation name.
    pub fn name(&self) -> &str {
        match self {
            SnapshotEntry::Single(s) => s.relation.name(),
            SnapshotEntry::Sharded { relation, .. } => relation.name(),
        }
    }

    /// The unsharded entry, if this is one (the common case in tests).
    pub fn single(&self) -> Option<&SnapshotRelation> {
        match self {
            SnapshotEntry::Single(s) => Some(s),
            SnapshotEntry::Sharded { .. } => None,
        }
    }
}

/// One catalog entry to encode: borrowed views over the in-memory forms.
#[derive(Debug, Clone, Copy)]
pub enum SnapshotSource<'a> {
    /// An unsharded relation with its optional index.
    Single(&'a SeriesRelation, Option<&'a RTree>),
    /// A sharded relation with its per-shard trees (one per shard, in
    /// shard order).
    Sharded(&'a ShardedRelation, &'a [RTree]),
}

/// Encodes a catalog of unsharded relations (with optional indexes) into
/// a paged snapshot file image — the convenience wrapper over
/// [`catalog_to_bytes`].
pub fn to_bytes(entries: &[(&SeriesRelation, Option<&RTree>)]) -> Vec<u8> {
    let sources: Vec<SnapshotSource> = entries
        .iter()
        .map(|(rel, idx)| SnapshotSource::Single(rel, *idx))
        .collect();
    catalog_to_bytes(&sources)
}

/// Encodes a full catalog — unsharded and sharded entries — into a paged
/// snapshot file image.
///
/// # Panics
/// Panics if a sharded entry's tree list does not hold exactly one tree
/// per shard — the decoder routes rows and validates trees by shard
/// position, so a mismatched list would only surface as a corrupt
/// snapshot at reopen time.
pub fn catalog_to_bytes(entries: &[SnapshotSource]) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(MAGIC);
    w.put_u32(VERSION);
    w.put_u32(entries.len() as u32);
    for entry in entries {
        match entry {
            SnapshotSource::Single(relation, index) => {
                encode_relation(relation, &mut w);
                match index {
                    Some(tree) => {
                        w.put_u8(1);
                        put_tree(tree, &mut w);
                    }
                    None => w.put_u8(0),
                }
            }
            SnapshotSource::Sharded(relation, indexes) => {
                assert_eq!(
                    indexes.len(),
                    relation.shard_count(),
                    "sharded snapshot entry {:?} needs one tree per shard",
                    relation.name()
                );
                encode_relation_header(
                    relation.name(),
                    relation.series_len(),
                    relation.scheme(),
                    &mut w,
                );
                // Rows flattened shard-major: the layout routes them back
                // to identical shards (same contents, same in-shard order)
                // on decode.
                w.put_u64(relation.len() as u64);
                for row in relation.rows() {
                    encode_row(row, &mut w);
                }
                w.put_u8(2);
                match relation.layout() {
                    ShardLayout::Hash { .. } => w.put_u8(0),
                }
                w.put_u32(relation.shard_count() as u32);
                for tree in *indexes {
                    put_tree(tree, &mut w);
                }
            }
        }
    }
    pages::to_file_bytes(&w.into_bytes())
}

/// Decodes a paged snapshot file image back into its catalog.
///
/// # Errors
/// [`SnapshotError`] on any checksum or structural violation.
pub fn from_bytes(file: &[u8]) -> Result<Vec<SnapshotEntry>, SnapshotError> {
    let stream = pages::from_file_bytes(file)?;
    let mut r = ByteReader::new(&stream);
    if r.take(8)? != MAGIC {
        return Err(SnapshotError::Format("bad snapshot magic".into()));
    }
    let version = r.get_u32()?;
    if version != 1 && version != VERSION {
        return Err(SnapshotError::Format(format!(
            "unsupported snapshot version {version} (expected 1 or {VERSION})"
        )));
    }
    let count = r.get_u32()? as usize;
    r.check_count(count, 1)?;
    let mut out = Vec::with_capacity(count);
    let mut names = HashSet::with_capacity(count);
    for i in 0..count {
        let entry = decode_entry(&mut r, version)
            .map_err(|e| prefix_format(e, &format!("relation {i}")))?;
        if !names.insert(entry.name().to_string()) {
            return Err(SnapshotError::Format(format!(
                "duplicate relation name {:?}",
                entry.name()
            )));
        }
        out.push(entry);
    }
    if r.remaining() != 0 {
        return Err(SnapshotError::Format(format!(
            "{} trailing bytes after catalog",
            r.remaining()
        )));
    }
    Ok(out)
}

/// Saves a catalog of unsharded relations to a snapshot file (the
/// convenience wrapper over [`save_catalog`]).
///
/// # Errors
/// I/O errors from the filesystem.
pub fn save(
    path: impl AsRef<Path>,
    entries: &[(&SeriesRelation, Option<&RTree>)],
) -> Result<(), SnapshotError> {
    pages::write_atomic(path.as_ref(), &to_bytes(entries))?;
    Ok(())
}

/// Saves a full catalog — unsharded and sharded entries — to a snapshot
/// file. The write is atomic (temp file + rename), so an existing
/// snapshot at `path` survives a crash or full disk mid-write intact.
///
/// # Errors
/// I/O errors from the filesystem.
pub fn save_catalog(
    path: impl AsRef<Path>,
    entries: &[SnapshotSource],
) -> Result<(), SnapshotError> {
    pages::write_atomic(path.as_ref(), &catalog_to_bytes(entries))?;
    Ok(())
}

/// Loads a catalog from a snapshot file.
///
/// # Errors
/// [`SnapshotError`] on I/O failure, checksum mismatch or structural
/// violation.
pub fn load(path: impl AsRef<Path>) -> Result<Vec<SnapshotEntry>, SnapshotError> {
    from_bytes(&fs::read(path)?)
}

fn put_tree(tree: &RTree, w: &mut ByteWriter) {
    let blob = serial::to_bytes(tree);
    w.put_u32(blob.len() as u32);
    w.put_bytes(&blob);
}

fn take_tree(r: &mut ByteReader<'_>) -> Result<RTree, SnapshotError> {
    let blob_len = r.get_u32()? as usize;
    let blob = r.take(blob_len)?;
    Ok(serial::from_bytes(blob)?)
}

fn encode_relation_header(
    name: &str,
    series_len: usize,
    scheme: &FeatureScheme,
    w: &mut ByteWriter,
) {
    w.put_str(name);
    w.put_u64(series_len as u64);
    w.put_u32(scheme.k as u32);
    w.put_u8(match scheme.rep {
        Representation::Rectangular => 0,
        Representation::Polar => 1,
    });
    w.put_u8(u8::from(scheme.include_stats));
}

fn encode_row(row: &SeriesRow, w: &mut ByteWriter) {
    w.put_u64(row.id);
    w.put_str(&row.name);
    for v in &row.raw {
        w.put_f64(*v);
    }
    w.put_f64(row.features.mean);
    w.put_f64(row.features.std_dev);
    w.put_u32(row.features.point.len() as u32);
    for v in &row.features.point {
        w.put_f64(*v);
    }
    w.put_u32(row.features.spectrum.len() as u32);
    for c in &row.features.spectrum {
        w.put_f64(c.re);
        w.put_f64(c.im);
    }
}

fn encode_relation(relation: &SeriesRelation, w: &mut ByteWriter) {
    encode_relation_header(relation.name(), relation.series_len(), relation.scheme(), w);
    w.put_u64(relation.len() as u64);
    for row in relation.rows() {
        encode_row(row, w);
    }
}

/// The decoded relation payload shared by unsharded and sharded entries.
struct RelationParts {
    name: String,
    series_len: usize,
    scheme: FeatureScheme,
    rows: Vec<SeriesRow>,
}

fn decode_relation_parts(r: &mut ByteReader<'_>) -> Result<RelationParts, SnapshotError> {
    let name = r.get_str()?;
    let series_len = usize_from(r.get_u64()?)?;
    let k = r.get_u32()? as usize;
    let rep = match r.get_u8()? {
        0 => Representation::Rectangular,
        1 => Representation::Polar,
        tag => {
            return Err(SnapshotError::Format(format!(
                "unknown representation tag {tag}"
            )))
        }
    };
    let include_stats = r.get_u8()? != 0;
    if k == 0 {
        return Err(SnapshotError::Format("scheme with k = 0".into()));
    }
    if series_len <= k {
        return Err(SnapshotError::Format(format!(
            "series length {series_len} cannot provide {k} coefficients"
        )));
    }
    let scheme = FeatureScheme::new(k, rep, include_stats);
    let dims = scheme.dims();

    let row_count = usize_from(r.get_u64()?)?;
    // Each row costs at least id + name length + raw + stats on the wire.
    r.check_count(row_count, 8 + 4 + 8 * series_len.min(1) + 16)?;
    // Bounds the per-row `series_len` allocation; an empty relation reads
    // no series (and may be followed by fewer bytes than one would take).
    if row_count > 0 {
        r.check_count(series_len, 8)?;
    }
    let mut rows = Vec::with_capacity(row_count);
    let mut ids = HashSet::with_capacity(row_count);
    for i in 0..row_count {
        let id = r.get_u64()?;
        if !ids.insert(id) {
            return Err(SnapshotError::Format(format!(
                "row {i}: duplicate row id {id}"
            )));
        }
        let row_name = r.get_str()?;
        let raw = r.get_f64_vec(series_len)?;
        let mean = r.get_f64()?;
        let std_dev = r.get_f64()?;
        let point_len = r.get_u32()? as usize;
        if point_len != dims {
            return Err(SnapshotError::Format(format!(
                "row {i}: index point has {point_len} dimensions, scheme needs {dims}"
            )));
        }
        let point = r.get_f64_vec(point_len)?;
        let spectrum_len = r.get_u32()? as usize;
        // The executors zip spectra against length-(n−1) multiplier
        // vectors; a wrong length would index out of bounds at query time.
        if spectrum_len != series_len {
            return Err(SnapshotError::Format(format!(
                "row {i}: spectrum has {spectrum_len} coefficients, series length is {series_len}"
            )));
        }
        let pairs = r.get_f64_vec(spectrum_len * 2)?;
        let spectrum: Vec<Complex> = pairs
            .chunks_exact(2)
            .map(|c| Complex::new(c[0], c[1]))
            .collect();
        rows.push(SeriesRow {
            id,
            name: row_name,
            raw,
            features: SeriesFeatures {
                point,
                mean,
                std_dev,
                spectrum,
            },
        });
    }
    Ok(RelationParts {
        name,
        series_len,
        scheme,
        rows,
    })
}

fn decode_entry(r: &mut ByteReader<'_>, version: u32) -> Result<SnapshotEntry, SnapshotError> {
    let parts = decode_relation_parts(r)?;
    let tag = r.get_u8()?;
    match tag {
        0 | 1 => {
            let relation = SeriesRelation::from_validated_parts(
                parts.name,
                parts.series_len,
                parts.scheme,
                parts.rows,
            );
            let index = if tag == 1 {
                let tree = take_tree(r)?;
                validate_index(&relation, &tree)?;
                Some(tree)
            } else {
                None
            };
            Ok(SnapshotEntry::Single(SnapshotRelation { relation, index }))
        }
        2 if version >= 2 => {
            let layout_tag = r.get_u8()?;
            if layout_tag != 0 {
                return Err(SnapshotError::Format(format!(
                    "unknown shard layout tag {layout_tag}"
                )));
            }
            let shard_count = r.get_u32()? as usize;
            if shard_count == 0 {
                return Err(SnapshotError::Format("sharded entry with 0 shards".into()));
            }
            r.check_count(shard_count, 4)?;
            let relation = ShardedRelation::from_parts(
                parts.name,
                parts.series_len,
                parts.scheme,
                ShardLayout::Hash {
                    shards: shard_count,
                },
                parts.rows,
            );
            let mut indexes = Vec::with_capacity(shard_count);
            for shard in 0..shard_count {
                let tree = take_tree(r)?;
                validate_index(relation.shard(shard), &tree)
                    .map_err(|e| prefix_format(e, &format!("shard {shard}")))?;
                indexes.push(tree);
            }
            Ok(SnapshotEntry::Sharded { relation, indexes })
        }
        tag => Err(SnapshotError::Format(format!("unknown index flag {tag}"))),
    }
}

/// Rejects an index that disagrees with its relation: wrong space, wrong
/// cardinality, or items that are not in bijection with the rows (query
/// execution trusts index ids unconditionally, and a duplicated id would
/// silently shadow a missing one).
fn validate_index(relation: &SeriesRelation, tree: &RTree) -> Result<(), SnapshotError> {
    let space = relation.scheme().space();
    if tree.space() != &space {
        return Err(SnapshotError::Format(format!(
            "index space disagrees with relation {:?}",
            relation.name()
        )));
    }
    if tree.len() != relation.len() {
        return Err(SnapshotError::Format(format!(
            "index holds {} items, relation {:?} has {} rows",
            tree.len(),
            relation.name(),
            relation.len()
        )));
    }
    let mut seen = HashSet::with_capacity(tree.len());
    for (_, id) in tree.items() {
        if relation.row(id).is_none() {
            return Err(SnapshotError::Format(format!(
                "index item id {id} has no row in relation {:?}",
                relation.name()
            )));
        }
        if !seen.insert(id) {
            return Err(SnapshotError::Format(format!(
                "index item id {id} appears twice in relation {:?}",
                relation.name()
            )));
        }
    }
    Ok(())
}

fn prefix_format(e: SnapshotError, ctx: &str) -> SnapshotError {
    match e {
        SnapshotError::Format(m) => SnapshotError::Format(format!("{ctx}: {m}")),
        other => other,
    }
}

fn usize_from(v: u64) -> Result<usize, SnapshotError> {
    usize::try_from(v).map_err(|_| SnapshotError::Format(format!("value {v} overflows usize")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use simq_index::RTreeConfig;

    fn sample_relation(rows: usize) -> SeriesRelation {
        let mut rel = SeriesRelation::new("snaps", 32, FeatureScheme::paper_default());
        for i in 0..rows {
            let series: Vec<f64> = (0..32)
                .map(|t| 20.0 + i as f64 * 0.4 + ((t + 2 * i) as f64 * 0.31).sin() * 3.0)
                .collect();
            rel.insert(format!("R{i:03}"), series).unwrap();
        }
        rel
    }

    fn assert_rows_bitwise_equal(a: &SeriesRelation, b: &SeriesRelation) {
        assert_eq!(a.name(), b.name());
        assert_eq!(a.series_len(), b.series_len());
        assert_eq!(a.scheme(), b.scheme());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.rows().zip(b.rows()) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.name, y.name);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x.raw), bits(&y.raw));
            assert_eq!(x.features.mean.to_bits(), y.features.mean.to_bits());
            assert_eq!(x.features.std_dev.to_bits(), y.features.std_dev.to_bits());
            assert_eq!(bits(&x.features.point), bits(&y.features.point));
            assert_eq!(x.features.spectrum.len(), y.features.spectrum.len());
            for (c, d) in x.features.spectrum.iter().zip(&y.features.spectrum) {
                assert_eq!(c.re.to_bits(), d.re.to_bits());
                assert_eq!(c.im.to_bits(), d.im.to_bits());
            }
        }
    }

    #[test]
    fn roundtrip_relation_and_index() {
        let rel = sample_relation(40);
        let tree = rel.build_index(RTreeConfig::default());
        let file = to_bytes(&[(&rel, Some(&tree))]);
        let back = from_bytes(&file).unwrap();
        assert_eq!(back.len(), 1);
        let single = back[0].single().expect("unsharded entry");
        assert_rows_bitwise_equal(&rel, &single.relation);
        // The decoded tree has the identical arena: its re-encoding is
        // byte-identical to the original's.
        let loaded = single.index.as_ref().unwrap();
        assert_eq!(serial::to_bytes(loaded), serial::to_bytes(&tree));
    }

    #[test]
    fn roundtrip_sharded_entry() {
        let rel = sample_relation(30);
        let sharded = ShardedRelation::from_single(rel, 3);
        let trees = sharded.build_indexes(RTreeConfig::default());
        let file = catalog_to_bytes(&[SnapshotSource::Sharded(&sharded, &trees)]);
        let back = from_bytes(&file).unwrap();
        assert_eq!(back.len(), 1);
        let SnapshotEntry::Sharded { relation, indexes } = &back[0] else {
            panic!("expected a sharded entry");
        };
        assert_eq!(relation.shard_count(), 3);
        assert_eq!(relation.len(), 30);
        for (a, b) in sharded.shards().iter().zip(relation.shards()) {
            assert_rows_bitwise_equal(a, b);
        }
        // Per-shard trees decode arena-identical.
        for (a, b) in trees.iter().zip(indexes) {
            assert_eq!(serial::to_bytes(a), serial::to_bytes(b));
        }
    }

    #[test]
    fn sharded_entry_with_wrong_shard_tree_rejected() {
        let rel = sample_relation(24);
        let sharded = ShardedRelation::from_single(rel, 2);
        let mut trees = sharded.build_indexes(RTreeConfig::default());
        trees.swap(0, 1); // each tree now disagrees with its shard
        let file = catalog_to_bytes(&[SnapshotSource::Sharded(&sharded, &trees)]);
        assert!(matches!(from_bytes(&file), Err(SnapshotError::Format(_))));
    }

    #[test]
    fn roundtrip_multiple_relations_mixed_indexing() {
        let a = sample_relation(10);
        let mut b = SeriesRelation::new(
            "other",
            16,
            FeatureScheme::new(3, Representation::Rectangular, false),
        );
        for i in 0..7 {
            let series: Vec<f64> = (0..16)
                .map(|t| (t as f64 * (0.2 + i as f64 * 0.05)).cos() * 2.0 + 5.0)
                .collect();
            b.insert(format!("B{i}"), series).unwrap();
        }
        let tree = a.build_index(RTreeConfig::default());
        let file = to_bytes(&[(&a, Some(&tree)), (&b, None)]);
        let back = from_bytes(&file).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back[0].single().unwrap().index.is_some());
        assert!(back[1].single().unwrap().index.is_none());
        assert_rows_bitwise_equal(&b, &back[1].single().unwrap().relation);
    }

    #[test]
    fn empty_catalog_roundtrips() {
        let back = from_bytes(&to_bytes(&[])).unwrap();
        assert!(back.is_empty());
    }

    #[test]
    fn explicit_gappy_ids_survive() {
        let mut rel = SeriesRelation::new("gaps", 32, FeatureScheme::paper_default());
        for id in [3u64, 11, 4] {
            let series: Vec<f64> = (0..32)
                .map(|t| (t as f64 * 0.3 + id as f64).sin() * 2.0 + 10.0)
                .collect();
            rel.insert_with_id(id, format!("G{id}"), series).unwrap();
        }
        let back = from_bytes(&to_bytes(&[(&rel, None)])).unwrap();
        assert_rows_bitwise_equal(&rel, &back[0].single().unwrap().relation);
        assert_eq!(
            back[0].single().unwrap().relation.row(11).unwrap().name,
            "G11"
        );
    }

    #[test]
    fn index_relation_mismatch_rejected() {
        let rel = sample_relation(10);
        let other = sample_relation(12);
        let tree = other.build_index(RTreeConfig::default());
        // Pair rel with an index of different cardinality.
        let file = to_bytes(&[(&rel, Some(&tree))]);
        assert!(matches!(from_bytes(&file), Err(SnapshotError::Format(_))));
    }

    #[test]
    fn index_with_duplicate_item_ids_rejected() {
        let rel = sample_relation(2);
        let mut tree = RTree::new(rel.scheme().space(), RTreeConfig::default());
        let p = rel.row(0).unwrap().features.point.clone();
        tree.insert_point(&p, 0);
        tree.insert_point(&p, 0); // id 0 twice, id 1 never
        let file = to_bytes(&[(&rel, Some(&tree))]);
        let err = from_bytes(&file).unwrap_err();
        let SnapshotError::Format(msg) = err else {
            panic!("expected format error, got {err:?}");
        };
        assert!(msg.contains("appears twice"), "{msg}");
    }

    #[test]
    fn save_is_atomic_over_existing_snapshot() {
        let dir = std::env::temp_dir().join("simq-snapshot-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.simq");
        let rel = sample_relation(5);
        save(&path, &[(&rel, None)]).unwrap();
        // Overwrite with a different catalog; no temp file may remain.
        let rel2 = sample_relation(9);
        save(&path, &[(&rel2, None)]).unwrap();
        assert_eq!(load(&path).unwrap()[0].single().unwrap().relation.len(), 9);
        assert!(!dir.join("db.simq.tmp").exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupted_byte_is_detected() {
        let rel = sample_relation(20);
        let tree = rel.build_index(RTreeConfig::default());
        let file = to_bytes(&[(&rel, Some(&tree))]);
        for pos in (0..file.len()).step_by(97) {
            let mut corrupt = file.clone();
            corrupt[pos] ^= 0x40;
            assert!(
                from_bytes(&corrupt).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("simq-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("db.simq");
        let rel = sample_relation(15);
        let tree = rel.build_index(RTreeConfig::default());
        save(&path, &[(&rel, Some(&tree))]).unwrap();
        let back = load(&path).unwrap();
        assert_rows_bitwise_equal(&rel, &back[0].single().unwrap().relation);
        std::fs::remove_file(&path).ok();
    }
}
