//! The shard checkpoint codec: one relation with its optional R*-tree.
//!
//! Every checkpoint a durable directory ([`crate::durable`]) writes is
//! one image of this codec: the feature scheme, every row with its id,
//! name, raw series, statistics, index point and precomputed normal-form
//! spectrum, plus (when present) the complete R*-tree structure via
//! [`simq_index::serial`]. A sharded relation is one image per shard, so
//! reopening skips feature extraction and index bulk-loading for every
//! relation shape.
//!
//! The image is one logical byte stream (little-endian, exact `f64` bit
//! patterns) — magic, format version 2, an entry count that is always 1,
//! then the relation — wrapped into the checksummed fixed-size pages of
//! [`crate::pages`]. Decoding is defensive end-to-end: any flipped byte is
//! caught by a page checksum, and a structurally inconsistent image
//! (wrong spectrum lengths, duplicate row ids, an index whose space or
//! items disagree with its relation, an entry count other than 1)
//! produces a [`SnapshotError`], never a panic.
//!
//! The v2 text format of [`crate::persist`] remains the human-readable
//! import/export path.

use crate::pages::{self, PageError};
use crate::relation::{SeriesRelation, SeriesRow};
use simq_dsp::complex::Complex;
use simq_index::serial::{self, ByteReader, ByteWriter, SerialError};
use simq_index::RTree;
use simq_series::features::{FeatureScheme, Representation, SeriesFeatures};
use std::collections::HashSet;
use std::fs;
use std::io;
use std::path::Path;

const MAGIC: &[u8; 8] = b"SIMQSNAP";
/// The image format version, the only one the decoder accepts.
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

/// A decoded checkpoint image.
#[derive(Debug, Clone)]
pub struct SnapshotRelation {
    /// The relation, restored bit-for-bit.
    pub relation: SeriesRelation,
    /// Its R*-tree, decoded (not re-bulk-loaded), when one was saved.
    pub index: Option<RTree>,
}

/// Encodes one relation and its optional index into a paged checkpoint
/// image.
pub fn to_bytes(relation: &SeriesRelation, index: Option<&RTree>) -> Vec<u8> {
    let mut w = ByteWriter::new();
    w.put_bytes(MAGIC);
    w.put_u32(VERSION);
    w.put_u32(1);
    encode_relation(relation, &mut w);
    match index {
        Some(tree) => {
            w.put_u8(1);
            let blob = serial::to_bytes(tree);
            w.put_u32(blob.len() as u32);
            w.put_bytes(&blob);
        }
        None => w.put_u8(0),
    }
    pages::to_file_bytes(&w.into_bytes())
}

/// Decodes a paged checkpoint image.
///
/// # Errors
/// [`SnapshotError`] on any checksum or structural violation.
pub fn from_bytes(file: &[u8]) -> Result<SnapshotRelation, SnapshotError> {
    let stream = pages::from_file_bytes(file)?;
    let mut r = ByteReader::new(&stream);
    if r.take(8)? != MAGIC {
        return Err(SnapshotError::Format("bad snapshot magic".into()));
    }
    let version = r.get_u32()?;
    if version != VERSION {
        return Err(SnapshotError::Format(format!(
            "unsupported snapshot version {version} (expected {VERSION})"
        )));
    }
    let count = r.get_u32()?;
    if count != 1 {
        return Err(SnapshotError::Format(format!(
            "image holds {count} relations (expected 1)"
        )));
    }
    let relation = decode_relation(&mut r)?;
    let index = match r.get_u8()? {
        0 => None,
        1 => {
            let blob_len = r.get_u32()? as usize;
            let tree = serial::from_bytes(r.take(blob_len)?)?;
            validate_index(&relation, &tree)?;
            Some(tree)
        }
        tag => return Err(SnapshotError::Format(format!("unknown index flag {tag}"))),
    };
    if r.remaining() != 0 {
        return Err(SnapshotError::Format(format!(
            "{} trailing bytes after the relation",
            r.remaining()
        )));
    }
    Ok(SnapshotRelation { relation, index })
}

/// Loads a checkpoint image from a file.
///
/// # Errors
/// [`SnapshotError`] on I/O failure, checksum mismatch or structural
/// violation.
pub fn load(path: impl AsRef<Path>) -> Result<SnapshotRelation, SnapshotError> {
    from_bytes(&fs::read(path)?)
}

fn encode_relation(relation: &SeriesRelation, w: &mut ByteWriter) {
    let scheme = relation.scheme();
    w.put_str(relation.name());
    w.put_u64(relation.series_len() as u64);
    w.put_u32(scheme.k as u32);
    w.put_u8(match scheme.rep {
        Representation::Rectangular => 0,
        Representation::Polar => 1,
    });
    w.put_u8(u8::from(scheme.include_stats));
    w.put_u64(relation.len() as u64);
    for row in relation.rows() {
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
}

fn decode_relation(r: &mut ByteReader<'_>) -> Result<SeriesRelation, SnapshotError> {
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
    Ok(SeriesRelation::from_validated_parts(
        name, series_len, scheme, rows,
    ))
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
        let back = from_bytes(&to_bytes(&rel, Some(&tree))).unwrap();
        assert_rows_bitwise_equal(&rel, &back.relation);
        // The decoded tree has the identical arena: its re-encoding is
        // byte-identical to the original's.
        let loaded = back.index.as_ref().unwrap();
        assert_eq!(serial::to_bytes(loaded), serial::to_bytes(&tree));
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
        let back = from_bytes(&to_bytes(&rel, None)).unwrap();
        assert_rows_bitwise_equal(&rel, &back.relation);
        assert!(back.index.is_none());
        assert_eq!(back.relation.row(11).unwrap().name, "G11");
    }

    #[test]
    fn index_relation_mismatch_rejected() {
        let rel = sample_relation(10);
        let other = sample_relation(12);
        let tree = other.build_index(RTreeConfig::default());
        // Pair rel with an index of different cardinality.
        let file = to_bytes(&rel, Some(&tree));
        assert!(matches!(from_bytes(&file), Err(SnapshotError::Format(_))));
    }

    #[test]
    fn index_with_duplicate_item_ids_rejected() {
        let rel = sample_relation(2);
        let mut tree = RTree::new(rel.scheme().space(), RTreeConfig::default());
        let p = rel.row(0).unwrap().features.point.clone();
        tree.insert_point(&p, 0);
        tree.insert_point(&p, 0); // id 0 twice, id 1 never
        let err = from_bytes(&to_bytes(&rel, Some(&tree))).unwrap_err();
        let SnapshotError::Format(msg) = err else {
            panic!("expected format error, got {err:?}");
        };
        assert!(msg.contains("appears twice"), "{msg}");
    }

    /// Only a version-2 image of exactly one relation decodes: the
    /// multi-relation catalogs and version-1 files of older releases are
    /// refused, not half-read.
    #[test]
    fn other_versions_and_entry_counts_rejected() {
        let rel = sample_relation(4);
        let stream = pages::from_file_bytes(&to_bytes(&rel, None)).unwrap();
        for (offset, value) in [(8, 1u32), (8, 3), (12, 0), (12, 2)] {
            let mut patched = stream.clone();
            patched[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
            let err = from_bytes(&pages::to_file_bytes(&patched)).unwrap_err();
            assert!(matches!(err, SnapshotError::Format(_)), "{err:?}");
        }
    }

    #[test]
    fn corrupted_byte_is_detected() {
        let rel = sample_relation(20);
        let tree = rel.build_index(RTreeConfig::default());
        let file = to_bytes(&rel, Some(&tree));
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
        let path = dir.join("shard.snap");
        let rel = sample_relation(15);
        let tree = rel.build_index(RTreeConfig::default());
        std::fs::write(&path, to_bytes(&rel, Some(&tree))).unwrap();
        let back = load(&path).unwrap();
        assert_rows_bitwise_equal(&rel, &back.relation);
        std::fs::remove_file(&path).ok();
    }
}
