//! Binary serialization of the R*-tree.
//!
//! The persistence layer stores every shard's tree in a paged checkpoint
//! (`simq-storage`); reopening one must *not* re-bulk-load the index — the
//! paper's trees are built once over a fixed corpus and then only read. This
//! module encodes the complete tree *structure* — configuration, space
//! semantics, the node arena with every bounding rectangle and entry, and
//! the root handle — so that [`from_bytes`] reproduces an arena-identical
//! tree: same node indices, same entry order, same `f64` bit patterns.
//! Queries against the decoded tree visit exactly the nodes the original
//! would. A leaf entry's `u64` is the caller's slot: in the engine's
//! checkpoints, the position of the item's row in its store (version 2;
//! version 1 held row ids and a free list, and is refused).
//!
//! The encoding is little-endian, versioned and self-contained (no external
//! dependencies). Decoding is defensive: every length is bounds-checked
//! against the remaining input, rectangles must satisfy `lo ≤ hi`, child
//! handles must resolve inside the arena, and the node graph is walked to
//! reject cycles, level mismatches, item-count lies and nodes the root
//! does not reach (the tree is append-only, so it has none) — corrupted input
//! yields a [`SerialError`], never a panic or a tree that would send a
//! traversal into an infinite descent.
//!
//! The [`ByteWriter`]/[`ByteReader`] pair is the workspace's one byte
//! codec: `simq-storage`'s checkpoint, MANIFEST and WAL formats embed tree
//! blobs and relation data with it, and `simq-server` writes and reads
//! its wire payloads with it.

use crate::geom::{DimSemantics, Rect, Space};
use crate::rstar::{Entry, Node, RTree, RTreeConfig};

/// Magic prefix of an encoded tree.
const MAGIC: &[u8; 4] = b"RTSE";
/// Encoding version written by [`to_bytes`].
const VERSION: u32 = 2;

/// Errors from decoding an encoded tree.
#[derive(Debug)]
pub enum SerialError {
    /// The input ended before the structure it promised.
    Truncated {
        /// Byte offset at which more input was required.
        at: usize,
    },
    /// The input is structurally invalid, with a human-readable reason.
    Format(String),
}

impl std::fmt::Display for SerialError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SerialError::Truncated { at } => write!(f, "truncated input at byte {at}"),
            SerialError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for SerialError {}

/// Little-endian byte-stream writer used by the persistence and wire
/// encoders.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        ByteWriter::default()
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes the bytes so far to `out` and empties the writer, which
    /// keeps its buffer for what follows: a stream can be encoded piece
    /// by piece without ever being held whole.
    ///
    /// # Errors
    /// I/O errors from `out`.
    pub fn drain_to(&mut self, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        out.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    /// Current length of the stream.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends raw bytes without a length prefix.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Appends a `u32` length prefix followed by the UTF-8 bytes.
    pub fn put_str(&mut self, v: &str) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Appends a `u32` count followed by the values' `f64` bit patterns.
    pub fn put_series(&mut self, values: &[f64]) {
        self.put_u32(values.len() as u32);
        values.iter().for_each(|v| self.put_f64(*v));
    }
}

/// Little-endian byte-stream reader; every method bounds-checks.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consumes exactly `n` bytes.
    ///
    /// # Errors
    /// [`SerialError::Truncated`] when fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], SerialError> {
        if self.remaining() < n {
            return Err(SerialError::Truncated { at: self.pos });
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`SerialError::Truncated`] at end of input.
    pub fn get_u8(&mut self) -> Result<u8, SerialError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    /// [`SerialError::Truncated`] at end of input.
    pub fn get_u32(&mut self) -> Result<u32, SerialError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    /// [`SerialError::Truncated`] at end of input.
    pub fn get_u64(&mut self) -> Result<u64, SerialError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `f64` bit pattern.
    ///
    /// # Errors
    /// [`SerialError::Truncated`] at end of input.
    pub fn get_f64(&mut self) -> Result<f64, SerialError> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads `n` consecutive `f64` bit patterns in one bounds check (the
    /// hot path of snapshot loading: raw series, points and spectra are
    /// stored as contiguous runs).
    ///
    /// # Errors
    /// [`SerialError::Truncated`] when fewer than `8n` bytes remain.
    pub fn get_f64_vec(&mut self, n: usize) -> Result<Vec<f64>, SerialError> {
        let bytes = self.take(
            n.checked_mul(8)
                .ok_or(SerialError::Truncated { at: self.pos })?,
        )?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    /// [`SerialError::Truncated`] on short input;
    /// [`SerialError::Format`] on invalid UTF-8.
    pub fn get_str(&mut self) -> Result<String, SerialError> {
        let len = self.get_u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SerialError::Format("string is not valid UTF-8".into()))
    }

    /// Reads a series written by [`ByteWriter::put_series`]: its count is
    /// checked against the remaining input before anything is allocated.
    ///
    /// # Errors
    /// [`SerialError::Truncated`] when the input holds fewer values than
    /// the count declares.
    pub fn get_series(&mut self) -> Result<Vec<f64>, SerialError> {
        let n = self.get_u32()? as usize;
        self.check_count(n, 8)?;
        self.get_f64_vec(n)
    }

    /// Validates a declared element count against the space left in the
    /// input, so corrupted counts cannot drive huge allocations.
    ///
    /// # Errors
    /// [`SerialError::Truncated`] when `count * min_elem_bytes` exceeds the
    /// remaining input.
    pub fn check_count(&self, count: usize, min_elem_bytes: usize) -> Result<(), SerialError> {
        if count > self.remaining() / min_elem_bytes.max(1) {
            return Err(SerialError::Truncated { at: self.pos });
        }
        Ok(())
    }
}

/// Encodes a tree into a self-contained byte blob.
pub fn to_bytes(tree: &RTree) -> Vec<u8> {
    let mut w = ByteWriter::new();
    encode(tree, &mut w);
    w.into_bytes()
}

/// Encodes a tree into an existing writer (for embedding in larger
/// formats).
pub fn encode(tree: &RTree, w: &mut ByteWriter) {
    w.put_bytes(MAGIC);
    w.put_u32(VERSION);
    w.put_u64(tree.config.max_entries as u64);
    w.put_f64(tree.config.min_fill);
    w.put_f64(tree.config.reinsert_fraction);
    w.put_u8(u8::from(tree.config.forced_reinsert));
    let dims = tree.space().dims();
    w.put_u32(dims as u32);
    for sem in tree.space().iter() {
        match sem {
            DimSemantics::Linear => w.put_u8(0),
            DimSemantics::Circular { period } => {
                w.put_u8(1);
                w.put_f64(period);
            }
        }
    }
    w.put_u64(tree.root as u64);
    w.put_u64(tree.len as u64);
    w.put_u64(tree.nodes.len() as u64);
    for node in &tree.nodes {
        w.put_u32(node.level);
        w.put_u32(node.entries.len() as u32);
        for entry in &node.entries {
            let (tag, mbr, handle) = match entry {
                Entry::Child { mbr, node } => (0u8, mbr, *node as u64),
                Entry::Item { mbr, slot } => (1u8, mbr, *slot),
            };
            w.put_u8(tag);
            for d in 0..dims {
                w.put_f64(mbr.lo[d]);
            }
            for d in 0..dims {
                w.put_f64(mbr.hi[d]);
            }
            w.put_u64(handle);
        }
    }
}

/// Decodes a tree from a blob produced by [`to_bytes`].
///
/// # Errors
/// [`SerialError`] on truncation or any structural violation.
pub fn from_bytes(bytes: &[u8]) -> Result<RTree, SerialError> {
    let mut r = ByteReader::new(bytes);
    let tree = decode(&mut r)?;
    if r.remaining() != 0 {
        return Err(SerialError::Format(format!(
            "{} trailing bytes after tree",
            r.remaining()
        )));
    }
    Ok(tree)
}

/// Decodes a tree from a reader positioned at an encoded tree (for
/// embedding in larger formats). Leaves the reader at the first byte after
/// the tree.
///
/// # Errors
/// [`SerialError`] on truncation or any structural violation.
pub fn decode(r: &mut ByteReader<'_>) -> Result<RTree, SerialError> {
    if r.take(4)? != MAGIC {
        return Err(SerialError::Format("bad tree magic".into()));
    }
    let version = r.get_u32()?;
    if version != VERSION {
        return Err(SerialError::Format(format!(
            "unsupported tree version {version} (expected {VERSION})"
        )));
    }
    let max_entries = usize_from(r.get_u64()?)?;
    let min_fill = r.get_f64()?;
    let reinsert_fraction = r.get_f64()?;
    let forced_reinsert = r.get_u8()? != 0;
    if max_entries < 2 {
        return Err(SerialError::Format(format!(
            "max_entries {max_entries} below the R*-tree minimum of 2"
        )));
    }
    if !(min_fill > 0.0 && min_fill <= 0.5) {
        return Err(SerialError::Format(format!(
            "min_fill {min_fill} outside (0, 0.5]"
        )));
    }
    if !(reinsert_fraction > 0.0 && reinsert_fraction < 1.0) {
        return Err(SerialError::Format(format!(
            "reinsert_fraction {reinsert_fraction} outside (0, 1)"
        )));
    }
    let config = RTreeConfig {
        max_entries,
        min_fill,
        reinsert_fraction,
        forced_reinsert,
    };

    let dims = r.get_u32()? as usize;
    if dims == 0 {
        return Err(SerialError::Format(
            "tree over a zero-dimensional space".into(),
        ));
    }
    r.check_count(dims, 1)?;
    let mut sems = Vec::with_capacity(dims);
    for d in 0..dims {
        sems.push(match r.get_u8()? {
            0 => DimSemantics::Linear,
            1 => {
                let period = r.get_f64()?;
                if !(period > 0.0 && period.is_finite()) {
                    return Err(SerialError::Format(format!(
                        "dimension {d}: circular period {period} must be positive and finite"
                    )));
                }
                DimSemantics::Circular { period }
            }
            tag => {
                return Err(SerialError::Format(format!(
                    "dimension {d}: unknown semantics tag {tag}"
                )))
            }
        });
    }
    let space = Space::new(sems);

    let root = usize_from(r.get_u64()?)?;
    let len = usize_from(r.get_u64()?)?;
    let node_count = usize_from(r.get_u64()?)?;
    if node_count == 0 {
        return Err(SerialError::Format("tree with no nodes".into()));
    }
    if root >= node_count {
        return Err(SerialError::Format(format!(
            "root handle {root} outside arena of {node_count} nodes"
        )));
    }
    // A node costs at least 8 bytes on the wire; items at least 17.
    r.check_count(node_count, 8)?;
    r.check_count(len, 17)?;
    let mut nodes = Vec::with_capacity(node_count);
    for n in 0..node_count {
        let level = r.get_u32()?;
        let entry_count = r.get_u32()? as usize;
        r.check_count(entry_count, 1 + 16 * dims + 8)?;
        let mut entries = Vec::with_capacity(entry_count);
        for e in 0..entry_count {
            let tag = r.get_u8()?;
            let lo = r.get_f64_vec(dims)?;
            let hi = r.get_f64_vec(dims)?;
            for d in 0..dims {
                // `lo ≤ hi` is the Rect invariant; comparing via
                // `partial_cmp` also rejects NaN corner values.
                let ordered = matches!(
                    lo[d].partial_cmp(&hi[d]),
                    Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
                );
                if !ordered {
                    return Err(SerialError::Format(format!(
                        "node {n} entry {e}: rect corners invalid in dim {d}"
                    )));
                }
            }
            let mbr = Rect { lo, hi };
            let handle = r.get_u64()?;
            entries.push(match tag {
                0 => {
                    let child = usize_from(handle)?;
                    if child >= node_count {
                        return Err(SerialError::Format(format!(
                            "node {n} entry {e}: child handle {child} outside arena"
                        )));
                    }
                    if level == 0 {
                        return Err(SerialError::Format(format!(
                            "node {n}: child entry in a leaf"
                        )));
                    }
                    Entry::Child { mbr, node: child }
                }
                1 => {
                    if level != 0 {
                        return Err(SerialError::Format(format!(
                            "node {n}: item entry in an internal node"
                        )));
                    }
                    Entry::Item { mbr, slot: handle }
                }
                tag => {
                    return Err(SerialError::Format(format!(
                        "node {n} entry {e}: unknown entry tag {tag}"
                    )))
                }
            });
        }
        nodes.push(Node { level, entries });
    }

    validate_graph(&nodes, root, len)?;
    Ok(RTree {
        config,
        space,
        nodes,
        root,
        len,
    })
}

/// Walks the node graph from the root, rejecting cycles, shared subtrees,
/// level mismatches, wrong item counts and arena nodes the root does not
/// reach. Search and kNN recurse through child handles, so this is what
/// keeps a corrupted snapshot from looping a traversal forever.
fn validate_graph(nodes: &[Node], root: usize, len: usize) -> Result<(), SerialError> {
    let mut visited = vec![false; nodes.len()];
    let mut items = 0usize;
    let mut stack = vec![root];
    while let Some(idx) = stack.pop() {
        if visited[idx] {
            return Err(SerialError::Format(format!(
                "node {idx} reachable twice (cycle or shared subtree)"
            )));
        }
        visited[idx] = true;
        let node = &nodes[idx];
        for entry in &node.entries {
            match entry {
                Entry::Child { node: child, .. } => {
                    if nodes[*child].level + 1 != node.level {
                        return Err(SerialError::Format(format!(
                            "node {idx} (level {}) has child {child} at level {}",
                            node.level, nodes[*child].level
                        )));
                    }
                    stack.push(*child);
                }
                Entry::Item { .. } => items += 1,
            }
        }
    }
    if items != len {
        return Err(SerialError::Format(format!(
            "tree claims {len} items but {items} are reachable"
        )));
    }
    if let Some(idx) = visited.iter().position(|v| !v) {
        return Err(SerialError::Format(format!(
            "node {idx} is unreachable from the root"
        )));
    }
    Ok(())
}

/// Converts a stored `u64` into a `usize` handle.
fn usize_from(v: u64) -> Result<usize, SerialError> {
    usize::try_from(v).map_err(|_| SerialError::Format(format!("value {v} overflows usize")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tree(n: usize) -> RTree {
        let mut t = RTree::with_dims(3);
        for i in 0..n as u64 {
            let x = (i % 17) as f64;
            let y = (i % 11) as f64 * 0.5;
            let z = (i % 7) as f64 - 3.0;
            t.insert_point(&[x, y, z], i);
        }
        t
    }

    fn bulk_tree(n: usize) -> RTree {
        let items: Vec<(Rect, u64)> = (0..n as u64)
            .map(|i| (Rect::point(&[(i % 13) as f64, (i / 13) as f64]), i))
            .collect();
        RTree::bulk_load(Space::linear(2), RTreeConfig::default(), items, 0..2)
    }

    #[test]
    fn roundtrip_preserves_arena_exactly() {
        for tree in [
            sample_tree(0),
            sample_tree(5),
            sample_tree(400),
            bulk_tree(500),
        ] {
            let bytes = to_bytes(&tree);
            let back = from_bytes(&bytes).unwrap();
            assert_eq!(back.len(), tree.len());
            assert_eq!(back.root, tree.root);
            assert_eq!(back.space(), tree.space());
            assert_eq!(back.nodes.len(), tree.nodes.len());
            back.check_invariants().unwrap();
            // Re-encoding must be byte-identical: node order, entry order
            // and every f64 bit pattern survived.
            assert_eq!(to_bytes(&back), bytes);
        }
    }

    #[test]
    fn decoded_tree_answers_queries_identically() {
        let tree = bulk_tree(400);
        let back = from_bytes(&to_bytes(&tree)).unwrap();
        let rect = Rect::new(vec![2.0, 3.0], vec![9.0, 14.0]);
        let (mut a, sa) = tree.range(&rect);
        let (mut b, sb) = back.range(&rect);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        // Arena-identical trees visit exactly the same nodes.
        assert_eq!(sa.nodes_visited, sb.nodes_visited);
        assert_eq!(sa.entries_tested, sb.entries_tested);
    }

    #[test]
    fn rejects_bad_magic_and_version() {
        let mut bytes = to_bytes(&sample_tree(10));
        bytes[0] = b'X';
        assert!(matches!(from_bytes(&bytes), Err(SerialError::Format(_))));
        let mut bytes = to_bytes(&sample_tree(10));
        bytes[4] = 99;
        assert!(matches!(from_bytes(&bytes), Err(SerialError::Format(_))));
    }

    #[test]
    fn rejects_truncation_at_every_length() {
        let bytes = to_bytes(&sample_tree(40));
        for cut in 0..bytes.len() {
            assert!(
                from_bytes(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded successfully"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut bytes = to_bytes(&sample_tree(10));
        bytes.push(0);
        assert!(matches!(from_bytes(&bytes), Err(SerialError::Format(_))));
    }

    #[test]
    fn single_flipped_byte_never_panics() {
        let bytes = to_bytes(&sample_tree(60));
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x5a;
            // Either the flip lands somewhere harmless enough to still
            // decode a structurally valid tree, or it errors — no panics.
            let _ = from_bytes(&corrupt);
        }
    }

    #[test]
    fn payload_codec_round_trips() {
        let mut w = ByteWriter::new();
        w.put_u8(7);
        w.put_u32(123_456);
        w.put_u64(u64::MAX);
        w.put_f64(-0.0);
        w.put_str("héllo");
        w.put_series(&[1.5, f64::MIN_POSITIVE, -3.25]);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 123_456);
        assert_eq!(r.get_u64().unwrap(), u64::MAX);
        assert_eq!(r.get_f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.get_str().unwrap(), "héllo");
        assert_eq!(r.get_series().unwrap(), vec![1.5, f64::MIN_POSITIVE, -3.25]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn reader_rejects_overruns() {
        let mut r = ByteReader::new(&[1, 2, 3]);
        assert!(r.get_u64().is_err());
        // A huge series length cannot force a huge allocation.
        let mut w = ByteWriter::new();
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        assert!(r.get_series().is_err());
    }

    /// Hand-built encodings of one-dimensional trees the decoder refuses:
    /// a root that is its own child, and an arena with a node the root
    /// does not reach.
    #[test]
    fn rejects_cycles() {
        // `nodes` as `(level, child handles)`; every entry spans [0, 1].
        let encoding = |nodes: &[(u32, &[u64])]| {
            let mut w = ByteWriter::new();
            w.put_bytes(MAGIC);
            w.put_u32(VERSION);
            w.put_u64(32);
            w.put_f64(0.4);
            w.put_f64(0.3);
            w.put_u8(1);
            w.put_u32(1); // dims
            w.put_u8(0); // linear
            w.put_u64(0); // root
            w.put_u64(0); // len
            w.put_u64(nodes.len() as u64);
            for (level, children) in nodes {
                w.put_u32(*level);
                w.put_u32(children.len() as u32);
                for child in *children {
                    w.put_u8(0); // child entry
                    w.put_f64(0.0);
                    w.put_f64(1.0);
                    w.put_u64(*child);
                }
            }
            w.into_bytes()
        };
        let cycle: &[(u32, &[u64])] = &[(1, &[0])];
        let unreachable: &[(u32, &[u64])] = &[(0, &[]), (0, &[])];
        for (nodes, why) in [(cycle, "child 0 at level 1"), (unreachable, "unreachable")] {
            let err = from_bytes(&encoding(nodes)).unwrap_err();
            assert!(matches!(err, SerialError::Format(_)), "{err}");
            assert!(err.to_string().contains(why), "{err}");
        }
    }
}
