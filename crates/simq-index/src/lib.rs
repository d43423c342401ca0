//! # simq-index — multidimensional indexing for similarity queries
//!
//! A from-scratch R*-tree (Beckmann et al., SIGMOD 1990 — the index the
//! paper's experiments run on) extended with the paper's contribution: the
//! ability to traverse the index *as if* a safe transformation had been
//! applied to every bounding rectangle (Algorithms 1 and 2), so one
//! physical index serves arbitrarily many transformed views of the data
//! with no extra disk overhead.
//!
//! * [`geom`] — rectangles, dimension semantics (including circular phase
//!   angles), MINDIST/MINMAXDIST.
//! * [`transform`] — spatial transformations ([`DiagonalAffine`] is the
//!   normal form every safe transformation reduces to).
//! * [`rstar`] — the tree structure: ChooseSubtree, forced reinsertion, R*
//!   split, deletion with condense.
//! * [`search`] — range queries, plain and transformed, with node-access
//!   statistics: the single-tree recursion, and the same query over a
//!   forest of trees (one per relation shard).
//! * [`knn`] — best-first nearest neighbours under a caller-supplied
//!   lower bound (MINDIST by default), plain and transformed: one search
//!   over a forest of trees with one `k`-th-best bound for every shard.
//! * [`join`] — the probe-based spatial join (the paper's Table 1
//!   methods).
//! * [`bulk`] — STR bulk loading.
//! * [`cursor`] — incremental range traversal: an explicit-stack
//!   [`RangeStream`] over a forest of trees that yields matching ids one
//!   at a time, so early termination (drop, `LIMIT`) abandons the
//!   remaining descent.
//! * [`serial`] — binary serialization of the full tree structure (node
//!   arena, geometry, free list), so persisted databases reopen without
//!   re-bulk-loading and reproduce the identical tree.

#![warn(missing_docs)]

pub mod bulk;
pub mod cursor;
pub mod geom;
pub mod join;
pub mod knn;
pub mod rstar;
pub mod search;
pub mod serial;
pub mod transform;

pub use cursor::RangeStream;
pub use geom::{circular_overlap, DimSemantics, Rect, Space};
pub use knn::{cmp_distance_id, forest_nearest, ItemStage, KnnQuery, Neighbor};
pub use rstar::{RTree, RTreeConfig};
pub use search::{forest_range, ForestStats, SearchStats};
pub use serial::SerialError;
pub use transform::{DiagonalAffine, IdentityTransform, SpatialTransform};
