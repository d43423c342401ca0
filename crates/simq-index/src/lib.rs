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
//!   angles), MINDIST.
//! * [`transform`] — the one spatial transformation type,
//!   [`DiagonalAffine`]: Theorems 1–3 reduce every safe transformation to
//!   a per-dimension affine map, so the traversal needs no other.
//! * [`rstar`] — the tree structure: ChooseSubtree, forced reinsertion, R*
//!   split. It is append-only: the engine never deletes a row.
//! * [`descent`] — the one traversal type of both access paths: a
//!   pull-based [`Descent`] over a forest of trees (one per relation shard)
//!   or over a flat source (each store's rows in scan order, the
//!   sequential scan) that a [`Stage`] steers — an entry test or key, a row
//!   bound, a refine step, the name of a row it yields. Either source
//!   hands rows by place ([`RowRef`]: a tree's leaf holds its row's
//!   position in its store). It has one loop per bound over shared roots,
//!   keys and counters: a fixed bound (range, depth first) and the live
//!   `k`-th best (kNN, best first). Drained it answers a query; paused
//!   between pulls it is a cursor, and dropping it abandons the remaining
//!   descent.
//! * [`search`] — range queries, plain and transformed, with node-access
//!   statistics: the search-rectangle [`Window`] stage and its single-tree
//!   callers.
//! * [`knn`] — nearest neighbours under a caller-supplied lower bound
//!   (MINDIST by default), plain and transformed: the engine's
//!   `(distance, id)` order, the live `k`-th best, and the single-tree
//!   callers.
//! * [`join`] — the probe-based spatial join (the paper's Table 1
//!   methods).
//! * [`bulk`] — STR bulk loading.
//! * [`serial`] — binary serialization of the full tree structure (node
//!   arena, geometry), so persisted databases reopen without
//!   re-bulk-loading and reproduce the identical tree.

#![warn(missing_docs)]

pub mod bulk;
pub mod descent;
pub mod geom;
pub mod join;
pub mod knn;
pub mod rstar;
pub mod search;
pub mod serial;
pub mod transform;

pub use descent::{Descent, RowRef, Stage};
pub use geom::{circular_overlap, DimSemantics, Rect, Space};
pub use knn::{cmp_distance_id, Neighbor};
pub use rstar::{RTree, RTreeConfig};
pub use search::{ForestStats, SearchStats, Window};
pub use serial::SerialError;
pub use transform::DiagonalAffine;
