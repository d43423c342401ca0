//! Range search, with and without an on-the-fly transformation
//! (Algorithm 2 of the paper), and the work counters of every search.
//!
//! The transformed search visits exactly the nodes whose *transformed* MBR
//! overlaps the search rectangle, i.e. it traverses the virtual index `I'`
//! of Algorithm 1 without materializing it. Access statistics are returned
//! with every search so the paper's claim — "the number of disk accesses is
//! the same in both cases" for the identity transformation — is directly
//! checkable.
//!
//! [`RTree::range`] / [`RTree::range_transformed`] drain the one
//! [`Descent`] over a forest of one, under the [`Window`] stage.

use crate::descent::{Descent, RowRef, Stage};
use crate::geom::{Rect, Space};
use crate::rstar::RTree;
use crate::transform::DiagonalAffine;
use std::borrow::Cow;

/// Counters describing the work one search performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes read (internal + leaf) — the proxy for disk accesses.
    pub nodes_visited: u64,
    /// Leaf nodes among them.
    pub leaves_visited: u64,
    /// Entries tested against the stage's entry test or key.
    pub entries_tested: u64,
    /// Rows a flat source's leaves held: the rows a sequential scan read.
    pub rows_scanned: u64,
    /// Rows the descent handed to its stage's
    /// [`refine`](crate::descent::Stage::refine).
    pub candidates: u64,
    /// Candidates `refine` dismissed by a cheaper test ahead of its exact
    /// distance (the query layer's quantized signature tier).
    pub filtered_out: u64,
    /// Exact-distance work `refine` reports, in its own unit (the query
    /// layer counts complex coefficients compared).
    pub refine_work: u64,
}

impl SearchStats {
    /// Component-wise accumulation.
    pub fn add(&mut self, other: &SearchStats) {
        self.nodes_visited += other.nodes_visited;
        self.leaves_visited += other.leaves_visited;
        self.entries_tested += other.entries_tested;
        self.rows_scanned += other.rows_scanned;
        self.candidates += other.candidates;
        self.filtered_out += other.filtered_out;
        self.refine_work += other.refine_work;
    }

    /// Counts one node read at tree level `level` (0 = leaf).
    #[inline]
    pub(crate) fn count_node(&mut self, level: u32) {
        self.nodes_visited += 1;
        if level == 0 {
            self.leaves_visited += 1;
        }
    }
}

/// Work counters of one traversal of a forest of trees or of a flat
/// source's stores: one entry per tree or store and their sum.
#[derive(Debug, Clone, Default)]
pub struct ForestStats {
    /// Totals — comparable with a single-tree search.
    pub merged: SearchStats,
    /// One entry per tree or store, in forest order.
    pub per_shard: Vec<SearchStats>,
}

impl ForestStats {
    /// Sums each tree's counters.
    pub(crate) fn from_shards(per_shard: Vec<SearchStats>) -> Self {
        let mut merged = SearchStats::default();
        per_shard.iter().for_each(|s| merged.add(s));
        ForestStats { merged, per_shard }
    }
}

/// The search-rectangle test of Algorithm 2 as a descent [`Stage`]: an
/// entry is kept when its (transformed) rectangle overlaps the window
/// under the tree's dimension semantics, and every row kept is an answer,
/// named by its slot.
pub struct Window<'a>(pub &'a Rect);

impl Stage for Window<'_> {
    #[inline]
    fn key(&self, space: &Space, rect: &Rect) -> Option<f64> {
        space.intersects(rect, self.0).then_some(0.0)
    }

    fn id(&self, row: RowRef) -> u64 {
        row.pos as u64
    }
}

impl RTree {
    /// The slots of all items whose rectangle overlaps `query` (under the tree's
    /// dimension semantics — circular dimensions overlap modulo the
    /// period).
    pub fn range(&self, query: &Rect) -> (Vec<u64>, SearchStats) {
        self.range_by(None, query)
    }

    /// Algorithm 2: the slots of all items whose *transformed* rectangle overlaps
    /// `query`. The transformation is applied to every node MBR and leaf
    /// entry during the traversal; the tree itself is untouched.
    pub fn range_transformed(
        &self,
        transform: &DiagonalAffine,
        query: &Rect,
    ) -> (Vec<u64>, SearchStats) {
        self.range_by(Some(transform), query)
    }

    /// The range [`Descent`] over this tree alone, drained.
    ///
    /// # Panics
    /// If the query or transformation dimensionality does not match the
    /// tree's.
    fn range_by(
        &self,
        transform: Option<&DiagonalAffine>,
        query: &Rect,
    ) -> (Vec<u64>, SearchStats) {
        assert_eq!(query.dims(), self.dims(), "query dimensionality mismatch");
        let (trees, transform) = (std::slice::from_ref(self), transform.map(Cow::Borrowed));
        let mut descent = Descent::within(trees, transform, Window(query));
        let ids = descent.by_ref().map(|hit| hit.id).collect();
        (ids, descent.into_stats().merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::DimSemantics;
    use crate::rstar::RTreeConfig;
    use crate::transform::DiagonalAffine;
    use std::f64::consts::PI;

    fn grid_tree(n: usize) -> RTree {
        let mut t = RTree::with_dims(2);
        let mut id = 0u64;
        for i in 0..n {
            for j in 0..n {
                t.insert_point(&[i as f64, j as f64], id);
                id += 1;
            }
        }
        t
    }

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    /// Brute-force reference for linear range queries on the grid.
    fn brute_range(n: usize, query: &Rect) -> Vec<u64> {
        let mut out = Vec::new();
        for i in 0..n {
            for j in 0..n {
                let p = [i as f64, j as f64];
                if query.contains_linear(&p) {
                    out.push((i * n + j) as u64);
                }
            }
        }
        out
    }

    #[test]
    fn range_matches_brute_force() {
        let n = 25;
        let t = grid_tree(n);
        for query in [
            Rect::new(vec![2.5, 3.5], vec![7.5, 9.0]),
            Rect::new(vec![-5.0, -5.0], vec![100.0, 100.0]),
            Rect::new(vec![10.0, 10.0], vec![10.0, 10.0]),
            Rect::new(vec![50.0, 50.0], vec![60.0, 60.0]),
        ] {
            let (got, _) = t.range(&query);
            assert_eq!(sorted(got), brute_range(n, &query));
        }
    }

    #[test]
    fn identity_transform_visits_same_nodes() {
        // The paper's Figures 8–9 claim: transformed and untransformed
        // traversal with T_i touch the same pages.
        let t = grid_tree(30);
        let query = Rect::new(vec![5.0, 5.0], vec![15.0, 12.0]);
        let (plain, s1) = t.range(&query);
        let identity = DiagonalAffine::new(vec![1.0; 2], vec![0.0; 2]);
        let (transformed, s2) = t.range_transformed(&identity, &query);
        assert_eq!(sorted(plain), sorted(transformed));
        assert_eq!(s1.nodes_visited, s2.nodes_visited);
        assert_eq!(s1.leaves_visited, s2.leaves_visited);
    }

    #[test]
    fn transformed_range_equals_range_on_transformed_data() {
        // Searching T(D) via the transformed traversal must equal building
        // a tree on T(D) and searching it directly (Algorithm 1's index).
        let n = 20;
        let t = grid_tree(n);
        let affine = DiagonalAffine::new(vec![2.0, -1.0], vec![10.0, 3.0]);
        let query = Rect::new(vec![15.0, -10.0], vec![30.0, 0.0]);
        let (via_traversal, _) = t.range_transformed(&affine, &query);

        let mut transformed_tree = RTree::with_dims(2);
        for i in 0..n {
            for j in 0..n {
                let p = affine.apply_point(&[i as f64, j as f64]);
                transformed_tree.insert_point(&p, (i * n + j) as u64);
            }
        }
        let (via_materialized, _) = transformed_tree.range(&query);
        assert_eq!(sorted(via_traversal), sorted(via_materialized));
    }

    #[test]
    fn circular_dimension_wraps_in_range_query() {
        // One linear dim + one angle dim. Data angles in (−π, π].
        let space = Space::new(vec![
            DimSemantics::Linear,
            DimSemantics::Circular { period: 2.0 * PI },
        ]);
        let mut t = RTree::new(space, RTreeConfig::default());
        // Points near +π and near −π are circularly close.
        t.insert_point(&[0.0, PI - 0.05], 1);
        t.insert_point(&[0.0, -PI + 0.05], 2);
        t.insert_point(&[0.0, 0.0], 3);
        // Query rectangle centered at angle π with halfwidth 0.2 —
        // expressed as an interval crossing the wrap point.
        let query = Rect::new(vec![-1.0, PI - 0.2], vec![1.0, PI + 0.2]);
        let (got, _) = t.range(&query);
        assert_eq!(sorted(got), vec![1, 2]);
    }

    #[test]
    fn rotation_past_pi_is_not_lost() {
        // A transformed MBR whose angle leaves (−π, π] must still match a
        // canonical query — the Lemma 1 regression the circular semantics
        // exist for.
        let space = Space::new(vec![DimSemantics::Circular { period: 2.0 * PI }]);
        let mut t = RTree::new(space, RTreeConfig::default());
        t.insert_point(&[PI - 0.1], 1); // near +π
                                        // Rotate by +0.4: the point moves to π + 0.3 ≡ −π + 0.3.
        let rot = DiagonalAffine::new(vec![1.0], vec![0.4]);
        // Canonical query around −π + 0.3.
        let query = Rect::new(vec![-PI + 0.2], vec![-PI + 0.4]);
        let (got, _) = t.range_transformed(&rot, &query);
        assert_eq!(got, vec![1]);
    }

    #[test]
    fn stats_monotone_in_selectivity() {
        let t = grid_tree(30);
        let (_, small) = t.range(&Rect::new(vec![0.0, 0.0], vec![2.0, 2.0]));
        let (_, large) = t.range(&Rect::new(vec![0.0, 0.0], vec![29.0, 29.0]));
        assert!(small.nodes_visited <= large.nodes_visited);
        assert!(small.entries_tested < large.entries_tested);
    }

    #[test]
    fn empty_tree_range() {
        let t = RTree::with_dims(2);
        let (got, stats) = t.range(&Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]));
        assert!(got.is_empty());
        assert_eq!(stats.nodes_visited, 1);
    }

    #[test]
    fn range_over_empty_trees_reads_each_root() {
        // A sharded relation's empty shards still cost one node read each.
        let empty: Vec<RTree> = (0..3).map(|_| RTree::with_dims(2)).collect();
        let query = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let mut descent = Descent::within(&empty, None, Window(&query));
        assert_eq!(descent.next(), None);
        let stats = descent.stats();
        assert_eq!(stats.merged.nodes_visited, 3);
        assert!(stats.per_shard.iter().all(|s| s.nodes_visited == 1));
        let mut descent = Descent::within(&[], None, Window(&query));
        assert_eq!(descent.next(), None);
        assert_eq!(descent.stats().merged, SearchStats::default());
    }
}
