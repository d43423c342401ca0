//! Range search, with and without an on-the-fly transformation
//! (Algorithm 2 of the paper).
//!
//! The transformed search visits exactly the nodes whose *transformed* MBR
//! overlaps the search rectangle, i.e. it traverses the virtual index `I'`
//! of Algorithm 1 without materializing it. Access statistics are returned
//! with every search so the paper's claim — "the number of disk accesses is
//! the same in both cases" for the identity transformation — is directly
//! checkable.
//!
//! [`RTree::range`] / [`RTree::range_transformed`] are the single-tree
//! recursion. [`forest_range`] is the same query over a forest of trees
//! (one per relation shard; a single tree is a forest of one), descended
//! tree after tree on the calling thread: every tree is traversed with the
//! same transformation and search rectangle, and because shards partition
//! the item space the union of the per-tree answers is exactly the answer
//! of the equivalent single tree.

use crate::geom::Rect;
use crate::rstar::{Entry, RTree};
use crate::transform::SpatialTransform;

/// Counters describing the work one search performed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Nodes read (internal + leaf) — the proxy for disk accesses.
    pub nodes_visited: u64,
    /// Leaf nodes among them.
    pub leaves_visited: u64,
    /// Entries tested against the query rectangle.
    pub entries_tested: u64,
    /// Leaf items a multi-step kNN search handed to
    /// [`crate::knn::ItemStage::refine`]; 0 for every other search.
    pub candidates: u64,
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
        self.candidates += other.candidates;
        self.refine_work += other.refine_work;
    }

    /// Counts one node read at tree level `level` (0 = leaf).
    pub(crate) fn count_node(&mut self, level: u32) {
        self.nodes_visited += 1;
        if level == 0 {
            self.leaves_visited += 1;
        }
    }
}

/// Work counters of one traversal of a forest of trees: one entry per
/// tree and their sum.
#[derive(Debug, Clone, Default)]
pub struct ForestStats {
    /// Totals — comparable with a single-tree search.
    pub merged: SearchStats,
    /// One entry per tree, in forest order.
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

/// Range query over a forest of trees: all item ids whose (optionally
/// transformed) rectangle overlaps `query`, in forest-major depth-first
/// order, with the work counters of the run.
///
/// # Panics
/// If the query or transformation dimensionality does not match a tree's.
pub fn forest_range(
    trees: &[RTree],
    transform: Option<&dyn SpatialTransform>,
    query: &Rect,
) -> (Vec<u64>, ForestStats) {
    for tree in trees {
        tree.check_range_dims(transform, query);
    }
    let mut out = Vec::new();
    let mut per_shard = vec![SearchStats::default(); trees.len()];
    let mut scratch = Rect::point(&vec![0.0; query.dims()]);
    for (tree, stats) in trees.iter().zip(&mut per_shard) {
        tree.range_rec(tree.root, query, transform, &mut scratch, &mut out, stats);
    }
    (out, ForestStats::from_shards(per_shard))
}

impl RTree {
    /// All item ids whose rectangle overlaps `query` (under the tree's
    /// dimension semantics — circular dimensions overlap modulo the
    /// period).
    pub fn range(&self, query: &Rect) -> (Vec<u64>, SearchStats) {
        self.check_range_dims(None, query);
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        let mut scratch = Rect::point(&vec![0.0; self.dims()]);
        self.range_rec(self.root, query, None, &mut scratch, &mut out, &mut stats);
        (out, stats)
    }

    /// Algorithm 2: all item ids whose *transformed* rectangle overlaps
    /// `query`. The transformation is applied to every node MBR and leaf
    /// entry during the traversal; the tree itself is untouched.
    pub fn range_transformed(
        &self,
        transform: &dyn SpatialTransform,
        query: &Rect,
    ) -> (Vec<u64>, SearchStats) {
        self.check_range_dims(Some(transform), query);
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        let mut scratch = Rect::point(&vec![0.0; self.dims()]);
        self.range_rec(
            self.root,
            query,
            Some(transform),
            &mut scratch,
            &mut out,
            &mut stats,
        );
        (out, stats)
    }

    /// Asserts that a range query's rectangle and transformation match
    /// the tree's dimensionality.
    pub(crate) fn check_range_dims(&self, transform: Option<&dyn SpatialTransform>, query: &Rect) {
        assert_eq!(query.dims(), self.dims(), "query dimensionality mismatch");
        if let Some(t) = transform {
            assert_eq!(t.dims(), self.dims(), "transform dimensionality mismatch");
        }
    }

    /// The per-entry test every range traversal shares: whether an entry's
    /// (optionally transformed) MBR overlaps `query` under the tree's
    /// dimension semantics.
    #[inline]
    pub(crate) fn overlaps(
        &self,
        mbr: &Rect,
        query: &Rect,
        transform: Option<&dyn SpatialTransform>,
        scratch: &mut Rect,
    ) -> bool {
        match transform {
            Some(t) => {
                t.apply_rect_into(mbr, scratch);
                self.space.intersects(scratch, query)
            }
            None => self.space.intersects(mbr, query),
        }
    }

    /// Serial recursive descent of one subtree — the kernel of every
    /// materializing range traversal.
    pub(crate) fn range_rec(
        &self,
        node_idx: usize,
        query: &Rect,
        transform: Option<&dyn SpatialTransform>,
        scratch: &mut Rect,
        out: &mut Vec<u64>,
        stats: &mut SearchStats,
    ) {
        let node = &self.nodes[node_idx];
        stats.count_node(node.level);
        for e in &node.entries {
            stats.entries_tested += 1;
            if !self.overlaps(e.mbr(), query, transform, scratch) {
                continue;
            }
            match e {
                Entry::Child { node, .. } => {
                    self.range_rec(*node, query, transform, scratch, out, stats)
                }
                Entry::Item { id, .. } => out.push(*id),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::{DimSemantics, Space};
    use crate::rstar::RTreeConfig;
    use crate::transform::{DiagonalAffine, IdentityTransform};
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
        let (transformed, s2) = t.range_transformed(&IdentityTransform::new(2), &query);
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
                use crate::transform::SpatialTransform;
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
    fn forest_range_equals_single_tree_at_any_shard_count() {
        let n = 25usize;
        let single = grid_tree(n);
        // The same grid partitioned id-mod-3 into three trees.
        let mut shards: Vec<RTree> = (0..3).map(|_| RTree::with_dims(2)).collect();
        for id in 0..(n * n) as u64 {
            let p = [(id / n as u64) as f64, (id % n as u64) as f64];
            shards[(id % 3) as usize].insert_point(&p, id);
        }
        let affine = DiagonalAffine::new(vec![2.0, -1.0], vec![10.0, 3.0]);
        for (transform, query) in [
            (None, Rect::new(vec![2.5, 3.5], vec![7.5, 9.0])),
            (None, Rect::new(vec![-5.0, -5.0], vec![100.0, 100.0])),
            (None, Rect::new(vec![50.0, 50.0], vec![60.0, 60.0])),
            (
                Some(&affine as &dyn SpatialTransform),
                Rect::new(vec![15.0, -10.0], vec![30.0, 0.0]),
            ),
        ] {
            let mut scratch = Rect::point(&[0.0, 0.0]);
            let mut want = Vec::new();
            let mut want_stats = SearchStats::default();
            single.range_rec(
                single.root,
                &query,
                transform,
                &mut scratch,
                &mut want,
                &mut want_stats,
            );
            let (got, stats) = forest_range(std::slice::from_ref(&single), transform, &query);
            assert_eq!(got, want);
            assert_eq!(stats.merged, want_stats);

            let (got, stats) = forest_range(&shards, transform, &query);
            assert_eq!(sorted(got), sorted(want.clone()), "3 shards");
            assert_eq!(stats.per_shard.len(), 3);
            let mut sum = SearchStats::default();
            stats.per_shard.iter().for_each(|p| sum.add(p));
            assert_eq!(sum, stats.merged);
            // Per-tree counters equal each tree's own run.
            for (tree, s) in shards.iter().zip(&stats.per_shard) {
                let alone = match transform {
                    Some(t) => tree.range_transformed(t, &query).1,
                    None => tree.range(&query).1,
                };
                assert_eq!(*s, alone);
            }
        }
    }

    #[test]
    fn forest_range_over_empty_trees() {
        let empty: Vec<RTree> = (0..3).map(|_| RTree::with_dims(2)).collect();
        let query = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let (ids, stats) = forest_range(&empty, None, &query);
        assert!(ids.is_empty());
        assert_eq!(stats.merged.nodes_visited, 3);
        let (ids, stats) = forest_range(&[], None, &query);
        assert!(ids.is_empty());
        assert_eq!(stats.merged, SearchStats::default());
        assert!(stats.per_shard.is_empty());
    }
}
