//! Nearest-neighbour search with MINDIST pruning
//! (Roussopoulos, Kelley, Vincent — SIGMOD 1995), with optional on-the-fly
//! transformation.
//!
//! "For a nearest neighbor query, the search starts from the root and
//! proceeds down the tree. As we go down the tree, we apply T to all
//! entries of the node we visit. We can then use any kind of metric (such
//! as MINDIST or MINMAXDIST …) for pruning the search."
//!
//! The search is the best-first `k`-th-best loop of the one
//! [`Descent`] over a forest of trees: its frontier holds subtrees of
//! *every* tree, so one bound on the `k`-th best distance prunes all
//! shards at once, and it visits the minimum possible number of nodes for
//! the given trees and lower bound. This module holds what that form
//! orders by — the engine's `(distance, id)` order and the live `k`-th
//! best (`LocalKth`) — and the single-tree callers [`RTree::nearest`] and
//! [`RTree::nearest_by`].

use crate::descent::{Descent, RowRef, Stage};
use crate::geom::{Rect, Space};
use crate::rstar::RTree;
use crate::search::SearchStats;
use crate::transform::DiagonalAffine;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A nearest-neighbour hit: item id and squared Euclidean distance in the
/// (transformed) index space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Neighbor {
    /// Item identifier.
    pub id: u64,
    /// Squared Euclidean distance from the query point.
    pub dist_sq: f64,
}

/// The engine's one `(distance, id)` order: ascending distance, ties
/// broken by ascending id. `-0.0` and `+0.0` tie and fall through to the
/// id.
///
/// # Panics
/// If a distance is NaN — every distance the engine orders is a finite
/// sum of squares (or its root).
#[inline]
pub fn cmp_distance_id(a: (f64, u64), b: (f64, u64)) -> Ordering {
    cmp_finite(a.0, b.0).then(a.1.cmp(&b.1))
}

#[inline]
fn cmp_finite(a: f64, b: f64) -> Ordering {
    a.partial_cmp(&b).expect("finite distances")
}

/// A heap element ordered by its `f64` key, equal keys falling through to
/// the payload's order. `BinaryHeap` is a max-heap: the descent's heaps
/// wrap it in [`std::cmp::Reverse`] to pop the smallest key first.
pub(crate) struct Ranked<T> {
    pub(crate) key: f64,
    pub(crate) what: T,
}

impl<T: Ord> PartialEq for Ranked<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T: Ord> Eq for Ranked<T> {}
impl<T: Ord> PartialOrd for Ranked<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: Ord> Ord for Ranked<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_finite(self.key, other.key).then_with(|| self.what.cmp(&other.what))
    }
}

/// Tracks the `k` smallest distances seen so far: the live `k`-th best
/// that a search or scan prunes against.
pub(crate) struct LocalKth {
    heap: BinaryHeap<Ranked<()>>, // max-heap of the k best distances
    k: usize,
    /// The heap's maximum once it holds `k` distances, infinite before.
    kth: f64,
}

impl LocalKth {
    /// A tracker for the `k` best distances.
    pub(crate) fn new(k: usize) -> Self {
        LocalKth {
            heap: BinaryHeap::new(),
            k,
            kth: f64::INFINITY,
        }
    }

    /// The `k`-th best distance so far (infinite until `k` were offered).
    #[inline]
    pub(crate) fn kth(&self) -> f64 {
        self.kth
    }

    /// Records a distance.
    pub(crate) fn offer(&mut self, d: f64) {
        if self.heap.len() < self.k {
            self.heap.push(Ranked { key: d, what: () });
        } else if self.heap.peek().is_some_and(|worst| d < worst.key) {
            self.heap.pop();
            self.heap.push(Ranked { key: d, what: () });
        } else {
            return;
        }
        if self.heap.len() == self.k {
            if let Some(worst) = self.heap.peek() {
                self.kth = worst.key;
            }
        }
    }
}

/// The kNN stage over the index alone: `bound` keys every entry, a row's
/// key is its distance, and a row is named by its slot.
struct ByBound<'a>(&'a dyn Fn(&Rect) -> f64);

impl Stage for ByBound<'_> {
    fn key(&self, _: &Space, rect: &Rect) -> Option<f64> {
        Some((self.0)(rect))
    }

    fn id(&self, row: RowRef) -> u64 {
        row.pos as u64
    }
}

impl RTree {
    /// The `k` items nearest to `q` in Euclidean distance, ascending (ties
    /// broken by id for determinism).
    pub fn nearest(&self, q: &[f64], k: usize) -> (Vec<Neighbor>, SearchStats) {
        assert_eq!(q.len(), self.dims(), "query dimensionality mismatch");
        self.nearest_by(&|r| r.min_dist_sq(q), None, k)
    }

    /// The `k` items with the smallest `bound` values, ascending (ties by
    /// id), with search statistics: the `k`-nearest [`Descent`] over a
    /// forest of one. `bound(rect)` must return a lower bound on the
    /// caller's distance from the query to any item whose (transformed)
    /// rectangle is `rect`; a leaf entry's bound is the item's distance.
    /// This generalizes MINDIST-based kNN to non-Euclidean feature layouts
    /// — the polar representation's magnitude/phase pairs in particular.
    ///
    /// # Panics
    /// If the transformation's dimensionality differs from the tree's.
    pub fn nearest_by(
        &self,
        bound: &dyn Fn(&Rect) -> f64,
        transform: Option<&DiagonalAffine>,
        k: usize,
    ) -> (Vec<Neighbor>, SearchStats) {
        let (trees, transform) = (std::slice::from_ref(self), transform.map(Cow::Borrowed));
        let mut descent = Descent::nearest(trees, transform, ByBound(bound), k);
        let found = descent.by_ref().collect();
        (found, descent.into_stats().merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rstar::RTreeConfig;
    use crate::search::ForestStats;

    /// The `k`-nearest descent over `trees`, drained.
    fn search<S: Stage>(
        trees: &[RTree],
        transform: Option<&DiagonalAffine>,
        stage: S,
        k: usize,
    ) -> (Vec<Neighbor>, ForestStats) {
        let mut descent = Descent::nearest(trees, transform.map(Cow::Borrowed), stage, k);
        let found = descent.by_ref().collect();
        (found, descent.stats())
    }

    /// The `n × n` integer grid, item `i·n + j` at `(i, j)`.
    fn grid_tree(n: usize) -> RTree {
        let mut t = RTree::with_dims(2);
        for id in 0..n * n {
            t.insert_point(&[(id / n) as f64, (id % n) as f64], id as u64);
        }
        t
    }

    /// The first `k` of `all` in `(distance, id)` order.
    fn first_k(mut all: Vec<Neighbor>, k: usize) -> Vec<Neighbor> {
        all.sort_by(|a, b| cmp_distance_id((a.dist_sq, a.id), (b.dist_sq, b.id)));
        all.truncate(k);
        all
    }

    fn brute_knn(n: usize, q: &[f64], k: usize) -> Vec<Neighbor> {
        let all = (0..n * n)
            .map(|id| {
                let p = [(id / n) as f64, (id % n) as f64];
                let dist_sq: f64 = p.iter().zip(q).map(|(a, b)| (a - b) * (a - b)).sum();
                Neighbor {
                    id: id as u64,
                    dist_sq,
                }
            })
            .collect();
        first_k(all, k)
    }

    /// A single tree plus the same items partitioned id-mod-n into shards.
    fn tree_and_shards(n_items: usize, shards: usize) -> (RTree, Vec<RTree>) {
        let items: Vec<(Rect, u64)> = (0..n_items as u64)
            .map(|i| {
                let x = ((i * 29) % 97) as f64;
                let y = ((i * 31) % 89) as f64;
                (Rect::point(&[x, y]), i)
            })
            .collect();
        let space = Space::linear(2);
        let single = RTree::bulk_load(space.clone(), RTreeConfig::default(), items.clone(), 0..2);
        let shard_trees: Vec<RTree> = (0..shards as u64)
            .map(|s| {
                let part: Vec<(Rect, u64)> = items
                    .iter()
                    .filter(|(_, id)| id % shards as u64 == s)
                    .cloned()
                    .collect();
                RTree::bulk_load(space.clone(), RTreeConfig::default(), part, 0..2)
            })
            .collect();
        (single, shard_trees)
    }

    #[test]
    fn knn_matches_brute_force() {
        let n = 20;
        let t = grid_tree(n);
        for (q, k) in [
            ([3.2, 7.8], 1usize),
            ([0.0, 0.0], 5),
            ([10.5, 10.5], 8),
            ([-5.0, 25.0], 3),
        ] {
            let (got, _) = t.nearest(&q, k);
            let want = brute_knn(n, &q, k);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.id, w.id, "q={q:?} k={k}");
                assert!((g.dist_sq - w.dist_sq).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn knn_visits_few_nodes() {
        let t = grid_tree(40); // 1600 points
        let (hits, stats) = t.nearest(&[20.0, 20.0], 1);
        assert_eq!(hits.len(), 1);
        // Best-first search should touch a small fraction of nodes.
        assert!(stats.nodes_visited < (t.len() as u64) / 10);
    }

    #[test]
    fn transformed_knn_matches_materialized() {
        let n = 15;
        let t = grid_tree(n);
        let affine = DiagonalAffine::new(vec![-1.0, 2.0], vec![5.0, -3.0]);
        let q = [2.0, 4.0];
        let (via_transform, _) = t.nearest_by(&|r| r.min_dist_sq(&q), Some(&affine), 5);

        // Reference: transform all points, brute force.
        let all = (0..n * n)
            .map(|id| {
                let p = affine.apply_point(&[(id / n) as f64, (id % n) as f64]);
                let dist_sq: f64 = p.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum();
                Neighbor {
                    id: id as u64,
                    dist_sq,
                }
            })
            .collect();
        let want = first_k(all, 5);

        assert_eq!(via_transform.len(), 5);
        for (g, w) in via_transform.iter().zip(&want) {
            assert_eq!(g.id, w.id);
            assert!((g.dist_sq - w.dist_sq).abs() < 1e-9);
        }
    }

    #[test]
    fn k_zero_and_empty_tree() {
        let t = grid_tree(5);
        assert!(t.nearest(&[0.0, 0.0], 0).0.is_empty());
        let empty = RTree::with_dims(2);
        assert!(empty.nearest(&[0.0, 0.0], 3).0.is_empty());
    }

    #[test]
    fn k_exceeding_len_returns_all() {
        let t = grid_tree(3);
        let (hits, _) = t.nearest(&[1.0, 1.0], 100);
        assert_eq!(hits.len(), 9);
    }

    #[test]
    fn nearest_by_respects_custom_metric() {
        // Manhattan-style bound: results ordered by L1, not L2.
        let mut t = RTree::with_dims(2);
        t.insert_point(&[3.0, 0.0], 1); // L1=3, L2=3
        t.insert_point(&[2.0, 2.0], 2); // L1=4, L2=2.83
        let q = [0.0, 0.0];
        let l1_bound = |r: &Rect| -> f64 {
            (0..2)
                .map(|d| {
                    if q[d] < r.lo[d] {
                        r.lo[d] - q[d]
                    } else if q[d] > r.hi[d] {
                        q[d] - r.hi[d]
                    } else {
                        0.0
                    }
                })
                .sum()
        };
        let (hits, _) = t.nearest_by(&l1_bound, None, 1);
        assert_eq!(hits[0].id, 1);
    }

    #[test]
    fn comparator_ties_signed_zeros_and_falls_through_to_id() {
        assert_eq!(cmp_distance_id((-0.0, 2), (0.0, 1)), Ordering::Greater);
        assert_eq!(cmp_distance_id((0.0, 1), (-0.0, 1)), Ordering::Equal);
        assert_eq!(cmp_distance_id((1.0, 9), (2.0, 0)), Ordering::Less);
    }

    #[test]
    fn shared_bound_prunes_across_shards() {
        // A query deep inside shard 0's data: the shared bound from shard
        // 0's items must keep the forest search from reading most of the
        // other shards' nodes.
        let (single, shard_trees) = tree_and_shards(600, 4);
        let q = [29.0, 31.0];
        let bound = |r: &Rect| r.min_dist_sq(&q);
        let (_, single_stats) = single.nearest_by(&bound, None, 3);
        let forest_nodes = search(&shard_trees, None, ByBound(&bound), 3)
            .1
            .merged
            .nodes_visited;
        // Best-first over the forest visits the same order of magnitude of
        // nodes as the single tree — far less than 4 independent searches.
        let independent: u64 = shard_trees
            .iter()
            .map(|t| t.nearest_by(&bound, None, 3).1.nodes_visited)
            .sum();
        assert!(
            forest_nodes <= independent,
            "forest {forest_nodes} vs independent {independent} (single {})",
            single_stats.nodes_visited,
        );
    }

    #[test]
    fn empty_and_degenerate_forests() {
        let space = Space::linear(2);
        let empty: Vec<RTree> = (0..3)
            .map(|_| RTree::new(space.clone(), RTreeConfig::default()))
            .collect();
        let q = [0.0, 0.0];
        let bound = |r: &Rect| r.min_dist_sq(&q);
        let grid = [grid_tree(5)];
        for (trees, k) in [
            (empty.as_slice(), 5),
            (&[][..], 5),
            (empty.as_slice(), 0),
            (&grid, 0),
        ] {
            let (got, stats) = search(trees, None, ByBound(&bound), k);
            assert!(got.is_empty());
            assert_eq!(stats.merged, SearchStats::default());
        }
    }

    #[test]
    #[should_panic(expected = "transform dimensionality mismatch")]
    fn knn_rejects_a_transformation_of_other_dimensionality() {
        // Wider than the tree, it would bound a scratch rectangle whose
        // extra coordinates were never written.
        let t = grid_tree(5);
        let wide = DiagonalAffine::new(vec![1.0; 3], vec![0.0; 3]);
        t.nearest_by(&|r| r.min_dist_sq(&[0.0; 3]), Some(&wide), 2);
    }
}
