//! Nearest-neighbour search with MINDIST/MINMAXDIST pruning
//! (Roussopoulos, Kelley, Vincent — SIGMOD 1995), with optional on-the-fly
//! transformation.
//!
//! "For a nearest neighbor query, the search starts from the root and
//! proceeds down the tree. As we go down the tree, we apply T to all
//! entries of the node we visit. We can then use any kind of metric (such
//! as MINDIST or MINMAXDIST …) for pruning the search."
//!
//! The implementation is the standard best-first traversal over a priority
//! queue ordered by a caller-supplied lower bound, which visits the minimum
//! possible number of nodes for the given trees. There is **one** search,
//! [`forest_nearest`], over a forest of trees (one per relation shard; a
//! single tree is a forest of one), and it runs on the calling thread: the
//! frontier holds subtrees of *every* tree, so one bound on the `k`-th
//! best distance prunes all shards at once. A leaf's admitted rows wait in
//! a *run* whose smallest `(bound, id)` alone is heaped, then the next
//! smallest: the visit order of a heap of every row, at one heap entry per
//! leaf, not per row.
//!
//! Leaf bounds depend only on the item's (transformed) rectangle, so the
//! `k` results are identical however the items are split into trees:
//! results are `(distance, id)`-sorted and ties around the `k`-th distance
//! are retained until the final sort.
//!
//! [`RTree::nearest`] and [`RTree::nearest_by`] are the single-tree
//! callers.
//!
//! With an [`ItemStage`] the same descent is the *optimal multi-step*
//! search of Seidl & Kriegel: bounds only rank, every leaf item reached
//! is refined to its exact distance, and the search stops once the next
//! lower bound exceeds the shrinking *exact* `k`-th best — no item whose
//! bound is above the final `k`-th distance is ever refined.

use crate::geom::Rect;
use crate::rstar::{Entry, RTree};
use crate::search::{ForestStats, SearchStats};
use crate::transform::SpatialTransform;
use std::cmp::{Ordering, Reverse};
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

/// Deterministic result order: `(distance, id)`-sorted, first `k` kept.
fn finish(mut found: Vec<Neighbor>, k: usize) -> Vec<Neighbor> {
    found.sort_by(|a, b| cmp_distance_id((a.dist_sq, a.id), (b.dist_sq, b.id)));
    found.truncate(k);
    found
}

/// The item stage of a multi-step search: what the search does with a leaf
/// item instead of taking its rectangle's bound as the item's distance.
pub trait ItemStage {
    /// A cheap lower bound on the exact distance of item `id` — the key
    /// that ranks it. Replaces [`KnnQuery::bound`] on leaf entries, so it
    /// may come from data the index does not hold.
    fn bound(&self, id: u64) -> f64;

    /// The exact distance of item `id`, or `None` once it is known to lie
    /// beyond `kth_now` — the current exact `k`-th best distance (infinite
    /// until `k` items are refined). Must never drop an item whose exact
    /// distance is `<= kth_now`. Reports its own work in `stats`
    /// ([`SearchStats::refine_work`]).
    fn refine(&self, id: u64, kth_now: f64, stats: &mut SearchStats) -> Option<f64>;
}

/// The nearest-neighbour query of a [`forest_nearest`] call.
///
/// `bound(rect)` must return a lower bound on the caller's true distance
/// from the query to any item whose (transformed) index rectangle is
/// `rect`. Without an item stage the bound of a leaf entry (a degenerate
/// rectangle) *is* the item's distance; with one, `bound` serves internal
/// entries only, in the item stage's unit. This generalizes MINDIST-based
/// kNN to non-Euclidean feature layouts — the polar representation's
/// magnitude/phase pairs in particular, where the complex-plane distance
/// to an annular sector is not the Euclidean distance of raw coordinates.
pub struct KnnQuery<'a> {
    /// The lower-bound function.
    pub bound: &'a dyn Fn(&Rect) -> f64,
    /// Transformation applied to every MBR before bounding.
    pub transform: Option<&'a dyn SpatialTransform>,
    /// Number of neighbours requested.
    pub k: usize,
    /// The item stage of a multi-step search, if any.
    pub items: Option<&'a dyn ItemStage>,
}

/// A scratch rectangle for [`expand`]'s transformed MBRs.
fn scratch_rect(transform: Option<&dyn SpatialTransform>) -> Rect {
    Rect::point(&vec![0.0; transform.map_or(0, |t| t.dims())])
}

/// The distance of a leaf item reached at lower bound `key` while the
/// `k`-th best is `kth_now`, or `None` when it cannot be a result.
fn resolve(
    items: Option<&dyn ItemStage>,
    id: u64,
    key: f64,
    kth_now: f64,
    stats: &mut SearchStats,
) -> Option<f64> {
    match items {
        Some(stage) => {
            stats.candidates += 1;
            stage.refine(id, kth_now, stats)
        }
        None => Some(key),
    }
}

/// A heap element ordered by its `f64` key, equal keys falling through to
/// the payload's order. `BinaryHeap` is a max-heap: the search frontier
/// wraps it in [`Reverse`] to pop the smallest bound first.
struct Ranked<T> {
    key: f64,
    what: T,
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
pub struct LocalKth {
    heap: BinaryHeap<Ranked<()>>, // max-heap of the k best distances
    k: usize,
    /// The heap's maximum once it holds `k` distances, infinite before.
    kth: f64,
}

impl LocalKth {
    /// A tracker for the `k` best distances.
    pub fn new(k: usize) -> Self {
        LocalKth {
            heap: BinaryHeap::new(),
            k,
            kth: f64::INFINITY,
        }
    }

    /// The `k`-th best distance so far (infinite until `k` were offered).
    #[inline]
    pub fn kth(&self) -> f64 {
        self.kth
    }

    /// True when `d` is not provably outside the top-`k` (ties at the
    /// `k`-th distance included).
    pub fn admits(&self, d: f64) -> bool {
        self.heap.len() < self.k || self.heap.peek().is_some_and(|worst| d <= worst.key)
    }

    /// Records a distance.
    pub fn offer(&mut self, d: f64) {
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

/// A span `lo..hi` of the search's row arena.
type Run = (usize, usize);

/// Where a frontier element of the search points. Items order
/// below nodes, so at equal bounds results pop as early as possible. An
/// item is the smallest `(bound, id)` of its leaf's admitted rows, the
/// rest of which wait off the heap in `run`: it pops exactly when a heap
/// of every row would pop it. `(shard, id)` is unique; `run` never decides.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum At {
    Item { shard: usize, id: u64, run: Run },
    Node { shard: usize, idx: usize },
}

/// Reads one node: counts the visit and hands every entry with its bound
/// to `each`. Transformed MBRs are written into `scratch` — no allocation
/// per entry.
#[allow(clippy::too_many_arguments)]
fn expand(
    tree: &RTree,
    idx: usize,
    bound: &dyn Fn(&Rect) -> f64,
    transform: Option<&dyn SpatialTransform>,
    items: Option<&dyn ItemStage>,
    scratch: &mut Rect,
    stats: &mut SearchStats,
    mut each: impl FnMut(&Entry, f64),
) {
    let node = &tree.nodes[idx];
    stats.count_node(node.level);
    for e in &node.entries {
        stats.entries_tested += 1;
        let d = match (e, items, transform) {
            (Entry::Item { id, .. }, Some(stage), _) => stage.bound(*id),
            (_, _, Some(t)) => {
                t.apply_rect_into(e.mbr(), scratch);
                bound(scratch)
            }
            (_, _, None) => bound(e.mbr()),
        };
        each(e, d);
    }
}

/// Heaps the smallest `(bound, id)` of `arena[lo..hi]`, swapped to `lo`,
/// if its bound is within `kth`. A head dropped here could only have
/// ended the loop: the rest of its run is no nearer, and `kth` never grows.
fn push_head(
    heap: &mut BinaryHeap<Reverse<Ranked<At>>>,
    arena: &mut [(f64, u64)],
    shard: usize,
    (lo, hi): Run,
    kth: f64,
) {
    let run = &mut arena[lo..hi];
    let Some(&(mut min)) = run.first() else {
        return;
    };
    let mut first = 0; // a plain loop: `min_by` over indices was slower
    for (i, &row) in run.iter().enumerate().skip(1) {
        if cmp_distance_id(row, min).is_lt() {
            (first, min) = (i, row);
        }
    }
    run.swap(0, first);
    let ((key, id), run) = (min, (lo + 1, hi));
    if key <= kth {
        let what = At::Item { shard, id, run };
        heap.push(Reverse(Ranked { key, what }));
    }
}

/// Best-first `k`-nearest search over a forest of trees (see the
/// [module docs](self)). Returns the `k` items with the smallest distances
/// (bound values, or refined by the query's item stage) across the whole
/// forest — `(distance, id)`-sorted, identical to a search of one tree
/// over the union of the trees' items — and the search's work counters.
pub fn forest_nearest(trees: &[RTree], query: &KnnQuery) -> (Vec<Neighbor>, ForestStats) {
    let KnnQuery {
        bound,
        transform,
        k,
        items,
    } = *query;
    let mut per_shard = vec![SearchStats::default(); trees.len()];
    let mut out: Vec<Neighbor> = Vec::new();
    if k == 0 {
        return (out, ForestStats::from_shards(per_shard));
    }
    let mut scratch = scratch_rect(transform);
    let mut heap = BinaryHeap::new();
    for (shard, tree) in trees.iter().enumerate() {
        if !tree.is_empty() {
            heap.push(Reverse(Ranked {
                key: 0.0,
                what: At::Node {
                    shard,
                    idx: tree.root,
                },
            }));
        }
    }
    // The k-th best distance collected so far; ties at exactly this
    // distance are still collected so the final (distance, id) sort is
    // deterministic regardless of heap pop order.
    let mut kth = LocalKth::new(k);
    let mut arena: Vec<(f64, u64)> = Vec::new();
    while let Some(Reverse(top)) = heap.pop() {
        let kth_now = kth.kth();
        if top.key > kth_now {
            break;
        }
        match top.what {
            At::Item { shard, id, run } => {
                if let Some(d) = resolve(items, id, top.key, kth_now, &mut per_shard[shard]) {
                    out.push(Neighbor { id, dist_sq: d });
                    kth.offer(d);
                }
                push_head(&mut heap, &mut arena, shard, run, kth.kth());
            }
            At::Node { shard, idx } => {
                let start = arena.len();
                expand(
                    &trees[shard],
                    idx,
                    bound,
                    transform,
                    items,
                    &mut scratch,
                    &mut per_shard[shard],
                    |e, d| match e {
                        _ if d > kth_now => {}
                        Entry::Child { node, .. } => heap.push(Reverse(Ranked {
                            key: d,
                            what: At::Node { shard, idx: *node },
                        })),
                        Entry::Item { id, .. } => arena.push((d, *id)),
                    },
                );
                let run = (start, arena.len());
                push_head(&mut heap, &mut arena, shard, run, kth_now);
            }
        }
    }
    (finish(out, k), ForestStats::from_shards(per_shard))
}

impl RTree {
    /// The `k` items nearest to `q` in Euclidean distance, ascending (ties
    /// broken by id for determinism).
    pub fn nearest(&self, q: &[f64], k: usize) -> (Vec<Neighbor>, SearchStats) {
        assert_eq!(q.len(), self.dims(), "query dimensionality mismatch");
        self.nearest_by(&|r| r.min_dist_sq(q), None, k)
    }

    /// The `k` items with the smallest `bound` values (see [`KnnQuery`]
    /// for the bound contract), ascending (ties by id), with search
    /// statistics — the search over a forest of one.
    pub fn nearest_by(
        &self,
        bound: &dyn Fn(&Rect) -> f64,
        transform: Option<&dyn SpatialTransform>,
        k: usize,
    ) -> (Vec<Neighbor>, SearchStats) {
        let query = KnnQuery {
            bound,
            transform,
            k,
            items: None,
        };
        let (found, stats) = forest_nearest(std::slice::from_ref(self), &query);
        (found, stats.merged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Space;
    use crate::rstar::RTreeConfig;
    use crate::transform::DiagonalAffine;
    use std::cell::RefCell;
    use std::collections::{HashMap, HashSet};

    /// The `n × n` integer grid, item `i·n + j` at `(i, j)`, split
    /// id-mod-`shards` into trees.
    fn grid_forest(n: u64, shards: u64) -> Vec<RTree> {
        (0..shards)
            .map(|s| {
                let mut t = RTree::with_dims(2);
                for id in (s..n * n).step_by(shards as usize) {
                    t.insert_point(&[(id / n) as f64, (id % n) as f64], id);
                }
                t
            })
            .collect()
    }

    fn grid_tree(n: usize) -> RTree {
        grid_forest(n as u64, 1).remove(0)
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
        finish(all, k)
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
        let single = RTree::bulk_load(space.clone(), RTreeConfig::default(), items.clone());
        let shard_trees: Vec<RTree> = (0..shards as u64)
            .map(|s| {
                let part: Vec<(Rect, u64)> = items
                    .iter()
                    .filter(|(_, id)| id % shards as u64 == s)
                    .cloned()
                    .collect();
                RTree::bulk_load(space.clone(), RTreeConfig::default(), part)
            })
            .collect();
        (single, shard_trees)
    }

    /// Item id → `(shard, leaf node)` holding it.
    fn leaf_of(trees: &[RTree]) -> HashMap<u64, (usize, usize)> {
        let mut leaf = HashMap::new();
        for (shard, tree) in trees.iter().enumerate() {
            for (idx, node) in tree.nodes.iter().enumerate() {
                for e in &node.entries {
                    if let Entry::Item { id, .. } = e {
                        leaf.insert(*id, (shard, idx));
                    }
                }
            }
        }
        leaf
    }

    fn assert_same(got: &[Neighbor], want: &[Neighbor], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (a, b) in got.iter().zip(want) {
            assert_eq!(a.id, b.id, "{what}");
            assert_eq!(a.dist_sq.to_bits(), b.dist_sq.to_bits(), "{what}");
        }
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
        let want = finish(all, 5);

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
    fn forest_search_equals_single_tree() {
        let (single, shard_trees) = tree_and_shards(500, 3);
        let affine = DiagonalAffine::new(vec![-1.0, 2.0], vec![5.0, -3.0]);
        for transform in [None, Some(&affine as &dyn SpatialTransform)] {
            for (q, k) in [([40.0, 40.0], 7usize), ([0.0, 0.0], 1), ([96.0, 12.0], 25)] {
                let bound = |r: &Rect| r.min_dist_sq(&q);
                let (want, _) = single.nearest_by(&bound, transform, k);
                for trees in [std::slice::from_ref(&single), shard_trees.as_slice()] {
                    let query = KnnQuery {
                        bound: &bound,
                        transform,
                        k,
                        items: None,
                    };
                    let (got, s) = forest_nearest(trees, &query);
                    let what = format!("k {k} trees {}", trees.len());
                    assert_same(&got, &want, &what);
                    assert_eq!(s.per_shard.len(), trees.len(), "{what}");
                    let mut sum = SearchStats::default();
                    s.per_shard.iter().for_each(|p| sum.add(p));
                    assert_eq!(sum, s.merged, "{what}");
                }
            }
        }
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
        let query = KnnQuery {
            bound: &bound,
            transform: None,
            k: 3,
            items: None,
        };
        let forest_nodes = forest_nearest(&shard_trees, &query).1.merged.nodes_visited;
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
    fn refined_search_ranks_by_bound_and_answers_by_exact_distance() {
        // The index bound sees only x; the exact distance adds a hidden
        // per-item term, so bound order and answer order differ.
        let (single, shard_trees) = tree_and_shards(500, 3);
        let q = [40.0, 40.0];
        let hidden = |id: u64| ((id * 37) % 101) as f64;
        let exact = |id: u64| {
            let x = ((id * 29) % 97) as f64;
            (x - q[0]) * (x - q[0]) + hidden(id)
        };
        let bound = |r: &Rect| {
            let d = (r.lo[0] - q[0]).max(q[0] - r.hi[0]).max(0.0);
            d * d
        };
        // Records `(bound, id)` of every refine call, in call order.
        struct Stage<E>(E, RefCell<Vec<(f64, u64)>>);
        impl<E: Fn(u64) -> (f64, f64)> ItemStage for Stage<E> {
            fn bound(&self, id: u64) -> f64 {
                self.0(id).0
            }
            fn refine(&self, id: u64, kth_now: f64, stats: &mut SearchStats) -> Option<f64> {
                stats.refine_work += 1;
                let (bound, d) = self.0(id);
                self.1.borrow_mut().push((bound, id));
                (d <= kth_now).then_some(d)
            }
        }
        let stage = Stage(
            |id: u64| (exact(id) - hidden(id), exact(id)),
            RefCell::default(),
        );
        for k in [1usize, 7, 40] {
            let want = finish(
                (0..500u64)
                    .map(|id| Neighbor {
                        id,
                        dist_sq: exact(id),
                    })
                    .collect(),
                k,
            );
            for trees in [std::slice::from_ref(&single), shard_trees.as_slice()] {
                let query = KnnQuery {
                    bound: &bound,
                    transform: None,
                    k,
                    items: Some(&stage),
                };
                let (got, stats) = forest_nearest(trees, &query);
                let refined = stage.1.take();
                let what = format!("k {k} trees {}", trees.len());
                assert_same(&got, &want, &what);
                let s = stats.merged;
                // The descent refines in ascending bound, and each leaf's
                // rows in strictly ascending (bound, id), so no row twice.
                // Across leaves ids may fall at one bound: a subtree whose
                // key ties a refined row's bound opens after it.
                assert!(
                    refined.windows(2).all(|w| w[0].0 <= w[1].0),
                    "{what}: {refined:?}"
                );
                let leaf = leaf_of(trees);
                let mut by_leaf: HashMap<_, Vec<(f64, u64)>> = HashMap::new();
                for &row in &refined {
                    by_leaf.entry(leaf[&row.1]).or_default().push(row);
                }
                for rows in by_leaf.values() {
                    assert!(
                        rows.windows(2)
                            .all(|w| cmp_distance_id(w[0], w[1]) == Ordering::Less),
                        "{what}: {rows:?}"
                    );
                }
                assert_eq!(s.candidates, refined.len() as u64, "{what}");
                // Every item is refined at most once, and none whose bound
                // exceeds the final k-th distance.
                assert_eq!(s.candidates, s.refine_work, "{what}");
                let kth = want.last().unwrap().dist_sq;
                let within = (0..500u64).filter(|&id| exact(id) - hidden(id) <= kth);
                assert!(s.candidates <= within.count() as u64, "{what}");
            }
        }
    }

    /// An item stage whose bound is the exact distance.
    struct Exact<F>(F);
    impl<F: Fn(u64) -> f64> ItemStage for Exact<F> {
        fn bound(&self, id: u64) -> f64 {
            self.0(id)
        }
        fn refine(&self, id: u64, kth_now: f64, stats: &mut SearchStats) -> Option<f64> {
            stats.refine_work += 1;
            Some(self.0(id)).filter(|d| *d <= kth_now)
        }
    }

    /// Searches of the 20 × 20 grid forest, with and without an item
    /// stage, each bitwise equal to brute force.
    fn assert_grid_ties(forest: &[RTree], q: [f64; 2], k: usize) {
        let n = 20;
        let want = brute_knn(n, &q, k);
        let mut dist = vec![0.0; n * n];
        brute_knn(n, &q, n * n)
            .iter()
            .for_each(|h| dist[h.id as usize] = h.dist_sq);
        let bound = |r: &Rect| r.min_dist_sq(&q);
        let stage = Exact(|id: u64| dist[id as usize]);
        for items in [None, Some(&stage as &dyn ItemStage)] {
            let query = KnnQuery {
                bound: &bound,
                transform: None,
                k,
                items,
            };
            let what = format!("q {q:?} k {k} shards {}", forest.len());
            assert_same(&forest_nearest(forest, &query).0, &want, &what);
        }
    }

    #[test]
    fn ties_across_leaves_and_shards_resolve_by_id() {
        // At a lattice point every distance is an integer: k cuts through
        // the ring at squared distance 25, whose 12 points lie in several
        // leaves of three shards.
        let forest = grid_forest(20, 3);
        let q = [7.0, 12.0];
        let all = brute_knn(20, &q, 400);
        let inside = all.iter().filter(|h| h.dist_sq < 25.0).count();
        let ring: Vec<u64> = all
            .iter()
            .filter(|h| h.dist_sq == 25.0)
            .map(|h| h.id)
            .collect();
        assert_eq!(ring.len(), 12);
        let leaf = leaf_of(&forest);
        let leaves: HashSet<_> = ring.iter().map(|id| leaf[id]).collect();
        assert!(leaves.len() >= 4, "the ring spans {} leaves", leaves.len());
        assert_grid_ties(&forest, q, inside + 6);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// Random shard counts, lattice query points (some off the grid)
        /// and `k`, for the release-profile CI step.
        #[test]
        #[ignore = "long: run with --release -- --ignored"]
        fn ties_across_leaves_and_shards_resolve_by_id_long(
            shards in 1u64..6,
            x in -2i32..22,
            y in -2i32..22,
            k in 1usize..81,
        ) {
            assert_grid_ties(&grid_forest(20, shards), [x as f64, y as f64], k);
        }
    }

    #[test]
    fn empty_and_degenerate_forests() {
        let space = Space::linear(2);
        let empty: Vec<RTree> = (0..3)
            .map(|_| RTree::new(space.clone(), RTreeConfig::default()))
            .collect();
        let q = [0.0, 0.0];
        let bound = |r: &Rect| r.min_dist_sq(&q);
        for (trees, k) in [(empty.as_slice(), 5), (&[][..], 5), (empty.as_slice(), 0)] {
            let query = KnnQuery {
                bound: &bound,
                transform: None,
                k,
                items: None,
            };
            let (got, stats) = forest_nearest(trees, &query);
            assert!(got.is_empty());
            assert_eq!(stats.merged, SearchStats::default());
        }
    }
}
