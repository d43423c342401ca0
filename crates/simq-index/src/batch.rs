//! Batched traversals: one tree walk serving many queries at once.
//!
//! The paper's workloads are naturally *many queries over one index* —
//! similarity retrieval batches hundreds of probe series against the same
//! relation. Executing them one at a time re-reads the upper levels of the
//! R*-tree once per query; those levels overlap heavily between queries,
//! so a batch can amortize the reads:
//!
//! * **Multi-region range search** ([`RTree::multi_range`],
//!   [`RTree::multi_range_parallel`]) descends the tree once for the whole
//!   batch. At every node each *active* query tests every entry (under its
//!   own transformation); a child is descended when **any** query's region
//!   overlaps it, carrying exactly the subset of queries that matched.
//!   Each query's answer set, candidate order (serial path) and per-query
//!   work counters are identical to its individual traversal — only the
//!   *shared* node reads are fewer.
//!
//! (Batched nearest neighbours need no traversal of their own: every query
//! of a [`forest_nearest`](crate::knn::forest_nearest) call already shares
//! one work-stealing pool.)
//!
//! Work accounting: [`MultiSearchStats::merged`] counts every node/entry
//! **once per shared visit** — the batch's true cost; `per_query[i]`
//! counts what query `i`'s individual execution would have counted, so
//! `merged.nodes_visited ≤ Σ per_query[i].nodes_visited`, strictly less
//! whenever two queries share a node (the root already is shared).

use crate::geom::Rect;
use crate::rstar::{Entry, RTree};
use crate::search::SearchStats;
use crate::transform::SpatialTransform;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One range query of a batch: an optional on-the-fly transformation and
/// the search rectangle (in the transformed space when a transformation is
/// given).
pub struct MultiRangeQuery<'a> {
    /// Transformation applied to every MBR during the traversal
    /// (Algorithm 2); `None` searches the stored geometry directly.
    pub transform: Option<&'a dyn SpatialTransform>,
    /// The search rectangle.
    pub rect: &'a Rect,
}

/// Work counters of one batched traversal.
#[derive(Debug, Clone, Default)]
pub struct MultiSearchStats {
    /// Every node and entry counted once per *shared* visit — the work the
    /// batch actually performed.
    pub merged: SearchStats,
    /// What each query's individual execution would have counted (node
    /// visits while the query was active, entries it tested).
    pub per_query: Vec<SearchStats>,
}

impl MultiSearchStats {
    fn with_queries(n: usize) -> Self {
        MultiSearchStats {
            merged: SearchStats::default(),
            per_query: vec![SearchStats::default(); n],
        }
    }

    /// Accumulates another batch phase (component-wise; `per_query` is
    /// matched by index).
    pub fn add(&mut self, other: &MultiSearchStats) {
        self.merged.add(&other.merged);
        if self.per_query.len() < other.per_query.len() {
            self.per_query
                .resize(other.per_query.len(), SearchStats::default());
        }
        for (acc, s) in self.per_query.iter_mut().zip(&other.per_query) {
            acc.add(s);
        }
    }
}

/// A pending subtree of the parallel multi-range frontier: the node and
/// the queries still active for it.
struct FrontierTask {
    node: usize,
    active: Vec<u32>,
}

impl RTree {
    /// Range search for a whole batch in **one traversal**: per node,
    /// every active query tests every entry; a child is descended when any
    /// query overlaps it. Returns each query's matching item ids in the
    /// same order its individual [`RTree::range_transformed`] traversal
    /// would produce them.
    ///
    /// # Panics
    /// Panics if any query's rectangle or transformation dimensionality
    /// disagrees with the tree.
    pub fn multi_range(&self, queries: &[MultiRangeQuery]) -> (Vec<Vec<u64>>, MultiSearchStats) {
        self.check_multi_dims(queries);
        let mut out: Vec<Vec<u64>> = vec![Vec::new(); queries.len()];
        let mut stats = MultiSearchStats::with_queries(queries.len());
        if queries.is_empty() {
            return (out, stats);
        }
        let all: Vec<u32> = (0..queries.len() as u32).collect();
        let mut scratch = Rect::point(&vec![0.0; self.dims()]);
        self.multi_descend(self.root, queries, &all, &mut scratch, &mut out, &mut stats);
        (out, stats)
    }

    /// Parallel [`RTree::multi_range`]: a breadth-first frontier of
    /// `(subtree, active queries)` tasks is expanded on the calling
    /// thread, then workers claim tasks from a shared cursor and descend
    /// them with the same shared test. Answer sets equal the serial batch
    /// (ids are sorted ascending per query, like the parallel
    /// [`forest_range`](crate::search::forest_range)); merged counters
    /// count each node once because every subtree is claimed by exactly
    /// one worker.
    pub fn multi_range_parallel(
        &self,
        queries: &[MultiRangeQuery],
        threads: usize,
    ) -> (Vec<Vec<u64>>, MultiSearchStats) {
        self.check_multi_dims(queries);
        let threads = threads.max(1);
        let mut out: Vec<Vec<u64>> = vec![Vec::new(); queries.len()];
        let mut stats = MultiSearchStats::with_queries(queries.len());
        if queries.is_empty() {
            return (out, stats);
        }
        if threads == 1 {
            let (mut out, stats) = self.multi_range(queries);
            for ids in &mut out {
                ids.sort_unstable();
            }
            return (out, stats);
        }

        // Frontier expansion until there is enough independent work.
        let target = threads * 4;
        let mut queue: Vec<FrontierTask> = vec![FrontierTask {
            node: self.root,
            active: (0..queries.len() as u32).collect(),
        }];
        let mut head = 0usize;
        let mut scratch = Rect::point(&vec![0.0; self.dims()]);
        while head < queue.len() && (queue.len() - head) < target {
            let FrontierTask { node: idx, active } = std::mem::replace(
                &mut queue[head],
                FrontierTask {
                    node: 0,
                    active: Vec::new(),
                },
            );
            head += 1;
            let node = &self.nodes[idx];
            count_node(&mut stats, &active, node.level);
            for e in &node.entries {
                stats.merged.entries_tested += 1;
                let mut next_active: Vec<u32> = Vec::new();
                for &qi in &active {
                    stats.per_query[qi as usize].entries_tested += 1;
                    if self.query_overlaps(&queries[qi as usize], e.mbr(), &mut scratch) {
                        match e {
                            Entry::Child { .. } => next_active.push(qi),
                            Entry::Item { id, .. } => out[qi as usize].push(*id),
                        }
                    }
                }
                if let Entry::Child { node, .. } = e {
                    if !next_active.is_empty() {
                        queue.push(FrontierTask {
                            node: *node,
                            active: next_active,
                        });
                    }
                }
            }
        }

        let pending = &queue[head..];
        if pending.is_empty() {
            for ids in &mut out {
                ids.sort_unstable();
            }
            return (out, stats);
        }
        let cursor = AtomicUsize::new(0);
        let workers: Vec<(Vec<Vec<u64>>, MultiSearchStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local_out: Vec<Vec<u64>> = vec![Vec::new(); queries.len()];
                        let mut local_stats = MultiSearchStats::with_queries(queries.len());
                        let mut scratch = Rect::point(&vec![0.0; self.dims()]);
                        loop {
                            let j = cursor.fetch_add(1, Ordering::Relaxed);
                            if j >= pending.len() {
                                break;
                            }
                            let task = &pending[j];
                            self.multi_descend(
                                task.node,
                                queries,
                                &task.active,
                                &mut scratch,
                                &mut local_out,
                                &mut local_stats,
                            );
                        }
                        (local_out, local_stats)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("multi-range worker panicked"))
                .collect()
        });
        for (local_out, local_stats) in workers {
            for (acc, ids) in out.iter_mut().zip(local_out) {
                acc.extend(ids);
            }
            stats.add(&local_stats);
        }
        for ids in &mut out {
            ids.sort_unstable();
        }
        (out, stats)
    }

    /// The shared per-entry test of one query against an entry MBR.
    fn query_overlaps(&self, q: &MultiRangeQuery, mbr: &Rect, scratch: &mut Rect) -> bool {
        self.overlaps(mbr, q.rect, q.transform, scratch)
    }

    /// Depth-first shared descent with an explicit active-query set; the
    /// pre-order restricted to any one query's visited nodes equals that
    /// query's individual traversal order.
    fn multi_descend(
        &self,
        node_idx: usize,
        queries: &[MultiRangeQuery],
        active: &[u32],
        scratch: &mut Rect,
        out: &mut [Vec<u64>],
        stats: &mut MultiSearchStats,
    ) {
        let node = &self.nodes[node_idx];
        count_node(stats, active, node.level);
        for e in &node.entries {
            stats.merged.entries_tested += 1;
            let mut next_active: Vec<u32> = Vec::new();
            for &qi in active {
                stats.per_query[qi as usize].entries_tested += 1;
                if self.query_overlaps(&queries[qi as usize], e.mbr(), scratch) {
                    match e {
                        Entry::Child { .. } => next_active.push(qi),
                        Entry::Item { id, .. } => out[qi as usize].push(*id),
                    }
                }
            }
            if let Entry::Child { node, .. } = e {
                if !next_active.is_empty() {
                    self.multi_descend(*node, queries, &next_active, scratch, out, stats);
                }
            }
        }
    }

    fn check_multi_dims(&self, queries: &[MultiRangeQuery]) {
        for q in queries {
            self.check_range_dims(q.transform, q.rect);
        }
    }
}

/// One shared node visit: counted once in `merged`, once per active query.
fn count_node(stats: &mut MultiSearchStats, active: &[u32], level: u32) {
    stats.merged.count_node(level);
    for &qi in active {
        stats.per_query[qi as usize].count_node(level);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::{DiagonalAffine, IdentityTransform};

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

    fn batch_rects() -> Vec<Rect> {
        vec![
            Rect::new(vec![2.5, 3.5], vec![7.5, 9.0]),
            Rect::new(vec![0.0, 0.0], vec![3.0, 3.0]),
            Rect::new(vec![10.0, 10.0], vec![18.0, 12.0]),
            Rect::new(vec![50.0, 50.0], vec![60.0, 60.0]), // empty
            Rect::new(vec![-5.0, -5.0], vec![30.0, 30.0]), // everything
        ]
    }

    #[test]
    fn multi_range_matches_individual_traversals() {
        let t = grid_tree(25);
        let rects = batch_rects();
        let queries: Vec<MultiRangeQuery> = rects
            .iter()
            .map(|r| MultiRangeQuery {
                transform: None,
                rect: r,
            })
            .collect();
        let (batch, stats) = t.multi_range(&queries);
        let mut visit_sum = 0u64;
        for (qi, rect) in rects.iter().enumerate() {
            let (individual, s) = t.range(rect);
            assert_eq!(batch[qi], individual, "query {qi} (order included)");
            assert_eq!(stats.per_query[qi], s, "query {qi} per-query stats");
            visit_sum += s.nodes_visited;
        }
        // The batch shares at least the root.
        assert!(stats.merged.nodes_visited < visit_sum);
    }

    #[test]
    fn multi_range_with_mixed_transforms_matches_individual() {
        let t = grid_tree(20);
        let affine = DiagonalAffine::new(vec![2.0, -1.0], vec![10.0, 3.0]);
        let identity = IdentityTransform::new(2);
        let r1 = Rect::new(vec![15.0, -10.0], vec![30.0, 0.0]);
        let r2 = Rect::new(vec![2.0, 2.0], vec![8.0, 8.0]);
        let queries = vec![
            MultiRangeQuery {
                transform: Some(&affine),
                rect: &r1,
            },
            MultiRangeQuery {
                transform: Some(&identity),
                rect: &r2,
            },
            MultiRangeQuery {
                transform: None,
                rect: &r2,
            },
        ];
        let (batch, _) = t.multi_range(&queries);
        let (a, _) = t.range_transformed(&affine, &r1);
        let (b, _) = t.range_transformed(&identity, &r2);
        let (c, _) = t.range(&r2);
        assert_eq!(batch[0], a);
        assert_eq!(batch[1], b);
        assert_eq!(batch[2], c);
    }

    #[test]
    fn multi_range_parallel_equals_serial_batch() {
        let t = grid_tree(30);
        let rects = batch_rects();
        let queries: Vec<MultiRangeQuery> = rects
            .iter()
            .map(|r| MultiRangeQuery {
                transform: None,
                rect: r,
            })
            .collect();
        let (serial, s_stats) = t.multi_range(&queries);
        for threads in [1, 2, 4, 8] {
            let (par, p_stats) = t.multi_range_parallel(&queries, threads);
            for (qi, ids) in serial.iter().enumerate() {
                let mut sorted = ids.clone();
                sorted.sort_unstable();
                assert_eq!(par[qi], sorted, "query {qi} threads {threads}");
                assert_eq!(
                    p_stats.per_query[qi], s_stats.per_query[qi],
                    "query {qi} threads {threads}"
                );
            }
            assert_eq!(p_stats.merged, s_stats.merged, "threads {threads}");
        }
    }

    #[test]
    fn empty_batch_and_empty_tree() {
        let t = grid_tree(5);
        let (out, stats) = t.multi_range(&[]);
        assert!(out.is_empty());
        assert_eq!(stats.merged.nodes_visited, 0);
        let empty = RTree::with_dims(2);
        let rect = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let (out, _) = empty.multi_range(&[MultiRangeQuery {
            transform: None,
            rect: &rect,
        }]);
        assert_eq!(out.len(), 1);
        assert!(out[0].is_empty());
    }
}
