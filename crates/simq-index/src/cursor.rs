//! Incremental (pull-based) range traversal.
//!
//! [`RangeStream`] is the streaming counterpart of
//! [`forest_range`](crate::search::forest_range): an explicit-stack
//! depth-first walk over a forest of trees (one per relation shard; a
//! single tree is a forest of one) that yields matching item ids one at a
//! time instead of materializing the candidate list. Consumers that stop
//! early — `LIMIT`-style cursors, existence checks — simply stop pulling
//! (or drop the stream) and the remaining index descent never happens.
//!
//! Work accounting matches the recursive traversal exactly: a node is
//! counted when it is first entered, an entry when it is tested, so a
//! fully drained stream reports the same [`SearchStats`] as the
//! materializing traversal of the same query, and a partially consumed
//! one reports strictly less whenever unvisited subtrees remain.

use crate::geom::Rect;
use crate::rstar::{Entry, RTree};
use crate::search::SearchStats;
use crate::transform::SpatialTransform;

/// One in-progress node of the depth-first walk.
struct Frame {
    /// Arena index of the node.
    node: usize,
    /// Next entry of the node to test.
    next: usize,
}

/// A lazy range query: an iterator over the item ids whose (optionally
/// transformed) rectangles overlap the query rectangle, in forest-major
/// depth-first traversal order. The trees are walked one after another; a
/// tree's root is entered only when the previous tree's descent is
/// exhausted, so early termination abandons both the rest of the current
/// tree *and* every tree not yet started.
///
/// Created by [`RangeStream::new`] or [`RTree::range_stream`]. The stream
/// borrows the trees; the transformation and query rectangle are owned,
/// so the stream can outlive the scope that built them.
pub struct RangeStream<'t> {
    trees: &'t [RTree],
    transform: Option<Box<dyn SpatialTransform + Send + Sync>>,
    query: Rect,
    scratch: Rect,
    stack: Vec<Frame>,
    /// Trees entered so far; the active stack belongs to tree
    /// `entered - 1`.
    entered: usize,
    stats: SearchStats,
}

impl RTree {
    /// Starts an incremental range query over this tree: like
    /// [`range_transformed`](RTree::range_transformed) (pass `None` for a
    /// plain range query), but returning a pull-based [`RangeStream`]
    /// instead of a materialized id list. Dropping the stream abandons
    /// the remaining descent.
    ///
    /// # Panics
    /// If the query or transformation dimensionality does not match the
    /// tree's.
    pub fn range_stream(
        &self,
        transform: Option<Box<dyn SpatialTransform + Send + Sync>>,
        query: Rect,
    ) -> RangeStream<'_> {
        RangeStream::new(std::slice::from_ref(self), transform, query)
    }
}

impl<'t> RangeStream<'t> {
    /// Starts an incremental range query over `trees`. Pass `None` for an
    /// untransformed query.
    ///
    /// # Panics
    /// If the query or transformation dimensionality does not match any
    /// tree's.
    pub fn new(
        trees: &'t [RTree],
        transform: Option<Box<dyn SpatialTransform + Send + Sync>>,
        query: Rect,
    ) -> Self {
        for tree in trees {
            tree.check_range_dims(transform.as_deref().map(|t| t as _), &query);
        }
        let scratch = Rect::point(&vec![0.0; query.dims()]);
        RangeStream {
            trees,
            transform,
            query,
            scratch,
            stack: Vec::new(),
            entered: 0,
            stats: SearchStats::default(),
        }
    }

    /// Work performed so far — incremental: after a partial consumption
    /// this reflects only the nodes actually entered and entries actually
    /// tested; after draining it equals the materializing traversal's.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// True when every tree's descent has been exhausted.
    pub fn is_done(&self) -> bool {
        self.stack.is_empty() && self.entered >= self.trees.len()
    }

    /// Pushes a node frame of `tree` and counts the node visit (the
    /// recursive traversal counts a node on function entry).
    fn enter(&mut self, tree: &RTree, node: usize) {
        self.stats.count_node(tree.nodes[node].level);
        self.stack.push(Frame { node, next: 0 });
    }
}

impl Iterator for RangeStream<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            let Some(frame) = self.stack.last_mut() else {
                // Current tree exhausted: move to the next one lazily.
                let tree = self.trees.get(self.entered)?;
                self.entered += 1;
                self.enter(tree, tree.root);
                continue;
            };
            let tree = &self.trees[self.entered - 1];
            let Some(entry) = tree.nodes[frame.node].entries.get(frame.next) else {
                self.stack.pop();
                continue;
            };
            frame.next += 1;
            self.stats.entries_tested += 1;
            let transform = self.transform.as_deref().map(|t| t as _);
            if !tree.overlaps(entry.mbr(), &self.query, transform, &mut self.scratch) {
                continue;
            }
            match entry {
                Entry::Child { node, .. } => self.enter(tree, *node),
                Entry::Item { id, .. } => return Some(*id),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transform::DiagonalAffine;

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

    #[test]
    fn drained_stream_equals_materialized_range_with_identical_stats() {
        let t = grid_tree(25);
        for query in [
            Rect::new(vec![2.5, 3.5], vec![7.5, 9.0]),
            Rect::new(vec![-5.0, -5.0], vec![100.0, 100.0]),
            Rect::new(vec![50.0, 50.0], vec![60.0, 60.0]),
        ] {
            let (want, want_stats) = t.range(&query);
            let mut stream = t.range_stream(None, query.clone());
            let got: Vec<u64> = stream.by_ref().collect();
            assert_eq!(sorted(got), sorted(want));
            assert_eq!(*stream.stats(), want_stats);
            assert!(stream.is_done());
        }
    }

    #[test]
    fn drained_transformed_stream_equals_range_transformed() {
        let t = grid_tree(20);
        let affine = DiagonalAffine::new(vec![2.0, -1.0], vec![10.0, 3.0]);
        let query = Rect::new(vec![15.0, -10.0], vec![30.0, 0.0]);
        let (want, want_stats) = t.range_transformed(&affine, &query);
        let mut stream = t.range_stream(Some(Box::new(affine)), query);
        let got: Vec<u64> = stream.by_ref().collect();
        assert_eq!(sorted(got), sorted(want));
        assert_eq!(*stream.stats(), want_stats);
    }

    #[test]
    fn partial_consumption_visits_fewer_nodes() {
        let t = grid_tree(40);
        let query = Rect::new(vec![0.0, 0.0], vec![39.0, 39.0]); // everything
        let (_, full) = t.range(&query);
        let mut stream = t.range_stream(None, query);
        assert!(stream.next().is_some());
        assert!(
            stream.stats().nodes_visited < full.nodes_visited,
            "partial {} vs full {}",
            stream.stats().nodes_visited,
            full.nodes_visited
        );
        assert!(!stream.is_done());
    }

    #[test]
    fn sharded_stream_yields_every_shard_candidate_lazily() {
        // Partition a grid id-mod-3 into three trees.
        let n = 20usize;
        let mut shards: Vec<RTree> = (0..3).map(|_| RTree::with_dims(2)).collect();
        let single = grid_tree(n);
        for id in 0..(n * n) as u64 {
            let p = [(id / n as u64) as f64, (id % n as u64) as f64];
            shards[(id % 3) as usize].insert_point(&p, id);
        }
        let query = Rect::new(vec![3.5, 2.5], vec![11.0, 9.5]);
        let (want, _) = single.range(&query);
        let mut stream = RangeStream::new(&shards, None, query.clone());
        let got: Vec<u64> = stream.by_ref().collect();
        assert_eq!(sorted(got), sorted(want));
        assert!(stream.is_done());
        // The drained stats equal the sum of per-shard materialized runs.
        let full: u64 = shards.iter().map(|t| t.range(&query).1.nodes_visited).sum();
        assert_eq!(stream.stats().nodes_visited, full);
        // Partial consumption never enters shards it does not need.
        let mut partial = RangeStream::new(&shards, None, query);
        assert!(partial.next().is_some());
        assert!(partial.stats().nodes_visited < full);
        assert!(!partial.is_done());
    }

    #[test]
    fn empty_tree_stream() {
        let t = RTree::with_dims(2);
        let mut stream = t.range_stream(None, Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]));
        assert_eq!(stream.next(), None);
        assert_eq!(stream.stats().nodes_visited, 1);
        assert!(stream.is_done());
    }
}
