//! The one traversal of both access paths: a best-first descent over one
//! of two sources, steered by one [`Stage`], that answers both of the
//! paper's query forms.
//!
//! * **The index**: a forest of trees (one per relation shard; a single
//!   tree is a forest of one). "As we go down the tree, we apply T to all
//!   entries of the node we visit": entries are moved by the
//!   transformation and keyed by the stage's entry test or key.
//! * **A flat source** (the sequential scan): the positions of each
//!   store's rows in scan order, in leaves: a whole store under a fixed
//!   bound, which heaps nothing, and runs of at most the trees' default
//!   node capacity under the `k`-th best. It has no rectangles, so no
//!   entry test and no transformation: every row is read, keyed by the
//!   stage's row bound (0 where the stage has none), and counted only as a
//!   row read ([`SearchStats::rows_scanned`]), never as a node, a leaf or
//!   an entry.
//!
//! Either source hands its stage each row as its place, a [`RowRef`]: a
//! tree's leaf holds the position of its row in the tree's store, and a
//! flat source reads its stores' positions in scan order. The stage reads
//! a row there without an id lookup, and names it ([`Stage::id`]) only
//! when the descent yields it.
//!
//! Hjaltason & Samet's distance browsing (TODS 1999) casts both query
//! forms as a best-first descent that differs in its *bound*. Here the two
//! bounds share one type: its roots (a frontier that starts with every
//! tree's root, or with the flat source's leaves), its keys, its per-store
//! counters and its pull interface. Each bound has its own loop:
//!
//! * **A fixed bound** (range, [`Descent::within`]): the stage's entry test
//!   alone prunes, keeping a subtree or row whose transformed rectangle
//!   overlaps the search rectangle. Nodes are read entry by entry along an
//!   open path, depth first as Algorithm 2 recurses: a kept row is refined
//!   on the spot, straight from its leaf and never heaped, and yielded at
//!   once if refine accepts it; at a kept subtree the reading pauses and
//!   the subtree is read first. The frontier holds only the roots, all at
//!   one key, so it hands out the trees in shard order and shards are
//!   entered one after another. Like the recursion, it reads an empty
//!   tree's root. Over a flat source every row is refined, store after
//!   store in scan order: a range scan.
//! * **The live `k`-th best** (kNN, [`Descent::nearest`]). A node is read
//!   whole: entries are keyed by a lower bound and pruned above the `k`-th
//!   best distance refined so far. A leaf's kept rows wait in a run whose
//!   smallest `(key, position)` alone is heaped, then the next smallest: the
//!   visit order of a heap of every row, at one heap entry per leaf. With a
//!   stage that refines, this is Seidl & Kriegel's optimal multi-step
//!   search (SIGMOD 1998): bounds only rank, each row reached is refined to
//!   its exact distance, and no row whose bound exceeds the final `k`-th
//!   distance is refined. A refined row is yielded once its distance is
//!   strictly below the next frontier key, when nothing unread can precede
//!   it, so rows come out in final `(distance, id)` order and the descent
//!   stops after `k` of them. Empty trees are not entered. A flat source's
//!   leaves would all key 0, so they are read when the descent is made and
//!   only their runs are heaped: rows are refined in row-bound order, the
//!   optimal multi-step search over a flat list, rows of one key in scan
//!   order.
//!
//! Keys depend only on an entry's (transformed) rectangle or on its row,
//! so the answer is the same however the rows are split into trees or
//! stores, and whichever source holds them.
//!
//! The descent is pull-based: materialized execution drains it, a cursor
//! pauses it between pulls, and dropping it abandons what was not read.
//! Work is counted per tree or store as it happens, so a paused descent
//! reports only the nodes it opened, the entries it tested and the rows it
//! read and refined.

use crate::geom::{Rect, Space};
use crate::knn::{cmp_distance_id, LocalKth, Neighbor, Ranked};
use crate::rstar::{Entry, RTree, RTreeConfig};
use crate::search::{ForestStats, SearchStats};
use crate::transform::DiagonalAffine;
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::ops::Range;

/// A row as a descent hands it to its stage: its place, where the stage
/// reads it without a lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RowRef {
    /// The tree or store the row is in: the descent's shard.
    pub store: usize,
    /// The row's position in that store: a tree leaf's slot, or a flat
    /// source's position.
    pub pos: usize,
}

/// What a descent does at the entries and rows it reaches.
pub trait Stage {
    /// The entry test or key of an index entry whose (transformed)
    /// rectangle is `rect`, under the tree's dimension semantics `space`.
    /// `None` prunes the entry. `Some(key)` must be a lower bound on the
    /// distance of every row under the entry; under a `k`-th-best bound an
    /// entry whose key exceeds the bound is pruned too.
    fn key(&self, space: &Space, rect: &Rect) -> Option<f64>;

    /// The row bound: a lower bound on `row`'s distance, from data the
    /// index does not hold, that keys the row in place of
    /// [`Stage::key`] of its rectangle. `None`, the default, keys rows like
    /// nodes.
    fn row_bound(&self, _row: RowRef) -> Option<f64> {
        None
    }

    /// Refines `row`, kept at key `key` while the descent's bound is
    /// `bound` (the live `k`-th best; infinite under a fixed bound): its
    /// distance, or `None` when it is no answer. Under a `k`-th-best bound
    /// it must never drop a row whose distance is `<= bound`. Reports its
    /// own work in `stats`
    /// ([`SearchStats::refine_work`], [`SearchStats::filtered_out`]). The
    /// default accepts every row at its key: the index alone decides.
    fn refine(&self, _row: RowRef, key: f64, _bound: f64, _stats: &mut SearchStats) -> Option<f64> {
        Some(key)
    }

    /// Keys the rows at positions `rows` of a flat source's store `store`
    /// by [`Stage::row_bound`] (0 where it has none), appending `(key,
    /// position)` to `out`: a flat leaf is keyed at once, so a stage can
    /// find the store's data once per leaf instead of once per row.
    fn row_bounds(&self, store: usize, rows: Range<usize>, out: &mut Vec<(f64, u64)>) {
        out.extend(rows.map(|pos| {
            let key = self.row_bound(RowRef { store, pos });
            (key.unwrap_or(0.0), pos as u64)
        }));
    }

    /// The id of `row`, asked only of the rows the descent yields: the
    /// [`Neighbor::id`] it yields. A stage over trees whose slots are the
    /// caller's ids names a row by its slot, `row.pos`.
    fn id(&self, row: RowRef) -> u64;
}

/// The bound a descent prunes against.
enum Bound {
    /// A fixed bound (range): the stage's entry test alone prunes.
    Fixed,
    /// The live `k`-th best refined distance (kNN).
    Kth(LocalKth),
}

impl Bound {
    fn now(&self) -> f64 {
        match self {
            Bound::Fixed => f64::INFINITY,
            Bound::Kth(kth) => kth.kth(),
        }
    }
}

/// A span `lo..hi` of the descent's row arena.
type Run = (usize, usize);

/// Where a descent's rows come from.
enum Source<'t> {
    /// One R*-tree per shard.
    Trees(&'t [RTree]),
    /// The positions of each store's rows, in scan order: under a fixed
    /// bound a store is one leaf, read straight through; under the `k`-th
    /// best it is cut into leaves of at most the trees' default node
    /// capacity, so a leaf's run, which `push_head` scans, is as short as a
    /// tree leaf's.
    Flat(Vec<Range<usize>>),
}

/// Where a frontier element points. Rows order below nodes, so at equal
/// keys results surface as early as possible. A row is the smallest
/// `(key, row)` of its leaf's kept rows, the rest of which wait off the
/// heap in `run`: it pops exactly when a heap of every row would pop it.
/// `row` is the row's position in its store, so rows of one key break ties
/// in store order. `(shard, row)` is unique; `run` never decides. A node
/// of a flat source is one of its stores.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
enum At {
    Row { shard: usize, row: u64, run: Run },
    Node { shard: usize, idx: usize },
}

/// A best-first descent over a forest of trees or a flat source (see the
/// [module docs](self)): an iterator of [`Neighbor`]s, each a row and the
/// distance its stage refined it to.
///
/// Tree entries are moved by the index's one transformation type,
/// [`DiagonalAffine`], or by none. The descent owns its stage and its flat
/// source, and either owns its transformation (the engine's cursors keep
/// it) or borrows it for as long as it borrows the trees, so a paused one
/// can be kept wherever the trees live.
pub struct Descent<'t, S> {
    source: Source<'t>,
    transform: Option<Cow<'t, DiagonalAffine>>,
    stage: S,
    bound: Bound,
    /// The trees' roots, and under a `k`-th-best bound every kept node
    /// and run head, still to read.
    frontier: BinaryHeap<Reverse<Ranked<At>>>,
    /// Under a fixed bound: the nodes being read, `(shard, node, next
    /// entry)`, from a root down to the innermost (one store at most).
    open: Vec<(usize, usize, usize)>,
    /// Under a `k`-th-best bound: the kept rows of opened leaves, `(key,
    /// row)` as in [`At::Row`].
    rows: Vec<(f64, u64)>,
    /// Under a `k`-th-best bound: refined rows the frontier may still
    /// undercut, `(distance, id)`.
    ready: BinaryHeap<Reverse<Ranked<u64>>>,
    /// Rows still to yield: `k` counting down, unbounded for a fixed bound.
    left: usize,
    /// Transformed MBRs are written here: no allocation per entry.
    scratch: Rect,
    /// One entry per tree or store.
    per_shard: Vec<SearchStats>,
}

impl<'t, S: Stage> Descent<'t, S> {
    /// A range descent: every row the stage's entry test keeps and its
    /// refine accepts, tree after tree, each depth first. The identity is
    /// `None`: the entry test then reads each entry's own rectangle, which
    /// is what the identity maps it to, with no map per entry.
    ///
    /// # Panics
    /// If the transformation's dimensionality differs from a tree's.
    pub fn within(
        trees: &'t [RTree],
        transform: Option<Cow<'t, DiagonalAffine>>,
        stage: S,
    ) -> Self {
        let source = Source::Trees(trees);
        Self::new(source, transform, stage, Bound::Fixed, usize::MAX)
    }

    /// A `k`-nearest descent: the `k` rows with the smallest refined
    /// distances across the forest, in `(distance, id)` order.
    ///
    /// # Panics
    /// If the transformation's dimensionality differs from a tree's.
    pub fn nearest(
        trees: &'t [RTree],
        transform: Option<Cow<'t, DiagonalAffine>>,
        stage: S,
        k: usize,
    ) -> Self {
        let bound = Bound::Kth(LocalKth::new(k));
        Self::new(Source::Trees(trees), transform, stage, bound, k)
    }

    /// A range descent over a flat source, `stores` holding the positions
    /// of each store's rows to read, in scan order: every row refined,
    /// store after store.
    pub fn within_flat(stores: Vec<Range<usize>>, stage: S) -> Self {
        Self::new(Source::Flat(stores), None, stage, Bound::Fixed, usize::MAX)
    }

    /// A `k`-nearest descent over a flat source, `stores` as in
    /// [`Descent::within_flat`]: every row is keyed here, then rows are
    /// refined in row-bound order and the `k` nearest yielded in
    /// `(distance, id)` order.
    pub fn nearest_flat(stores: Vec<Range<usize>>, stage: S, k: usize) -> Self {
        let bound = Bound::Kth(LocalKth::new(k));
        Self::new(Source::Flat(stores), None, stage, bound, k)
    }

    fn new(
        source: Source<'t>,
        transform: Option<Cow<'t, DiagonalAffine>>,
        stage: S,
        bound: Bound,
        left: usize,
    ) -> Self {
        let fixed = matches!(bound, Bound::Fixed);
        let root = |(shard, idx)| {
            let what = At::Node { shard, idx };
            Reverse(Ranked { key: 0.0, what })
        };
        let (frontier, dims, shards) = match &source {
            Source::Trees(trees) => {
                if let Some(t) = &transform {
                    for tree in *trees {
                        assert_eq!(t.dims(), tree.dims(), "transform dimensionality mismatch");
                    }
                }
                let roots = trees.iter().enumerate();
                let roots = roots.filter(|(_, t)| fixed || !t.is_empty());
                let roots = roots.map(|(s, t)| root((s, t.root)));
                let dims = trees.first().map_or(0, RTree::dims);
                (roots.collect(), dims, trees.len())
            }
            // A range scan reads each store as its one leaf. Under the k-th
            // best every leaf keys 0 and is read before any row: the leaves
            // are read at once below, and only their runs' heads are heaped.
            Source::Flat(stores) => {
                let leaves = stores.iter().enumerate();
                let leaves = leaves.filter(|(_, rows)| fixed && !rows.is_empty());
                (leaves.map(|(s, _)| root((s, 0))).collect(), 0, stores.len())
            }
        };
        let mut descent = Descent {
            source,
            scratch: Rect::point(&vec![0.0; dims]),
            transform,
            stage,
            bound,
            frontier,
            open: Vec::new(),
            rows: Vec::new(),
            ready: BinaryHeap::new(),
            left,
            per_shard: vec![SearchStats::default(); shards],
        };
        if !fixed {
            descent.read_flat();
        }
        descent
    }

    /// Reads every leaf of a flat source under a `k`-th-best bound, as the
    /// descent is made: each row goes into its leaf's run, keyed by its row
    /// bound, and each run's head onto the frontier. Nothing is refined
    /// yet, so the bound is infinite and no row is pruned.
    fn read_flat(&mut self) {
        let Source::Flat(stores) = &self.source else {
            return;
        };
        let leaf = RTreeConfig::default().max_entries;
        let (stage, arena) = (&self.stage, &mut self.rows);
        arena.reserve(stores.iter().map(ExactSizeIterator::len).sum());
        let mut runs = Vec::new();
        for (shard, rows) in stores.iter().enumerate() {
            self.per_shard[shard].rows_scanned += rows.len() as u64;
            for lo in rows.clone().step_by(leaf) {
                let start = arena.len();
                stage.row_bounds(shard, lo..rows.end.min(lo + leaf), arena);
                runs.push((shard, (start, arena.len())));
            }
        }
        for (shard, run) in runs {
            self.push_head(shard, run);
        }
    }

    /// Work done so far, per tree and merged: after a partial run only the
    /// nodes opened, the entries tested and the rows refined, after
    /// draining the whole search.
    pub fn stats(&self) -> ForestStats {
        ForestStats::from_shards(self.per_shard.clone())
    }

    /// [`Descent::stats`] of a descent that is done with.
    pub fn into_stats(self) -> ForestStats {
        ForestStats::from_shards(self.per_shard)
    }

    /// Reads node `idx` of tree `shard` whole, under a `k`-th-best bound:
    /// every entry its stage keeps goes onto the frontier (subtrees) or
    /// into a run of the arena (rows), which it returns.
    fn expand(&mut self, shard: usize, idx: usize) -> Run {
        let bound = self.bound.now();
        let Source::Trees(trees) = &self.source else {
            unreachable!("a flat source's leaves are read as the descent is made");
        };
        let tree = &trees[shard];
        let entries = &tree.nodes[idx].entries;
        self.per_shard[shard].entries_tested += entries.len() as u64;
        let start = self.rows.len();
        let transform = self.transform.as_deref();
        for e in entries {
            let (stage, scratch) = (&self.stage, &mut self.scratch);
            let Some(key) = entry_key(stage, transform, scratch, (&tree.space, shard), bound, e)
            else {
                continue;
            };
            match e {
                Entry::Child { node, .. } => {
                    let what = At::Node { shard, idx: *node };
                    self.frontier.push(Reverse(Ranked { key, what }));
                }
                Entry::Item { slot, .. } => self.rows.push((key, *slot)),
            }
        }
        (start, self.rows.len())
    }

    /// Reads on along the open path, under a fixed bound: the next row
    /// its stage keeps and refine accepts, or `None` once the path has
    /// closed. A kept subtree opens at once and is read before the rest of
    /// its node; a node read to its end closes. A flat store has no entry
    /// test: each of its rows is read and refined. Kept out of line: inlined
    /// into `next` it slowed the `k`-th-best loop there by 2–4 %.
    #[inline(never)]
    fn read(&mut self) -> Option<Neighbor> {
        let Descent {
            source,
            transform,
            stage,
            bound,
            open,
            scratch,
            per_shard,
            ..
        } = self;
        let (bound, transform) = (bound.now(), transform.as_deref());
        let trees = match source {
            Source::Trees(trees) => *trees,
            Source::Flat(stores) => {
                let (shard, _, next) = open.pop()?;
                let (rows, stats) = (&stores[shard], &mut per_shard[shard]);
                let mut unread = rows.start + next..rows.end;
                let found = unread.find_map(|pos| {
                    let row = RowRef { store: shard, pos };
                    let key = stage.row_bound(row).unwrap_or(0.0);
                    let dist_sq = stage.refine(row, key, bound, stats)?;
                    let id = stage.id(row);
                    Some(Neighbor { id, dist_sq })
                });
                let read_to = rows.len() - unread.len();
                stats.rows_scanned += (read_to - next) as u64;
                stats.candidates += (read_to - next) as u64;
                if found.is_some() && !unread.is_empty() {
                    open.push((shard, 0, read_to));
                }
                return found;
            }
        };
        while let Some(&(shard, idx, next)) = open.last() {
            let (tree, stats) = (&trees[shard], &mut per_shard[shard]);
            let entries = &tree.nodes[idx].entries;
            let mut unread = entries[next..].iter();
            let mut child = None;
            let found = loop {
                let Some(e) = unread.next() else {
                    break None;
                };
                let Some(key) =
                    entry_key(stage, transform, scratch, (&tree.space, shard), bound, e)
                else {
                    continue;
                };
                match e {
                    Entry::Item { slot, .. } => {
                        stats.candidates += 1;
                        let row = RowRef {
                            store: shard,
                            pos: *slot as usize,
                        };
                        if let Some(dist_sq) = stage.refine(row, key, bound, stats) {
                            break Some(Neighbor {
                                id: stage.id(row),
                                dist_sq,
                            });
                        }
                    }
                    Entry::Child { node, .. } => {
                        child = Some(*node);
                        break None;
                    }
                }
            };
            let read_to = entries.len() - unread.len();
            stats.entries_tested += (read_to - next) as u64;
            match open.last_mut() {
                Some(top) if read_to < entries.len() => top.2 = read_to,
                _ => {
                    open.pop();
                }
            }
            if let Some(node) = child {
                stats.count_node(tree.nodes[node].level);
                open.push((shard, node, 0));
            }
            if found.is_some() {
                return found;
            }
        }
        None
    }

    /// Heaps the smallest `(key, row)` of a run, swapped to its front, if
    /// its key is within the bound. A head dropped here could only have
    /// been pruned: the rest of its run is no nearer, and the bound never
    /// grows.
    fn push_head(&mut self, shard: usize, (lo, hi): Run) {
        let run = &mut self.rows[lo..hi];
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
        let ((key, row), run) = (min, (lo + 1, hi));
        if key <= self.bound.now() {
            let what = At::Row { shard, row, run };
            self.frontier.push(Reverse(Ranked { key, what }));
        }
    }
}

/// The stage's key for entry `e` of tree `store` over `space`, or `None`
/// when the stage prunes it or the key exceeds `bound`. Always inlined:
/// left to itself the compiler kept it out of line once a stage's row
/// bound grew, a call per entry that cost an indexed kNN 3–4 %.
#[inline(always)]
fn entry_key<S: Stage>(
    stage: &S,
    transform: Option<&DiagonalAffine>,
    scratch: &mut Rect,
    (space, store): (&Space, usize),
    bound: f64,
    e: &Entry,
) -> Option<f64> {
    let row = match e {
        Entry::Item { slot, .. } => stage.row_bound(RowRef {
            store,
            pos: *slot as usize,
        }),
        Entry::Child { .. } => None,
    };
    // A plain match: `Option::or_else` with this closure was not inlined.
    let key = match (row, transform) {
        (Some(key), _) => key,
        (None, Some(t)) => {
            t.apply_rect_into(e.mbr(), scratch);
            stage.key(space, scratch)?
        }
        (None, None) => stage.key(space, e.mbr())?,
    };
    if key > bound {
        return None;
    }
    Some(key)
}

impl<S: Stage> Iterator for Descent<'_, S> {
    type Item = Neighbor;

    fn next(&mut self) -> Option<Neighbor> {
        while self.left > 0 {
            // Only a fixed bound opens a path: kNN skips the call.
            if !self.open.is_empty() {
                if let Some(hit) = self.read() {
                    return Some(hit);
                }
            }
            // Every unread row is at least the frontier's smallest key
            // away, so a refined row strictly below it is next in order.
            if let Some(Reverse(row)) = self.ready.peek() {
                if self
                    .frontier
                    .peek()
                    .is_none_or(|Reverse(next)| row.key < next.key)
                {
                    let Reverse(row) = self.ready.pop().expect("peeked");
                    self.left -= 1;
                    let (id, dist_sq) = (row.what, row.key);
                    return Some(Neighbor { id, dist_sq });
                }
            }
            // Under a k-th-best bound the frontier never pops above the
            // bound while rows are left: at least `left` refined rows lie
            // at or below it and are yielded first.
            let Reverse(top) = self.frontier.pop()?;
            match top.what {
                At::Row { shard, row, run } => {
                    let stats = &mut self.per_shard[shard];
                    stats.candidates += 1;
                    let kth = self.bound.now();
                    let row = RowRef {
                        store: shard,
                        pos: row as usize,
                    };
                    if let Some(d) = self.stage.refine(row, top.key, kth, stats) {
                        if let Bound::Kth(kth) = &mut self.bound {
                            kth.offer(d);
                        }
                        let what = self.stage.id(row);
                        self.ready.push(Reverse(Ranked { key: d, what }));
                    }
                    self.push_head(shard, run);
                }
                At::Node { shard, idx } => {
                    if let Source::Trees(trees) = &self.source {
                        self.per_shard[shard].count_node(trees[shard].nodes[idx].level);
                    }
                    if let Bound::Fixed = self.bound {
                        self.open.push((shard, idx, 0));
                    } else {
                        let run = self.expand(shard, idx);
                        self.push_head(shard, run);
                    }
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::DimSemantics;
    use crate::search::Window;
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::ops::Range;

    /// Item `id` at `points[id]`, split id-mod-`shards` into stores, and
    /// the ids of each store by position: store `s` holds `s, s + shards,
    /// …`, so positions and ids differ wherever there is more than one.
    fn stores(points: usize, shards: usize) -> Vec<Vec<u64>> {
        let ids = |s| (s..points).step_by(shards).map(|id| id as u64);
        (0..shards).map(|s| ids(s).collect()).collect()
    }

    /// One tree over `space` per store of [`stores`], of at most four
    /// entries a node, bulk-loaded or inserted one by one: each leaf's slot
    /// is its row's position in its store.
    fn forest(points: &[[f64; 2]], shards: usize, bulk: bool, space: &Space) -> Vec<RTree> {
        let config = RTreeConfig {
            max_entries: 4,
            ..RTreeConfig::default()
        };
        (0..shards)
            .map(|s| {
                let items = points.iter().skip(s).step_by(shards).enumerate();
                let items = items.map(|(pos, p)| (Rect::point(p), pos as u64));
                if bulk {
                    let all = 0..space.dims();
                    return RTree::bulk_load(space.clone(), config.clone(), items.collect(), all);
                }
                let mut tree = RTree::new(space.clone(), config.clone());
                items.for_each(|(rect, pos)| tree.insert(rect, pos));
                tree
            })
            .collect()
    }

    /// Where a case's rows live: the ids of each store by position, and
    /// the [`forest`] over them, or `None` for a flat source of them.
    struct Rows {
        stores: Vec<Vec<u64>>,
        trees: Option<Vec<RTree>>,
    }

    /// Every position of each store.
    fn whole(stores: &[Vec<u64>]) -> Vec<Range<usize>> {
        stores.iter().map(|ids| 0..ids.len()).collect()
    }

    impl Rows {
        /// `source` 0 and 1 build the forest incrementally and bulk-loaded,
        /// 2 keeps the stores flat.
        fn new(points: &[[f64; 2]], shards: usize, source: u8) -> Self {
            let space = Space::linear(2);
            Rows {
                stores: stores(points.len(), shards),
                trees: (source < 2).then(|| forest(points, shards, source == 1, &space)),
            }
        }

        /// A range descent over the trees or stores `part`; trees move
        /// their entries by `affine`.
        fn within<'t, S: Stage>(
            &'t self,
            part: Range<usize>,
            affine: &'t DiagonalAffine,
            stage: S,
        ) -> Descent<'t, S> {
            match &self.trees {
                Some(trees) => Descent::within(&trees[part], Some(Cow::Borrowed(affine)), stage),
                None => Descent::within_flat(whole(&self.stores[part]), stage),
            }
        }

        /// A `k`-nearest descent over every tree or store.
        fn nearest<'t, S: Stage>(
            &'t self,
            affine: &'t DiagonalAffine,
            stage: S,
            k: usize,
        ) -> Descent<'t, S> {
            match &self.trees {
                Some(trees) => Descent::nearest(trees, Some(Cow::Borrowed(affine)), stage, k),
                None => Descent::nearest_flat(whole(&self.stores), stage, k),
            }
        }

        /// Each row id's leaf, `(shard, node)`; a flat leaf is numbered
        /// within its store.
        fn leaves(&self) -> HashMap<u64, (usize, usize)> {
            let mut leaf = HashMap::new();
            match &self.trees {
                Some(trees) => {
                    for (shard, tree) in trees.iter().enumerate() {
                        for (idx, node) in tree.nodes.iter().enumerate() {
                            for e in &node.entries {
                                if let Entry::Item { slot, .. } = e {
                                    let id = self.stores[shard][*slot as usize];
                                    leaf.insert(id, (shard, idx));
                                }
                            }
                        }
                    }
                }
                None => {
                    let capacity = RTreeConfig::default().max_entries;
                    for (shard, ids) in self.stores.iter().enumerate() {
                        for (at, id) in ids.iter().enumerate() {
                            leaf.insert(*id, (shard, at / capacity));
                        }
                    }
                }
            }
            leaf
        }
    }

    /// The range stage of both sources: the window's entry test, and, when
    /// `test`, a refine that tests a row's moved point, since a flat source
    /// has no rectangle to test. Over trees rows are accepted at their key,
    /// as [`Window`] does, so the entry test alone must match brute force.
    /// Rows are named at their place in `stores`.
    struct InWindow<'a> {
        window: &'a Rect,
        moved: &'a [Vec<f64>],
        stores: &'a [Vec<u64>],
        test: bool,
    }

    impl Stage for InWindow<'_> {
        fn key(&self, space: &Space, rect: &Rect) -> Option<f64> {
            Window(self.window).key(space, rect)
        }
        fn refine(&self, row: RowRef, key: f64, _: f64, _: &mut SearchStats) -> Option<f64> {
            let id = self.id(row);
            let inside = self.window.contains_linear(&self.moved[id as usize]);
            (inside || !self.test).then_some(key)
        }
        fn id(&self, row: RowRef) -> u64 {
            self.stores[row.store][row.pos]
        }
    }

    /// A kNN stage over transformed integer points: a rectangle is keyed
    /// by its MINDIST to `q` (a row's by its point's distance, read from
    /// the row when `rows`), and a row is refined to that plus a hidden
    /// `id % hide`, so bound order and answer order differ and ties
    /// abound. Rows are found at their place in `stores`, and every refine
    /// call's `(key, id)` is logged.
    struct Hidden<'a> {
        q: [f64; 2],
        points: &'a [Vec<f64>],
        stores: &'a [Vec<u64>],
        rows: bool,
        hide: u64,
        log: &'a RefCell<Vec<(f64, u64)>>,
    }

    impl Hidden<'_> {
        fn key(&self, id: u64) -> f64 {
            Rect::point(&self.points[id as usize]).min_dist_sq(&self.q)
        }
        fn exact(&self, id: u64) -> f64 {
            self.key(id) + (id % self.hide) as f64
        }
    }

    impl Stage for Hidden<'_> {
        fn key(&self, _: &Space, rect: &Rect) -> Option<f64> {
            Some(rect.min_dist_sq(&self.q))
        }
        fn row_bound(&self, row: RowRef) -> Option<f64> {
            self.rows.then(|| self.key(self.id(row)))
        }
        fn refine(
            &self,
            row: RowRef,
            key: f64,
            bound: f64,
            stats: &mut SearchStats,
        ) -> Option<f64> {
            // A row bound read at another row's place would key another row.
            let id = self.id(row);
            assert!(!self.rows || key == self.key(id), "row {id} keyed {key}");
            stats.refine_work += 1;
            self.log.borrow_mut().push((key, id));
            Some(self.exact(id)).filter(|d| *d <= bound)
        }
        fn id(&self, row: RowRef) -> u64 {
            self.stores[row.store][row.pos]
        }
    }

    /// Drains one descent, and a twin paused after `pause` pulls and then
    /// resumed: the resumed pulls are the drain bitwise, both runs' shards
    /// sum to their merged counters, and the paused run's counters never
    /// exceed the drained run's. Returns the drain's `(distance, id)`s and
    /// counters.
    fn drain_and_pause<'t, S: Stage>(
        make: impl Fn() -> Descent<'t, S>,
        pause: usize,
    ) -> (Vec<(f64, u64)>, SearchStats) {
        let mut full = make();
        let all: Vec<(f64, u64)> = full.by_ref().map(|n| (n.dist_sq, n.id)).collect();
        let mut paused = make();
        let mut resumed: Vec<(f64, u64)> = paused
            .by_ref()
            .take(pause)
            .map(|n| (n.dist_sq, n.id))
            .collect();
        let partial = paused.stats();
        resumed.extend(paused.by_ref().map(|n| (n.dist_sq, n.id)));
        let bits = |v: &[(f64, u64)]| {
            v.iter()
                .map(|(d, id)| (d.to_bits(), *id))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&resumed), bits(&all));
        let drained = full.stats();
        assert_eq!(paused.stats().per_shard, drained.per_shard);
        let counters = |s: &SearchStats| {
            let SearchStats {
                nodes_visited: a,
                leaves_visited: b,
                entries_tested: c,
                rows_scanned: d,
                candidates: e,
                filtered_out: f,
                refine_work: g,
            } = *s;
            [a, b, c, d, e, f, g]
        };
        for stats in [&partial, &drained] {
            let mut sum = SearchStats::default();
            stats.per_shard.iter().for_each(|s| sum.add(s));
            assert_eq!(sum, stats.merged);
        }
        let (part, whole) = (counters(&partial.merged), counters(&drained.merged));
        assert!(
            part.iter().zip(&whole).all(|(p, w)| p <= w),
            "{part:?} > {whole:?}"
        );
        (all, drained.merged)
    }

    /// One random case of the property: both bounds over one forest or
    /// flat source (`source` as in [`Rows::new`]).
    fn descents_agree(
        raw: &[(i32, i32)],
        (shards, source): (usize, u8),
        (scale, shift): ((i32, i32), (i32, i32)),
        (q, k, rows): ((i32, i32), usize, bool),
        (corner, side): ((i32, i32), i32),
        pause: usize,
    ) {
        let points: Vec<[f64; 2]> = raw.iter().map(|&(x, y)| [x as f64, y as f64]).collect();
        let trees = Rows::new(&points, shards, source);
        let nonzero = |s: i32| if s == 0 { 1.0 } else { s as f64 };
        let scale = vec![nonzero(scale.0), nonzero(scale.1)];
        let affine = DiagonalAffine::new(scale, vec![shift.0 as f64, shift.1 as f64]);
        let moved: Vec<Vec<f64>> = points.iter().map(|p| affine.apply_point(p)).collect();
        let (stores, test) = (trees.stores.as_slice(), trees.trees.is_none());

        // A fixed bound: the rows inside the window, once each; each tree
        // or store is entered on its own, so its share is its own search.
        let lo = [corner.0 as f64, corner.1 as f64];
        let window = Rect::new(lo.to_vec(), lo.iter().map(|v| v + side as f64).collect());
        let kept = |window: &Rect| {
            let moved = &moved;
            let stage = || InWindow {
                window,
                moved,
                stores,
                test,
            };
            let range = || trees.within(0..shards, &affine, stage());
            let mut ids: Vec<u64> = drain_and_pause(range, pause)
                .0
                .iter()
                .map(|h| h.1)
                .collect();
            ids.sort_unstable();
            ids
        };
        let inside =
            (0..points.len() as u64).filter(|&id| window.contains_linear(&moved[id as usize]));
        let inside = inside.collect::<Vec<_>>();
        assert_eq!(kept(&window), inside);
        // A flat source's stores cut in two spans each, the second starting
        // mid-store, as a range scan's threads cut them: the same rows.
        if test {
            let mut ids = Vec::new();
            for half in [0, 1] {
                let span = stores.iter().map(|ids| {
                    let mid = ids.len() / 2;
                    if half == 0 {
                        0..mid
                    } else {
                        mid..ids.len()
                    }
                });
                let stage = InWindow {
                    window: &window,
                    moved: &moved,
                    stores,
                    test,
                };
                ids.extend(Descent::within_flat(span.collect(), stage).map(|n| n.id));
            }
            ids.sort_unstable();
            assert_eq!(ids, inside);
        }
        // A window around every row keeps each, however the pulls pause.
        let every = moved
            .iter()
            .map(|p| Rect::point(p))
            .reduce(|a, b| a.union(&b));
        if let Some(every) = every {
            assert_eq!(kept(&every), (0..points.len() as u64).collect::<Vec<_>>());
        }
        let range = |part: Range<usize>| {
            let stage = InWindow {
                window: &window,
                moved: &moved,
                stores: &stores[part.clone()],
                test,
            };
            trees.within(part, &affine, stage)
        };
        let mut whole = range(0..shards);
        whole.by_ref().for_each(drop);
        for (shard, share) in whole.stats().per_shard.iter().enumerate() {
            let mut alone = range(shard..shard + 1);
            alone.by_ref().for_each(drop);
            assert_eq!(*share, alone.stats().merged, "shard {shard}");
        }

        // The k-th best: the k nearest by (distance, id), in that order.
        let log = RefCell::default();
        let stage = || Hidden {
            q: [q.0 as f64, q.1 as f64],
            points: &moved,
            stores,
            rows,
            hide: if rows { 3 } else { 1 },
            log: &log,
        };
        let nearest = || trees.nearest(&affine, stage(), k);
        let (got, stats) = drain_and_pause(nearest, pause);
        let exact = stage();
        let mut want: Vec<(f64, u64)> = (0..points.len() as u64)
            .map(|id| (exact.exact(id), id))
            .collect();
        want.sort_by(|a, b| cmp_distance_id(*a, *b));
        want.truncate(k);
        assert_eq!(got, want);

        // The paused run refined what the drain did. The drain refined in
        // ascending key, each leaf's rows in strictly ascending (key,
        // position), which is (key, id) here, so no row twice, and none
        // keyed above the final k-th distance. Across leaves ids may fall
        // at one key: a subtree whose key ties a refined row's opens after
        // it.
        let log = log.take();
        let (drained, resumed) = log.split_at(log.len() / 2);
        assert_eq!(drained, resumed);
        assert_eq!(stats.candidates, drained.len() as u64);
        assert!(drained.windows(2).all(|w| w[0].0 <= w[1].0), "{drained:?}");
        let leaf = trees.leaves();
        let mut by_leaf: HashMap<_, Vec<(f64, u64)>> = HashMap::new();
        for &row in drained {
            by_leaf.entry(leaf[&row.1]).or_default().push(row);
        }
        for rows in by_leaf.values() {
            let ascending = |w: &[(f64, u64)]| cmp_distance_id(w[0], w[1]).is_lt();
            assert!(rows.windows(2).all(ascending), "{rows:?}");
        }
        let kth = want.get(k - 1).map_or(f64::INFINITY, |w| w.0);
        assert!(
            drained.iter().all(|&(key, _)| key <= kth),
            "{drained:?} > {kth}"
        );
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random forests of 1–5 shards, bulk-loaded and incrementally
        /// built, and flat sources of as many stores, under both bounds,
        /// paused at random points: resumed pulls ≡ a full drain ≡ brute
        /// force, and the counters partition and only grow.
        #[test]
        fn paused_descents_resume_to_the_drain_and_brute_force(
            raw in proptest::prelude::prop::collection::vec((0i32..20, 0i32..20), 0..120),
            forest in (1usize..6, 0u8..3),
            affine in ((-2i32..3, -2i32..3), (-3i32..4, -3i32..4)),
            knn in ((-4i32..24, -4i32..24), 1usize..30, 0u8..2),
            window in ((-30i32..30, -30i32..30), 0i32..30),
            pause in 0usize..40,
        ) {
            let knn = (knn.0, knn.1, knn.2 == 1);
            descents_agree(&raw, forest, affine, knn, window, pause);
        }
    }

    /// A kNN stage keyed by a rectangle's MINDIST to `q`, each row
    /// accepted at its key: the index alone decides, so the order in which
    /// entries are keyed shows in the answer.
    struct MinDist([f64; 2]);

    impl Stage for MinDist {
        fn key(&self, _: &Space, rect: &Rect) -> Option<f64> {
            Some(rect.min_dist_sq(&self.0))
        }
        fn id(&self, row: RowRef) -> u64 {
            row.pos as u64
        }
    }

    /// Both bounds over one forest of a linear and a circular dimension
    /// (period 2π, angles stored in `[−π, π)`, `−0.0` included), once under
    /// no transformation and once under the identity map: the same hits,
    /// bit for bit, and the same counters.
    fn identity_is_no_transformation(
        raw: &[(i32, i32)],
        (shards, bulk): (usize, bool),
        (corner, side): ((i32, i32), (i32, i32)),
        (q, k): ((i32, i32), usize),
    ) {
        use std::f64::consts::PI;
        let angle = |a: i32| {
            if a == 0 {
                -0.0
            } else {
                a as f64 * PI / 16.0 - PI
            }
        };
        let points: Vec<[f64; 2]> = raw.iter().map(|&(x, a)| [x as f64, angle(a)]).collect();
        let space = Space::new(vec![
            DimSemantics::Linear,
            DimSemantics::Circular { period: 2.0 * PI },
        ]);
        let trees = forest(&points, shards, bulk, &space);
        let identity = DiagonalAffine::new(vec![1.0; 2], vec![0.0; 2]);
        // An arc may pass ±π or cover the whole circle.
        let lo = [corner.0 as f64, corner.1 as f64 * PI / 8.0];
        let hi = [lo[0] + side.0 as f64, lo[1] + side.1 as f64 * PI / 8.0];
        let window = Rect::new(lo.to_vec(), hi.to_vec());
        let q = [q.0 as f64, angle(q.1)];
        type Drained = (Vec<(u64, u64)>, SearchStats, Vec<SearchStats>);
        fn drained<S: Stage>(mut descent: Descent<'_, S>) -> Drained {
            let hits = descent.by_ref().map(|n| (n.dist_sq.to_bits(), n.id));
            let hits = hits.collect();
            let stats = descent.into_stats();
            (hits, stats.merged, stats.per_shard)
        }
        let mapped = || Some(Cow::Borrowed(&identity));
        let range = |t| drained(Descent::within(&trees, t, Window(&window)));
        assert_eq!(range(None), range(mapped()));
        let nearest = |t| drained(Descent::nearest(&trees, t, MinDist(q), k));
        assert_eq!(nearest(None), nearest(mapped()));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// [`identity_is_no_transformation`] on random forests of 1–4
        /// shards, bulk-loaded and incrementally built.
        #[test]
        fn an_identity_descent_is_a_descent_without_transformation(
            raw in proptest::prelude::prop::collection::vec((0i32..20, 0i32..32), 0..150),
            forest in (1usize..5, 0u8..2),
            window in ((-5i32..25, -12i32..12), (0i32..15, 0i32..20)),
            knn in ((-4i32..24, 0i32..32), 1usize..30),
        ) {
            identity_is_no_transformation(&raw, (forest.0, forest.1 == 1), window, knn);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3000))]

        /// [`paused_descents_resume_to_the_drain_and_brute_force`] over
        /// larger forests, for the release-profile CI step.
        #[test]
        #[ignore = "long: run with --release -- --ignored"]
        fn paused_descents_resume_to_the_drain_and_brute_force_long(
            raw in proptest::prelude::prop::collection::vec((0i32..40, 0i32..40), 0..600),
            forest in (1usize..6, 0u8..3),
            affine in ((-2i32..3, -2i32..3), (-3i32..4, -3i32..4)),
            knn in ((-4i32..44, -4i32..44), 1usize..80, 0u8..2),
            window in ((-60i32..60, -60i32..60), 0i32..60),
            pause in 0usize..120,
        ) {
            let knn = (knn.0, knn.1, knn.2 == 1);
            descents_agree(&raw, forest, affine, knn, window, pause);
        }
    }
}
