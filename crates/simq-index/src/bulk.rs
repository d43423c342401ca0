//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Building an index over an existing relation item-by-item pays the full
//! insertion cost; STR (Leutenegger et al., ICDE 1997) packs a
//! near-optimal tree in `O(n log n)` by recursively tiling the data, one
//! sort per level. The paper builds its experimental indexes over fixed
//! corpora, which is exactly this use case; the ablation bench `abl-tree`
//! compares STR-built and incrementally-built trees on node accesses per
//! query.
//!
//! **Which dimensions are cut.** The caller names a range of dimensions,
//! `cut`, and level `l` of the recursion (and the final chop into nodes)
//! sorts by dimension `cut.start + l % cut.len()`. The engine cuts only
//! the spectral coefficient dimensions: a range search leaves the mean and
//! standard deviation unbounded unless a GK95 window is given, and the kNN
//! bound ignores them, so slabs along those two dimensions separate rows
//! by nothing a distance reads. `0..dims` is textbook STR.
//!
//! **Why the slab count still counts every dimension.** Each level slices
//! into `⌈budget^(1/remaining)⌉` slabs with `remaining` counted over all
//! of the space's dimensions, as if every one were cut. So the number of
//! levels, and with it every node's fill, do not depend on `cut`: a tree
//! cut over the coefficients has exactly the node count and per-node
//! entry counts of the `0..dims` tree over the same items. Textbook STR
//! over the cut alone would not: over the paper's four coefficient
//! dimensions it slices 2000 rows into three slabs a level, not two, and
//! leaves 9–11-row tails (86 nodes instead of 67). How full a load should
//! pack is ROADMAP item 17's question.

use crate::geom::{Rect, Space};
use crate::rstar::{Entry, Node, RTree, RTreeConfig};
use std::ops::Range;

impl RTree {
    /// Builds a tree over `(rect, slot)` items by STR packing, each level
    /// sorting by the next dimension of `cut` in turn (see the module
    /// doc); `0..space.dims()` cuts every dimension.
    ///
    /// The resulting tree is balanced, every arena node is reachable from
    /// its root, and it takes inserts; the last node of a slab may hold
    /// fewer entries than the minimum fill.
    ///
    /// # Panics
    /// If `cut` is empty or reaches past the space's dimensions.
    pub fn bulk_load(
        space: Space,
        config: RTreeConfig,
        items: Vec<(Rect, u64)>,
        cut: Range<usize>,
    ) -> RTree {
        let dims = space.dims();
        assert!(
            !cut.is_empty() && cut.end <= dims,
            "cut {cut:?} outside the space's {dims} dimensions"
        );
        for (rect, _) in &items {
            assert_eq!(rect.dims(), dims, "item dimensionality mismatch");
        }
        let mut tree = RTree::new(space, config);
        if items.is_empty() {
            return tree;
        }
        // Pack leaves; the packed root replaces the empty one.
        tree.nodes.clear();
        let cap = tree.config.max_entries;
        let entries: Vec<Entry> = items
            .into_iter()
            .map(|(mbr, slot)| Entry::Item { mbr, slot })
            .collect();
        tree.len = entries.len();
        let mut level = 0u32;
        let mut current: Vec<usize> = str_pack(&mut tree, entries, cap, dims, &cut, level);
        // Pack upper levels until a single root remains.
        while current.len() > 1 {
            level += 1;
            let parent_entries: Vec<Entry> = current
                .iter()
                .map(|&idx| Entry::Child {
                    mbr: tree.nodes[idx].mbr().expect("packed nodes are non-empty"),
                    node: idx,
                })
                .collect();
            current = str_pack(&mut tree, parent_entries, cap, dims, &cut, level);
        }
        tree.root = current[0];
        tree
    }
}

/// Packs `entries` into nodes of at most `cap` entries by recursive
/// sort-tile slicing, one level per dimension of a `dims`-dimensional
/// space, sorting by the dimensions of `cut` in turn; returns the arena
/// indices of the created nodes.
fn str_pack(
    tree: &mut RTree,
    mut entries: Vec<Entry>,
    cap: usize,
    dims: usize,
    cut: &Range<usize>,
    level: u32,
) -> Vec<usize> {
    let n = entries.len();
    let node_count = n.div_ceil(cap);
    if node_count <= 1 {
        let idx = tree.nodes.len();
        tree.nodes.push(Node { level, entries });
        return vec![idx];
    }
    let mut out = Vec::with_capacity(node_count);
    tile(&mut entries, cap, dims, cut, 0, node_count, &mut |slab| {
        let idx = tree.nodes.len();
        tree.nodes.push(Node {
            level,
            entries: slab.to_vec(),
        });
        out.push(idx);
    });
    out
}

/// Recursively tiles `entries` at recursion level `depth`: sort along
/// `cut`'s dimension for the level, slice into `⌈slabs^(1/remaining)⌉`
/// slabs (`remaining` counting all `dims` dimensions), recurse one level
/// down.
fn tile(
    entries: &mut [Entry],
    cap: usize,
    dims: usize,
    cut: &Range<usize>,
    depth: usize,
    node_budget: usize,
    emit: &mut impl FnMut(&[Entry]),
) {
    let n = entries.len();
    sort_by_center(entries, cut.start + depth % cut.len());
    if n <= cap || depth + 1 >= dims {
        // Final level: chop into capacity-sized runs.
        for chunk in entries.chunks(cap) {
            emit(chunk);
        }
        return;
    }
    let remaining = (dims - depth) as f64;
    let slab_count = (node_budget as f64).powf(1.0 / remaining).ceil() as usize;
    let slab_size = n.div_ceil(slab_count);
    let mut start = 0;
    while start < n {
        let end = (start + slab_size).min(n);
        let slab_nodes = (end - start).div_ceil(cap);
        tile(
            &mut entries[start..end],
            cap,
            dims,
            cut,
            depth + 1,
            slab_nodes,
            emit,
        );
        start = end;
    }
}

fn sort_by_center(entries: &mut [Entry], dim: usize) {
    entries.sort_by(|a, b| {
        let ca = (a.mbr().lo[dim] + a.mbr().hi[dim]) / 2.0;
        let cb = (b.mbr().lo[dim] + b.mbr().hi[dim]) / 2.0;
        ca.partial_cmp(&cb).expect("finite coordinates")
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_items(n: usize) -> Vec<(Rect, u64)> {
        let mut items = Vec::new();
        for i in 0..n {
            for j in 0..n {
                items.push((Rect::point(&[i as f64, j as f64]), (i * n + j) as u64));
            }
        }
        items
    }

    /// The `n × n` grid, bulk-loaded over both dimensions.
    fn grid_tree(n: usize) -> RTree {
        RTree::bulk_load(
            Space::linear(2),
            RTreeConfig::default(),
            grid_items(n),
            0..2,
        )
    }

    #[test]
    fn bulk_load_preserves_items() {
        let t = grid_tree(30);
        assert_eq!(t.len(), 900);
        let mut ids: Vec<u64> = t.items().into_iter().map(|(_, id)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..900).collect::<Vec<u64>>());
    }

    #[test]
    fn bulk_loaded_tree_answers_queries() {
        let n = 25;
        let t = grid_tree(n);
        let query = Rect::new(vec![3.5, 2.5], vec![8.0, 6.0]);
        let (mut got, _) = t.range(&query);
        got.sort_unstable();
        let mut want = Vec::new();
        for i in 0..n {
            for j in 0..n {
                if query.contains_linear(&[i as f64, j as f64]) {
                    want.push((i * n + j) as u64);
                }
            }
        }
        assert_eq!(got, want);
    }

    #[test]
    fn bulk_loaded_tree_supports_updates() {
        let mut t = grid_tree(12);
        t.insert_point(&[100.0, 100.0], 999);
        assert_eq!(t.len(), 145);
        t.check_invariants().unwrap();
        let (hits, _) = t.range(&Rect::new(vec![99.9, 99.9], vec![100.1, 100.1]));
        assert_eq!(hits, vec![999]);
    }

    #[test]
    fn empty_bulk_load() {
        let t = RTree::bulk_load(Space::linear(2), RTreeConfig::default(), Vec::new(), 0..2);
        assert!(t.is_empty());
        assert!(t
            .range(&Rect::new(vec![-1.0, -1.0], vec![1.0, 1.0]))
            .0
            .is_empty());
    }

    #[test]
    fn single_item_bulk_load() {
        let t = RTree::bulk_load(
            Space::linear(1),
            RTreeConfig::default(),
            vec![(Rect::point(&[3.0]), 7)],
            0..1,
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        assert_eq!(t.range(&Rect::new(vec![2.5], vec![3.5])).0, vec![7]);
    }

    #[test]
    fn str_tree_is_shallower_or_equal_and_better_packed() {
        let bulk = grid_tree(40); // 1600 points
        let mut incr = RTree::with_dims(2);
        for (r, id) in grid_items(40) {
            incr.insert(r, id);
        }
        assert!(bulk.height() <= incr.height());
        // Query cost should not be worse on the packed tree.
        let query = Rect::new(vec![10.0, 10.0], vec![20.0, 20.0]);
        let (a, sa) = bulk.range(&query);
        let (b, sb) = incr.range(&query);
        let (mut a, mut b) = (a, b);
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert!(sa.nodes_visited <= sb.nodes_visited * 2);
    }

    /// The cut moves items between nodes, never the shape: over random
    /// points of the paper's polar 6-d space, every cut builds the `0..6`
    /// tree's arena node for node (level and entry count), with the same
    /// root, the same `check_invariants` verdict and every node reachable
    /// (the decoder refuses one the root does not reach).
    #[test]
    fn the_cut_moves_items_not_the_shape() {
        use crate::geom::tests::unit;
        use crate::geom::DimSemantics::{Circular, Linear};
        let turn = Circular {
            period: std::f64::consts::TAU,
        };
        let space = Space::new(vec![Linear, Linear, Linear, turn, Linear, turn]);
        let mut state = 51u64;
        let shape = |t: &RTree| -> Vec<(u32, usize)> {
            let nodes = t.nodes.iter();
            nodes.map(|n| (n.level, n.entries.len())).collect()
        };
        for n in [1usize, 31, 32, 33, 500, 2000, 4100] {
            let items: Vec<(Rect, u64)> = (0..n as u64)
                .map(|slot| {
                    let p: Vec<f64> = (0..6).map(|_| 6.0 * unit(&mut state)).collect();
                    (Rect::point(&p), slot)
                })
                .collect();
            let config = RTreeConfig::default();
            let all = RTree::bulk_load(space.clone(), config.clone(), items.clone(), 0..6);
            for cut in [2..6, 0..1, 5..6, 3..5] {
                let what = format!("{n} items, cut {cut:?}");
                let t = RTree::bulk_load(space.clone(), config.clone(), items.clone(), cut);
                assert_eq!(shape(&t), shape(&all), "{what}");
                assert_eq!(t.root, all.root, "{what}");
                assert_eq!(t.check_invariants(), all.check_invariants(), "{what}");
                crate::serial::from_bytes(&crate::serial::to_bytes(&t)).expect(&what);
                let mut slots: Vec<u64> = t.items().into_iter().map(|(_, s)| s).collect();
                slots.sort_unstable();
                assert_eq!(slots, (0..n as u64).collect::<Vec<_>>(), "{what}");
            }
        }
    }
}
