//! Sort-Tile-Recursive (STR) bulk loading.
//!
//! Building an index over an existing relation item-by-item pays the full
//! insertion cost; STR packs a near-optimal tree in `O(n log n)` by
//! recursively tiling the data along each dimension. The paper builds its
//! experimental indexes over fixed corpora, which is exactly this use case;
//! the ablation bench `abl-tree` compares STR-built and incrementally-built
//! trees on node accesses per query.

use crate::geom::{Rect, Space};
use crate::rstar::{Entry, Node, RTree, RTreeConfig};

impl RTree {
    /// Builds a tree over `(rect, slot)` items by STR packing.
    ///
    /// The resulting tree is balanced, every arena node is reachable from
    /// its root, and it takes inserts; the last node of a slab may hold
    /// fewer entries than the minimum fill.
    pub fn bulk_load(space: Space, config: RTreeConfig, items: Vec<(Rect, u64)>) -> RTree {
        let dims = space.dims();
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
        let mut current: Vec<usize> = str_pack(&mut tree, entries, cap, dims, level);
        // Pack upper levels until a single root remains.
        while current.len() > 1 {
            level += 1;
            let parent_entries: Vec<Entry> = current
                .iter()
                .map(|&idx| Entry::Child {
                    mbr: node_mbr(&tree, idx),
                    node: idx,
                })
                .collect();
            current = str_pack(&mut tree, parent_entries, cap, dims, level);
        }
        tree.root = current[0];
        tree
    }
}

fn node_mbr(tree: &RTree, idx: usize) -> Rect {
    let node = &tree.nodes[idx];
    let mut it = node.entries.iter();
    let first = it.next().expect("packed nodes are non-empty").mbr().clone();
    it.fold(first, |acc, e| acc.union(e.mbr()))
}

/// Packs `entries` into nodes of at most `cap` entries by recursive
/// sort-tile slicing over `dims` dimensions; returns the arena indices of
/// the created nodes.
fn str_pack(
    tree: &mut RTree,
    mut entries: Vec<Entry>,
    cap: usize,
    dims: usize,
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
    tile(&mut entries, cap, dims, 0, node_count, &mut |slab| {
        let idx = tree.nodes.len();
        tree.nodes.push(Node {
            level,
            entries: slab.to_vec(),
        });
        out.push(idx);
    });
    out
}

/// Recursively tiles `entries`: sort along `dim`, slice into
/// `⌈slabs^(1/remaining)⌉` vertical slabs, recurse with the next dimension.
fn tile(
    entries: &mut [Entry],
    cap: usize,
    dims: usize,
    dim: usize,
    node_budget: usize,
    emit: &mut impl FnMut(&[Entry]),
) {
    let n = entries.len();
    if n <= cap || dim + 1 >= dims {
        // Final dimension: sort and chop into capacity-sized runs.
        sort_by_center(entries, dim.min(dims - 1));
        for chunk in entries.chunks(cap) {
            emit(chunk);
        }
        return;
    }
    sort_by_center(entries, dim);
    let remaining = (dims - dim) as f64;
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
            dim + 1,
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

    #[test]
    fn bulk_load_preserves_items() {
        let t = RTree::bulk_load(Space::linear(2), RTreeConfig::default(), grid_items(30));
        assert_eq!(t.len(), 900);
        let mut ids: Vec<u64> = t.items().into_iter().map(|(_, id)| id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..900).collect::<Vec<u64>>());
    }

    #[test]
    fn bulk_loaded_tree_answers_queries() {
        let n = 25;
        let t = RTree::bulk_load(Space::linear(2), RTreeConfig::default(), grid_items(n));
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
        let mut t = RTree::bulk_load(Space::linear(2), RTreeConfig::default(), grid_items(12));
        t.insert_point(&[100.0, 100.0], 999);
        assert_eq!(t.len(), 145);
        t.check_invariants().unwrap();
        let (hits, _) = t.range(&Rect::new(vec![99.9, 99.9], vec![100.1, 100.1]));
        assert_eq!(hits, vec![999]);
    }

    #[test]
    fn empty_bulk_load() {
        let t = RTree::bulk_load(Space::linear(2), RTreeConfig::default(), Vec::new());
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
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.height(), 1);
        assert_eq!(t.range(&Rect::new(vec![2.5], vec![3.5])).0, vec![7]);
    }

    #[test]
    fn str_tree_is_shallower_or_equal_and_better_packed() {
        let items = grid_items(40); // 1600 points
        let bulk = RTree::bulk_load(Space::linear(2), RTreeConfig::default(), items.clone());
        let mut incr = RTree::with_dims(2);
        for (r, id) in items {
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
}
