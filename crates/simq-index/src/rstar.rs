//! The R*-tree (Beckmann, Kriegel, Schneider, Seeger — SIGMOD 1990).
//!
//! The paper runs its experiments "on top of Norbert Beckmann's Version 2
//! implementation of the R*-tree"; this module is the from-scratch Rust
//! equivalent: ChooseSubtree with overlap minimization at the leaf level,
//! the margin-driven split axis choice, and forced reinsertion on first
//! overflow per level. Nodes live in an arena (`Vec<Node>`) with index
//! handles; there is no unsafe code.
//!
//! ChooseSubtree picks exactly the child Beckmann's loop picks, so every
//! tree is the one the textbook algorithm builds, but it does not score
//! every child's overlap enlargement against every sibling (O(M²·d) per
//! insert). Overlap enlargement is never negative in floating point, so
//! walking the children in `(area enlargement, area, position)` order,
//! the first child whose overlap enlargement is exactly zero is the
//! loop's minimum; almost every insert stops there after one or two
//! children. When no child scores zero, or an area key is not finite
//! (coordinates so large that `inf − inf` appears), the full loop runs.
//!
//! The split, too, chooses exactly what Beckmann's loop chooses without
//! its cost. The loop refolds both groups' MBRs from scratch for every
//! distribution of every sort order, a fresh rectangle per union: about
//! 3,200 unions and 6,400 allocations per split at M = 32 and d = 6.
//! Instead, each sort order is swept once from the front and once from
//! the back, folding a running MBR in place, and the margin sums and the
//! `(overlap, area)` keys are read from the prefix and suffix MBRs so
//! gathered. The fronts are folded in the loop's own order; the backs in
//! reverse, which changes nothing a comparison sees (see
//! `choose_split`). Stored MBRs are always refolded in entry order, and
//! an insert allocates little beyond the nodes it creates.
//!
//! Search, nearest-neighbour, join and bulk-loading live in sibling modules
//! ([`crate::search`], [`crate::knn`], [`crate::join`], [`crate::bulk`]);
//! this module owns the structure and its insert algorithm. The tree is
//! append-only: it never deletes, so every arena node is reachable from
//! the root.

use crate::geom::{Rect, Space};

/// Tuning parameters of the tree.
#[derive(Debug, Clone)]
pub struct RTreeConfig {
    /// Maximum entries per node (`M`).
    pub max_entries: usize,
    /// Minimum fill fraction (`m = ⌈max · min_fill⌉`), typically 0.4.
    pub min_fill: f64,
    /// Fraction of entries removed on forced reinsertion, typically 0.3.
    pub reinsert_fraction: f64,
    /// Whether forced reinsertion is enabled (the ablation benches switch
    /// it off to quantify its effect).
    pub forced_reinsert: bool,
}

impl Default for RTreeConfig {
    fn default() -> Self {
        RTreeConfig {
            max_entries: 32,
            min_fill: 0.4,
            reinsert_fraction: 0.3,
            forced_reinsert: true,
        }
    }
}

impl RTreeConfig {
    /// Minimum entries per node implied by the fill factor (at least 2).
    pub fn min_entries(&self) -> usize {
        (((self.max_entries as f64) * self.min_fill).ceil() as usize).max(2)
    }

    /// Entries removed by one forced reinsertion (at least 1).
    pub fn reinsert_count(&self) -> usize {
        (((self.max_entries as f64) * self.reinsert_fraction).floor() as usize).max(1)
    }
}

/// An entry of a node: a child subtree or a data item.
#[derive(Debug, Clone)]
pub(crate) enum Entry {
    /// Internal entry: bounding rectangle and arena index of the child.
    Child {
        /// MBR of the subtree.
        mbr: Rect,
        /// Arena index of the child node.
        node: usize,
    },
    /// Leaf entry: bounding rectangle (a point for point data) and the
    /// caller's slot.
    Item {
        /// MBR (or point) of the item.
        mbr: Rect,
        /// Caller-supplied payload: the engine's trees hold the row's
        /// position in its store.
        slot: u64,
    },
}

impl Entry {
    #[inline]
    pub(crate) fn mbr(&self) -> &Rect {
        match self {
            Entry::Child { mbr, .. } | Entry::Item { mbr, .. } => mbr,
        }
    }
}

/// A tree node. `level` 0 is the leaf level.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) level: u32,
    pub(crate) entries: Vec<Entry>,
}

impl Node {
    pub(crate) fn mbr(&self) -> Option<Rect> {
        let (first, rest) = self.entries.split_first()?;
        let mut mbr = first.mbr().clone();
        for e in rest {
            mbr.union_in_place(e.mbr());
        }
        Some(mbr)
    }
}

/// An R*-tree over points/rectangles in a [`Space`].
///
/// Each item carries a caller-managed `u64` slot; the engine's trees hold
/// the position of the item's row in its store. The tree is append-only:
/// the paper's trees are built over a stored corpus and then only grow.
#[derive(Debug, Clone)]
pub struct RTree {
    pub(crate) config: RTreeConfig,
    pub(crate) space: Space,
    pub(crate) nodes: Vec<Node>,
    pub(crate) root: usize,
    pub(crate) len: usize,
}

impl RTree {
    /// Creates an empty tree over the given space.
    pub fn new(space: Space, config: RTreeConfig) -> Self {
        let root = Node {
            level: 0,
            entries: Vec::new(),
        };
        RTree {
            config,
            space,
            nodes: vec![root],
            root: 0,
            len: 0,
        }
    }

    /// Creates an empty tree with default configuration over a linear space.
    pub fn with_dims(dims: usize) -> Self {
        Self::new(Space::linear(dims), RTreeConfig::default())
    }

    /// Number of stored items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no items are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The space the tree indexes.
    pub fn space(&self) -> &Space {
        &self.space
    }

    /// Dimensionality of the indexed space.
    pub fn dims(&self) -> usize {
        self.space.dims()
    }

    /// Height of the tree (root level + 1); an empty tree has height 1.
    pub fn height(&self) -> u32 {
        self.nodes[self.root].level + 1
    }

    /// Bounding rectangle of all stored items, or `None` when empty.
    pub fn bounds(&self) -> Option<Rect> {
        self.nodes[self.root].mbr()
    }

    /// The nodes this tree has materialized: its arena, which an
    /// append-only tree never shrinks (the initial root, every split
    /// sibling and grown root, every bulk-packed or decoded node). The
    /// *delta* across an operation measures the structural work it did —
    /// an incremental insert moves it by 0–2 per level touched, a rebuild
    /// by the whole arena; the write-path benches and
    /// `ExecStats::nodes_built` report such deltas.
    pub fn nodes_built(&self) -> u64 {
        self.nodes.len() as u64
    }

    fn alloc(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Inserts a point item.
    ///
    /// # Panics
    /// Panics if the point dimensionality disagrees with the space.
    pub fn insert_point(&mut self, p: &[f64], slot: u64) {
        assert_eq!(p.len(), self.dims(), "point dimensionality mismatch");
        self.insert(Rect::point(p), slot);
    }

    /// Inserts a rectangle item.
    ///
    /// # Panics
    /// Panics if the rectangle dimensionality disagrees with the space.
    pub fn insert(&mut self, rect: Rect, slot: u64) {
        assert_eq!(rect.dims(), self.dims(), "rect dimensionality mismatch");
        let height = self.nodes[self.root].level;
        let mut reinserted = vec![false; height as usize + 1];
        self.insert_at_level(Entry::Item { mbr: rect, slot }, 0, &mut reinserted);
        self.len += 1;
    }

    /// Core insertion: place `entry` at `target_level`, handling overflow
    /// by forced reinsertion (once per level per top-level insert) or split.
    fn insert_at_level(&mut self, entry: Entry, target_level: u32, reinserted: &mut Vec<bool>) {
        // Descend, recording the path (node index, entry index in parent).
        let mut path: Vec<(usize, usize)> = Vec::new();
        let mut current = self.root;
        while self.nodes[current].level > target_level {
            let child_pos = self.choose_subtree(current, entry.mbr());
            path.push((current, child_pos));
            current = match &self.nodes[current].entries[child_pos] {
                Entry::Child { node, .. } => *node,
                Entry::Item { .. } => unreachable!("internal node holds child entries"),
            };
        }

        self.nodes[current].entries.push(entry);

        // Walk back up, fixing MBRs and treating overflows.
        let mut node_idx = current;
        loop {
            let overflow = self.nodes[node_idx].entries.len() > self.config.max_entries;
            if overflow {
                let level = self.nodes[node_idx].level as usize;
                let is_root = node_idx == self.root;
                if !is_root
                    && self.config.forced_reinsert
                    && level < reinserted.len()
                    && !reinserted[level]
                {
                    reinserted[level] = true;
                    self.reinsert(node_idx, &path, reinserted);
                    // Reinsertion fixed ancestors' MBRs itself; start over
                    // from the parent MBR fix below is unnecessary: the tree
                    // is consistent after reinsert.
                    return;
                }
                let (split_mbr, split_node) = self.split(node_idx);
                if is_root {
                    // Grow a new root above both halves.
                    let old_root_mbr = self.nodes[self.root]
                        .mbr()
                        .expect("split node is non-empty");
                    let level = self.nodes[self.root].level + 1;
                    let new_root = self.alloc(Node {
                        level,
                        entries: vec![
                            Entry::Child {
                                mbr: old_root_mbr,
                                node: self.root,
                            },
                            Entry::Child {
                                mbr: split_mbr,
                                node: split_node,
                            },
                        ],
                    });
                    self.root = new_root;
                    return;
                }
                // Push the new sibling into the parent, then continue the
                // upward walk from the parent.
                let (parent_idx, entry_pos) = *path.last().expect("non-root has a parent");
                let child_mbr = self.nodes[node_idx].mbr().expect("non-empty after split");
                match &mut self.nodes[parent_idx].entries[entry_pos] {
                    Entry::Child { mbr, .. } => *mbr = child_mbr,
                    Entry::Item { .. } => unreachable!(),
                }
                self.nodes[parent_idx].entries.push(Entry::Child {
                    mbr: split_mbr,
                    node: split_node,
                });
                path.pop();
                node_idx = parent_idx;
                continue;
            }
            // No overflow: update the parent's MBR for this child and move up.
            match path.pop() {
                None => return,
                Some((parent_idx, entry_pos)) => {
                    let child_mbr = self.nodes[node_idx].mbr().expect("non-empty child");
                    match &mut self.nodes[parent_idx].entries[entry_pos] {
                        Entry::Child { mbr, .. } => *mbr = child_mbr,
                        Entry::Item { .. } => unreachable!(),
                    }
                    node_idx = parent_idx;
                }
            }
        }
    }

    /// R* ChooseSubtree: overlap-minimizing at the level just above the
    /// leaves, area-minimizing elsewhere. Returns the entry position.
    ///
    /// Above the leaves it takes the first position minimizing
    /// `(overlap_enl, area_enl, area)`, as Beckmann's loop does, but
    /// without scoring every child against every sibling. `overlap_enl`
    /// is never negative in floating point: the enlarged MBR contains the
    /// child's, so each sibling overlap term can only grow, and rounded
    /// sums are monotone. Hence, walking positions in `(area_enl, area,
    /// pos)` order, the first child whose overlap enlargement is exactly
    /// zero is the full loop's answer. When no child scores zero, the walk
    /// has scored every child once, and the full loop's minimum is taken
    /// over those scores; only when an `area_enl` or `area` is not finite
    /// (`inf − inf` at huge coordinates makes the order partial) are the
    /// children scored in position order without the walk.
    fn choose_subtree(&self, node_idx: usize, rect: &Rect) -> usize {
        let node = &self.nodes[node_idx];
        debug_assert!(node.level > 0);
        if node.level > 1 {
            return first_min(node.entries.iter().map(|e| {
                let mbr = e.mbr();
                (mbr.enlargement(rect), mbr.area(), 0.0)
            }));
        }
        // Overlap enlargement of entry `pos` against its sibling MBRs.
        let overlap_enlargement = |pos: usize| {
            let mbr = node.entries[pos].mbr();
            let enlarged = mbr.union(rect);
            let mut before = 0.0;
            let mut after = 0.0;
            for (other_pos, other) in node.entries.iter().enumerate() {
                if other_pos == pos {
                    continue;
                }
                before += mbr.overlap_area(other.mbr());
                after += enlarged.overlap_area(other.mbr());
            }
            after - before
        };
        let areas: Vec<(f64, f64)> = node
            .entries
            .iter()
            .map(|e| {
                let mbr = e.mbr();
                (mbr.enlargement(rect), mbr.area())
            })
            .collect();
        let finite = areas
            .iter()
            .all(|(enl, area)| enl.is_finite() && area.is_finite());
        let overlaps: Vec<f64> = if finite {
            let mut order: Vec<usize> = (0..areas.len()).collect();
            // Stable, so equal keys keep ascending position.
            order.sort_by(|&a, &b| areas[a].partial_cmp(&areas[b]).expect("finite keys"));
            let mut overlaps = vec![0.0; areas.len()];
            for pos in order {
                overlaps[pos] = overlap_enlargement(pos);
                if overlaps[pos] == 0.0 {
                    return pos;
                }
            }
            overlaps
        } else {
            (0..areas.len()).map(overlap_enlargement).collect()
        };
        first_min(
            overlaps
                .iter()
                .zip(&areas)
                .map(|(&overlap, &(enl, area))| (overlap, enl, area)),
        )
    }

    /// Forced reinsertion: remove the `p` entries of `node_idx` whose
    /// centers are farthest from the node's center, fix ancestor MBRs, and
    /// reinsert the removed entries ("close reinsert": nearest first).
    fn reinsert(&mut self, node_idx: usize, path: &[(usize, usize)], reinserted: &mut Vec<bool>) {
        let p = self
            .config
            .reinsert_count()
            .min(self.nodes[node_idx].entries.len().saturating_sub(1));
        let level = self.nodes[node_idx].level;
        let center = self.nodes[node_idx]
            .mbr()
            .expect("overflowing node is non-empty")
            .center();
        // Squared distance between the centres, the centre of `r` taken
        // coordinate by coordinate as `Rect::center` computes it.
        let dist_sq = |r: &Rect| -> f64 {
            r.lo.iter()
                .zip(&r.hi)
                .zip(&center)
                .map(|((l, h), c)| {
                    let a = (l + h) / 2.0;
                    (a - c) * (a - c)
                })
                .sum()
        };
        // Sort ascending by distance, each key computed once; the tail
        // holds the farthest p entries.
        let mut keyed: Vec<(f64, Entry)> = std::mem::take(&mut self.nodes[node_idx].entries)
            .into_iter()
            .map(|e| (dist_sq(e.mbr()), e))
            .collect();
        keyed.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite coordinates"));
        let keep = keyed.len() - p;
        let removed: Vec<Entry> = keyed.drain(keep..).map(|(_, e)| e).collect();
        self.nodes[node_idx].entries = keyed.into_iter().map(|(_, e)| e).collect();

        // Fix MBRs on the recorded path (bottom-up).
        let mut child = node_idx;
        for &(parent_idx, entry_pos) in path.iter().rev() {
            let child_mbr = self.nodes[child].mbr().expect("kept entries non-empty");
            match &mut self.nodes[parent_idx].entries[entry_pos] {
                Entry::Child { mbr, .. } => *mbr = child_mbr,
                Entry::Item { .. } => unreachable!(),
            }
            child = parent_idx;
        }

        // Close reinsert: nearest-to-center first (removed is sorted
        // ascending already because split_off kept order).
        for entry in removed {
            self.insert_at_level(entry, level, reinserted);
        }
    }

    /// R* split: choose the axis minimizing total margin over all valid
    /// distributions, then the distribution minimizing overlap (ties:
    /// area). Returns the new sibling's `(mbr, arena index)`; `node_idx`
    /// keeps the first group. The choice is [`choose_split`]'s.
    fn split(&mut self, node_idx: usize) -> (Rect, usize) {
        let entries = std::mem::take(&mut self.nodes[node_idx].entries);
        let total = entries.len();
        debug_assert!(total > self.config.max_entries);
        let level = self.nodes[node_idx].level;
        let (order, best_k) = choose_split(&entries, self.dims(), self.config.min_entries());

        let mut left_entries = Vec::with_capacity(best_k);
        let mut right_entries = Vec::with_capacity(total - best_k);
        let mut in_left = vec![false; total];
        for &i in &order[..best_k] {
            in_left[i] = true;
        }
        for (i, e) in entries.into_iter().enumerate() {
            if in_left[i] {
                left_entries.push(e);
            } else {
                right_entries.push(e);
            }
        }

        self.nodes[node_idx].entries = left_entries;
        let sibling = Node {
            level,
            entries: right_entries,
        };
        let mbr = sibling.mbr().expect("right group non-empty");
        let idx = self.alloc(sibling);
        (mbr, idx)
    }

    /// Every `(rect, slot)` item (in arbitrary order).
    pub fn items(&self) -> Vec<(Rect, u64)> {
        let mut out = Vec::with_capacity(self.len);
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            for e in &self.nodes[idx].entries {
                match e {
                    Entry::Child { node, .. } => stack.push(*node),
                    Entry::Item { mbr, slot } => out.push((mbr.clone(), *slot)),
                }
            }
        }
        out
    }

    /// Validates structural invariants (for tests): MBR containment, entry
    /// counts, uniform leaf depth, and every arena node reachable from the
    /// root (an append-only tree leaves none behind). Returns a description
    /// of the first violation found.
    pub fn check_invariants(&self) -> Result<(), String> {
        let root = &self.nodes[self.root];
        if root.entries.len() > self.config.max_entries {
            return Err("root overfull".into());
        }
        self.check_node(self.root, None, true)?;
        let (mut count, mut reached) = (0usize, 0usize);
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            reached += 1;
            for e in &self.nodes[idx].entries {
                match e {
                    Entry::Child { node, .. } => stack.push(*node),
                    Entry::Item { .. } => count += 1,
                }
            }
        }
        if count != self.len {
            return Err(format!("len {} but {} items reachable", self.len, count));
        }
        if reached != self.nodes.len() {
            let arena = self.nodes.len();
            return Err(format!("{reached} of {arena} arena nodes reachable"));
        }
        Ok(())
    }

    fn check_node(
        &self,
        idx: usize,
        expected_mbr: Option<&Rect>,
        is_root: bool,
    ) -> Result<(), String> {
        let node = &self.nodes[idx];
        if !is_root {
            let min = self.config.min_entries();
            if node.entries.len() < min {
                return Err(format!(
                    "node {idx} underfull: {} < {min}",
                    node.entries.len()
                ));
            }
        }
        if node.entries.len() > self.config.max_entries {
            return Err(format!("node {idx} overfull"));
        }
        if let Some(expected) = expected_mbr {
            let actual = node.mbr().ok_or_else(|| format!("node {idx} empty"))?;
            if &actual != expected {
                return Err(format!("node {idx} MBR stale: {actual} vs {expected}"));
            }
        }
        for e in &node.entries {
            match e {
                Entry::Child { mbr, node: child } => {
                    if self.nodes[*child].level + 1 != node.level {
                        return Err(format!("level mismatch at node {idx}"));
                    }
                    self.check_node(*child, Some(mbr), false)?;
                }
                Entry::Item { .. } => {
                    if node.level != 0 {
                        return Err(format!("item in internal node {idx}"));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Beckmann's split choice for one overflowing node: the sort order (by
/// lower, then by upper corner, axis by axis) whose valid distributions
/// have the least margin sum, and along it the first `k` minimizing the
/// `(overlap, area sum)` of the groups `order[..k]` and `order[k..]`, for
/// `k` in `min..=entries.len() − min`.
///
/// Each order is swept once from each end. A running MBR folded in place
/// over `order[..k]` yields every first group, and one folded from the
/// back over `order[k..]` every second group, so an order costs about
/// `2 × entries` in-place unions instead of a fresh fold per group, and
/// the groups' slots are allocated once per split. The choice is the one
/// refolding every group from scratch makes, exactly:
/// - a first group is folded in exactly the refold's order;
/// - a second group is folded from the other end, but `min` and `max`
///   over finite values do not depend on the order up to the sign of
///   zero, and no margin, area or overlap comparison tells −0.0 from
///   +0.0 (coordinates are finite: non-finite rows are refused).
///
/// The stored MBRs are not these: [`Node::mbr`] recomputes them in entry
/// order.
fn choose_split(entries: &[Entry], dims: usize, min: usize) -> (Vec<usize>, usize) {
    let total = entries.len();
    let seed = entries[0].mbr();
    // Slot `k − min` holds the MBR of `order[..k]` (firsts) and of
    // `order[k..]` (seconds) for the order being swept.
    let mut firsts: Vec<Rect> = (min..=total - min).map(|_| seed.clone()).collect();
    let mut seconds = firsts.clone();
    let mut acc = seed.clone();
    let assign = |dst: &mut Rect, src: &Rect| {
        dst.lo.copy_from_slice(&src.lo);
        dst.hi.copy_from_slice(&src.hi);
    };

    let mut order: Vec<usize> = Vec::with_capacity(total);
    let mut best_margin = f64::INFINITY;
    let mut best_order: Vec<usize> = Vec::new();
    let mut best_k = min;
    for axis in 0..dims {
        for by_upper in [false, true] {
            order.clear();
            order.extend(0..total);
            order.sort_by(|&a, &b| {
                let (ka, kb) = if by_upper {
                    (entries[a].mbr().hi[axis], entries[b].mbr().hi[axis])
                } else {
                    (entries[a].mbr().lo[axis], entries[b].mbr().lo[axis])
                };
                ka.partial_cmp(&kb).expect("finite coordinates")
            });
            // Forward: after folding `order[j]`, `acc` covers `order[..=j]`.
            for (j, &i) in order[..total - min].iter().enumerate() {
                if j == 0 {
                    assign(&mut acc, entries[i].mbr());
                } else {
                    acc.union_in_place(entries[i].mbr());
                }
                if j + 1 >= min {
                    assign(&mut firsts[j + 1 - min], &acc);
                }
            }
            // Backward: after folding `order[k]`, `acc` covers `order[k..]`.
            for k in (min..total).rev() {
                if k == total - 1 {
                    assign(&mut acc, entries[order[k]].mbr());
                } else {
                    acc.union_in_place(entries[order[k]].mbr());
                }
                if k <= total - min {
                    assign(&mut seconds[k - min], &acc);
                }
            }
            let mut margin_sum = 0.0;
            for (first, second) in firsts.iter().zip(&seconds) {
                margin_sum += first.margin() + second.margin();
            }
            if margin_sum < best_margin {
                best_margin = margin_sum;
                best_order.clone_from(&order);
                // The distribution along this order.
                best_k = min;
                let mut best_key = (f64::INFINITY, f64::INFINITY);
                for (k, (first, second)) in (min..).zip(firsts.iter().zip(&seconds)) {
                    let key = (first.overlap_area(second), first.area() + second.area());
                    if key < best_key {
                        best_key = key;
                        best_k = k;
                    }
                }
            }
        }
    }
    (best_order, best_k)
}

/// Position of the first strict minimum of `keys` under tuple `<`,
/// starting from an all-infinite key: ties keep the lower position, and a
/// key with a NaN never wins.
fn first_min(keys: impl Iterator<Item = (f64, f64, f64)>) -> usize {
    let mut best = 0usize;
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for (pos, key) in keys.enumerate() {
        if key < best_key {
            best_key = key;
            best = pos;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn empty_tree() {
        let t = RTree::with_dims(3);
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.bounds().is_none());
        assert!(t.check_invariants().is_ok());
    }

    #[test]
    fn inserts_maintain_invariants() {
        let t = grid_tree(20); // 400 points, multiple levels
        assert_eq!(t.len(), 400);
        assert!(t.height() >= 2);
        t.check_invariants().unwrap();
        assert_eq!(
            t.bounds().unwrap(),
            Rect::new(vec![0.0, 0.0], vec![19.0, 19.0])
        );
    }

    #[test]
    fn all_items_reachable() {
        let t = grid_tree(15);
        let mut ids: Vec<u64> = t.items().into_iter().map(|(_, id)| id).collect();
        ids.sort_unstable();
        let expected: Vec<u64> = (0..225).collect();
        assert_eq!(ids, expected);
    }

    #[test]
    fn forced_reinsert_can_be_disabled() {
        let config = RTreeConfig {
            forced_reinsert: false,
            ..RTreeConfig::default()
        };
        let mut t = RTree::new(Space::linear(2), config);
        for i in 0..500u64 {
            let x = (i % 31) as f64;
            let y = (i / 31) as f64;
            t.insert_point(&[x, y], i);
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 500);
    }

    #[test]
    fn duplicate_points_supported() {
        let mut t = RTree::with_dims(1);
        for id in 0..100 {
            t.insert_point(&[5.0], id);
        }
        assert_eq!(t.len(), 100);
        t.check_invariants().unwrap();
    }

    #[test]
    fn rectangles_as_items() {
        let mut t = RTree::with_dims(2);
        for i in 0..50u64 {
            let x = (i % 10) as f64;
            let y = (i / 10) as f64;
            t.insert(Rect::new(vec![x, y], vec![x + 0.5, y + 0.5]), i);
        }
        t.check_invariants().unwrap();
        assert_eq!(t.len(), 50);
    }

    #[test]
    #[should_panic(expected = "dimensionality mismatch")]
    fn wrong_dims_rejected() {
        let mut t = RTree::with_dims(2);
        t.insert_point(&[1.0], 0);
    }

    /// FNV-1a of a tree's `serial::to_bytes` image.
    fn tree_hash(t: &RTree) -> u64 {
        crate::serial::to_bytes(t)
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
            })
    }

    /// 2,000 six-dimensional LCG points on the integer lattice 0..100;
    /// every tenth point repeats an earlier one.
    fn lcg_points() -> Vec<[f64; 6]> {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut points: Vec<[f64; 6]> = Vec::with_capacity(2000);
        for i in 0..2000 {
            if i % 10 == 9 {
                points.push(points[i / 2]);
                continue;
            }
            points.push(std::array::from_fn(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                ((state >> 33) % 100) as f64
            }));
        }
        points
    }

    #[test]
    fn incrementally_built_trees_are_pinned() {
        let lcg_tree = |config: RTreeConfig| {
            let mut t = RTree::new(Space::linear(6), config);
            for (id, p) in lcg_points().iter().enumerate() {
                t.insert_point(p, id as u64);
            }
            t.check_invariants().unwrap();
            t
        };
        let no_reinsert = RTreeConfig {
            forced_reinsert: false,
            ..RTreeConfig::default()
        };
        let hashes = [
            tree_hash(&grid_tree(20)),
            tree_hash(&lcg_tree(RTreeConfig::default())),
            tree_hash(&lcg_tree(no_reinsert)),
        ];
        assert_eq!(
            hashes,
            [
                0x6007_3dbb_3503_ec72,
                0xfe4b_b49f_2720_0c9e,
                0xbc5c_5dc6_2699_b0cd
            ],
            "{hashes:#018x?}"
        );
    }

    /// Beckmann's ChooseSubtree keys above the leaves, computed as the
    /// full loop computes them: `(overlap_enl, area_enl, area)` per child.
    fn full_loop_keys(entries: &[Entry], rect: &Rect) -> Vec<(f64, f64, f64)> {
        entries
            .iter()
            .enumerate()
            .map(|(pos, e)| {
                let mbr = e.mbr();
                let enlarged = mbr.union(rect);
                let mut before = 0.0;
                let mut after = 0.0;
                for (other_pos, other) in entries.iter().enumerate() {
                    if other_pos != pos {
                        before += mbr.overlap_area(other.mbr());
                        after += enlarged.overlap_area(other.mbr());
                    }
                }
                (after - before, enlarged.area() - mbr.area(), mbr.area())
            })
            .collect()
    }

    /// The full loop's choice: the first strict minimum from an
    /// all-infinite start.
    fn full_loop_choice(keys: &[(f64, f64, f64)]) -> usize {
        let mut best = 0usize;
        let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
        for (pos, &key) in keys.iter().enumerate() {
            if key < best_key {
                best_key = key;
                best = pos;
            }
        }
        best
    }

    /// SplitMix64, drawing small integers.
    struct SplitMix(u64);

    impl SplitMix {
        /// A uniform integer in `0..k`, as an `f64`.
        fn below(&mut self, k: u64) -> f64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % k) as f64
        }
    }

    /// A random level-1 node and an item rectangle to place in it, drawn
    /// from `seed`. Shapes: 0 scattered boxes, 1 copies of one to three
    /// boxes, 2 boxes flat in about half their dimensions, 3 boxes piled
    /// on one corner. Half the items lie inside a child (inside several
    /// where children overlap). Coordinates are multiples of `scale / 4`,
    /// so a positive overlap enlargement can be far below 1.
    fn random_leaf_parent(
        seed: u64,
        shape: u8,
        n: usize,
        dims: usize,
        scale: f64,
    ) -> (RTree, Rect) {
        let mut rng = SplitMix(seed);
        let random_box = |rng: &mut SplitMix, shape: u8| {
            let (lo, ext): (Vec<f64>, Vec<f64>) = (0..dims)
                .map(|_| match shape {
                    2 if rng.below(2) == 0.0 => (rng.below(20), 0.0),
                    3 => (rng.below(5), 10.0 + rng.below(10)),
                    _ => (rng.below(20), rng.below(5)),
                })
                .unzip();
            let hi = lo.iter().zip(&ext).map(|(l, e)| l + e).collect();
            Rect::new(lo, hi)
        };
        let children: Vec<Rect> = if shape == 1 {
            let copies = 1 + rng.below(3) as usize;
            let bases: Vec<Rect> = (0..copies).map(|_| random_box(&mut rng, 0)).collect();
            (0..n)
                .map(|_| bases[rng.below(copies as u64) as usize].clone())
                .collect()
        } else {
            (0..n).map(|_| random_box(&mut rng, shape)).collect()
        };
        let rect = if rng.below(2) == 0.0 {
            let c = &children[rng.below(n as u64) as usize];
            let p: Vec<f64> = (0..dims)
                .map(|d| c.lo[d] + rng.below((c.hi[d] - c.lo[d]) as u64 + 1))
                .collect();
            Rect::point(&p)
        } else {
            let lo: Vec<f64> = (0..dims).map(|_| rng.below(30)).collect();
            let hi = lo.iter().map(|l| l + rng.below(2)).collect();
            Rect::new(lo, hi)
        };
        let scaled = |r: &Rect| {
            Rect::new(
                r.lo.iter().map(|v| v * scale / 4.0).collect(),
                r.hi.iter().map(|v| v * scale / 4.0).collect(),
            )
        };
        let mut t = RTree::with_dims(dims);
        t.nodes[0] = Node {
            level: 1,
            entries: children
                .iter()
                .enumerate()
                .map(|(i, mbr)| Entry::Child {
                    mbr: scaled(mbr),
                    node: i + 1,
                })
                .collect(),
        };
        (t, scaled(&rect))
    }

    fn assert_full_loop_choice(seed: u64, shape: u8, n: usize, dims: usize, huge: bool) {
        let scale = if huge { 1e80 } else { 1.0 };
        let (t, rect) = random_leaf_parent(seed, shape, n, dims, scale);
        let want = full_loop_choice(&full_loop_keys(&t.nodes[0].entries, &rect));
        assert_eq!(
            t.choose_subtree(0, &rect),
            want,
            "seed {seed} shape {shape} n {n} dims {dims} scale {scale}"
        );
    }

    /// The generator reaches every path of `choose_subtree` and every
    /// corner the equivalence property is meant to cover.
    #[test]
    fn leaf_parent_cases_reach_every_path() {
        let mut seen = [0usize; 6];
        for seed in 0..2000u64 {
            let (shape, dims) = ((seed % 4) as u8, 1 + (seed / 4 % 6) as usize);
            let n = 2 + (seed / 24 % 39) as usize;
            let scale = if seed % 7 == 0 { 1e80 } else { 1.0 };
            let (t, rect) = random_leaf_parent(seed, shape, n, dims, scale);
            let entries = &t.nodes[0].entries;
            let keys = full_loop_keys(entries, &rect);
            let best = full_loop_choice(&keys);
            let finite = keys.iter().all(|k| k.1.is_finite() && k.2.is_finite());
            let inside = entries
                .iter()
                .filter(|e| e.mbr().intersects_linear(&rect))
                .count();
            let cases = [
                // an exact zero-overlap winner that is found early,
                finite && keys[best].0 == 0.0,
                // no zero-overlap child: the fallback,
                finite && keys.iter().all(|k| k.0 != 0.0),
                // non-finite area keys: the guard,
                !finite,
                // a later duplicate of the winner that must lose the tie,
                entries[best + 1..]
                    .iter()
                    .any(|e| e.mbr() == entries[best].mbr()),
                // a zero-area winner,
                keys[best].2 == 0.0,
                // an item inside several children.
                rect.lo == rect.hi && inside > 1,
            ];
            for (count, hit) in seen.iter_mut().zip(cases) {
                *count += usize::from(hit);
            }
            assert_eq!(t.choose_subtree(0, &rect), best, "seed {seed}");
        }
        assert!(seen.iter().all(|&c| c >= 20), "{seen:?}");
    }

    /// What the textbook split loop computes: every sort order's margin
    /// sum, the winning order's `(overlap, area sum)` key per `k`, and
    /// the choice.
    struct RefoldedSplit {
        margins: Vec<f64>,
        keys: Vec<(f64, f64)>,
        order: Vec<usize>,
        k: usize,
    }

    /// The split choice with every candidate group's MBR refolded from
    /// scratch, as `split` made it before the sweeps: the reference for
    /// [`choose_split`].
    fn refolded_split(entries: &[Entry], dims: usize, min: usize) -> RefoldedSplit {
        let group_mbr = |idx: &[usize]| {
            let mut it = idx.iter();
            let first = entries[*it.next().expect("non-empty group")].mbr().clone();
            it.fold(first, |acc, &i| acc.union(entries[i].mbr()))
        };
        let total = entries.len();
        let mut margins = Vec::new();
        let mut best_axis_margin = f64::INFINITY;
        let mut best_axis_order: Vec<usize> = Vec::new();
        for axis in 0..dims {
            for by_upper in [false, true] {
                let mut order: Vec<usize> = (0..total).collect();
                order.sort_by(|&a, &b| {
                    let (ka, kb) = if by_upper {
                        (entries[a].mbr().hi[axis], entries[b].mbr().hi[axis])
                    } else {
                        (entries[a].mbr().lo[axis], entries[b].mbr().lo[axis])
                    };
                    ka.partial_cmp(&kb).expect("finite coordinates")
                });
                let mut margin_sum = 0.0;
                for k in min..=(total - min) {
                    let left = group_mbr(&order[..k]);
                    let right = group_mbr(&order[k..]);
                    margin_sum += left.margin() + right.margin();
                }
                margins.push(margin_sum);
                if margin_sum < best_axis_margin {
                    best_axis_margin = margin_sum;
                    best_axis_order = order;
                }
            }
        }
        let order = best_axis_order;
        let mut keys = Vec::new();
        let mut best_k = min;
        let mut best_key = (f64::INFINITY, f64::INFINITY);
        for k in min..=(total - min) {
            let left = group_mbr(&order[..k]);
            let right = group_mbr(&order[k..]);
            let key = (left.overlap_area(&right), left.area() + right.area());
            keys.push(key);
            if key < best_key {
                best_key = key;
                best_k = k;
            }
        }
        RefoldedSplit {
            margins,
            keys,
            order,
            k: best_k,
        }
    }

    /// A random overflowing node (`max_entries + 1` entries, each with a
    /// distinct handle) drawn from `seed`: items of a leaf (points, or
    /// boxes one time in four) or children of an internal node (boxes).
    /// Coordinates are small integers, so margins and overlaps tie; half
    /// the nodes copy a few base entries, a zero coordinate is −0.0 half
    /// the time, and each axis is flat for every entry one time in four.
    fn random_overflowing_node(
        seed: u64,
        leaf: bool,
        dims: usize,
        max_entries: usize,
    ) -> Vec<Entry> {
        let mut rng = SplitMix(seed);
        let flat: Vec<bool> = (0..dims).map(|_| rng.below(4) == 0.0).collect();
        let points = leaf && rng.below(4) != 0.0;
        let signed = |rng: &mut SplitMix, v: f64| {
            if v == 0.0 && rng.below(2) == 0.0 {
                -0.0
            } else {
                v
            }
        };
        let random_box = |rng: &mut SplitMix| {
            let mut lo = Vec::with_capacity(dims);
            let mut hi = Vec::with_capacity(dims);
            for &flat in &flat {
                let l = rng.below(7) - 3.0;
                let extent = if points || flat { 0.0 } else { rng.below(4) };
                lo.push(signed(rng, l));
                hi.push(signed(rng, l + extent));
            }
            Rect::new(lo, hi)
        };
        let total = max_entries + 1;
        let boxes: Vec<Rect> = if rng.below(2) == 0.0 {
            let bases: Vec<Rect> = (0..1 + rng.below(4) as usize)
                .map(|_| random_box(&mut rng))
                .collect();
            (0..total)
                .map(|_| bases[rng.below(bases.len() as u64) as usize].clone())
                .collect()
        } else {
            (0..total).map(|_| random_box(&mut rng)).collect()
        };
        boxes
            .into_iter()
            .enumerate()
            .map(|(i, mbr)| {
                if leaf {
                    Entry::Item {
                        mbr,
                        slot: i as u64,
                    }
                } else {
                    Entry::Child { mbr, node: i + 1 }
                }
            })
            .collect()
    }

    /// The handle of an entry: its item id or child node.
    fn handle(e: &Entry) -> u64 {
        match e {
            Entry::Item { slot, .. } => *slot,
            Entry::Child { node, .. } => *node as u64,
        }
    }

    /// `split` chooses the order and `k` the refolding loop chooses, and
    /// leaves the same two groups. Returns the node, the reference's
    /// result and `min`.
    fn assert_split_matches_refolding(
        seed: u64,
        leaf: bool,
        dims: usize,
        max_entries: usize,
    ) -> (Vec<Entry>, RefoldedSplit, usize) {
        let entries = random_overflowing_node(seed, leaf, dims, max_entries);
        let config = RTreeConfig {
            max_entries,
            min_fill: [0.2, 0.4, 0.5][(seed % 3) as usize],
            ..RTreeConfig::default()
        };
        let min = config.min_entries();
        let want = refolded_split(&entries, dims, min);
        let case = format!("seed {seed} leaf {leaf} dims {dims} max {max_entries}");
        assert_eq!(
            choose_split(&entries, dims, min),
            (want.order.clone(), want.k),
            "{case}"
        );
        let mut t = RTree::new(Space::linear(dims), config);
        t.nodes[0] = Node {
            level: u32::from(!leaf),
            entries: entries.clone(),
        };
        let (_, sibling) = t.split(0);
        let mut in_first = vec![false; entries.len()];
        for &i in &want.order[..want.k] {
            in_first[i] = true;
        }
        let group = |first: bool| -> Vec<u64> {
            (entries.iter().zip(&in_first))
                .filter(|(_, &f)| f == first)
                .map(|(e, _)| handle(e))
                .collect()
        };
        let handles =
            |node: usize| -> Vec<u64> { t.nodes[node].entries.iter().map(handle).collect() };
        assert_eq!(handles(0), group(true), "{case}");
        assert_eq!(handles(sibling), group(false), "{case}");
        (entries, want, min)
    }

    /// The generator reaches the corners the split equivalence property
    /// is meant to cover, and `split` matches the refolding loop on all
    /// of them.
    #[test]
    fn split_cases_reach_every_corner() {
        let mut seen = [0usize; 6];
        for seed in 0..2000u64 {
            let (leaf, dims, max_entries) = (
                seed % 2 == 0,
                1 + (seed / 2 % 8) as usize,
                4 + (seed / 16 % 37) as usize,
            );
            let (entries, want, min) =
                assert_split_matches_refolding(seed, leaf, dims, max_entries);
            let coords = || {
                entries
                    .iter()
                    .flat_map(|e| e.mbr().lo.iter().chain(&e.mbr().hi))
            };
            let has_dup = |v: &[f64]| v.iter().enumerate().any(|(i, a)| v[i + 1..].contains(a));
            let overlaps: Vec<f64> = want.keys.iter().map(|k| k.0).collect();
            let cases = [
                // duplicate entries,
                entries
                    .iter()
                    .enumerate()
                    .any(|(i, a)| entries[i + 1..].iter().any(|b| a.mbr() == b.mbr())),
                // an axis of zero extent in a box of positive area elsewhere,
                entries.iter().any(|e| {
                    let r = e.mbr();
                    let ext: Vec<f64> = r.lo.iter().zip(&r.hi).map(|(l, h)| h - l).collect();
                    ext.contains(&0.0) && ext.iter().any(|&x| x > 0.0)
                }),
                // −0.0 and +0.0 side by side,
                coords().any(|v| v.to_bits() == (-0.0f64).to_bits())
                    && coords().any(|v| v.to_bits() == 0),
                // tied margin sums,
                has_dup(&want.margins),
                // tied overlaps between distributions,
                has_dup(&overlaps),
                // a tie decided by the area sum.
                overlaps
                    .iter()
                    .filter(|&&o| o == want.keys[want.k - min].0)
                    .count()
                    > 1,
            ];
            for (count, hit) in seen.iter_mut().zip(cases) {
                *count += usize::from(hit);
            }
        }
        assert!(seen.iter().all(|&c| c >= 50), "{seen:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1000))]

        /// The swept split picks what refolding every group picks.
        #[test]
        fn split_matches_the_refolding_loop(
            seed in 0u64..u64::MAX,
            leaf in 0u8..2,
            dims in 1usize..9,
            max_entries in 4usize..41,
        ) {
            assert_split_matches_refolding(seed, leaf == 0, dims, max_entries);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(100_000))]

        /// The same property over many more nodes, for the release-profile
        /// CI step.
        #[test]
        #[ignore = "long: run with --release -- --ignored"]
        fn split_matches_the_refolding_loop_long(
            seed in 0u64..u64::MAX,
            leaf in 0u8..2,
            dims in 1usize..9,
            max_entries in 4usize..41,
        ) {
            assert_split_matches_refolding(seed, leaf == 0, dims, max_entries);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1000))]

        /// The early exit picks the child the full overlap loop picks.
        #[test]
        fn choose_subtree_matches_the_full_loop(
            seed in 0u64..u64::MAX,
            shape in 0u8..4,
            n in 2usize..41,
            dims in 1usize..7,
            huge in 0u8..4,
        ) {
            assert_full_loop_choice(seed, shape, n, dims, huge == 0);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(100_000))]

        /// The same property over many more nodes, for the release-profile
        /// CI step.
        #[test]
        #[ignore = "long: run with --release -- --ignored"]
        fn choose_subtree_matches_the_full_loop_long(
            seed in 0u64..u64::MAX,
            shape in 0u8..4,
            n in 2usize..41,
            dims in 1usize..7,
            huge in 0u8..4,
        ) {
            assert_full_loop_choice(seed, shape, n, dims, huge == 0);
        }
    }
}
