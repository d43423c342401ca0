//! Spatial joins.
//!
//! The paper's all-pairs queries are spatial joins: "For an all-pairs
//! query, we do a spatial join using the index. The only difference here is
//! that we transform all objects used in the join predicate before we
//! compute the predicate" — e.g. `T(a_i) ∩ T(b_j) ≠ ∅`.
//!
//! [`RTree::join_via_probes`] is the strategy of the paper's join
//! experiment (methods *c*/*d* of Table 1) over one tree: scan one side
//! sequentially and pose each item, expanded to a search rectangle, as a
//! range query against the (transformed) index. The query engine does not
//! call it: its joins run one range [`Descent`](crate::Descent) per outer
//! row, verification included, over the forest or a flat source. It
//! remains the benchmark's per-layer probe of the index side of a join.

use crate::geom::Rect;
use crate::rstar::RTree;
use crate::search::SearchStats;
use crate::transform::DiagonalAffine;

/// Expands a rectangle by `eps` in every dimension (the search-rectangle
/// construction for joins on linear dimensions).
fn expand(rect: &Rect, eps: f64) -> Rect {
    Rect::new(
        rect.lo.iter().map(|v| v - eps).collect(),
        rect.hi.iter().map(|v| v + eps).collect(),
    )
}

impl RTree {
    /// Probe-based join (the paper's methods *c*/*d*): for every `(rect,
    /// id)` in `probes`, transform the rectangle with `probe_transform`,
    /// expand it by `eps`, and run a range query with `index_transform`
    /// applied to the tree side. Returns candidate pairs
    /// `(probe id, index id)`.
    ///
    /// With both transforms set to the same `T` this evaluates the
    /// predicate `T(a_i) ∩ expand(T(b_j), eps) ≠ ∅`, a superset of the true
    /// `ε`-join that the caller's postprocessing filters exactly (Lemma 1).
    pub fn join_via_probes(
        &self,
        probes: &[(Rect, u64)],
        probe_transform: &DiagonalAffine,
        index_transform: &DiagonalAffine,
        eps: f64,
    ) -> (Vec<(u64, u64)>, SearchStats) {
        let mut out = Vec::new();
        let mut stats = SearchStats::default();
        for (rect, pid) in probes {
            let query = expand(&probe_transform.apply_rect(rect), eps);
            let (hits, s) = self.range_transformed(index_transform, &query);
            stats.add(&s);
            out.extend(hits.into_iter().map(|iid| (*pid, iid)));
        }
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_tree(coords: &[f64]) -> RTree {
        let mut t = RTree::with_dims(1);
        for (id, &x) in coords.iter().enumerate() {
            t.insert_point(&[x], id as u64);
        }
        t
    }

    fn sorted(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        v.sort_unstable();
        v
    }

    /// Brute-force ε-closeness pairs (L∞ on 1-d = absolute difference).
    fn brute_pairs(coords: &[f64], eps: f64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        for i in 0..coords.len() {
            for j in (i + 1)..coords.len() {
                if (coords[i] - coords[j]).abs() <= eps {
                    out.push((i as u64, j as u64));
                }
            }
        }
        out
    }

    /// One point probe per coordinate, ids by position.
    fn point_probes(coords: &[f64]) -> Vec<(Rect, u64)> {
        coords
            .iter()
            .enumerate()
            .map(|(i, &x)| (Rect::point(&[x]), i as u64))
            .collect()
    }

    #[test]
    fn probe_join_matches_brute_force() {
        let coords: Vec<f64> = (0..150).map(|i| ((i * 17) % 83) as f64 / 2.0).collect();
        let t = line_tree(&coords);
        let id = DiagonalAffine::new(vec![1.0], vec![0.0]);
        let (mut pairs, _) = t.join_via_probes(&point_probes(&coords), &id, &id, 0.75);
        // The probe join returns ordered pairs including self and both
        // directions; canonicalize.
        pairs.retain(|(a, b)| a < b);
        assert_eq!(sorted(pairs), sorted(brute_pairs(&coords, 0.75)));
    }

    #[test]
    fn transformed_join_finds_reversed_pairs() {
        // Data: x and −x pairs; joining r with T_rev(r) (scale −1) should
        // pair each point with its negation.
        let coords = [1.0, 2.0, 3.0, -1.0, -2.0, -3.0];
        let t = line_tree(&coords);
        let id = DiagonalAffine::new(vec![1.0], vec![0.0]);
        let neg = DiagonalAffine::new(vec![-1.0], vec![0.0]);
        let (mut pairs, _) = t.join_via_probes(&point_probes(&coords), &id, &neg, 1e-9);
        // (0 ↔ 3), (1 ↔ 4), (2 ↔ 5), found from both sides.
        pairs.retain(|(a, b)| a < b);
        assert_eq!(sorted(pairs), vec![(0, 3), (1, 4), (2, 5)]);
    }

    #[test]
    fn join_between_distinct_sides() {
        let b = line_tree(&[0.4, 9.0, 40.0]);
        let id = DiagonalAffine::new(vec![1.0], vec![0.0]);
        let (pairs, _) = b.join_via_probes(&point_probes(&[0.0, 10.0, 20.0]), &id, &id, 0.5);
        assert_eq!(sorted(pairs), vec![(0, 0)]);
    }

    #[test]
    fn expand_helper() {
        let r = Rect::new(vec![1.0, 2.0], vec![3.0, 4.0]);
        assert_eq!(expand(&r, 0.5), Rect::new(vec![0.5, 1.5], vec![3.5, 4.5]));
    }

    #[test]
    fn empty_join_sides() {
        let empty = RTree::with_dims(1);
        let id = DiagonalAffine::new(vec![1.0], vec![0.0]);
        let (pairs, _) = empty.join_via_probes(&point_probes(&[1.0]), &id, &id, 10.0);
        assert!(pairs.is_empty());
        let (pairs, _) = line_tree(&[1.0]).join_via_probes(&[], &id, &id, 10.0);
        assert!(pairs.is_empty());
    }
}
