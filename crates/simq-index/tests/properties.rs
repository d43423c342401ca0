//! Property tests for the R*-tree: query answers against brute force and
//! structural invariants of incrementally built and bulk-loaded trees.

use proptest::prelude::*;
use simq_index::{serial, RTree, RTreeConfig, Rect, Space};

fn points(max: usize) -> impl Strategy<Value = Vec<[f64; 3]>> {
    prop::collection::vec(
        ((-100.0f64..100.0), (-100.0f64..100.0), (-100.0f64..100.0))
            .prop_map(|(a, b, c)| [a, b, c]),
        1..max,
    )
}

fn build(points: &[[f64; 3]]) -> RTree {
    let mut t = RTree::with_dims(3);
    for (i, p) in points.iter().enumerate() {
        t.insert_point(p, i as u64);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Range answers equal the brute-force filter.
    #[test]
    fn range_matches_brute(ps in points(250), center in -100.0f64..100.0, radius in 0.0f64..80.0) {
        let t = build(&ps);
        t.check_invariants().unwrap();
        let q = Rect::new(
            vec![center - radius; 3],
            vec![center + radius; 3],
        );
        let (mut got, _) = t.range(&q);
        got.sort_unstable();
        let want: Vec<u64> = ps
            .iter()
            .enumerate()
            .filter(|(_, p)| q.contains_linear(*p))
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(got, want);
    }

    /// kNN answers equal the brute-force sort.
    #[test]
    fn knn_matches_brute(ps in points(200), qx in -120.0f64..120.0, k in 1usize..12) {
        let t = build(&ps);
        let q = [qx, -qx / 2.0, 10.0];
        let (got, _) = t.nearest(&q, k);
        let mut want: Vec<(f64, u64)> = ps
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let d: f64 = p.iter().zip(&q).map(|(a, b)| (a - b) * (a - b)).sum();
                (d, i as u64)
            })
            .collect();
        want.sort_by(|a, b| a.partial_cmp(b).unwrap());
        want.truncate(k);
        prop_assert_eq!(got.len(), want.len());
        for (g, (wd, wi)) in got.iter().zip(&want) {
            prop_assert_eq!(g.id, *wi);
            prop_assert!((g.dist_sq - wd).abs() < 1e-9);
        }
    }

    /// Bulk loading and incremental insertion answer identically, and
    /// both leave every arena node reachable: the incremental tree passes
    /// `check_invariants`, and the bulk-loaded one (whose last node of a
    /// slab may be under the minimum fill) decodes, the decoder refusing an
    /// unreachable node.
    #[test]
    fn bulk_equals_incremental(ps in points(220), lo in -50.0f64..0.0, hi in 0.0f64..50.0) {
        let incremental = build(&ps);
        let items: Vec<(Rect, u64)> = ps
            .iter()
            .enumerate()
            .map(|(i, p)| (Rect::point(p), i as u64))
            .collect();
        let bulk = RTree::bulk_load(Space::linear(3), RTreeConfig::default(), items, 0..3);
        incremental.check_invariants().unwrap();
        serial::from_bytes(&serial::to_bytes(&bulk)).unwrap();
        let q = Rect::new(vec![lo; 3], vec![hi; 3]);
        let (mut a, _) = incremental.range(&q);
        let (mut b, _) = bulk.range(&q);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }
}
