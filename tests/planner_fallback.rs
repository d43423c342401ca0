//! The planner's decision matrix: which (representation, transformation,
//! strategy) combinations use the index, which fall back to the scan, and
//! which fail loudly.

mod common;

use common::{access, scheme_db as db};
use similarity_queries::prelude::*;
use similarity_queries::query::QueryError;

#[test]
fn polar_index_serves_complex_multiplier_transforms() {
    let d = db(Representation::Polar, true, true);
    for t in [
        "mavg(5)",
        "warp(2)",
        "reverse",
        "scale(-3)",
        "shift(2)",
        "reverse THEN mavg(10)",
    ] {
        let q = format!("FIND SIMILAR TO ROW 0 IN r USING {t} EPSILON 1");
        assert_eq!(access(&d, &q), AccessPath::IndexScan, "{t}");
    }
}

#[test]
fn rect_index_serves_real_multiplier_transforms_only() {
    let d = db(Representation::Rectangular, true, true);
    for (t, expect_index) in [
        ("reverse", true),
        ("scale(2)", true),
        ("scale(-1)", true),
        ("shift(3)", true),
        ("identity", true),
        ("mavg(5)", false),
        ("warp(2)", false),
        ("reverse THEN mavg(10)", false),
    ] {
        let q = format!("FIND SIMILAR TO ROW 0 IN r USING {t} EPSILON 1");
        let got = access(&d, &q);
        if expect_index {
            assert_eq!(got, AccessPath::IndexScan, "{t}");
        } else {
            assert_eq!(got, AccessPath::SeqScan, "{t}");
        }
    }
}

#[test]
fn force_index_errors_carry_the_reason() {
    let d = db(Representation::Rectangular, true, true);
    let err = execute(
        &d,
        "FIND SIMILAR TO ROW 0 IN r USING mavg(5) EPSILON 1 FORCE INDEX",
    )
    .unwrap_err();
    let QueryError::IndexUnavailable(reason) = err else {
        panic!("wrong error {err:?}");
    };
    assert!(
        reason.contains("not safe") || reason.contains("rectangular"),
        "{reason}"
    );
}

#[test]
fn knn_planner_matrix() {
    // Every indexed scheme serves kNN via the spectral MINDIST bound; an
    // unindexed relation or an unsafe transformation falls back to scan.
    for (rep, stats) in [
        (Representation::Polar, true),
        (Representation::Polar, false),
        (Representation::Rectangular, true),
        (Representation::Rectangular, false),
    ] {
        let d = db(rep, stats, true);
        assert_eq!(
            access(&d, "FIND 3 NEAREST TO ROW 0 IN r"),
            AccessPath::IndexScan,
            "{rep:?} stats={stats}"
        );
    }
    let unindexed = db(Representation::Polar, true, false);
    assert_eq!(
        access(&unindexed, "FIND 3 NEAREST TO ROW 0 IN r"),
        AccessPath::SeqScan
    );
    // Unsafe transformation on the rectangular index: scan.
    let rect = db(Representation::Rectangular, true, true);
    assert_eq!(
        access(&rect, "FIND 3 NEAREST TO ROW 0 IN r USING mavg(5)"),
        AccessPath::SeqScan
    );
    assert_eq!(
        access(&rect, "FIND 3 NEAREST TO ROW 0 IN r FORCE SCAN"),
        AccessPath::SeqScan
    );
}

#[test]
fn join_methods_map_to_access_paths() {
    let d = db(Representation::Polar, true, true);
    let cases = [
        (
            'a',
            AccessPath::ScanJoin {
                early_abandon: false,
            },
        ),
        (
            'b',
            AccessPath::ScanJoin {
                early_abandon: true,
            },
        ),
        ('c', AccessPath::IndexProbeJoin { transformed: false }),
        ('d', AccessPath::IndexProbeJoin { transformed: true }),
    ];
    for (m, expected) in cases {
        let q = format!("FIND PAIRS IN r USING mavg(5) EPSILON 1 METHOD {m}");
        assert_eq!(access(&d, &q), expected, "method {m}");
    }
}

#[test]
fn index_only_join_methods_fail_without_index() {
    let d = db(Representation::Polar, true, false);
    for m in ['c', 'd'] {
        let err = execute(&d, &format!("FIND PAIRS IN r EPSILON 1 METHOD {m}")).unwrap_err();
        assert!(matches!(err, QueryError::IndexUnavailable(_)), "method {m}");
    }
    // Scan methods still work.
    for m in ['a', 'b'] {
        assert!(execute(&d, &format!("FIND PAIRS IN r EPSILON 1 METHOD {m}")).is_ok());
    }
}

#[test]
fn method_d_requires_safe_right_side() {
    let d = db(Representation::Rectangular, true, true);
    // mavg is unsafe on the rect index: method d must refuse...
    let err = execute(&d, "FIND PAIRS IN r USING mavg(5) EPSILON 1 METHOD d").unwrap_err();
    assert!(matches!(err, QueryError::IndexUnavailable(_)));
    // ...but the asymmetric form with a safe right side is fine.
    let ok = execute(
        &d,
        "FIND PAIRS IN r MATCHING mavg(5) AGAINST reverse EPSILON 1 METHOD d",
    );
    assert!(ok.is_ok(), "{ok:?}");
    // And scan methods always accept it.
    assert!(execute(&d, "FIND PAIRS IN r USING mavg(5) EPSILON 1 METHOD b").is_ok());
}

#[test]
fn explain_never_executes() {
    let d = db(Representation::Polar, true, true);
    let r = execute(
        &d,
        "EXPLAIN FIND PAIRS IN r USING mavg(5) EPSILON 1 METHOD a",
    )
    .unwrap();
    assert!(matches!(r.output, QueryOutput::Plan(_)));
    assert_eq!(r.stats.rows_scanned, 0);
    assert_eq!(r.stats.nodes_visited, 0);
}

#[test]
fn stats_windows_constrain_range_answers() {
    use similarity_queries::query::QueryOutput;
    // GK95 windows: identical sine shapes at different levels/scales.
    let scheme = FeatureScheme::paper_default();
    let mut rel = SeriesRelation::new("r", 64, scheme);
    for i in 0..40u64 {
        let level = 10.0 + i as f64; // distinct means
        let series: Vec<f64> = (0..64)
            .map(|t| level + (t as f64 * 0.2).sin() * 2.0)
            .collect();
        rel.insert(format!("S{i}"), series).unwrap();
    }
    let mut d = Database::new();
    d.add_relation_indexed(rel);

    // Same normal form everywhere: without a window every row matches.
    let all = execute(&d, "FIND SIMILAR TO ROW 5 IN r EPSILON 0.01").unwrap();
    let QueryOutput::Hits(all_hits) = all.output else {
        unreachable!()
    };
    assert_eq!(all_hits.len(), 40);

    // With a mean window only nearby price levels qualify.
    let windowed = execute(
        &d,
        "FIND SIMILAR TO ROW 5 IN r EPSILON 0.01 MEAN WITHIN 2.5",
    )
    .unwrap();
    assert_eq!(windowed.plan.access, AccessPath::IndexScan);
    let QueryOutput::Hits(hits) = windowed.output else {
        unreachable!()
    };
    let mut ids: Vec<u64> = hits.iter().map(|h| h.id).collect();
    ids.sort_unstable();
    // Rows 3..=7 have means within 2.5 of row 5's.
    assert_eq!(ids, vec![3, 4, 5, 6, 7], "{ids:?}");
    // Fewer candidates than the unwindowed query: the window prunes in
    // the index, not only in postprocessing.
    assert!(windowed.stats.candidates < all.stats.candidates);

    // Scan path agrees.
    let scanned = execute(
        &d,
        "FIND SIMILAR TO ROW 5 IN r EPSILON 0.01 MEAN WITHIN 2.5 FORCE SCAN",
    )
    .unwrap();
    let QueryOutput::Hits(scan_hits) = scanned.output else {
        unreachable!()
    };
    let mut scan_ids: Vec<u64> = scan_hits.iter().map(|h| h.id).collect();
    scan_ids.sort_unstable();
    assert_eq!(scan_ids, vec![3, 4, 5, 6, 7]);
}

#[test]
fn stats_window_requires_stats_dims_for_index() {
    let d = db(Representation::Polar, false, true); // no stats dims
    let r = execute(&d, "FIND SIMILAR TO ROW 0 IN r EPSILON 1 MEAN WITHIN 1.0").unwrap();
    assert_eq!(r.plan.access, AccessPath::SeqScan);
    assert!(r.plan.reason.contains("statistics dimensions"));
}
