//! End-to-end integration: persistence through querying, the paper's
//! "same disk accesses" claim for the identity transformation, framework ↔
//! domain bridging, and join-method consistency at realistic scale.

mod common;

use common::{indexed_db, walk_relation};
use similarity_queries::core::{SearchConfig, TransformationSet};
use similarity_queries::prelude::*;
use similarity_queries::query::QueryOutput;
use similarity_queries::storage::persist;

/// Figures 8–9's structural claim: with the identity transformation, the
/// transformed index traversal reads exactly the same nodes as the plain
/// one — the overhead is CPU only.
#[test]
fn identity_transform_costs_no_extra_node_accesses() {
    let rel = walk_relation("r", 21, 1000, 128);
    let index = rel.build_index(Default::default());
    let scheme = rel.scheme().clone();
    let q = rel.row(123).unwrap();
    for eps in [0.5, 2.0, 8.0] {
        let rect = scheme.search_rect(&q.features.point, eps);
        let (plain, s_plain) = index.range(&rect);
        let identity = SeriesTransform::Identity.lower(&scheme, 128).unwrap();
        let (transformed, s_t) = index.range_transformed(&identity, &rect);
        let mut a = plain;
        let mut b = transformed;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
        assert_eq!(s_plain.nodes_visited, s_t.nodes_visited, "eps {eps}");
        assert_eq!(s_plain.leaves_visited, s_t.leaves_visited);
        assert_eq!(s_plain.entries_tested, s_t.entries_tested);
    }
}

/// Save → load → identical query answers.
#[test]
fn persistence_preserves_query_results() {
    let rel = walk_relation("walks", 5, 200, 64);
    let path = std::env::temp_dir().join("simq-e2e-roundtrip.txt");
    persist::save(&rel, &path).unwrap();
    let reloaded = persist::load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    let db1 = indexed_db(rel);
    let db2 = indexed_db(reloaded);
    for q in [
        "FIND SIMILAR TO ROW 7 IN walks USING mavg(10) ON BOTH EPSILON 2.0",
        "FIND 5 NEAREST TO ROW 0 IN walks",
        "FIND PAIRS IN walks USING mavg(20) EPSILON 1.0 METHOD d",
    ] {
        let r1 = execute(&db1, q).unwrap();
        let r2 = execute(&db2, q).unwrap();
        assert_eq!(
            format!("{:?}", r1.output),
            format!("{:?}", r2.output),
            "{q}"
        );
    }
}

/// The generic framework distance agrees with the time-domain oracle the
/// suites judge the engine by: under the single rule `mavg(5)` at cost
/// 0.01 and budget 0.05, Equation 10 is the minimum over `i + j ≤ 5`
/// applications (`i` to one side, `j` to the other) of
/// `0.01·(i + j) + ‖tⁱ(a) − tʲ(b)‖` — computed here step by step with the
/// oracle's own helpers, and equal to `similarity_distance`'s search.
#[test]
fn framework_and_domain_agree_on_moving_average_distance() {
    use common::oracle::{euclid, shape};
    let mut gen = WalkGenerator::new(9);
    let na = normal_form(&gen.series(32)).unwrap();
    let nb = normal_form(&gen.series(32)).unwrap();
    let mavg = SeriesTransform::MovingAverage { window: 5 };

    let powers = |s: &[f64]| -> Vec<Vec<f64>> {
        let next = |cur: &Vec<f64>| Some(shape(&mavg, cur));
        std::iter::successors(Some(s.to_vec()), next)
            .take(6)
            .collect()
    };
    let (pa, pb) = (powers(&na), powers(&nb));
    let expected = (0..6)
        .flat_map(|i| (0..6 - i).map(move |j| (i, j)))
        .map(|(i, j)| 0.01 * (i + j) as f64 + euclid(&pa[i], &pb[j]))
        .fold(f64::INFINITY, f64::min);

    let rules = TransformationSet::empty().with(mavg.into_core_rule(0.01));
    let result = similarity_queries::core::similarity_distance(
        &RealSequence::new(na),
        &RealSequence::new(nb),
        &rules,
        &SearchConfig::with_budget(0.05),
    )
    .unwrap();
    assert!(
        (result.distance - expected).abs() < 1e-9,
        "framework {} vs the definition's minimum {expected}",
        result.distance
    );
}

/// Method d's doubled answer-set bookkeeping from Table 1: the paper
/// counts ordered pairs (24 = 12×2); we canonicalize, so method d's pair
/// count equals methods a/b's.
#[test]
fn table_1_shape_at_small_scale() {
    let rel = walk_relation("r", 33, 150, 128);
    let db = indexed_db(rel);
    let counts: Vec<(char, usize, u64, u64)> = ['a', 'b', 'c', 'd']
        .iter()
        .map(|m| {
            let r = execute(
                &db,
                &format!("FIND PAIRS IN r USING mavg(20) EPSILON 1.5 METHOD {m}"),
            )
            .unwrap();
            let QueryOutput::Pairs(p) = r.output else {
                unreachable!()
            };
            (
                *m,
                p.len(),
                r.stats.coefficients_compared,
                r.stats.nodes_visited,
            )
        })
        .collect();
    let (_, n_a, coeff_a, _) = counts[0];
    let (_, n_b, coeff_b, _) = counts[1];
    let (_, n_c, _, nodes_c) = counts[2];
    let (_, n_d, _, nodes_d) = counts[3];
    assert_eq!(n_a, n_b);
    assert_eq!(n_b, n_d);
    // Method c answers a different (untransformed) question: typically
    // fewer pairs at the same ε on smoothed queries.
    assert!(n_c <= n_b, "c={n_c} b={n_b}");
    // Early abandoning saves coefficient comparisons.
    assert!(coeff_b < coeff_a);
    // Method d does at least as much index work as method c.
    assert!(nodes_d >= nodes_c / 4);
}

/// Stats windows (GK95 shift/scale) restrict matches by mean/std.
#[test]
fn stats_windows_constrain_search() {
    let rel = walk_relation("r", 55, 300, 64);
    let scheme = rel.scheme().clone();
    let index = rel.build_index(Default::default());
    let q = rel.row(10).unwrap();
    let wide = scheme.search_rect(&q.features.point, 1.0);
    let narrow = scheme.search_rect_with_stats(&q.features.point, 1.0, Some((1.0, 0.5)));
    let (wide_hits, _) = index.range(&wide);
    let (narrow_hits, _) = index.range(&narrow);
    assert!(narrow_hits.len() <= wide_hits.len());
    assert!(narrow_hits.contains(&10));
    // Every narrow hit's stats are inside the window.
    for id in narrow_hits {
        let row = rel.row(id).unwrap();
        assert!((row.features.mean - q.features.mean).abs() <= 1.0 + 1e-9);
        assert!((row.features.std_dev - q.features.std_dev).abs() <= 0.5 + 1e-9);
    }
}

/// A kernel whose spectrum is finite but whose distances overflow is
/// refused before anything runs: `wmavg(1e300, 1e300)` used to answer a
/// kNN with every row at distance `inf` (the query's own row included) and
/// an `ON BOTH` range with nothing, while the `ON BOTH` kNN put the query's
/// row at 0. Range and kNN, index and scan, materialized and streamed,
/// all refuse it alike, and so do joins (METHOD a, b and d, which used to
/// verify every pair at `inf`); ordinary kernels and a huge scale (whose
/// magnitude goes to the statistics, never to a distance) still answer.
#[test]
fn transformations_whose_distances_overflow_are_refused() {
    use similarity_queries::query::{QueryError, Session};
    use similarity_queries::series::SeriesError;
    let db = indexed_db(walk_relation("r", 9, 200, 64));
    let session = Session::new(&db);
    let shapes = [
        "FIND 5 NEAREST TO ROW 0 IN r USING {t}",
        "FIND 5 NEAREST TO ROW 0 IN r USING {t} ON BOTH",
        "FIND SIMILAR TO ROW 0 IN r USING {t} EPSILON 1.0",
        "FIND SIMILAR TO ROW 0 IN r USING {t} ON BOTH EPSILON 1.0",
    ];
    let statements = |t: &str| -> Vec<String> {
        let with = |shape: &&str| {
            let q = shape.replace("{t}", t);
            [format!("{q} FORCE SCAN"), q]
        };
        shapes.iter().flat_map(with).collect()
    };
    let refused = QueryError::Series(SeriesError::NonFiniteTransformation);
    for q in statements("wmavg(1e300, 1e300)") {
        assert_eq!(execute(&db, &q).unwrap_err(), refused, "{q}");
        assert_eq!(session.cursor_text(&q).err(), Some(refused.clone()), "{q}");
    }
    for t in [
        "mavg(1)",
        "mavg(64)",
        "wmavg(0.5, 0.3, 0.2)",
        "wmavg(3, -2, 7.5, 1000)",
        "scale(1e200)",
    ] {
        for q in statements(t) {
            let result = execute(&db, &q).unwrap_or_else(|e| panic!("{q}: {e}"));
            let QueryOutput::Hits(hits) = result.output else {
                panic!("{q}: expected hits");
            };
            assert!(hits.iter().all(|h| h.distance.is_finite()), "{q}");
            assert!(session.cursor_text(&q).is_ok(), "{q}");
        }
    }
    // A join measures a pair under both sides' transformations: METHOD a,
    // b and d refuse when either side could overflow a distance; METHOD c
    // ignores the transformations and answers.
    let join = |sides: &str, method: &str| -> Result<Vec<f64>, _> {
        let q = format!("FIND PAIRS IN r {sides} EPSILON 1.0 METHOD {method}");
        let result = execute(&db, &q)?;
        let QueryOutput::Pairs(pairs) = result.output else {
            panic!("{q}: expected pairs");
        };
        Ok(pairs.iter().map(|p| p.distance).collect())
    };
    let huge = "wmavg(1e300, 1e300)";
    for sides in [
        format!("USING {huge}"),
        format!("MATCHING {huge} AGAINST mavg(1)"),
        format!("MATCHING mavg(1) AGAINST {huge}"),
    ] {
        for method in ["a", "b", "d"] {
            assert_eq!(
                join(&sides, method),
                Err(refused.clone()),
                "{sides} {method}"
            );
        }
        let answered = join(&sides, "c").unwrap_or_else(|e| panic!("{sides} c: {e}"));
        assert!(answered.iter().all(|d| d.is_finite()), "{sides} c");
    }
    for t in ["mavg(1)", "wmavg(3, -2, 7.5, 1000)", "scale(1e200)"] {
        for method in ["a", "b", "c", "d"] {
            let pairs = join(&format!("USING {t}"), method);
            let pairs = pairs.unwrap_or_else(|e| panic!("{t} {method}: {e}"));
            assert!(pairs.iter().all(|d| d.is_finite()), "{t} {method}");
        }
    }
}
