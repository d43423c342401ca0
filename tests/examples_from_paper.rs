//! The paper's worked examples as executable tests: the concrete numbers
//! of Example 1.1, the warped sequences of Example 1.2, the qualitative
//! distance cascades of Examples 2.1–2.3, and the Theorem 2
//! counterexample.

mod common;

use common::indexed_db;
use similarity_queries::data::{MarketConfig, StockKind, StockMarket};
use similarity_queries::prelude::*;
use similarity_queries::series::normal;

const S1: [f64; 15] = [
    36.0, 38.0, 40.0, 38.0, 42.0, 38.0, 36.0, 36.0, 37.0, 38.0, 39.0, 38.0, 40.0, 38.0, 37.0,
];
const S2: [f64; 15] = [
    40.0, 37.0, 37.0, 42.0, 41.0, 35.0, 40.0, 35.0, 34.0, 42.0, 38.0, 35.0, 45.0, 36.0, 34.0,
];

/// Example 1.1: D(s1, s2) = 11.92; the 3-day moving averages are at 0.47.
#[test]
fn example_1_1_numbers() {
    assert!((euclidean(&S1, &S2) - 11.92).abs() < 0.005);
    let m1 = moving_average(&S1, 3).unwrap();
    let m2 = moving_average(&S2, 3).unwrap();
    assert!((euclidean(&m1, &m2) - 0.47).abs() < 0.005);
}

/// Example 1.1 through the query engine. The engine compares normal
/// forms, where D(n1, n2) ≈ 4.33 raw and ≈ 1.22 after the 3-day moving
/// average: at ε = 1.5 the smoothed query finds both series, the raw one
/// only the query itself.
#[test]
fn example_1_1_as_queries() {
    let mut rel = SeriesRelation::new(
        "stocks",
        15,
        FeatureScheme::new(2, Representation::Polar, true),
    );
    rel.insert("s1", S1.to_vec()).unwrap();
    rel.insert("s2", S2.to_vec()).unwrap();
    let db = indexed_db(rel);

    // Raw: only s1 itself within ε = 1 (normal-form distance of the two
    // series is large as well).
    let raw = execute(&db, "FIND SIMILAR TO NAME s1 IN stocks EPSILON 1.5").unwrap();
    let QueryOutput::Hits(raw_hits) = raw.output else {
        unreachable!()
    };
    assert_eq!(raw_hits.len(), 1);

    // Smoothed: both series qualify. (The engine works on normal forms;
    // the 3-day average of the normal forms is correspondingly close.)
    let smoothed = execute(
        &db,
        "FIND SIMILAR TO NAME s1 IN stocks USING mavg(3) ON BOTH EPSILON 1.5",
    )
    .unwrap();
    let QueryOutput::Hits(smoothed_hits) = smoothed.output else {
        unreachable!()
    };
    assert_eq!(smoothed_hits.len(), 2, "{smoothed_hits:?}");
}

/// Example 1.2: warping p by 2 gives exactly the 8-point series of
/// Figure 2, and the Euclidean distance becomes 0.
#[test]
fn example_1_2_time_warping() {
    let s = [20.0, 20.0, 21.0, 21.0, 20.0, 20.0, 23.0, 23.0];
    let p = [20.0, 21.0, 20.0, 23.0];
    let warped = warp(&p, 2).unwrap();
    assert_eq!(warped, s.to_vec());
    assert_eq!(euclidean(&warped, &s), 0.0);
}

/// Example 2.1's cascade on simulated data: shifting, scaling to normal
/// form, and smoothing each reduce the distance between same-sector
/// stocks.
#[test]
fn example_2_1_distance_cascade() {
    let market = StockMarket::generate(
        &MarketConfig {
            stocks: 60,
            sectors: 3,
            mirrored_fraction: 0.0,
            volatility: (0.05, 0.4),
            ..MarketConfig::default()
        },
        5,
    );
    // Find a same-sector pair with distinct price levels.
    let (a, b) = (0..market.stocks.len())
        .flat_map(|i| ((i + 1)..market.stocks.len()).map(move |j| (i, j)))
        .find(|&(i, j)| {
            matches!(
                (market.stocks[i].kind, market.stocks[j].kind),
                (StockKind::Sectoral { sector: x }, StockKind::Sectoral { sector: y }) if x == y
            )
        })
        .expect("sectors are populated");
    let pa = &market.stocks[a].prices;
    let pb = &market.stocks[b].prices;

    let d_raw = euclidean(pa, pb);
    let d_shifted = euclidean(
        &normal::shift(pa, -normal::mean(pa)),
        &normal::shift(pb, -normal::mean(pb)),
    );
    let na = normal_form(pa).unwrap();
    let nb = normal_form(pb).unwrap();
    let d_scaled = euclidean(&na, &nb);
    let d_smoothed = euclidean(
        &moving_average(&na, 20).unwrap(),
        &moving_average(&nb, 20).unwrap(),
    );
    assert!(d_shifted <= d_raw + 1e-9, "shift: {d_shifted} vs {d_raw}");
    assert!(
        d_smoothed < d_scaled,
        "smoothing must reduce same-sector distance: {d_smoothed} vs {d_scaled}"
    );
    // The full cascade helps a lot overall.
    assert!(d_smoothed < d_raw / 2.0);
}

/// Example 2.2: an anti-correlated pair is far apart raw, and close after
/// reversal + smoothing.
#[test]
fn example_2_2_reversal() {
    let market = StockMarket::generate(
        &MarketConfig {
            stocks: 80,
            mirrored_fraction: 0.3,
            ..MarketConfig::default()
        },
        9,
    );
    let (orig, mirror) = market
        .stocks
        .iter()
        .enumerate()
        .find_map(|(i, s)| match s.kind {
            StockKind::Mirror { of } => Some((of, i)),
            StockKind::Sectoral { .. } => None,
        })
        .expect("mirrors generated");
    let na = normal_form(&market.stocks[orig].prices).unwrap();
    let nb = normal_form(&market.stocks[mirror].prices).unwrap();
    let d_normal = euclidean(&na, &nb);
    let reversed: Vec<f64> = nb.iter().map(|v| -v).collect();
    let d_reversed = euclidean(&na, &reversed);
    let d_final = euclidean(
        &moving_average(&na, 20).unwrap(),
        &moving_average(&reversed, 20).unwrap(),
    );
    assert!(d_reversed < d_normal / 3.0, "{d_reversed} vs {d_normal}");
    assert!(d_final <= d_reversed + 1e-9);
}

/// Example 2.3: unrelated series stay far apart under repeated smoothing
/// — "two series that have dissimilar trends still look different".
#[test]
fn example_2_3_smoothing_does_not_fake_similarity() {
    let market = StockMarket::generate(
        &MarketConfig {
            stocks: 40,
            sectors: 8,
            mirrored_fraction: 0.0,
            ..MarketConfig::default()
        },
        13,
    );
    // The claim is statistical — individual pairs vary — so measure it
    // over every cross-sector pair rather than one arbitrary draw.
    let smoothed: Vec<Option<Vec<f64>>> = market
        .stocks
        .iter()
        .map(|s| {
            let mut nf = normal_form(&s.prices).ok()?;
            for _ in 0..10 {
                nf = moving_average(&nf, 20).ok()?;
            }
            Some(nf)
        })
        .collect();
    let mut initial_sum = 0.0;
    let mut after_sum = 0.0;
    let mut pairs = 0usize;
    for i in 0..market.stocks.len() {
        for j in (i + 1)..market.stocks.len() {
            let (StockKind::Sectoral { sector: si }, StockKind::Sectoral { sector: sj }) =
                (market.stocks[i].kind, market.stocks[j].kind)
            else {
                continue;
            };
            if si == sj {
                continue;
            }
            let (Some(a), Some(b)) = (&smoothed[i], &smoothed[j]) else {
                continue;
            };
            initial_sum += euclidean(
                &normal_form(&market.stocks[i].prices).unwrap(),
                &normal_form(&market.stocks[j].prices).unwrap(),
            );
            after_sum += euclidean(a, b);
            pairs += 1;
        }
    }
    assert!(pairs > 100, "only {pairs} cross-sector pairs");
    // Distances shrink slowly — after ten rounds a substantial fraction
    // remains on average (the paper reports 11.06 → 6.57 after ten).
    assert!(
        after_sum > initial_sum * 0.25,
        "ten smoothings erased too much: {initial_sum} → {after_sum} over {pairs} pairs"
    );
}

/// Theorem 2's counterexample: multiplying by the complex scalar 2−3j maps
/// the rectangle [−5−5j, 5+5j] to a shape whose MBR test misclassifies the
/// interior point −2+2j — reproduced on our Complex type, and rejected by
/// the lowering machinery.
#[test]
fn theorem_2_counterexample() {
    let s = Complex::new(2.0, -3.0);
    let p = Complex::new(-5.0, -5.0) * s;
    let q = Complex::new(5.0, 5.0) * s;
    let r = Complex::new(-2.0, 2.0) * s;
    assert_eq!(p, Complex::new(-25.0, 5.0));
    assert_eq!(q, Complex::new(25.0, -5.0));
    assert_eq!(r, Complex::new(2.0, 10.0));
    // r is outside the axis-aligned rectangle spanned by p and q (its
    // imaginary part exceeds both corners').
    assert!(r.im > p.im.max(q.im));

    // The engine refuses exactly this: complex multipliers cannot lower to
    // the rectangular representation.
    let rect_scheme = FeatureScheme::new(2, Representation::Rectangular, false);
    let err = SeriesTransform::MovingAverage { window: 3 }
        .lower(&rect_scheme, 16)
        .unwrap_err();
    assert!(err.to_string().contains("not safe"));
}

/// Theorem 3 in action: the same transformation lowers fine in polar
/// coordinates, and the lowered map agrees with the spectral action.
#[test]
fn theorem_3_polar_safety() {
    let scheme = FeatureScheme::new(3, Representation::Polar, false);
    let t = SeriesTransform::MovingAverage { window: 3 };
    let affine = t.lower(&scheme, 16).unwrap();
    let series: Vec<f64> = (0..16).map(|i| 20.0 + ((i * i) % 7) as f64).collect();
    let f = scheme.extract(&series).unwrap();
    let moved = affine.apply_point(&f.point);
    let spec = t.apply_spectrum(&f.spectrum, 16).unwrap();
    let direct = scheme.point_from_spectrum(0.0, 0.0, &spec).unwrap();
    let a = scheme.coefficients_of_point(&moved);
    let b = scheme.coefficients_of_point(&direct);
    for (x, y) in a.iter().zip(&b) {
        assert!(x.approx_eq(*y, 1e-9));
    }
}
