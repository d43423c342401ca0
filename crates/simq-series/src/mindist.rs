//! Lower bounds on spectral distance from feature-space rectangles —
//! the MINDIST that makes index-served kNN possible on *both* feature
//! representations.
//!
//! For a query with kept coefficients `q_1..q_k` and an index rectangle
//! `R` (possibly already transformed by Algorithm 1), any item inside `R`
//! has its coefficient `i` confined to a region of the complex plane:
//!
//! * rectangular representation — an axis-aligned box over (re, im);
//! * polar representation — an **annular sector** (magnitude interval ×
//!   angle arc, the arc possibly wrapping past ±π).
//!
//! The Euclidean distance from `q_i` to that region lower-bounds
//! `|X_i − q_i|`, so the root-sum over features lower-bounds the full
//! spectral distance (the remaining frequencies only add energy). This is
//! the geometry the paper's MINDIST remark ("we can then use any kind of
//! metric … for pruning the search") needs to apply to `S_pol`, where raw
//! coordinate distance is *not* Euclidean.

use crate::features::{FeatureScheme, Representation};
use simq_dsp::complex::Complex;
use simq_index::geom::Rect;
use std::f64::consts::TAU;

/// Distance from `q` to the interval `[lo, hi]` (0 when inside).
#[inline]
fn interval_dist(q: f64, lo: f64, hi: f64) -> f64 {
    if q < lo {
        lo - q
    } else if q > hi {
        q - hi
    } else {
        0.0
    }
}

/// Squared distance from the point with polar form `(qr, qa)` to the
/// annular sector `{ r·e^{jθ} : r ∈ [r_lo, r_hi], θ ∈ [a_lo, a_hi] }`.
///
/// Outside the arc the nearest sector point lies on one of the two
/// bounding radial segments; the distance to a segment point `t·e^{jθ}`
/// is taken in the cancellation-free form
/// `(qr − t)² + 4·qr·t·sin²((qa − θ)/2)`, one `sin` per edge. A degenerate
/// sector (a leaf point: both edges coincide) costs a single edge.
#[inline]
fn sector_dist_sq(qr: f64, qa: f64, r_lo: f64, r_hi: f64, a_lo: f64, a_hi: f64) -> f64 {
    let r_lo = r_lo.max(0.0);
    let r_hi = r_hi.max(r_lo);
    let edge = |theta: f64| {
        let s = ((qa - theta) * 0.5).sin();
        let s2 = s * s;
        // Project q onto the ray (cos x = 1 − 2·sin²(x/2)), clamp to the
        // segment.
        let t = (qr * (1.0 - 2.0 * s2)).clamp(r_lo, r_hi);
        let dr = qr - t;
        dr * dr + 4.0 * qr * t * s2
    };
    if a_lo == a_hi {
        return edge(a_lo);
    }
    // Inside the arc (the query angle, taken forward from `a_lo` around
    // the circle, lands within the arc's width): the nearest sector point
    // is radial.
    let ahead = qa - a_lo;
    if ahead - TAU * (ahead / TAU).floor() <= a_hi - a_lo {
        let d = interval_dist(qr, r_lo, r_hi);
        return d * d;
    }
    edge(a_lo).min(edge(a_hi))
}

/// Euclidean distance from a complex point to the annular sector
/// `{ r·e^{jθ} : r ∈ [r_lo, r_hi], θ ∈ [a_lo, a_hi] }`.
///
/// The angle interval is on the circle: a width of `2π` or more means all
/// angles. Magnitudes below zero are clamped away (real coefficients have
/// non-negative magnitude, so the clamp never excludes an actual item).
pub fn sector_distance(q: Complex, r_lo: f64, r_hi: f64, a_lo: f64, a_hi: f64) -> f64 {
    sector_dist_sq(q.abs(), q.angle(), r_lo, r_hi, a_lo, a_hi).sqrt()
}

/// A kept coefficient in the form its representation's bound consumes:
/// `(re, im)` or `(abs, angle)`.
#[inline]
fn bound_form(rep: Representation, c: &Complex) -> (f64, f64) {
    match rep {
        Representation::Rectangular => (c.re, c.im),
        Representation::Polar => (c.abs(), c.angle()),
    }
}

/// The squared bound over the coefficient dimensions of `rect`, given the
/// query coefficients in [`bound_form`].
#[inline]
fn mindist_sq(
    rep: Representation,
    base: usize,
    q: impl ExactSizeIterator<Item = (f64, f64)>,
    rect: &Rect,
) -> f64 {
    assert_eq!(
        rect.dims(),
        base + 2 * q.len(),
        "rect dimensionality mismatch"
    );
    // The coefficient dimensions are contiguous `(a, b)` pairs after the
    // statistics prefix; accumulate left to right.
    let lo = rect.lo[base..].chunks_exact(2);
    let hi = rect.hi[base..].chunks_exact(2);
    let mut acc = 0.0;
    for (((a, b), lo), hi) in q.zip(lo).zip(hi) {
        acc += match rep {
            Representation::Rectangular => {
                let dre = interval_dist(a, lo[0], hi[0]);
                let dim = interval_dist(b, lo[1], hi[1]);
                dre * dre + dim * dim
            }
            Representation::Polar => sector_dist_sq(a, b, lo[0], hi[0], lo[1], hi[1]),
        };
    }
    acc
}

/// The spectral MINDIST of one query, prepared once: the query's kept
/// coefficients already in the form the bound consumes, so bounding an
/// index entry costs no `hypot`/`atan2` and no allocation.
#[derive(Debug, Clone)]
pub struct SpectralMindist {
    rep: Representation,
    /// Leading statistics dimensions the bound skips.
    base: usize,
    q: Vec<(f64, f64)>,
}

impl SpectralMindist {
    /// Prepares the bound for a query's kept coefficients (frequencies
    /// `1..=k`, as returned by [`FeatureScheme::coefficients_of_point`]).
    ///
    /// # Panics
    /// Panics if `q_coeffs` is shorter than `k`.
    pub fn new(scheme: &FeatureScheme, q_coeffs: &[Complex]) -> Self {
        assert!(q_coeffs.len() >= scheme.k, "not enough query coefficients");
        SpectralMindist {
            rep: scheme.rep,
            base: scheme.stats_dims(),
            q: q_coeffs[..scheme.k]
                .iter()
                .map(|c| bound_form(scheme.rep, c))
                .collect(),
        }
    }

    /// Lower bound on the *squared* distance between the full spectra of
    /// the query and any item whose (transformed) index rectangle is
    /// `rect`; for a degenerate rectangle, the squared distance over the
    /// kept coefficients. Statistics dimensions are ignored — they are
    /// not part of the spectral distance.
    ///
    /// # Panics
    /// Panics if `rect` does not match the scheme's dimensionality.
    #[inline]
    pub fn dist_sq(&self, rect: &Rect) -> f64 {
        mindist_sq(self.rep, self.base, self.q.iter().copied(), rect)
    }
}

/// Lower bound on the distance between the full spectra of the query and
/// any item whose (transformed) index rectangle is `rect` — the one-shot
/// form of [`SpectralMindist::dist_sq`], square-rooted.
///
/// # Panics
/// Panics if `rect` does not match the scheme's dimensionality or
/// `q_coeffs` is shorter than `k`.
pub fn spectral_mindist(scheme: &FeatureScheme, q_coeffs: &[Complex], rect: &Rect) -> f64 {
    assert!(q_coeffs.len() >= scheme.k, "not enough query coefficients");
    let q = q_coeffs[..scheme.k]
        .iter()
        .map(|c| bound_form(scheme.rep, c));
    mindist_sq(scheme.rep, scheme.stats_dims(), q, rect).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simq_dsp::euclidean_complex;
    use std::f64::consts::PI;

    #[test]
    fn sector_distance_inside_is_zero() {
        let q = Complex::from_polar(2.0, 0.5);
        assert_eq!(sector_distance(q, 1.0, 3.0, 0.0, 1.0), 0.0);
    }

    #[test]
    fn sector_distance_radial_cases() {
        let q = Complex::from_polar(5.0, 0.5);
        // Outside radially, inside the arc: distance is |5 − 3| = 2.
        assert!((sector_distance(q, 1.0, 3.0, 0.0, 1.0) - 2.0).abs() < 1e-12);
        let q = Complex::from_polar(0.5, 0.5);
        assert!((sector_distance(q, 1.0, 3.0, 0.0, 1.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn sector_distance_angular_case() {
        // Query at angle π/2, sector arc [0, 0.1]: nearest point is on the
        // θ = 0.1 radial segment.
        let q = Complex::from_polar(2.0, PI / 2.0);
        let d = sector_distance(q, 1.0, 3.0, 0.0, 0.1);
        // Reference: distance to the segment computed by sampling.
        let mut best = f64::INFINITY;
        for i in 0..=10_000 {
            let r = 1.0 + 2.0 * (i as f64) / 10_000.0;
            best = best.min(q.dist(Complex::from_polar(r, 0.1)));
        }
        assert!((d - best).abs() < 1e-4, "{d} vs {best}");
    }

    #[test]
    fn sector_distance_wrapping_arc() {
        // Arc crossing ±π: [π − 0.1, π + 0.1]; query at angle −π + 0.05 is
        // inside (circularly).
        let q = Complex::from_polar(2.0, -PI + 0.05);
        assert_eq!(sector_distance(q, 1.0, 3.0, PI - 0.1, PI + 0.1), 0.0);
    }

    #[test]
    fn sector_distance_full_circle_is_radial() {
        let q = Complex::from_polar(4.0, 1.0);
        let d = sector_distance(q, 1.0, 2.0, -PI, PI);
        assert!((d - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sector_distance_is_sound_lower_bound_by_sampling() {
        // For random sectors and query points: distance to every sampled
        // sector point is ≥ the computed sector distance.
        let mut state = 0x12345678u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((state >> 33) as f64) / (u32::MAX as f64)
        };
        for _ in 0..200 {
            let r_lo = rnd() * 2.0;
            let r_hi = r_lo + rnd() * 2.0;
            let a_lo = (rnd() - 0.5) * 2.0 * PI;
            let a_hi = a_lo + rnd() * PI;
            let q = Complex::from_polar(rnd() * 4.0, (rnd() - 0.5) * 2.0 * PI);
            let d = sector_distance(q, r_lo, r_hi, a_lo, a_hi);
            for i in 0..40 {
                for j in 0..40 {
                    let r = r_lo + (r_hi - r_lo) * (i as f64) / 39.0;
                    let a = a_lo + (a_hi - a_lo) * (j as f64) / 39.0;
                    let p = Complex::from_polar(r, a);
                    assert!(
                        q.dist(p) >= d - 1e-9,
                        "point in sector closer than bound: {} < {d}",
                        q.dist(p)
                    );
                }
            }
        }
    }

    #[test]
    fn spectral_mindist_lower_bounds_true_distance() {
        // Extract features for random series; the mindist from any point's
        // degenerate rect must lower-bound the true spectral distance.
        for rep in [Representation::Polar, Representation::Rectangular] {
            let scheme = FeatureScheme::new(3, rep, true);
            let series_a: Vec<f64> = (0..64).map(|i| 20.0 + ((i * 7) % 13) as f64).collect();
            let series_b: Vec<f64> = (0..64).map(|i| 30.0 + ((i * 11) % 17) as f64).collect();
            let fa = scheme.extract(&series_a).unwrap();
            let fb = scheme.extract(&series_b).unwrap();
            let q_coeffs = scheme.coefficients_of_point(&fa.point);
            let rect = Rect::point(&fb.point);
            let bound = spectral_mindist(&scheme, &q_coeffs, &rect);
            let true_dist = euclidean_complex(&fa.spectrum, &fb.spectrum);
            assert!(bound <= true_dist + 1e-9, "{rep:?}: {bound} > {true_dist}");
        }
    }

    #[test]
    fn prepared_form_equals_one_shot_and_point_bound_is_the_kept_distance() {
        for rep in [Representation::Polar, Representation::Rectangular] {
            let scheme = FeatureScheme::new(3, rep, true);
            let series = |a: usize, b: usize| -> Vec<f64> {
                (0..64).map(|i| 20.0 + ((i * a) % b) as f64).collect()
            };
            let fa = scheme.extract(&series(7, 13)).unwrap();
            let fb = scheme.extract(&series(11, 17)).unwrap();
            let fc = scheme.extract(&series(5, 19)).unwrap();
            let q_coeffs = scheme.coefficients_of_point(&fa.point);
            let prepared = SpectralMindist::new(&scheme, &q_coeffs);
            // A leaf point: the closed form is the distance over the kept
            // coefficients themselves.
            let point = Rect::point(&fb.point);
            let kept: f64 = (1..=3)
                .map(|f| (fa.spectrum[f] - fb.spectrum[f]).norm_sqr())
                .sum();
            let got = prepared.dist_sq(&point);
            assert!(
                (got - kept).abs() <= 1e-9 * kept,
                "{rep:?}: {got} vs {kept}"
            );
            // A proper rectangle: same value by either entry point, and a
            // lower bound for a point inside it.
            let lo = fb.point.iter().zip(&fc.point).map(|(a, b)| a.min(*b));
            let hi = fb.point.iter().zip(&fc.point).map(|(a, b)| a.max(*b));
            let rect = Rect::new(lo.collect(), hi.collect());
            let one_shot = spectral_mindist(&scheme, &q_coeffs, &rect);
            assert_eq!(prepared.dist_sq(&rect).sqrt().to_bits(), one_shot.to_bits());
            assert!(prepared.dist_sq(&rect) <= got + 1e-9, "{rep:?}");
        }
    }

    #[test]
    fn spectral_mindist_zero_for_self() {
        let scheme = FeatureScheme::paper_default();
        let series: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.3).sin() * 5.0 + 30.0)
            .collect();
        let f = scheme.extract(&series).unwrap();
        let q_coeffs = scheme.coefficients_of_point(&f.point);
        let d = spectral_mindist(&scheme, &q_coeffs, &Rect::point(&f.point));
        assert!(d < 1e-9);
    }

    #[test]
    fn stats_dims_are_ignored() {
        let scheme = FeatureScheme::paper_default();
        let series: Vec<f64> = (0..64)
            .map(|i| (i as f64 * 0.3).cos() * 5.0 + 30.0)
            .collect();
        let f = scheme.extract(&series).unwrap();
        let q_coeffs = scheme.coefficients_of_point(&f.point);
        let mut far_stats = f.point.clone();
        far_stats[0] += 1e6;
        far_stats[1] += 1e6;
        let d = spectral_mindist(&scheme, &q_coeffs, &Rect::point(&far_stats));
        assert!(d < 1e-9);
    }
}
