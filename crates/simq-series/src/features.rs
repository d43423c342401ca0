//! Mapping time series into an indexable multidimensional feature space.
//!
//! Following the paper's experimental setup (Section 5):
//!
//! 1. every series is transformed to its **normal form** (zero mean, unit
//!    standard deviation);
//! 2. the mean and standard deviation of the *original* series become the
//!    first two index dimensions, "so despite using the polar
//!    representation, we could still have simple shifts" (the GK95
//!    operations);
//! 3. the normal form's DFT is taken; its first coefficient is zero by
//!    construction ("so we can throw it away") and the next `k`
//!    coefficients are mapped to `2k` dimensions, either as
//!    real/imaginary pairs (`S_rect`) or as magnitude/phase pairs
//!    (`S_pol`).
//!
//! The paper's index uses `k = 2` (six dimensions total); [`FeatureScheme`]
//! makes `k`, the representation and the presence of the statistics
//! dimensions configurable, which the ablation experiments sweep.
//!
//! **Search rectangles** (Section 3.1, Figure 7): the minimum bounding
//! rectangle of all points within Euclidean distance ε of the query. In
//! `S_rect` it is `(q_i − ε, q_i + ε)` per dimension. In `S_pol`, for a
//! coefficient `m·e^{jα}`, the magnitude spans `m ± ε` and the angle spans
//! `α ± asin(ε/m)` — degenerating to the full circle when `ε ≥ m`.

use crate::error::SeriesError;
use crate::normal;
use simq_dsp::complex::Complex;
use simq_dsp::fft;
use simq_index::geom::{DimSemantics, Rect, Space};
use std::f64::consts::PI;
use std::ops::Range;

/// A point in the feature space (length = [`FeatureScheme::dims`]).
pub type FeaturePoint = Vec<f64>;

/// How complex coefficients are laid out as real dimensions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Representation {
    /// Real/imaginary pairs — `S_rect`. Safe for real stretches and complex
    /// shifts (Theorem 2); supports Euclidean kNN in index space.
    Rectangular,
    /// Magnitude/phase pairs — `S_pol`. Safe for complex multipliers
    /// (Theorem 3) — the representation the paper's experiments use, since
    /// "vector multiplication for time series data seemed to be more
    /// important than vector addition".
    Polar,
}

/// The feature-extraction recipe: which dimensions the index stores.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureScheme {
    /// Number of complex DFT coefficients kept (frequencies `1..=k` of the
    /// normal form).
    pub k: usize,
    /// Complex-to-real layout.
    pub rep: Representation,
    /// Whether the mean and standard deviation of the original series are
    /// prepended as two extra linear dimensions.
    pub include_stats: bool,
}

/// Everything extracted from one series: the index point plus the data the
/// postprocessing step needs.
#[derive(Debug, Clone, Default)]
pub struct SeriesFeatures {
    /// The point stored in the index.
    pub point: FeaturePoint,
    /// Mean of the original series.
    pub mean: f64,
    /// Population standard deviation of the original series.
    pub std_dev: f64,
    /// Full spectrum of the normal form (all `n` coefficients; index 0 is
    /// numerically zero).
    pub spectrum: Vec<Complex>,
}

impl FeatureScheme {
    /// Creates a scheme.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize, rep: Representation, include_stats: bool) -> Self {
        assert!(k > 0, "at least one coefficient is required");
        FeatureScheme {
            k,
            rep,
            include_stats,
        }
    }

    /// The paper's experimental configuration: `k = 2`, polar, with the
    /// mean and standard deviation dimensions (six dimensions total).
    pub fn paper_default() -> Self {
        FeatureScheme::new(2, Representation::Polar, true)
    }

    /// Number of index dimensions.
    pub fn dims(&self) -> usize {
        (if self.include_stats { 2 } else { 0 }) + 2 * self.k
    }

    /// Number of leading linear statistics dimensions (0 or 2).
    pub fn stats_dims(&self) -> usize {
        if self.include_stats {
            2
        } else {
            0
        }
    }

    /// The spectral coefficient dimensions, the ones after the statistics:
    /// the only dimensions a search rectangle bounds without a GK95 window
    /// and the kNN bound reads, so the ones STR bulk loading cuts.
    pub fn coefficient_dims(&self) -> Range<usize> {
        self.stats_dims()..self.dims()
    }

    /// The [`Space`] the index must be built over: linear everywhere except
    /// the phase-angle dimensions of the polar representation, which are
    /// circular with period `2π`.
    pub fn space(&self) -> Space {
        let mut dims = Vec::with_capacity(self.dims());
        for _ in 0..self.stats_dims() {
            dims.push(DimSemantics::Linear);
        }
        for _ in 0..self.k {
            match self.rep {
                Representation::Rectangular => {
                    dims.push(DimSemantics::Linear);
                    dims.push(DimSemantics::Linear);
                }
                Representation::Polar => {
                    dims.push(DimSemantics::Linear); // magnitude
                    dims.push(DimSemantics::Circular { period: 2.0 * PI });
                }
            }
        }
        Space::new(dims)
    }

    /// Extracts features from a raw series: normalize, transform, project.
    ///
    /// # Errors
    /// [`SeriesError::TooFewSamples`] when the series has fewer than `k+1`
    /// samples (frequencies `1..=k` must exist); the normalization errors
    /// of [`normal::normalize`]; [`SeriesError::NonFiniteSeries`] when the
    /// mean or the standard deviation is not finite — which a NaN or
    /// infinite sample always makes them. A finite standard deviation
    /// bounds every sample's squared deviation, so the normal form of an
    /// accepted series is bounded and its spectrum finite.
    pub fn extract(&self, series: &[f64]) -> Result<SeriesFeatures, SeriesError> {
        if series.len() < self.k + 1 {
            return Err(SeriesError::TooFewSamples {
                k: self.k,
                len: series.len(),
            });
        }
        let nf = normal::normalize(series)?;
        if !(nf.mean.is_finite() && nf.std_dev.is_finite()) {
            return Err(SeriesError::NonFiniteSeries);
        }
        let spectrum = fft::forward_real(&nf.series);
        let point = self.point_from_spectrum(nf.mean, nf.std_dev, &spectrum)?;
        Ok(SeriesFeatures {
            point,
            mean: nf.mean,
            std_dev: nf.std_dev,
            spectrum,
        })
    }

    /// Builds the index point from a precomputed normal-form spectrum and
    /// statistics. `spectrum` must hold at least `k+1` coefficients
    /// (frequencies `0..=k`).
    ///
    /// # Errors
    /// [`SeriesError::TooFewSamples`] when the spectrum is too short.
    pub fn point_from_spectrum(
        &self,
        mean: f64,
        std_dev: f64,
        spectrum: &[Complex],
    ) -> Result<FeaturePoint, SeriesError> {
        if spectrum.len() < self.k + 1 {
            return Err(SeriesError::TooFewSamples {
                k: self.k,
                len: spectrum.len(),
            });
        }
        let mut point = Vec::with_capacity(self.dims());
        if self.include_stats {
            point.push(mean);
            point.push(std_dev);
        }
        for &c in &spectrum[1..=self.k] {
            match self.rep {
                Representation::Rectangular => {
                    point.push(c.re);
                    point.push(c.im);
                }
                Representation::Polar => {
                    point.push(c.abs());
                    point.push(c.angle());
                }
            }
        }
        Ok(point)
    }

    /// Reconstructs the kept complex coefficients (frequencies `1..=k`)
    /// from an index point.
    pub fn coefficients_of_point(&self, point: &[f64]) -> Vec<Complex> {
        let base = self.stats_dims();
        (0..self.k)
            .map(|i| {
                let a = point[base + 2 * i];
                let b = point[base + 2 * i + 1];
                match self.rep {
                    Representation::Rectangular => Complex::new(a, b),
                    Representation::Polar => Complex::from_polar(a, b),
                }
            })
            .collect()
    }

    /// The search rectangle for a range query: the MBR of all feature
    /// points whose kept coefficients lie within Euclidean distance `eps`
    /// of the query's (Section 3.1). Statistics dimensions are left
    /// unbounded — they are not part of the normal-form distance; use
    /// [`FeatureScheme::search_rect_with_stats`] to constrain them
    /// (GK95-style shift/scale windows).
    pub fn search_rect(&self, q: &[f64], eps: f64) -> Rect {
        self.search_rect_with_stats(q, eps, None)
    }

    /// Search rectangle with optional `(mean_tol, std_tol)` windows on the
    /// statistics dimensions.
    ///
    /// # Panics
    /// Panics if `q` has the wrong dimensionality or `eps` is negative.
    pub fn search_rect_with_stats(
        &self,
        q: &[f64],
        eps: f64,
        stats_tol: Option<(f64, f64)>,
    ) -> Rect {
        assert_eq!(q.len(), self.dims(), "query point dimensionality mismatch");
        assert!(eps >= 0.0, "epsilon must be non-negative");
        let mut lo = Vec::with_capacity(self.dims());
        let mut hi = Vec::with_capacity(self.dims());
        if self.include_stats {
            match stats_tol {
                Some((mean_tol, std_tol)) => {
                    lo.push(q[0] - mean_tol);
                    hi.push(q[0] + mean_tol);
                    lo.push(q[1] - std_tol);
                    hi.push(q[1] + std_tol);
                }
                None => {
                    lo.extend([f64::NEG_INFINITY; 2]);
                    hi.extend([f64::INFINITY; 2]);
                }
            }
        }
        let base = self.stats_dims();
        for i in 0..self.k {
            match self.rep {
                Representation::Rectangular => {
                    for d in [base + 2 * i, base + 2 * i + 1] {
                        lo.push(q[d] - eps);
                        hi.push(q[d] + eps);
                    }
                }
                Representation::Polar => {
                    let m = q[base + 2 * i];
                    let alpha = q[base + 2 * i + 1];
                    lo.push(m - eps);
                    hi.push(m + eps);
                    if eps >= m {
                        // The ε-disk contains the origin: every phase is
                        // possible (Figure 7 degenerates).
                        lo.push(alpha - PI);
                        hi.push(alpha + PI);
                    } else {
                        let theta = (eps / m).asin();
                        lo.push(alpha - theta);
                        hi.push(alpha + theta);
                    }
                }
            }
        }
        Rect::new(lo, hi)
    }

    /// Lower bound on the Euclidean distance between two normal-form
    /// series, computed from their index points alone (the k-coefficient
    /// underestimate of Lemma 1). The kept coefficients are compared as
    /// complex numbers, so the bound is representation-independent.
    ///
    /// The missing conjugate-symmetric upper half of the spectrum mirrors
    /// frequencies `1..=k`, so their contribution is doubled — still an
    /// underestimate, but a tighter one (standard AFS93 refinement). This
    /// is the untransformed, exactly symmetric special case; the query
    /// paths claim the mirrored half through
    /// `simq_storage::FilterProbe::mirrored` (row bounds, with measured
    /// symmetry slack and transformation multipliers) and, for index
    /// rectangles, its `mirror_floor` on top of
    /// [`SpectralMindist`](crate::SpectralMindist).
    pub fn lower_bound_distance(&self, a: &[f64], b: &[f64]) -> f64 {
        let ca = self.coefficients_of_point(a);
        let cb = self.coefficients_of_point(b);
        let sum: f64 = ca.iter().zip(&cb).map(|(x, y)| (*x - *y).norm_sqr()).sum();
        (2.0 * sum).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simq_dsp::euclidean_complex;

    fn sample_series(n: usize, seed: u64) -> Vec<f64> {
        // Deterministic pseudo-random walk.
        let mut v = Vec::with_capacity(n);
        let mut x = 50.0 + (seed % 13) as f64;
        let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let step = ((state >> 33) % 9) as f64 - 4.0;
            x += step;
            v.push(x);
        }
        v
    }

    #[test]
    fn paper_default_is_six_dimensional() {
        let scheme = FeatureScheme::paper_default();
        assert_eq!(scheme.dims(), 6);
        let s = sample_series(128, 1);
        let f = scheme.extract(&s).unwrap();
        assert_eq!(f.point.len(), 6);
        // Dims: mean, std, |S1|, angle(S1), |S2|, angle(S2).
        assert!((f.point[0] - normal::mean(&s)).abs() < 1e-9);
        assert!((f.point[1] - normal::std_dev(&s)).abs() < 1e-9);
        assert!(f.point[2] >= 0.0 && f.point[4] >= 0.0);
        assert!(f.point[3].abs() <= PI && f.point[5].abs() <= PI);
    }

    #[test]
    fn dc_coefficient_of_normal_form_is_zero() {
        let scheme = FeatureScheme::paper_default();
        let f = scheme.extract(&sample_series(64, 2)).unwrap();
        assert!(f.spectrum[0].abs() < 1e-9);
    }

    #[test]
    fn rect_and_polar_encode_same_coefficients() {
        let s = sample_series(64, 3);
        let rect = FeatureScheme::new(3, Representation::Rectangular, false);
        let polar = FeatureScheme::new(3, Representation::Polar, false);
        let fr = rect.extract(&s).unwrap();
        let fp = polar.extract(&s).unwrap();
        let cr = rect.coefficients_of_point(&fr.point);
        let cp = polar.coefficients_of_point(&fp.point);
        for (a, b) in cr.iter().zip(&cp) {
            assert!(a.approx_eq(*b, 1e-9));
        }
    }

    #[test]
    fn lower_bound_is_a_lower_bound() {
        // Lemma 1's engine: index distance never exceeds true distance.
        for (i, j) in [(1u64, 2u64), (3, 4), (5, 6), (7, 8)] {
            let a = sample_series(128, i);
            let b = sample_series(128, j);
            let scheme = FeatureScheme::new(3, Representation::Rectangular, false);
            let fa = scheme.extract(&a).unwrap();
            let fb = scheme.extract(&b).unwrap();
            let lb = scheme.lower_bound_distance(&fa.point, &fb.point);
            let full = euclidean_complex(&fa.spectrum, &fb.spectrum);
            assert!(
                lb <= full + 1e-9,
                "lower bound {lb} exceeds true distance {full}"
            );
        }
    }

    #[test]
    fn search_rect_contains_all_eps_near_points() {
        // Every point within eps of q (in full spectrum distance) must fall
        // inside q's search rectangle — no false dismissals.
        let scheme = FeatureScheme::paper_default();
        let space = scheme.space();
        let q_series = sample_series(128, 10);
        let fq = scheme.extract(&q_series).unwrap();
        for seed in 11..40u64 {
            let s = sample_series(128, seed);
            let fs = scheme.extract(&s).unwrap();
            let true_dist = euclidean_complex(&fq.spectrum, &fs.spectrum);
            for eps in [0.5, 2.0, 8.0, 20.0] {
                if true_dist <= eps {
                    let rect = scheme.search_rect(&fq.point, eps);
                    assert!(
                        space.contains(&rect, &fs.point),
                        "seed {seed} eps {eps}: point escaped its search rectangle"
                    );
                }
            }
        }
    }

    #[test]
    fn polar_angle_degenerates_when_eps_covers_origin() {
        let scheme = FeatureScheme::new(1, Representation::Polar, false);
        // Query coefficient with magnitude 0.5, eps 1.0 ≥ m.
        let q = vec![0.5, 1.0];
        let rect = scheme.search_rect(&q, 1.0);
        // Angle dimension must span the full circle.
        assert!((rect.hi[1] - rect.lo[1] - 2.0 * PI).abs() < 1e-12);
    }

    #[test]
    fn polar_angle_uses_asin() {
        let scheme = FeatureScheme::new(1, Representation::Polar, false);
        let q = vec![2.0, 0.3];
        let rect = scheme.search_rect(&q, 1.0);
        let theta = (1.0f64 / 2.0).asin();
        assert!((rect.lo[1] - (0.3 - theta)).abs() < 1e-12);
        assert!((rect.hi[1] - (0.3 + theta)).abs() < 1e-12);
        assert_eq!(rect.lo[0], 1.0);
        assert_eq!(rect.hi[0], 3.0);
    }

    #[test]
    fn stats_window_bounds_stats_dims() {
        let scheme = FeatureScheme::paper_default();
        let s = sample_series(64, 20);
        let f = scheme.extract(&s).unwrap();
        let rect = scheme.search_rect_with_stats(&f.point, 1.0, Some((0.5, 0.1)));
        assert!((rect.hi[0] - rect.lo[0] - 1.0).abs() < 1e-12);
        assert!((rect.hi[1] - rect.lo[1] - 0.2).abs() < 1e-12);
        let unbounded = scheme.search_rect(&f.point, 1.0);
        assert_eq!(unbounded.lo[0], f64::NEG_INFINITY);
        assert_eq!(unbounded.hi[1], f64::INFINITY);
    }

    #[test]
    fn too_short_series_rejected() {
        let scheme = FeatureScheme::new(4, Representation::Polar, false);
        assert!(matches!(
            scheme.extract(&[1.0, 2.0, 3.0]),
            Err(SeriesError::TooFewSamples { .. })
        ));
    }

    #[test]
    fn every_accepted_series_has_finite_features() {
        let schemes = [
            FeatureScheme::paper_default(),
            FeatureScheme::new(3, Representation::Rectangular, true),
        ];
        let offsets = [
            0.0,
            1e-170,
            1e150,
            -1e150,
            1e300,
            -1e300,
            f64::MAX / 256.0,
            f64::MAX,
            -f64::MAX,
        ];
        let amplitudes = [1e-170, 1e-162, 1e-3, 1.0, 1e150, 1e154, 1e300, f64::MAX];
        let mut accepted_offsets = Vec::new();
        for seed in 0..6u64 {
            let walk = sample_series(64, seed);
            let (lo, hi) = walk
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            for &offset in &offsets {
                for &amp in &amplitudes {
                    // A walk rescaled to [−amp, amp] around `offset`; odd
                    // seeds also pin one sample to ±f64::MAX.
                    let mut s: Vec<f64> = walk
                        .iter()
                        .map(|v| offset + amp * (2.0 * (v - lo) / (hi - lo) - 1.0))
                        .collect();
                    if seed % 2 == 1 {
                        s[seed as usize] = if seed % 4 == 1 { f64::MAX } else { -f64::MAX };
                    }
                    for scheme in &schemes {
                        let Ok(f) = scheme.extract(&s) else { continue };
                        accepted_offsets.push(offset);
                        let what = format!("seed {seed} offset {offset:e} amp {amp:e}");
                        assert!(f.mean.is_finite() && f.std_dev.is_finite(), "{what}");
                        assert!(f.point.iter().all(|x| x.is_finite()), "{what}");
                        assert!(
                            f.spectrum
                                .iter()
                                .all(|c| c.re.is_finite() && c.im.is_finite()),
                            "{what}"
                        );
                    }
                }
            }
        }
        // The sweep accepts series at the extremes it is meant to cover.
        // From 1e300 up every series is constant or overflows: one ulp
        // there squares past f64::MAX.
        for offset in [0.0, 1e-170, 1e150, -1e150] {
            assert!(accepted_offsets.contains(&offset), "{offset:e}");
        }
    }

    #[test]
    fn roundtrip_coefficients() {
        let scheme = FeatureScheme::new(2, Representation::Polar, true);
        let s = sample_series(32, 30);
        let f = scheme.extract(&s).unwrap();
        let coeffs = scheme.coefficients_of_point(&f.point);
        for (i, c) in coeffs.iter().enumerate() {
            assert!(c.approx_eq(f.spectrum[i + 1], 1e-9));
        }
    }
}
