//! Series transformations and their lowering to safe feature-space
//! transformations.
//!
//! A [`SeriesTransform`] describes an operation on time series (moving
//! average, reversal, warping, shift, scale, compositions). It can be
//!
//! 1. **applied in the time domain** ([`SeriesTransform::apply_time`]) —
//!    the reference semantics;
//! 2. **applied to spectra** ([`SeriesTransform::action`]) — its effect on
//!    the stored representation `(mean, std, normal-form spectrum)`
//!    decomposes into an affine action on the statistics and a
//!    multiplicative action `a ∗ X` on the spectrum, matching the paper's
//!    transformation pairs `(a, b)`;
//! 3. **lowered to the index** ([`SeriesTransform::lower`]) — a
//!    [`DiagonalAffine`] over the feature dimensions, *when the
//!    transformation is safe for the scheme's representation*:
//!    complex multipliers are safe in `S_pol` (Theorem 3) but only real
//!    multipliers are safe in `S_rect` (Theorem 2, whose counterexample
//!    [`lower`](SeriesTransform::lower) reproduces as an error). Unsafe
//!    combinations make `lower` fail, and the query planner falls back to a
//!    sequential scan.
//!
//! **Distance semantics.** Transformed queries compare `T(X̂)` against the
//! query point, where `X̂` is the stored normal-form spectrum — exactly the
//! paper's Algorithm 2 ("apply T to all points in the index"). In
//! particular the standard deviation dimension keeps the *original*
//! series' σ; it participates in GK95 shift/scale windows, not in the
//! transformed distance.

use crate::error::SeriesError;
use crate::features::{FeatureScheme, Representation};
use crate::{mavg, normal, reverse as rev, warp as warp_mod};
use simq_core::{FnTransformation, RealSequence};
use simq_dsp::complex::Complex;
use simq_index::transform::DiagonalAffine;

/// A transformation of time series, expressible in the paper's
/// transformation language as a pair `(a, b)` acting on spectra.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesTransform {
    /// The identity `T_i = (1, 0)`.
    Identity,
    /// Circular `m`-day moving average with equal weights (Equation 11).
    MovingAverage {
        /// Window length in days.
        window: usize,
    },
    /// Circular weighted moving average.
    WeightedMovingAverage {
        /// Kernel weights `w_1..w_m`.
        weights: Vec<f64>,
    },
    /// Reversal `T_rev = (−1, 0)` (Example 2.2).
    Reverse,
    /// Sample-wise shift `x_i ↦ x_i + c` — affects only the mean.
    Shift(f64),
    /// Sample-wise scale `x_i ↦ k·x_i`; negative `k` allowed.
    Scale(f64),
    /// Time warping by an integer factor (Appendix A).
    Warp {
        /// Stretch factor `m ≥ 1`.
        m: usize,
    },
    /// Composition, applied left to right.
    Chain(Vec<SeriesTransform>),
}

/// The action of a transformation on the stored representation
/// `(mean, std, normal-form spectrum)`.
#[derive(Debug, Clone)]
pub struct NormalFormAction {
    /// `mean ↦ mean_scale · mean + mean_shift`.
    pub mean_scale: f64,
    /// Additive part of the mean action.
    pub mean_shift: f64,
    /// `std ↦ std_scale · std` (always non-negative).
    pub std_scale: f64,
    /// Multipliers for spectrum frequencies `1..=count` (frequency 0 of a
    /// normal form is zero and needs no multiplier).
    pub multipliers: Vec<Complex>,
}

impl NormalFormAction {
    /// Applies the spectral part of the action to a stored normal-form
    /// spectrum: `a ∗ X` with `a` the multipliers, frequency 0 passed
    /// through. The action must carry a multiplier for every frequency
    /// of `spectrum` past 0 (the output stops where the multipliers do).
    pub fn apply_spectrum(&self, spectrum: &[Complex]) -> Vec<Complex> {
        let mut out = Vec::with_capacity(spectrum.len());
        out.extend(spectrum.first());
        let moved = spectrum.iter().skip(1).zip(&self.multipliers);
        out.extend(moved.map(|(x, a)| *x * *a));
        out
    }

    /// Lowers the action to a per-dimension affine map over the scheme's
    /// feature space (Algorithm 1's `T` on MBRs), from its first
    /// `scheme.k` multipliers: an action resolved for every frequency
    /// lowers exactly as one resolved for the index's `k` alone, since
    /// each frequency's multiplier is computed on its own.
    ///
    /// # Errors
    /// [`SeriesError::UnsafeTransformation`] when the multipliers are not
    /// real and the scheme uses the rectangular representation (the
    /// Theorem 2 counterexample: a complex stretch maps rectangles to
    /// rotated shapes whose MBR test would produce false dismissals).
    pub fn lower(&self, scheme: &FeatureScheme) -> Result<DiagonalAffine, SeriesError> {
        let mut scale = Vec::with_capacity(scheme.dims());
        let mut shift = Vec::with_capacity(scheme.dims());
        if scheme.include_stats {
            scale.push(self.mean_scale);
            shift.push(self.mean_shift);
            scale.push(self.std_scale);
            shift.push(0.0);
        }
        for a in self.multipliers.iter().take(scheme.k) {
            match scheme.rep {
                Representation::Rectangular => {
                    if a.im.abs() > 1e-12 {
                        return Err(SeriesError::UnsafeTransformation(
                            "complex multiplier in the rectangular representation \
                             (Theorem 2 requires a real stretch); use the polar \
                             representation or a sequential scan",
                        ));
                    }
                    scale.push(a.re);
                    shift.push(0.0);
                    scale.push(a.re);
                    shift.push(0.0);
                }
                Representation::Polar => {
                    // Theorem 3: magnitude scales by |a|, angle shifts by
                    // Angle(a) — both real affine maps.
                    scale.push(a.abs());
                    shift.push(0.0);
                    scale.push(1.0);
                    shift.push(a.angle());
                }
            }
        }
        Ok(DiagonalAffine::new(scale, shift))
    }

    /// Refuses an action whose distances can overflow: a normal form of
    /// length `n` has `Σ|X_f|² = n`, so `|X_f| ≤ √n`, and every distance
    /// between `a ∗ X` and the comparison spectrum `q` stays below
    /// `n · (2·M·√n + Q)²`, with `M` the largest multiplier magnitude (at
    /// least 1, for the DC term) and `Q` the largest of `q`'s. The
    /// statistics are not bounded here: they never enter a distance.
    ///
    /// # Errors
    /// [`SeriesError::NonFiniteTransformation`] when that bound is not
    /// finite.
    pub fn check_distances(&self, n: usize, q: &[Complex]) -> Result<(), SeriesError> {
        // Squared magnitudes: one of them overflows only where the bound
        // would anyway.
        let max_sq = |v: &[Complex], floor| v.iter().fold(floor, |m: f64, a| m.max(a.norm_sqr()));
        let (m_sq, q_sq) = (max_sq(&self.multipliers, 1.0), max_sq(q, 0.0));
        let n = n as f64;
        let reach = 2.0 * (m_sq * n).sqrt() + q_sq.sqrt();
        (n * reach * reach)
            .is_finite()
            .then_some(())
            .ok_or(SeriesError::NonFiniteTransformation)
    }
}

impl SeriesTransform {
    /// A short name for plans and diagnostics.
    pub fn name(&self) -> String {
        match self {
            SeriesTransform::Identity => "identity".into(),
            SeriesTransform::MovingAverage { window } => format!("mavg({window})"),
            SeriesTransform::WeightedMovingAverage { weights } => {
                format!("wmavg({} weights)", weights.len())
            }
            SeriesTransform::Reverse => "reverse".into(),
            SeriesTransform::Shift(c) => format!("shift({c})"),
            SeriesTransform::Scale(k) => format!("scale({k})"),
            SeriesTransform::Warp { m } => format!("warp({m})"),
            SeriesTransform::Chain(ts) => ts
                .iter()
                .map(|t| t.name())
                .collect::<Vec<_>>()
                .join(" then "),
        }
    }

    /// Applies the transformation to a raw series in the time domain.
    ///
    /// # Errors
    /// Propagates the domain errors of the underlying operations (invalid
    /// windows, warp factors, empty series).
    pub fn apply_time(&self, s: &[f64]) -> Result<Vec<f64>, SeriesError> {
        match self {
            SeriesTransform::Identity => Ok(s.to_vec()),
            SeriesTransform::MovingAverage { window } => mavg::moving_average(s, *window),
            SeriesTransform::WeightedMovingAverage { weights } => {
                mavg::weighted_moving_average(s, weights)
            }
            SeriesTransform::Reverse => Ok(rev::reverse(s)),
            SeriesTransform::Shift(c) => Ok(normal::shift(s, *c)),
            SeriesTransform::Scale(k) => Ok(normal::scale(s, *k)),
            SeriesTransform::Warp { m } => warp_mod::warp(s, *m),
            SeriesTransform::Chain(ts) => {
                let mut cur = s.to_vec();
                for t in ts {
                    cur = t.apply_time(&cur)?;
                }
                Ok(cur)
            }
        }
    }

    /// The action on `(mean, std, normal-form spectrum)` for series of
    /// length `n`, producing multipliers for frequencies `1..=count`.
    ///
    /// # Errors
    /// Domain errors of the underlying coefficient constructions;
    /// [`SeriesError::ZeroVariance`] for a zero `scale` factor anywhere in
    /// a chain (the scaled series is constant and has no normal form);
    /// [`SeriesError::NonFiniteTransformation`] when the composed action
    /// overflows — every kernel and index bound downstream assumes finite
    /// coefficients.
    pub fn action(&self, n: usize, count: usize) -> Result<NormalFormAction, SeriesError> {
        let action = self.compose(n, count)?;
        let finite = [action.mean_scale, action.mean_shift, action.std_scale]
            .iter()
            .all(|v| v.is_finite())
            && action.multipliers.iter().all(|m| m.is_finite());
        finite
            .then_some(action)
            .ok_or(SeriesError::NonFiniteTransformation)
    }

    /// [`action`](Self::action) before the finiteness check (chains
    /// compose their steps here, so the check runs once, on the result).
    fn compose(&self, n: usize, count: usize) -> Result<NormalFormAction, SeriesError> {
        let identity = || NormalFormAction {
            mean_scale: 1.0,
            mean_shift: 0.0,
            std_scale: 1.0,
            multipliers: vec![Complex::ONE; count],
        };
        match self {
            SeriesTransform::Identity => Ok(identity()),
            SeriesTransform::MovingAverage { window } => {
                let all = mavg::mavg_coefficients(n, *window, count + 1)?;
                Ok(NormalFormAction {
                    multipliers: all[1..].to_vec(),
                    ..identity()
                })
            }
            SeriesTransform::WeightedMovingAverage { weights } => {
                let all = mavg::weighted_mavg_coefficients(n, weights, count + 1)?;
                // A kernel whose weights do not sum to 1 rescales the DC
                // term, i.e. shifts the mean multiplicatively.
                let dc: f64 = weights.iter().sum();
                Ok(NormalFormAction {
                    mean_scale: dc,
                    multipliers: all[1..].to_vec(),
                    ..identity()
                })
            }
            SeriesTransform::Reverse => Ok(NormalFormAction {
                mean_scale: -1.0,
                multipliers: vec![Complex::real(-1.0); count],
                ..identity()
            }),
            SeriesTransform::Shift(c) => Ok(NormalFormAction {
                mean_shift: *c,
                ..identity()
            }),
            SeriesTransform::Scale(k) if *k == 0.0 => Err(SeriesError::ZeroVariance),
            SeriesTransform::Scale(k) => Ok(NormalFormAction {
                mean_scale: *k,
                std_scale: k.abs(),
                multipliers: vec![Complex::real(k.signum()); count],
                ..identity()
            }),
            SeriesTransform::Warp { m } => {
                let all = warp_mod::warp_coefficients(n, *m, count + 1)?;
                Ok(NormalFormAction {
                    multipliers: all[1..].to_vec(),
                    ..identity()
                })
            }
            SeriesTransform::Chain(ts) => {
                let mut acc = identity();
                for t in ts {
                    let next = t.compose(n, count)?;
                    acc.mean_shift = next.mean_scale * acc.mean_shift + next.mean_shift;
                    acc.mean_scale *= next.mean_scale;
                    acc.std_scale *= next.std_scale;
                    for (a, b) in acc.multipliers.iter_mut().zip(&next.multipliers) {
                        *a *= *b;
                    }
                }
                Ok(acc)
            }
        }
    }

    /// Applies the spectral part of the action to a stored normal-form
    /// spectrum (`a ∗ X` with `a` the multipliers; frequency 0 is passed
    /// through): [`NormalFormAction::apply_spectrum`] of the action for
    /// the spectrum's frequencies.
    ///
    /// # Errors
    /// Domain errors of the coefficient constructions.
    pub fn apply_spectrum(
        &self,
        spectrum: &[Complex],
        n: usize,
    ) -> Result<Vec<Complex>, SeriesError> {
        let count = spectrum.len().saturating_sub(1);
        Ok(self.action(n, count)?.apply_spectrum(spectrum))
    }

    /// Lowers the transformation to a per-dimension affine map over the
    /// scheme's feature space, for series of length `n`:
    /// [`NormalFormAction::lower`] of the action for the scheme's `k`
    /// frequencies.
    ///
    /// # Errors
    /// Domain errors of the coefficient constructions;
    /// [`SeriesError::UnsafeTransformation`] as [`NormalFormAction::lower`].
    pub fn lower(&self, scheme: &FeatureScheme, n: usize) -> Result<DiagonalAffine, SeriesError> {
        self.action(n, scheme.k)?.lower(scheme)
    }

    /// Wraps this transformation as a framework-level rule on
    /// [`RealSequence`] objects with the given cost, bridging the domain
    /// crate to `simq-core`'s generic distance search.
    pub fn into_core_rule(self, cost: f64) -> FnTransformation<RealSequence> {
        let name = self.name();
        FnTransformation::fallible(name, cost, move |s: &RealSequence| {
            self.apply_time(s.values()).ok().map(RealSequence::new)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simq_dsp::{euclidean_complex, fft};

    fn series(seed: u64, n: usize) -> Vec<f64> {
        let mut v = Vec::with_capacity(n);
        let mut x = 40.0;
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        for _ in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x += ((state >> 33) % 9) as f64 - 4.0;
            v.push(x);
        }
        v
    }

    /// The invariant the whole indexing story rests on:
    /// `apply_spectrum(X̂) == DFT(apply_time(x̂))` for spectrum-preserving
    /// transformations (those that keep the length).
    #[test]
    fn spectral_action_matches_time_domain_on_normal_forms() {
        let n = 64;
        let s = series(1, n);
        let nf = normal::normal_form(&s).unwrap();
        let spectrum = fft::forward_real(&nf);
        for t in [
            SeriesTransform::Identity,
            SeriesTransform::MovingAverage { window: 5 },
            SeriesTransform::WeightedMovingAverage {
                weights: vec![0.5, 0.3, 0.2],
            },
            SeriesTransform::Reverse,
            SeriesTransform::Scale(3.0),
            SeriesTransform::Scale(-2.0),
            SeriesTransform::Chain(vec![
                SeriesTransform::Reverse,
                SeriesTransform::MovingAverage { window: 20 },
            ]),
        ] {
            let via_spec = t.apply_spectrum(&spectrum, n).unwrap();
            let expected_time = match &t {
                // Scale(k) on the *stored normal form* acts as sign(k) — the
                // magnitude goes to the std dimension.
                SeriesTransform::Scale(k) => normal::scale(&nf, k.signum()),
                other => other.apply_time(&nf).unwrap(),
            };
            let expected = fft::forward_real(&expected_time);
            // Compare ignoring DC (a normal form's DC is 0 and the actions
            // that touch it — shift — are excluded here).
            let d = euclidean_complex(&via_spec[1..], &expected[1..]);
            assert!(d < 1e-8, "{}: divergence {d}", t.name());
        }
    }

    #[test]
    fn shift_only_moves_the_mean() {
        let a = SeriesTransform::Shift(7.5).action(32, 3).unwrap();
        assert_eq!(a.mean_shift, 7.5);
        assert_eq!(a.mean_scale, 1.0);
        assert_eq!(a.std_scale, 1.0);
        assert!(a.multipliers.iter().all(|m| m.approx_eq(Complex::ONE, 0.0)));
    }

    #[test]
    fn scale_updates_stats_and_sign() {
        let a = SeriesTransform::Scale(-3.0).action(32, 2).unwrap();
        assert_eq!(a.mean_scale, -3.0);
        assert_eq!(a.std_scale, 3.0);
        assert!(a.multipliers[0].approx_eq(Complex::real(-1.0), 0.0));
    }

    #[test]
    fn zero_scale_and_overflowing_constants_are_errors_not_actions() {
        use SeriesTransform::{Chain, Scale, Shift, WeightedMovingAverage};
        // `0.0.signum()` is 1 and `(-0.0).signum()` is −1: without the
        // check these meant "identity" and "reverse".
        for zero in [0.0, -0.0] {
            let chained = Chain(vec![Shift(1.0), Scale(zero)]);
            for t in [Scale(zero), chained] {
                assert_eq!(t.action(32, 3).unwrap_err(), SeriesError::ZeroVariance);
            }
        }
        let wmavg = |a, b| WeightedMovingAverage {
            weights: vec![a, b],
        };
        for t in [
            Shift(f64::INFINITY),
            Chain(vec![Scale(1e308), Scale(1e308)]),
            Chain(vec![Shift(1e308), Scale(100.0)]),
            wmavg(1e308, 1e308),
            wmavg(1e308, -1e308),
        ] {
            assert_eq!(
                t.action(32, 31).unwrap_err(),
                SeriesError::NonFiniteTransformation,
                "{}",
                t.name()
            );
        }
        assert!(Chain(vec![Scale(1e150), Scale(-1e150)])
            .action(32, 3)
            .is_ok());
    }

    #[test]
    fn chain_composes_actions() {
        // shift(2) then scale(-1): mean ↦ -(mean + 2).
        let t = SeriesTransform::Chain(vec![
            SeriesTransform::Shift(2.0),
            SeriesTransform::Scale(-1.0),
        ]);
        let a = t.action(16, 1).unwrap();
        assert_eq!(a.mean_scale, -1.0);
        assert_eq!(a.mean_shift, -2.0);
        // Verify on a concrete value: mean 5 → -(5+2) = -7.
        assert_eq!(a.mean_scale * 5.0 + a.mean_shift, -7.0);
    }

    #[test]
    fn mavg_lowering_is_safe_in_polar_but_not_rect() {
        let n = 128;
        let t = SeriesTransform::MovingAverage { window: 20 };
        let polar = FeatureScheme::new(2, Representation::Polar, true);
        let rect = FeatureScheme::new(2, Representation::Rectangular, true);
        assert!(t.lower(&polar, n).is_ok());
        assert!(matches!(
            t.lower(&rect, n),
            Err(SeriesError::UnsafeTransformation(_))
        ));
    }

    #[test]
    fn reverse_is_safe_in_both_representations() {
        // Multiplier −1 is real: safe in S_rect by Theorem 2; in S_pol it
        // becomes an angle shift of π by Theorem 3.
        let n = 64;
        let t = SeriesTransform::Reverse;
        for rep in [Representation::Rectangular, Representation::Polar] {
            let scheme = FeatureScheme::new(2, rep, true);
            let affine = t.lower(&scheme, n).unwrap();
            assert_eq!(affine.scales().len(), scheme.dims());
        }
        let polar = FeatureScheme::new(1, Representation::Polar, false);
        let affine = t.lower(&polar, n).unwrap();
        // Magnitude unchanged, angle shifted by ±π.
        assert!((affine.scales()[0] - 1.0).abs() < 1e-12);
        assert!((affine.shifts()[1].abs() - std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn lowered_transform_maps_extracted_points_correctly() {
        // T(point(x)) must equal point built from T's spectral action —
        // the commuting square behind Algorithm 2.
        let n = 128;
        let s = series(5, n);
        let scheme = FeatureScheme::paper_default();
        let f = scheme.extract(&s).unwrap();
        let t = SeriesTransform::Chain(vec![
            SeriesTransform::Reverse,
            SeriesTransform::MovingAverage { window: 20 },
        ]);
        let affine = t.lower(&scheme, n).unwrap();
        let lowered_point = affine.apply_point(&f.point);
        let transformed_spec = t.apply_spectrum(&f.spectrum, n).unwrap();
        let direct_point = scheme
            .point_from_spectrum(f.mean, f.std_dev, &transformed_spec)
            .unwrap();
        // Compare via reconstructed complex coefficients (angles may differ
        // by 2π in raw coordinates — the circular dimension semantics).
        let a = scheme.coefficients_of_point(&lowered_point);
        let b = scheme.coefficients_of_point(&direct_point);
        for (x, y) in a.iter().zip(&b) {
            assert!(x.approx_eq(*y, 1e-9), "{x} vs {y}");
        }
    }

    /// A statement resolves one action for every frequency and derives
    /// its lowering and its `ON BOTH` spectrum from it: both equal, bit
    /// for bit, what the transformation computes for the index's `k`
    /// frequencies and for the spectrum's own.
    #[test]
    fn one_full_action_lowers_and_moves_spectra_bitwise() {
        use SeriesTransform::*;
        let n = 64;
        let f = FeatureScheme::paper_default()
            .extract(&series(3, n))
            .unwrap();
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let cbits = |v: &[Complex]| {
            let parts = v.iter().flat_map(|c| [c.re, c.im]).collect::<Vec<_>>();
            bits(&parts)
        };
        for t in [
            Identity,
            MovingAverage { window: 20 },
            WeightedMovingAverage {
                weights: vec![0.5, 0.3, 0.2],
            },
            Reverse,
            Shift(2.5),
            Scale(-3.0),
            Warp { m: 2 },
            Chain(vec![Reverse, MovingAverage { window: 5 }, Scale(0.5)]),
        ] {
            let action = t.action(n, n - 1).unwrap();
            for k in [1, 2, 5] {
                for rep in [Representation::Polar, Representation::Rectangular] {
                    for stats in [false, true] {
                        let scheme = FeatureScheme::new(k, rep, stats);
                        match (action.lower(&scheme), t.lower(&scheme, n)) {
                            (Ok(a), Ok(b)) => {
                                assert_eq!(bits(a.scales()), bits(b.scales()), "{}", t.name());
                                assert_eq!(bits(a.shifts()), bits(b.shifts()), "{}", t.name());
                            }
                            (a, b) => assert_eq!(a.err(), b.err(), "{}", t.name()),
                        }
                    }
                }
            }
            let moved = t.apply_spectrum(&f.spectrum, n).unwrap();
            assert_eq!(
                cbits(&action.apply_spectrum(&f.spectrum)),
                cbits(&moved),
                "{}",
                t.name()
            );
        }
    }

    #[test]
    fn warp_changes_length_in_time_domain() {
        let t = SeriesTransform::Warp { m: 2 };
        let out = t.apply_time(&[1.0, 2.0]).unwrap();
        assert_eq!(out, vec![1.0, 1.0, 2.0, 2.0]);
    }

    #[test]
    fn warp_lowering_polar_only() {
        let t = SeriesTransform::Warp { m: 2 };
        let polar = FeatureScheme::new(2, Representation::Polar, false);
        let rect = FeatureScheme::new(2, Representation::Rectangular, false);
        assert!(t.lower(&polar, 64).is_ok());
        assert!(t.lower(&rect, 64).is_err());
    }

    #[test]
    fn into_core_rule_bridges_to_framework() {
        use simq_core::Transformation;
        let rule = SeriesTransform::MovingAverage { window: 3 }.into_core_rule(1.5);
        assert_eq!(rule.cost(), 1.5);
        assert_eq!(rule.name(), "mavg(3)");
        let out = rule.apply(&RealSequence::new(vec![3.0, 6.0, 9.0, 12.0]));
        assert!(out.is_some());
        // Window larger than the series: the rule politely declines.
        assert!(rule.apply(&RealSequence::new(vec![1.0])).is_none());
    }

    #[test]
    fn identity_lowering_is_identity() {
        let scheme = FeatureScheme::paper_default();
        let affine = SeriesTransform::Identity.lower(&scheme, 128).unwrap();
        let p: Vec<f64> = (0..scheme.dims()).map(|i| i as f64).collect();
        assert_eq!(affine.apply_point(&p), p);
    }
}
