//! Moving averages — the paper's flagship transformation.
//!
//! The paper uses a *circular* `m`-day moving average: the averaging window
//! wraps from the beginning of the sequence to the end, producing an output
//! of the same length `n` (Section 1, Example 1.1 discussion). "When the
//! length of the window is small enough compared to the length of the
//! sequence, which is usually the case in practice, both [circular and
//! ordinary] averages are almost the same."
//!
//! In the transformation language the `m`-day moving average is
//! `T_mavg = (a, 0)` with `a` the spectrum of the kernel
//! `(1/m, …, 1/m, 0, …, 0)` (paper Equation 11, via the
//! convolution–multiplication property). Under the symmetric `1/√n` DFT
//! convention the exact coefficient vector is
//!
//! ```text
//! a_f = (1/m) · Σ_{t=0}^{m-1} e^{-j2πtf/n}     (= √n · DFT(kernel)_f)
//! ```
//!
//! so that `a ∗ X = DFT(mavg(x))` holds exactly — verified by tests here.
//!
//! **Closed form.** The sum is geometric in `ω_f = e^{−j2πf/n}`, so the
//! equal-weight multipliers need no loop over the window:
//!
//! ```text
//! a_f = (1/m) · (1 − ω[f·m mod n]) / (1 − ω[f mod n])
//! ```
//!
//! with both roots read from the series length's [`UnitRoots`] (a
//! relation's table, or computed on demand). Where `ω_f = 1` (`f ≡ 0 mod
//! n`) the sum is `m` terms of one and `a_f` is exactly `1`; where `f·m ≡
//! 0 (mod n)` the window spans whole periods of frequency `f` and `a_f` is
//! exactly `0` — a true zero, not the `≈ 1e-17` a summation leaves, so the
//! signature probe takes its row-independent branch for it and the polar
//! lowering scales by 0 at angle `atan2(0, 0) = 0`. A window of one is the
//! identity: every multiplier is exactly `1`, and the verifier runs its
//! multiply-free kernel. Weighted averages have no closed form; they keep
//! the rotation loop, reading their `ω_f` from the same roots.

use crate::error::SeriesError;
use crate::roots::UnitRoots;
use simq_dsp::complex::Complex;

/// Circular `m`-day moving average with equal weights (the paper's
/// `Tmavg`): output sample `i` averages `x_i, x_{i−1}, …, x_{i−m+1}` with
/// indices modulo `n`.
///
/// # Errors
/// [`SeriesError::InvalidWindow`] when `window` is zero or exceeds the
/// series length; [`SeriesError::EmptySeries`] for an empty series.
pub fn moving_average(s: &[f64], window: usize) -> Result<Vec<f64>, SeriesError> {
    if s.is_empty() {
        return Err(SeriesError::EmptySeries);
    }
    check_window(window, s.len())?;
    weighted_moving_average(s, &vec![1.0 / window as f64; window])
}

/// Circular weighted moving average: output sample `i` is
/// `Σ_{t=0}^{m-1} w_t · x_{i−t mod n}`.
///
/// "The weights w1, …, wm are not necessarily equal. For trend prediction
/// purposes, for example, the weights at the end are usually chosen to be
/// higher than those at the beginning."
///
/// # Errors
/// [`SeriesError::EmptyKernel`] for an empty weight vector;
/// [`SeriesError::InvalidWindow`] when the kernel is longer than the series;
/// [`SeriesError::EmptySeries`] for an empty series.
pub fn weighted_moving_average(s: &[f64], weights: &[f64]) -> Result<Vec<f64>, SeriesError> {
    if s.is_empty() {
        return Err(SeriesError::EmptySeries);
    }
    if weights.is_empty() {
        return Err(SeriesError::EmptyKernel);
    }
    let n = s.len();
    let m = weights.len();
    if m > n {
        return Err(SeriesError::InvalidWindow { window: m, len: n });
    }
    let mut out = vec![0.0; n];
    for (i, o) in out.iter_mut().enumerate() {
        let mut acc = 0.0;
        for (t, &w) in weights.iter().enumerate() {
            acc += w * s[(i + n - t) % n];
        }
        *o = acc;
    }
    Ok(out)
}

/// The ordinary (non-circular) `l`-day moving average of length `n − l + 1`,
/// as used in stock chart analysis; provided for comparison with the
/// circular version (Example 1.1 computes distances on these).
///
/// # Errors
/// [`SeriesError::InvalidWindow`] when `window` is zero or exceeds the
/// series length.
pub fn plain_moving_average(s: &[f64], window: usize) -> Result<Vec<f64>, SeriesError> {
    check_window(window, s.len())?;
    let inv = 1.0 / window as f64;
    Ok(s.windows(window)
        .map(|w| w.iter().sum::<f64>() * inv)
        .collect())
}

/// Refuses a window of zero or one longer than the series, before any
/// `window`-long kernel is allocated: the window comes from query text.
fn check_window(window: usize, len: usize) -> Result<(), SeriesError> {
    if window == 0 || window > len {
        return Err(SeriesError::InvalidWindow { window, len });
    }
    Ok(())
}

/// Frequency-domain coefficients of the circular weighted moving average
/// for a series of length `n`: `a_f = Σ_{t=0}^{m-1} w_t · e^{-j2πtf/n}`,
/// for `f = 0, …, count-1` ([`weighted_mavg_coefficients_over`] with the
/// roots computed on demand).
///
/// # Errors
/// [`SeriesError::EmptyKernel`] for an empty weight vector;
/// [`SeriesError::InvalidWindow`] when the kernel is longer than the series.
pub fn weighted_mavg_coefficients(
    n: usize,
    weights: &[f64],
    count: usize,
) -> Result<Vec<Complex>, SeriesError> {
    weighted_mavg_coefficients_over(&UnitRoots::on_demand(n), weights, count)
}

/// [`weighted_mavg_coefficients`] for the series length of `roots`,
/// reading each `ω_f = e^{-j2πf/n}` from them.
///
/// Multiplying a (normalized) spectrum elementwise by these coefficients
/// yields the (normalized) spectrum of the moving-averaged series exactly.
///
/// Each frequency accumulates `w_t · ω_f^t` by incremental rotation. The
/// loops run weights outer and frequencies inner, over arrays of `ω_f` and
/// of the running rotations `rot_f`: the frequencies' rotation chains are
/// independent, so one weight's step over every frequency is throughput-
/// rather than latency-bound. Each frequency still performs the same
/// operations in the same order as a per-frequency loop (`acc += rot · w`,
/// then `rot *= ω`, weight after weight), so the result is bit for bit
/// that loop's (pinned by this module's tests).
///
/// # Errors
/// As [`weighted_mavg_coefficients`].
pub fn weighted_mavg_coefficients_over(
    roots: &UnitRoots,
    weights: &[f64],
    count: usize,
) -> Result<Vec<Complex>, SeriesError> {
    let n = roots.series_len();
    if weights.is_empty() {
        return Err(SeriesError::EmptyKernel);
    }
    if weights.len() > n {
        return Err(SeriesError::InvalidWindow {
            window: weights.len(),
            len: n,
        });
    }
    let omega: Vec<Complex> = (0..count).map(|f| roots.omega(f)).collect();
    let mut rot = vec![Complex::ONE; count];
    let mut out = vec![Complex::ZERO; count];
    for &w in weights {
        for ((acc, rot), omega) in out.iter_mut().zip(&mut rot).zip(&omega) {
            *acc += *rot * w;
            *rot *= *omega;
        }
    }
    Ok(out)
}

/// Equal-weight moving-average coefficients (paper Equation 11's kernel)
/// for a series of length `n`, `f = 0, …, count-1`:
/// [`mavg_coefficients_over`] with the roots computed on demand.
///
/// # Errors
/// [`SeriesError::InvalidWindow`] when `window` is zero or exceeds `n`.
pub fn mavg_coefficients(
    n: usize,
    window: usize,
    count: usize,
) -> Result<Vec<Complex>, SeriesError> {
    mavg_coefficients_over(&UnitRoots::on_demand(n), window, count)
}

/// [`mavg_coefficients`] for the series length of `roots`, in the closed
/// form `a_f = (1/m)·(1 − ω[f·m mod n]) / (1 − ω[f mod n])` (module docs):
/// exactly `1` where `f ≡ 0 (mod n)` and for a window of one, exactly `0`
/// where `f·m ≡ 0 (mod n)`. Two roots and one complex division per
/// frequency, whatever the window.
///
/// # Errors
/// As [`mavg_coefficients`].
pub fn mavg_coefficients_over(
    roots: &UnitRoots,
    window: usize,
    count: usize,
) -> Result<Vec<Complex>, SeriesError> {
    let n = roots.series_len();
    check_window(window, n)?;
    let m = window as f64;
    let mut out = Vec::with_capacity(count);
    // `f mod n` and `f·m mod n`, stepped: `m ≤ n` keeps both below `2n`.
    let (mut f, mut fm) = (0, 0);
    for _ in 0..count {
        out.push(if window == 1 || f == 0 {
            Complex::ONE
        } else if fm == 0 {
            Complex::ZERO
        } else {
            (Complex::ONE - roots.omega(fm)) / (Complex::ONE - roots.omega(f)) / m
        });
        f += 1;
        if f == n {
            f = 0;
        }
        fm += window;
        if fm >= n {
            fm -= n;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simq_dsp::fft;
    use std::f64::consts::PI;

    #[test]
    fn circular_average_wraps() {
        // 3-day window at position 0 averages x0, x_{n-1}, x_{n-2}.
        let s = [3.0, 6.0, 9.0, 12.0];
        let ma = moving_average(&s, 3).unwrap();
        assert_eq!(ma[0], (3.0 + 12.0 + 9.0) / 3.0);
        assert_eq!(ma[2], (9.0 + 6.0 + 3.0) / 3.0);
        assert_eq!(ma.len(), s.len());
    }

    #[test]
    fn window_one_is_identity() {
        let s = [1.0, 2.0, 3.0];
        assert_eq!(moving_average(&s, 1).unwrap(), s.to_vec());
    }

    #[test]
    fn plain_average_shrinks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        let ma = plain_moving_average(&s, 2).unwrap();
        assert_eq!(ma, vec![1.5, 2.5, 3.5]);
    }

    #[test]
    fn invalid_windows_rejected() {
        assert!(moving_average(&[1.0], 2).is_err());
        assert!(plain_moving_average(&[1.0, 2.0], 0).is_err());
        assert!(weighted_moving_average(&[1.0], &[]).is_err());
        assert!(moving_average(&[], 1).is_err());
    }

    #[test]
    fn huge_windows_are_refused_before_allocating_a_kernel() {
        let huge = 1usize << 50;
        let s = [1.0, 2.0, 3.0];
        let refused = SeriesError::InvalidWindow {
            window: huge,
            len: 3,
        };
        assert_eq!(moving_average(&s, huge), Err(refused.clone()));
        let refused = SeriesError::InvalidWindow {
            window: huge,
            len: 128,
        };
        assert_eq!(mavg_coefficients(128, huge, 8), Err(refused));
        let zero = SeriesError::InvalidWindow { window: 0, len: 3 };
        assert_eq!(moving_average(&s, 0), Err(zero));
        assert_eq!(moving_average(&[], huge), Err(SeriesError::EmptySeries));
    }

    #[test]
    fn smoothing_reduces_variance() {
        let s: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 10.0 } else { -10.0 })
            .collect();
        let ma = moving_average(&s, 4).unwrap();
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - m) * (x - m)).sum::<f64>()
        };
        assert!(var(&ma) < var(&s) / 100.0);
    }

    #[test]
    fn frequency_coefficients_match_time_domain() {
        // a ∗ X == DFT(mavg(x)) — the identity the whole indexing scheme
        // rests on.
        let s = [36.0, 38.0, 40.0, 38.0, 42.0, 38.0, 36.0, 36.0, 37.0, 38.0];
        let n = s.len();
        let window = 3;
        let spec = fft::forward_real(&s);
        let coef = mavg_coefficients(n, window, n).unwrap();
        let transformed: Vec<_> = spec.iter().zip(&coef).map(|(x, a)| *x * *a).collect();
        let expected = fft::forward_real(&moving_average(&s, window).unwrap());
        for (t, e) in transformed.iter().zip(&expected) {
            assert!(t.approx_eq(*e, 1e-9), "{t} vs {e}");
        }
    }

    fn bits(c: &Complex) -> (u64, u64) {
        (c.re.to_bits(), c.im.to_bits())
    }

    #[test]
    fn a_window_of_one_is_exactly_one_everywhere() {
        for n in [1, 2, 8, 127, 128, 1000] {
            for count in [0, 1, n / 2, n, 2 * n + 1] {
                let coef = mavg_coefficients(n, 1, count).unwrap();
                assert_eq!(coef.len(), count);
                assert!(coef.iter().all(|a| bits(a) == bits(&Complex::ONE)), "n={n}");
            }
        }
    }

    #[test]
    fn the_closed_form_agrees_with_the_time_domain_average_at_every_window() {
        for n in [8, 64, 127, 128, 1000] {
            let s: Vec<f64> = (0..n)
                .map(|i| ((i * 37 + 11) % 101) as f64 * 0.317 - (i as f64 * 0.05).sin() * 9.0)
                .collect();
            let roots = UnitRoots::new(n);
            let spec = fft::forward_real(&s);
            for window in 1..=n {
                let coef = mavg_coefficients_over(&roots, window, n).unwrap();
                let expected = fft::forward_real(&moving_average(&s, window).unwrap());
                for (f, ((x, a), e)) in spec.iter().zip(&coef).zip(&expected).enumerate() {
                    let t = *x * *a;
                    assert!(t.approx_eq(*e, 1e-9), "n={n} m={window} f={f}: {t} vs {e}");
                }
            }
        }
    }

    #[test]
    fn windows_spanning_whole_periods_give_exact_zeros() {
        let n = 128;
        let roots = UnitRoots::new(n);
        for window in [2, 3, 20, 32, 48, 64, 100, 127, 128] {
            let coef = mavg_coefficients_over(&roots, window, 2 * n).unwrap();
            assert_eq!(coef, mavg_coefficients(n, window, 2 * n).unwrap());
            for (f, a) in coef.iter().enumerate() {
                if f % n == 0 {
                    assert_eq!(bits(a), bits(&Complex::ONE), "m={window} f={f}");
                } else if f * window % n == 0 {
                    assert_eq!(bits(a), bits(&Complex::ZERO), "m={window} f={f}");
                } else {
                    assert!(a.norm_sqr() > 0.0, "m={window} f={f}");
                }
            }
        }
        // mavg(n) keeps the mean alone.
        let all = mavg_coefficients_over(&roots, n, n).unwrap();
        assert_eq!(all.iter().filter(|a| a.norm_sqr() == 0.0).count(), n - 1);
    }

    #[test]
    fn weighted_frequency_coefficients_match_time_domain() {
        let s = [5.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let weights = [0.5, 0.3, 0.2]; // trend-prediction style weights
        let spec = fft::forward_real(&s);
        let coef = weighted_mavg_coefficients(s.len(), &weights, s.len()).unwrap();
        let transformed: Vec<_> = spec.iter().zip(&coef).map(|(x, a)| *x * *a).collect();
        let expected = fft::forward_real(&weighted_moving_average(&s, &weights).unwrap());
        for (t, e) in transformed.iter().zip(&expected) {
            assert!(t.approx_eq(*e, 1e-9));
        }
    }

    /// The per-frequency rotation loop the frequency-parallel
    /// [`weighted_mavg_coefficients`] reorders: the reference it must
    /// equal bit for bit.
    fn rotation_loop(n: usize, weights: &[f64], count: usize) -> Vec<Complex> {
        (0..count)
            .map(|f| {
                let omega = Complex::cis(-2.0 * PI * (f as f64) / n as f64);
                let (mut rot, mut acc) = (Complex::ONE, Complex::ZERO);
                for &w in weights {
                    acc += rot * w;
                    rot *= omega;
                }
                acc
            })
            .collect()
    }

    fn assert_bitwise(n: usize, weights: &[f64], count: usize) {
        let got = weighted_mavg_coefficients(n, weights, count).unwrap();
        let want = rotation_loop(n, weights, count);
        assert_eq!(got.len(), want.len());
        for (f, (g, w)) in got.iter().zip(&want).enumerate() {
            let bits = |c: &Complex| (c.re.to_bits(), c.im.to_bits());
            assert_eq!(bits(g), bits(w), "n={n} m={} f={f}", weights.len());
        }
    }

    #[test]
    fn frequency_parallel_coefficients_equal_the_rotation_loop_bitwise() {
        for n in [8, 64, 128, 1000] {
            for window in 1..=64.min(n) {
                let equal = vec![1.0 / window as f64; window];
                let ramp: Vec<f64> = (1..=window).map(|t| t as f64 / 7.0 - 0.3).collect();
                for count in [0, 1, 3, n / 2, n] {
                    assert_bitwise(n, &equal, count);
                    assert_bitwise(n, &ramp, count);
                }
            }
        }
    }

    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn frequency_parallel_coefficients_equal_the_rotation_loop_bitwise_long() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        for _ in 0..20_000 {
            let n = 1 + next(2048) as usize;
            let m = 1 + next(n.min(96) as u64) as usize;
            let weights: Vec<f64> = (0..m)
                .map(|_| (next(1 << 20) as f64 - 524_288.0) / 65_536.0)
                .collect();
            let count = next(n as u64 + 1) as usize;
            assert_bitwise(n, &weights, count);
        }
    }

    #[test]
    fn dc_coefficient_is_weight_sum() {
        let coef = weighted_mavg_coefficients(16, &[0.5, 0.25, 0.25], 1).unwrap();
        assert!(coef[0].approx_eq(Complex::real(1.0), 1e-12));
    }

    #[test]
    fn coefficients_have_magnitude_at_most_one_for_convex_weights() {
        // Convex (probability) weights form a low-pass filter: |a_f| ≤ 1.
        let coef = mavg_coefficients(128, 20, 64).unwrap();
        for c in &coef {
            assert!(c.abs() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn repeated_averaging_flattens_paper_remark() {
        // "if we keep taking the moving average, two series eventually will
        // be the same, i.e., two flat straight lines."
        let mut s: Vec<f64> = (0..32).map(|i| ((i * 13) % 7) as f64).collect();
        for _ in 0..600 {
            s = moving_average(&s, 5).unwrap();
        }
        let first = s[0];
        assert!(s.iter().all(|v| (v - first).abs() < 1e-6));
    }

    #[test]
    fn example_1_1_three_day_moving_average_distance() {
        // Example 1.1: the 3-day moving averages of s1 and s2 are close
        // (paper reports D = 0.47 on the plain moving averages).
        let s1 = [
            36.0, 38.0, 40.0, 38.0, 42.0, 38.0, 36.0, 36.0, 37.0, 38.0, 39.0, 38.0, 40.0, 38.0,
            37.0,
        ];
        let s2 = [
            40.0, 37.0, 37.0, 42.0, 41.0, 35.0, 40.0, 35.0, 34.0, 42.0, 38.0, 35.0, 45.0, 36.0,
            34.0,
        ];
        // The circular moving average reproduces the paper's 0.47 exactly
        // (the difference s1−s2 is built so all but two circular windows
        // cancel: D = √(2·(1/3)²) = √2/3 ≈ 0.4714).
        let c1 = moving_average(&s1, 3).unwrap();
        let c2 = moving_average(&s2, 3).unwrap();
        let dc = simq_dsp::euclidean(&c1, &c2);
        assert!((dc - 0.47).abs() < 0.005, "got {dc}");
        // The plain (non-circular) version leaves a single non-cancelling
        // window: D = 1/3. This pins down that the paper's reported value
        // uses the circular convention.
        let m1 = plain_moving_average(&s1, 3).unwrap();
        let m2 = plain_moving_average(&s2, 3).unwrap();
        let d = simq_dsp::euclidean(&m1, &m2);
        assert!((d - 1.0 / 3.0).abs() < 1e-9, "got {d}");
    }
}
