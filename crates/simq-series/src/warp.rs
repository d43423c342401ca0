//! Time warping — stretching the time dimension by an integer factor
//! (paper Example 1.2 and Appendix A).
//!
//! Warping replaces every sample `v_i` by `m` consecutive copies, so a
//! series sampled every other day becomes comparable with one sampled
//! daily. Appendix A derives the frequency-domain form: given the first
//! `k ≤ n` Fourier coefficients of a series `s` of length `n`, the first
//! `k` coefficients of the warped series `s'` of length `m·n` are obtained
//! by the transformation `T = (a, 0)` with
//!
//! ```text
//! a_f = Σ_{t=0}^{m-1} e^{-j2πtf/(mn)}        (Equation 19)
//! ```
//!
//! **Normalization caveat.** The appendix normalizes the warped spectrum by
//! `1/√n` (the *original* length), not `1/√(mn)`. Under this library's
//! uniform `1/√len` convention the warped spectrum carries an extra
//! `1/√m`, so the coefficient vector satisfying
//! `DFT_norm(warp(s, m))_f = a_f · DFT_norm(s)_f` is Equation 19 divided by
//! `√m` — provided by [`warp_coefficients`]. The paper-exact vector is
//! [`warp_coefficients_eq19`]. Both identities are verified by tests.

use crate::error::SeriesError;
use simq_dsp::complex::Complex;
use std::f64::consts::PI;

/// Stretches the time dimension by `m`: every value `v_i` becomes `m`
/// consecutive copies (paper Equation 16).
///
/// # Errors
/// [`SeriesError::InvalidWarpFactor`] when `m == 0`.
pub fn warp(s: &[f64], m: usize) -> Result<Vec<f64>, SeriesError> {
    if m == 0 {
        return Err(SeriesError::InvalidWarpFactor(m));
    }
    let mut out = Vec::with_capacity(s.len() * m);
    for &v in s {
        for _ in 0..m {
            out.push(v);
        }
    }
    Ok(out)
}

/// The inverse of [`warp`] when the series is exactly `m`-warped: keeps
/// every `m`-th sample. Returns `None` when the length is not a multiple of
/// `m` or consecutive runs disagree (the series is not an exact warp).
pub fn unwarp(s: &[f64], m: usize) -> Option<Vec<f64>> {
    if m == 0 || !s.len().is_multiple_of(m) {
        return None;
    }
    let mut out = Vec::with_capacity(s.len() / m);
    for chunk in s.chunks(m) {
        if chunk.iter().any(|&v| v != chunk[0]) {
            return None;
        }
        out.push(chunk[0]);
    }
    Some(out)
}

/// Equation 19 exactly: `a_f = Σ_{t=0}^{m-1} e^{-j2πtf/(mn)}` for
/// `f = 0, …, count−1`, where `n` is the *original* series length.
///
/// Satisfies `S'_f = a_f · S_f` when `S'` is computed with the appendix's
/// `1/√n` normalization over the warped (length `m·n`) series.
///
/// Building the vector costs `O(m · count)`, so `m` is bounded by the
/// series length as a moving average's window is: `1 ≤ m ≤ n`.
///
/// # Errors
/// [`SeriesError::InvalidWarpFactor`] when `m == 0`;
/// [`SeriesError::EmptySeries`] when `n == 0`;
/// [`SeriesError::WarpFactorTooLarge`] when `m > n`.
pub fn warp_coefficients_eq19(
    n: usize,
    m: usize,
    count: usize,
) -> Result<Vec<Complex>, SeriesError> {
    if m == 0 {
        return Err(SeriesError::InvalidWarpFactor(m));
    }
    if n == 0 {
        return Err(SeriesError::EmptySeries);
    }
    if m > n {
        return Err(SeriesError::WarpFactorTooLarge { m, len: n });
    }
    let mn = (m * n) as f64;
    let mut out = Vec::with_capacity(count);
    for f in 0..count {
        let omega = Complex::cis(-2.0 * PI * (f as f64) / mn);
        let mut rot = Complex::ONE;
        let mut acc = Complex::ZERO;
        for _ in 0..m {
            acc += rot;
            rot *= omega;
        }
        out.push(acc);
    }
    Ok(out)
}

/// Warp coefficients under this library's uniform `1/√len` DFT convention:
/// `DFT_norm(warp(s, m))_f = a_f · DFT_norm(s)_f` for `f < count`.
///
/// Equal to [`warp_coefficients_eq19`] divided by `√m` (see the module
/// docs for the normalization bookkeeping).
///
/// # Errors
/// Same conditions as [`warp_coefficients_eq19`].
pub fn warp_coefficients(n: usize, m: usize, count: usize) -> Result<Vec<Complex>, SeriesError> {
    let scale = 1.0 / (m as f64).sqrt();
    Ok(warp_coefficients_eq19(n, m, count)?
        .into_iter()
        .map(|c| c * scale)
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simq_dsp::{dft, fft};

    #[test]
    fn example_1_2_warp() {
        // p warped by 2 equals the 8-point series of Figure 2.
        let p = [20.0, 21.0, 20.0, 23.0];
        let s = warp(&p, 2).unwrap();
        assert_eq!(s, vec![20.0, 20.0, 21.0, 21.0, 20.0, 20.0, 23.0, 23.0]);
    }

    #[test]
    fn warp_by_one_is_identity() {
        let p = [1.0, 2.0, 3.0];
        assert_eq!(warp(&p, 1).unwrap(), p.to_vec());
    }

    #[test]
    fn warp_factor_zero_rejected() {
        assert_eq!(warp(&[1.0], 0), Err(SeriesError::InvalidWarpFactor(0)));
    }

    #[test]
    fn warp_factor_above_the_series_length_rejected() {
        let too_large = Err(SeriesError::WarpFactorTooLarge { m: 9, len: 8 });
        assert_eq!(warp_coefficients_eq19(8, 9, 4), too_large);
        assert_eq!(warp_coefficients(8, 9, 4), too_large);
        assert_eq!(
            warp_coefficients(128, usize::MAX, 3),
            Err(SeriesError::WarpFactorTooLarge {
                m: usize::MAX,
                len: 128
            })
        );
        assert_eq!(warp_coefficients(8, 8, 4).map(|a| a.len()), Ok(4));
    }

    #[test]
    fn unwarp_inverts_warp() {
        let p = [5.0, 7.0, 7.0, 2.0];
        for m in 1..=4 {
            assert_eq!(unwarp(&warp(&p, m).unwrap(), m), Some(p.to_vec()));
        }
    }

    #[test]
    fn unwarp_rejects_non_warped() {
        assert_eq!(unwarp(&[1.0, 2.0], 2), None);
        assert_eq!(unwarp(&[1.0, 1.0, 2.0], 2), None);
    }

    #[test]
    fn equation_19_identity_with_paper_normalization() {
        // S'_f (1/√n normalization over length m·n) == a_f · S_f.
        let s = [20.0, 21.0, 20.0, 23.0, 25.0, 19.0];
        let n = s.len();
        let m = 3;
        let k = n; // all original coefficients
        let spec = dft::dft(&s); // 1/√n
        let warped = warp(&s, m).unwrap();
        // Paper-normalized spectrum of the warped series: 1/√n · Σ …
        let mn = warped.len();
        let mut paper_spec = Vec::with_capacity(k);
        for f in 0..k {
            let mut acc = Complex::ZERO;
            for (t, &v) in warped.iter().enumerate() {
                acc += Complex::cis(-2.0 * PI * (t as f64) * (f as f64) / mn as f64) * v;
            }
            paper_spec.push(acc * (1.0 / (n as f64).sqrt()));
        }
        let a = warp_coefficients_eq19(n, m, k).unwrap();
        for f in 0..k {
            let rhs = a[f] * spec[f];
            assert!(paper_spec[f].approx_eq(rhs, 1e-8), "f={f}");
        }
    }

    #[test]
    fn normalized_identity_with_library_convention() {
        // DFT_norm(warp(s,m))_f == warp_coefficients(n,m)_f · DFT_norm(s)_f.
        let s = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let n = s.len();
        for m in [2usize, 3, 4] {
            let spec = fft::forward_real(&s);
            let warped_spec = fft::forward_real(&warp(&s, m).unwrap());
            let a = warp_coefficients(n, m, n).unwrap();
            for f in 0..n {
                let rhs = a[f] * spec[f];
                assert!(
                    warped_spec[f].approx_eq(rhs, 1e-8),
                    "m={m} f={f}: {} vs {rhs}",
                    warped_spec[f]
                );
            }
        }
    }

    #[test]
    fn dc_coefficient_is_sqrt_m() {
        // At f=0 Equation 19 gives m; normalized version gives √m, matching
        // the energy increase of duplicating samples.
        let a19 = warp_coefficients_eq19(4, 4, 1).unwrap();
        assert!(a19[0].approx_eq(Complex::real(4.0), 1e-12));
        let a = warp_coefficients(4, 4, 1).unwrap();
        assert!(a[0].approx_eq(Complex::real(2.0), 1e-12));
    }

    #[test]
    fn warped_query_matches_dense_series_in_frequency_space() {
        // End-to-end Example 1.2: comparing warp(p, 2) to s in the frequency
        // domain using only the transformed coefficients of p.
        let p = [20.0, 21.0, 20.0, 23.0];
        let s = [20.0, 20.0, 21.0, 21.0, 20.0, 20.0, 23.0, 23.0];
        let k = 4;
        let a = warp_coefficients(p.len(), 2, k).unwrap();
        let p_spec = fft::forward_real(&p);
        let s_spec = fft::forward_real(&s);
        for f in 0..k {
            let warped = a[f] * p_spec[f];
            assert!(warped.approx_eq(s_spec[f], 1e-8), "f={f}");
        }
    }
}
