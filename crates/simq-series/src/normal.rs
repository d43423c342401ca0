//! Normal form, shifting and scaling (the GK95 operations the paper
//! generalizes).
//!
//! Given any sequence `s`, its normal form is
//! `s'_i = (s_i − mean(s)) / std(s)` (paper Equation 9). The paper stores
//! every series in normal form and keeps the mean and standard deviation as
//! two extra index dimensions, so simple shift/scale similarity (GK95) and
//! general transformations coexist on one index.
//!
//! Every stored row, insert, replayed log record and literal query is
//! normalized once, by [`normalize`]: three passes over the series (mean,
//! σ about that mean, the normalized samples) and one allocation, the
//! normal form itself. [`std_dev`] and [`normal_form`] share its arithmetic,
//! expression for expression, so all three report the same bits.

use crate::error::SeriesError;

/// Arithmetic mean. Returns 0 for an empty series (the convention keeps
/// downstream statistics total; callers that must reject empty input do so
/// at the API boundary).
pub fn mean(s: &[f64]) -> f64 {
    if s.is_empty() {
        return 0.0;
    }
    s.iter().sum::<f64>() / s.len() as f64
}

/// Population standard deviation (the `std` of Equation 9).
pub fn std_dev(s: &[f64]) -> f64 {
    moments(s).1
}

/// The mean and the population standard deviation about it, one pass
/// each: the one place σ is computed, so [`std_dev`] and [`normalize`]
/// agree to the bit. Both are 0 for an empty series.
fn moments(s: &[f64]) -> (f64, f64) {
    if s.is_empty() {
        return (0.0, 0.0);
    }
    let m = mean(s);
    let sd = (s.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / s.len() as f64).sqrt();
    (m, sd)
}

/// Shifts every sample by `c` (a translation transformation `(1, c)`).
pub fn shift(s: &[f64], c: f64) -> Vec<f64> {
    s.iter().map(|v| v + c).collect()
}

/// Scales every sample by `k` (a stretch transformation `(k, 0)`). Negative
/// `k` is allowed — the paper explicitly drops GK95's restriction to
/// positive scales so that reversal (`k = −1`) is expressible.
pub fn scale(s: &[f64], k: f64) -> Vec<f64> {
    s.iter().map(|v| v * k).collect()
}

/// The normal form of Equation 9: zero mean, unit standard deviation.
///
/// # Errors
/// [`SeriesError::EmptySeries`] for empty input;
/// [`SeriesError::ZeroVariance`] for constant series.
pub fn normal_form(s: &[f64]) -> Result<Vec<f64>, SeriesError> {
    normalize(s).map(|nf| nf.series)
}

/// Normal form plus the statistics that were divided out, which the paper
/// maps to the first two index dimensions.
#[derive(Debug, Clone, PartialEq)]
pub struct NormalForm {
    /// The normalized series (zero mean, unit standard deviation).
    pub series: Vec<f64>,
    /// Mean of the original series.
    pub mean: f64,
    /// Population standard deviation of the original series.
    pub std_dev: f64,
}

/// Computes the normal form together with the removed statistics, in
/// three passes over `s`: the mean, the deviations about it (σ), and the
/// normalized samples. This is the normalization every extraction runs.
///
/// # Errors
/// Same conditions as [`normal_form`].
pub fn normalize(s: &[f64]) -> Result<NormalForm, SeriesError> {
    if s.is_empty() {
        return Err(SeriesError::EmptySeries);
    }
    let (m, sd) = moments(s);
    if sd == 0.0 {
        return Err(SeriesError::ZeroVariance);
    }
    Ok(NormalForm {
        series: s.iter().map(|v| (v - m) / sd).collect(),
        mean: m,
        std_dev: sd,
    })
}

/// Reconstructs the original series from a [`NormalForm`].
pub fn denormalize(nf: &NormalForm) -> Vec<f64> {
    nf.series.iter().map(|v| v * nf.std_dev + nf.mean).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let s = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&s), 5.0);
        assert_eq!(std_dev(&s), 2.0); // classic population-σ example
    }

    #[test]
    fn normal_form_has_zero_mean_unit_std() {
        let s = [10.0, 12.0, 9.0, 14.0, 8.0, 12.5];
        let nf = normal_form(&s).unwrap();
        assert!(mean(&nf).abs() < 1e-12);
        assert!((std_dev(&nf) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn normalize_roundtrips() {
        let s = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let nf = normalize(&s).unwrap();
        let back = denormalize(&nf);
        for (a, b) in s.iter().zip(&back) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_series_rejected() {
        assert_eq!(normal_form(&[5.0; 4]), Err(SeriesError::ZeroVariance));
    }

    #[test]
    fn empty_series_rejected() {
        assert_eq!(normal_form(&[]), Err(SeriesError::EmptySeries));
    }

    #[test]
    fn shift_and_scale() {
        assert_eq!(shift(&[1.0, 2.0], 3.0), vec![4.0, 5.0]);
        assert_eq!(scale(&[1.0, 2.0], -1.0), vec![-1.0, -2.0]);
    }

    #[test]
    fn normalization_is_shift_scale_invariant() {
        // Normal forms of s and a·s + b coincide for a > 0 — the GK95
        // motivation for using normal forms at all.
        let s = [5.0, 8.0, 2.0, 9.0, 4.0];
        let t = scale(&shift(&s, 3.0), 2.0);
        let ns = normal_form(&s).unwrap();
        let nt = normal_form(&t).unwrap();
        for (a, b) in ns.iter().zip(&nt) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    /// The composition `normalize` ran before it computed the mean and σ
    /// once: `mean`, `std_dev`, then `normal_form`, which computed both
    /// again. Kept verbatim as the bitwise reference.
    mod seven_pass {
        use super::{mean, NormalForm, SeriesError};

        pub fn std_dev(s: &[f64]) -> f64 {
            if s.is_empty() {
                return 0.0;
            }
            let m = mean(s);
            (s.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / s.len() as f64).sqrt()
        }

        pub fn normal_form(s: &[f64]) -> Result<Vec<f64>, SeriesError> {
            if s.is_empty() {
                return Err(SeriesError::EmptySeries);
            }
            let m = mean(s);
            let sd = std_dev(s);
            if sd == 0.0 {
                return Err(SeriesError::ZeroVariance);
            }
            Ok(s.iter().map(|v| (v - m) / sd).collect())
        }

        pub fn normalize(s: &[f64]) -> Result<NormalForm, SeriesError> {
            let m = mean(s);
            let sd = std_dev(s);
            let series = normal_form(s)?;
            Ok(NormalForm {
                series,
                mean: m,
                std_dev: sd,
            })
        }
    }

    /// SplitMix64, uniform in `[-1, 1)`.
    fn uniform(state: &mut u64) -> f64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    }

    fn bits(s: &[f64]) -> Vec<u64> {
        s.iter().map(|v| v.to_bits()).collect()
    }

    /// Random walks and noise at several magnitudes, and the edges: signed
    /// zeros, subnormals, ±1e300 (whose σ overflows), a constant, a NaN
    /// and an infinity.
    #[test]
    fn statistics_match_the_seven_pass_composition_bitwise() {
        let mut state = 0x5EED;
        let mut lengths: Vec<usize> = (0..=10).map(|e| 1 << e).collect();
        lengths.extend([0, 3, 5, 100, 127, 152]);
        for n in lengths {
            let mut inputs: Vec<Vec<f64>> = Vec::new();
            for magnitude in [1.0, 1e-3, 1e3, 1e150] {
                let mut x = 0.0;
                inputs.push((0..n).map(|_| magnitude * uniform(&mut state)).collect());
                inputs.push(
                    (0..n)
                        .map(|_| {
                            x += magnitude * uniform(&mut state);
                            x
                        })
                        .collect(),
                );
            }
            let tiny = f64::MIN_POSITIVE / 4.0;
            let edges: [&dyn Fn(usize) -> f64; 6] = [
                &|i| if i.is_multiple_of(2) { 0.0 } else { -0.0 },
                &|i| tiny * i as f64,
                &|i| if i.is_multiple_of(3) { 1e300 } else { -1e300 },
                &|_| 7.25,
                &|i| if i == n / 2 { f64::NAN } else { i as f64 },
                &|i| if i == 0 { f64::INFINITY } else { i as f64 },
            ];
            inputs.extend(edges.iter().map(|f| (0..n).map(f).collect()));
            for (i, s) in inputs.iter().enumerate() {
                let what = format!("n={n} input {i}");
                assert_eq!(
                    std_dev(s).to_bits(),
                    seven_pass::std_dev(s).to_bits(),
                    "{what}"
                );
                let want = seven_pass::normal_form(s).map(|v| bits(&v));
                assert_eq!(normal_form(s).map(|v| bits(&v)), want, "{what}");
                let key = |r: Result<NormalForm, SeriesError>| {
                    r.map(|nf| (bits(&nf.series), nf.mean.to_bits(), nf.std_dev.to_bits()))
                };
                assert_eq!(key(normalize(s)), key(seven_pass::normalize(s)), "{what}");
            }
        }
    }

    #[test]
    fn negative_scale_flips_normal_form() {
        let s = [5.0, 8.0, 2.0, 9.0, 4.0];
        let t = scale(&s, -1.0);
        let ns = normal_form(&s).unwrap();
        let nt = normal_form(&t).unwrap();
        for (a, b) in ns.iter().zip(&nt) {
            assert!((a + b).abs() < 1e-12);
        }
    }
}
