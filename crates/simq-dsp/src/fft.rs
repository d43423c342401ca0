//! Fast Fourier Transform: radix-2 Cooley–Tukey with a Bluestein fallback
//! for arbitrary lengths.
//!
//! All public entry points apply the same symmetric `1/√n` normalization as
//! [`crate::dft`](mod@crate::dft), so [`forward`]/[`inverse`] are drop-in fast replacements
//! for [`crate::dft::dft_complex`]/[`crate::dft::idft`]. Sequence lengths in
//! the paper's experiments range from 64 to 1024 and are powers of two, but
//! real stock series (e.g. 1,067 trading days) are not, so the arbitrary-`n`
//! path is exercised in production, not just in tests.

use crate::complex::Complex;
use std::f64::consts::PI;

/// Returns true when `n` is a power of two (and nonzero).
#[inline]
pub fn is_power_of_two(n: usize) -> bool {
    n != 0 && n & (n - 1) == 0
}

/// In-place unnormalized radix-2 FFT.
///
/// `inverse` selects the conjugate transform (positive exponent sign).
/// The caller is responsible for normalization.
///
/// # Panics
/// Panics if `buf.len()` is not a power of two.
fn fft_pow2(buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    assert!(
        is_power_of_two(n),
        "fft_pow2 requires a power-of-two length"
    );
    if n <= 1 {
        return;
    }
    bit_reverse(buf);
    // Iterative butterflies, one stage per block length `len`. The
    // butterfly of frequency `k` in every block multiplies by the twiddle
    // `wlen^k`, which the recurrence `w *= wlen` reaches in `k` steps from
    // `Complex::ONE`. The stage advances `w` once per frequency and applies
    // it to that frequency's butterfly in every block: `len / 2` products
    // per stage (127 in all at n = 128) rather than one per butterfly
    // (448), and no block's butterflies wait on a serial twiddle chain of
    // their own. The output is bitwise that of restarting the recurrence
    // in every block: each butterfly multiplies by the same `w` bits, and
    // a stage's butterflies touch disjoint pairs, so their order is free.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let ang = sign * 2.0 * PI / len as f64;
        let wlen = Complex::cis(ang);
        let half = len / 2;
        let mut w = Complex::ONE;
        for k in 0..half {
            for block in buf.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half);
                let u = lo[k];
                let v = hi[k] * w;
                lo[k] = u + v;
                hi[k] = u - v;
            }
            w *= wlen;
        }
        len <<= 1;
    }
}

/// The bit-reversal permutation that puts a radix-2 FFT's input in
/// butterfly order.
fn bit_reverse(buf: &mut [Complex]) {
    let n = buf.len();
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
}

/// Unnormalized DFT of arbitrary length via Bluestein's chirp-z algorithm.
///
/// Expresses an `n`-point DFT as a circular convolution of length `m ≥ 2n-1`
/// (rounded up to a power of two) which is evaluated with the radix-2
/// kernel `pow2`.
fn bluestein(x: &[Complex], inverse: bool, pow2: Radix2) -> Vec<Complex> {
    let n = x.len();
    debug_assert!(n > 0);
    let sign = if inverse { 1.0 } else { -1.0 };
    // Chirp: w_k = e^{sign·jπk²/n}. Compute k² mod 2n to avoid the loss of
    // precision of large k² in floating point.
    let chirp: Vec<Complex> = (0..n)
        .map(|k| {
            let kk = (k as u64 * k as u64) % (2 * n as u64);
            Complex::cis(sign * PI * kk as f64 / n as f64)
        })
        .collect();

    let m = (2 * n - 1).next_power_of_two();
    let mut a = vec![Complex::ZERO; m];
    let mut b = vec![Complex::ZERO; m];
    for k in 0..n {
        a[k] = x[k] * chirp[k];
        b[k] = chirp[k].conj();
    }
    // b must be symmetric: b[m - k] = b[k] for k = 1..n.
    for k in 1..n {
        b[m - k] = chirp[k].conj();
    }
    pow2(&mut a, false);
    pow2(&mut b, false);
    for (ai, bi) in a.iter_mut().zip(&b) {
        *ai *= *bi;
    }
    pow2(&mut a, true);
    let scale = 1.0 / m as f64;
    (0..n).map(|k| a[k] * chirp[k] * scale).collect()
}

/// An in-place unnormalized radix-2 kernel: [`fft_pow2`] (the tests pass
/// a reference kernel in its place).
type Radix2 = fn(&mut [Complex], bool);

/// The `1/√n`-normalized forward or inverse DFT, dispatching between the
/// radix-2 kernel `pow2` and Bluestein.
fn transform(x: &[Complex], inverse: bool, pow2: Radix2) -> Vec<Complex> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let scale = 1.0 / (n as f64).sqrt();
    let mut out = if is_power_of_two(n) {
        let mut buf = x.to_vec();
        pow2(&mut buf, inverse);
        buf
    } else {
        bluestein(x, inverse, pow2)
    };
    for z in &mut out {
        *z = *z * scale;
    }
    out
}

/// Normalized forward FFT of a complex sequence: identical to
/// [`crate::dft::dft_complex`] (Equation 1) but `O(n log n)`.
pub fn forward(x: &[Complex]) -> Vec<Complex> {
    transform(x, false, fft_pow2)
}

/// Normalized forward FFT of a real sequence.
pub fn forward_real(x: &[f64]) -> Vec<Complex> {
    let xc: Vec<Complex> = x.iter().map(|&v| Complex::real(v)).collect();
    forward(&xc)
}

/// Normalized inverse FFT: identical to [`crate::dft::idft`] (Equation 2)
/// but `O(n log n)`.
pub fn inverse(x: &[Complex]) -> Vec<Complex> {
    transform(x, true, fft_pow2)
}

/// Normalized inverse FFT projected onto the reals (for spectra of real
/// series).
pub fn inverse_real(x: &[Complex]) -> Vec<f64> {
    inverse(x).into_iter().map(|z| z.re).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft;

    fn assert_spectra_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (p, q) in a.iter().zip(b) {
            assert!(p.approx_eq(*q, tol), "{p} vs {q}");
        }
    }

    #[test]
    fn fft_matches_dft_on_powers_of_two() {
        for n in [1usize, 2, 4, 8, 64, 128] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.7).sin() + i as f64).collect();
            assert_spectra_close(&forward_real(&x), &dft::dft(&x), 1e-8);
        }
    }

    #[test]
    fn fft_matches_dft_on_arbitrary_lengths() {
        for n in [3usize, 5, 6, 7, 12, 15, 100, 127, 1067 / 7] {
            let x: Vec<f64> = (0..n).map(|i| ((i * i) % 17) as f64 - 8.0).collect();
            assert_spectra_close(&forward_real(&x), &dft::dft(&x), 1e-7);
        }
    }

    #[test]
    fn inverse_roundtrips() {
        for n in [8usize, 10, 33, 128] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64).cos() * 3.0).collect();
            let back = inverse_real(&forward_real(&x));
            for (a, b) in x.iter().zip(&back) {
                assert!((a - b).abs() < 1e-8, "{a} vs {b} at n={n}");
            }
        }
    }

    #[test]
    fn parseval_through_fft() {
        let x: Vec<f64> = (0..1024).map(|i| ((i % 91) as f64) / 7.0 - 6.0).collect();
        let e_time = dft::energy(&x);
        let e_freq = dft::energy_complex(&forward_real(&x));
        assert!((e_time - e_freq).abs() / e_time < 1e-10);
    }

    #[test]
    fn length_1067_stock_sized_series() {
        // The real stock corpus in the paper has 1,067 series; a non-power-of-
        // two length exercises Bluestein end to end.
        let x: Vec<f64> = (0..1067).map(|i| 20.0 + ((i * 37) % 80) as f64).collect();
        let spec = forward_real(&x);
        let back = inverse_real(&spec);
        for (a, b) in x.iter().zip(&back) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_is_empty() {
        assert!(forward(&[]).is_empty());
        assert!(inverse(&[]).is_empty());
    }

    #[test]
    fn single_element_is_identity() {
        let spec = forward_real(&[42.0]);
        assert!(spec[0].approx_eq(Complex::real(42.0), 1e-12));
    }

    /// The radix-2 kernel as it was before each stage advanced its twiddle
    /// once per frequency: every block restarts the recurrence `w *= wlen`
    /// from `Complex::ONE`. The stage loop is kept verbatim as the bitwise
    /// reference.
    fn fft_pow2_blockwise(buf: &mut [Complex], inverse: bool) {
        let n = buf.len();
        assert!(is_power_of_two(n));
        if n <= 1 {
            return;
        }
        bit_reverse(buf);
        let sign = if inverse { 1.0 } else { -1.0 };
        let mut len = 2;
        while len <= n {
            let ang = sign * 2.0 * PI / len as f64;
            let wlen = Complex::cis(ang);
            let half = len / 2;
            let mut start = 0;
            while start < n {
                let mut w = Complex::ONE;
                for k in 0..half {
                    let u = buf[start + k];
                    let v = buf[start + k + half] * w;
                    buf[start + k] = u + v;
                    buf[start + k + half] = u - v;
                    w *= wlen;
                }
                start += len;
            }
            len <<= 1;
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

    /// Inputs of length `n`: random complex and real ones at several
    /// magnitudes, and the edges — signed zeros, subnormals, ±1e300 and a
    /// constant.
    fn inputs(n: usize, trials: usize, seed: u64) -> Vec<Vec<Complex>> {
        let mut state = seed ^ n as u64;
        let mut out = Vec::new();
        for t in 0..trials {
            let magnitude = [1.0, 1e-3, 1e3, 1e150][t % 4];
            let complex = (0..n)
                .map(|_| Complex::new(uniform(&mut state), uniform(&mut state)) * magnitude)
                .collect();
            let real = (0..n)
                .map(|_| Complex::real(uniform(&mut state) * magnitude))
                .collect();
            out.extend([complex, real]);
        }
        const TINY: f64 = f64::MIN_POSITIVE / 4.0;
        let edges: [fn(usize) -> Complex; 5] = [
            |i: usize| Complex::new(if i.is_multiple_of(2) { 0.0 } else { -0.0 }, -0.0),
            |i: usize| Complex::new(TINY * i as f64, -TINY),
            |i: usize| Complex::real(if i.is_multiple_of(3) { 1e300 } else { -1e300 }),
            |i: usize| Complex::new(1e300, -1e300 * (i % 2) as f64),
            |_: usize| Complex::real(7.25),
        ];
        out.extend(edges.iter().map(|f| (0..n).map(f).collect()));
        out
    }

    fn assert_same_bits(got: &[Complex], want: &[Complex], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                "{what}, coefficient {i}: {g} vs {w}"
            );
        }
    }

    /// Forward and inverse transforms, through the radix-2 path or
    /// Bluestein's, agree to the bit with the blockwise reference kernel.
    fn check_against_the_blockwise_kernel(lengths: &[usize], trials: usize) {
        for &n in lengths {
            for (i, x) in inputs(n, trials, 0x5EED).iter().enumerate() {
                let want = |inverse| transform(x, inverse, fft_pow2_blockwise);
                assert_same_bits(
                    &forward(x),
                    &want(false),
                    &format!("n={n} input {i} forward"),
                );
                assert_same_bits(
                    &inverse(x),
                    &want(true),
                    &format!("n={n} input {i} inverse"),
                );
            }
        }
    }

    #[test]
    fn transforms_match_the_blockwise_kernel_bitwise() {
        let mut lengths: Vec<usize> = (0..=10).map(|e| 1 << e).collect();
        lengths.extend([3, 5, 100, 127, 152]);
        check_against_the_blockwise_kernel(&lengths, 8);
    }

    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn transforms_match_the_blockwise_kernel_bitwise_long() {
        let mut lengths: Vec<usize> = (0..=14).map(|e| 1 << e).collect();
        lengths.extend([3, 5, 6, 7, 12, 15, 100, 127, 152, 1000, 1067, 3000]);
        check_against_the_blockwise_kernel(&lengths, 24);
    }
}
