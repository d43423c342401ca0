//! The hot distance kernel: chunked flat-slice accumulation of the
//! transformed spectral distance, shared by the query executors and the
//! sequential-scan baselines.
//!
//! The computation is the paper's verify step — for a stored normal-form
//! spectrum `X`, per-frequency multipliers `m` (the transformation's
//! diagonal action, frequencies `1..n`) and a query spectrum `q`:
//!
//! ```text
//! d²(X, q) = |X₀ − q₀|² + Σ_{f≥1} |X_f · m_{f−1} − q_f|²
//! ```
//!
//! Two structural choices make the loop autovectorizer-friendly without
//! changing a single result bit relative to the scalar reference:
//!
//! * **Flat-slice chunks** — the tail is walked through `chunks_exact`
//!   windows of [`CHUNK`] coefficients whose bodies are branch-free
//!   (no abandon test, no bounds checks), so the compiler sees a fixed
//!   trip-count inner loop over contiguous memory.
//! * **Chunk-granular early abandoning** — the `acc > limit` test runs
//!   once per chunk instead of once per coefficient. The accumulator is
//!   monotone non-decreasing (every term is a squared magnitude), so
//!   hoisting the test can only *delay* abandonment within one chunk,
//!   never change whether a row is abandoned or the value of a completed
//!   sum. Without a bound the limit is `+∞`, which no sum exceeds.
//!
//! **Two instantiations of one body.** The multipliers are a
//! [`Multipliers`] type: a slice of them, or the [`Unit`] marker, which
//! stands for a multiplier of exactly one at every frequency and compares
//! `|X_f − q_f|²` with no complex multiply. The executors pick [`Unit`]
//! once per statement when every resolved multiplier `== Complex::ONE`
//! (the identity, `shift`, a positive `scale`, `mavg(1)`). On finite
//! spectra the two agree bit for bit: multiplying by `(1, ±0)` gives
//! `(x.re·1 − x.im·(±0), x.re·(±0) + x.im·1)`, and `x·1` is exact while
//! adding a zero changes a finite value only where it is itself a zero,
//! and then only in its sign. Subtracting `q_f` keeps that: the difference
//! is the same value, or a zero of either sign, and the zero is squared.
//! So every term, the running sum, the abandon decisions and the
//! `compared` count are the slice kernel's (pinned by this module's tests
//! on signed zeros, subnormals and magnitudes near `1e154`).
//!
//! Bitwise identity with the pre-existing scalar loops is load-bearing —
//! every equivalence suite in `tests/` compares distances with
//! `f64::to_bits` — so the kernel keeps a **single accumulator** and adds
//! terms in exactly the original left-to-right order (float addition is
//! not associative; multiple partial accumulators would produce different
//! bits). The tests below pin kernel-vs-scalar-reference identity on
//! random and edge-case inputs.

use simq_dsp::complex::Complex;

/// Coefficients per branch-free inner block. Eight complex terms are 32
/// doubles of streamed reads — enough for the autovectorizer to unroll
/// profitably while keeping the abandon test responsive (the paper's
/// early-abandon observation: frequency-domain energy concentrates in the
/// first few coefficients, so most dismissals happen in the first chunk).
pub const CHUNK: usize = 8;

/// Result of one kernel evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistOutcome {
    /// The accumulated squared distance: the exact sum when `abandoned`
    /// is false, the partial sum at the abandonment point otherwise.
    pub dist_sq: f64,
    /// Complex coefficients compared (counts toward scan statistics).
    pub compared: u64,
    /// True when the accumulation stopped early because the partial sum
    /// exceeded the abandon bound.
    pub abandoned: bool,
}

/// The multipliers of the spectrum's frequencies `1..n` as the kernel
/// reads them: a slice, or [`Unit`].
pub trait Multipliers: Copy {
    /// The multipliers of one [`CHUNK`] of coefficients.
    type Block: Copy;
    /// The block of tail coefficients `at..at + CHUNK`.
    fn block(self, at: usize) -> Self::Block;
    /// Coefficient `x` moved by multiplier `i` of `block`.
    fn apply(block: Self::Block, i: usize, x: Complex) -> Complex;
    /// Coefficient `x` moved by the multiplier of tail coefficient `at`.
    fn apply_at(self, at: usize, x: Complex) -> Complex;
}

impl<'a> Multipliers for &'a [Complex] {
    type Block = &'a [Complex; CHUNK];

    #[inline(always)]
    fn block(self, at: usize) -> Self::Block {
        self[at..]
            .first_chunk()
            .expect("a multiplier for every coefficient")
    }

    #[inline(always)]
    fn apply(block: Self::Block, i: usize, x: Complex) -> Complex {
        x * block[i]
    }

    #[inline(always)]
    fn apply_at(self, at: usize, x: Complex) -> Complex {
        x * self[at]
    }
}

/// Every multiplier exactly one: the kernel compares the stored
/// coefficients unmoved, with no complex multiply (module docs: bit for
/// bit the slice kernel over multipliers `== Complex::ONE`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unit;

impl Unit {
    /// Whether every one of `multipliers` `== Complex::ONE` (either sign
    /// of a zero imaginary part): whether [`Unit`] stands for them.
    pub fn covers(multipliers: &[Complex]) -> bool {
        multipliers.iter().all(|m| *m == Complex::ONE)
    }
}

impl Multipliers for Unit {
    type Block = Unit;

    #[inline(always)]
    fn block(self, _: usize) -> Unit {
        Unit
    }

    #[inline(always)]
    fn apply(_: Unit, _: usize, x: Complex) -> Complex {
        x
    }

    #[inline(always)]
    fn apply_at(self, _: usize, x: Complex) -> Complex {
        x
    }
}

/// Computes the transformed squared spectral distance
/// `|X₀ − q₀|² + Σ_{f≥1} |X_f·m_{f−1} − q_f|²` with optional
/// early abandoning over a squared bound.
///
/// `multipliers` must hold at least `spectrum.len() − 1` entries
/// (frequencies `1..n`); `query` must have `spectrum`'s length. An empty
/// `spectrum` returns a zero outcome.
#[inline]
pub fn transformed_distance_sq(
    spectrum: &[Complex],
    multipliers: &[Complex],
    query: &[Complex],
    abandon_over: Option<f64>,
    out_compared: &mut u64,
) -> (f64, bool) {
    let o = distance_outcome_under(spectrum, multipliers, query, abandon_over);
    *out_compared += o.compared;
    (o.dist_sq, o.abandoned)
}

/// The full-outcome form of [`transformed_distance_sq`].
pub fn distance_outcome(
    spectrum: &[Complex],
    multipliers: &[Complex],
    query: &[Complex],
    abandon_over: Option<f64>,
) -> DistOutcome {
    distance_outcome_under(spectrum, multipliers, query, abandon_over)
}

/// The one chunked kernel body, over a multiplier slice or [`Unit`]:
/// [`distance_outcome`] for any [`Multipliers`].
#[inline(always)]
pub fn distance_outcome_under<M: Multipliers>(
    spectrum: &[Complex],
    multipliers: M,
    query: &[Complex],
    abandon_over: Option<f64>,
) -> DistOutcome {
    debug_assert_eq!(spectrum.len(), query.len());
    let Some((&x0, tail)) = spectrum.split_first() else {
        return DistOutcome {
            dist_sq: 0.0,
            compared: 0,
            abandoned: false,
        };
    };
    let limit = abandon_over.unwrap_or(f64::INFINITY);
    let mut acc = (x0 - query[0]).norm_sqr();
    let mut compared = 1u64;
    let abandoned = |dist_sq, compared| DistOutcome {
        dist_sq,
        compared,
        abandoned: true,
    };
    if acc > limit {
        return abandoned(acc, compared);
    }
    let mut xc = tail.chunks_exact(CHUNK);
    let mut qc = query[1..].chunks_exact(CHUNK);
    for (c, (xs, qs)) in (&mut xc).zip(&mut qc).enumerate() {
        // Branch-free block: fixed trip count, contiguous slices,
        // single in-order accumulator.
        let ms = multipliers.block(c * CHUNK);
        for i in 0..CHUNK {
            acc += (M::apply(ms, i, xs[i]) - qs[i]).norm_sqr();
        }
        compared += CHUNK as u64;
        if acc > limit {
            return abandoned(acc, compared);
        }
    }
    let (rest, at) = (xc.remainder(), tail.len() - xc.remainder().len());
    for (i, (x, q)) in rest.iter().zip(qc.remainder()).enumerate() {
        acc += (multipliers.apply_at(at + i, *x) - *q).norm_sqr();
    }
    compared += rest.len() as u64;
    if !rest.is_empty() && acc > limit {
        return abandoned(acc, compared);
    }
    DistOutcome {
        dist_sq: acc,
        compared,
        abandoned: false,
    }
}

/// Squared Euclidean distance between two equal-length real slices,
/// accumulated left to right through branch-free [`CHUNK`]-wide blocks —
/// the time-domain ground-distance kernel. Bitwise identical to the naive
/// `Σ (a_i − b_i)²` loop (single accumulator, same order).
///
/// # Panics
/// Panics if the slices differ in length.
#[inline]
pub fn euclidean_sq_flat(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "euclidean_sq_flat length mismatch");
    // -0.0 is the additive identity `iter::Sum<f64>` folds from; starting
    // there keeps even the empty-input result bit-identical to the
    // iterator-sum reference.
    let mut acc = -0.0f64;
    let mut ac = a.chunks_exact(CHUNK);
    let mut bc = b.chunks_exact(CHUNK);
    for (xs, ys) in (&mut ac).zip(&mut bc) {
        for i in 0..CHUNK {
            let d = xs[i] - ys[i];
            acc += d * d;
        }
    }
    for (x, y) in ac.remainder().iter().zip(bc.remainder()) {
        let d = x - y;
        acc += d * d;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar reference the chunked kernel must match bit for bit:
    /// the loop the executors used before the restructure.
    fn scalar_reference(
        spectrum: &[Complex],
        multipliers: &[Complex],
        query: &[Complex],
        abandon_over: Option<f64>,
    ) -> (f64, bool) {
        if spectrum.is_empty() {
            return (0.0, false);
        }
        let mut acc = (spectrum[0] - query[0]).norm_sqr();
        if let Some(limit) = abandon_over {
            if acc > limit {
                return (acc, true);
            }
        }
        for f in 1..spectrum.len() {
            acc += (spectrum[f] * multipliers[f - 1] - query[f]).norm_sqr();
            if let Some(limit) = abandon_over {
                if acc > limit {
                    return (acc, true);
                }
            }
        }
        (acc, false)
    }

    fn pseudo(seed: u64, n: usize) -> Vec<Complex> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 20.0
        };
        (0..n).map(|_| Complex::new(next(), next())).collect()
    }

    #[test]
    fn matches_scalar_reference_on_random_inputs() {
        for n in [2usize, 3, 7, 8, 9, 15, 16, 17, 31, 64, 129] {
            for seed in 1..20u64 {
                let x = pseudo(seed, n);
                let m = pseudo(seed ^ 0xABCD, n - 1);
                let q = pseudo(seed ^ 0x1234, n);
                let full = scalar_reference(&x, &m, &q, None);
                let got = distance_outcome(&x, &m, &q, None);
                assert_eq!(got.dist_sq.to_bits(), full.0.to_bits(), "n={n} seed={seed}");
                assert!(!got.abandoned);
                assert_eq!(got.compared, n as u64);
            }
        }
    }

    #[test]
    fn abandonment_decision_matches_scalar_reference() {
        // The chunked kernel may abandon at a different coefficient, but
        // whether a row abandons — and the exact sum when it does not —
        // must be identical.
        for n in [2usize, 5, 8, 9, 24, 33, 100] {
            for seed in 1..30u64 {
                let x = pseudo(seed, n);
                let m = pseudo(seed ^ 77, n - 1);
                let q = pseudo(seed ^ 99, n);
                let (full, _) = scalar_reference(&x, &m, &q, None);
                for limit in [0.0, full * 0.1, full * 0.5, full * 0.999, full, full * 2.0] {
                    let (r_sq, r_ab) = scalar_reference(&x, &m, &q, Some(limit));
                    let g = distance_outcome(&x, &m, &q, Some(limit));
                    assert_eq!(g.abandoned, r_ab, "n={n} seed={seed} limit={limit}");
                    if !g.abandoned {
                        assert_eq!(g.dist_sq.to_bits(), r_sq.to_bits());
                        assert_eq!(g.compared, n as u64);
                    }
                }
            }
        }
    }

    #[test]
    fn edge_lengths_empty_one_and_non_multiples() {
        // Empty spectrum.
        let g = distance_outcome(&[], &[], &[], Some(1.0));
        assert_eq!((g.dist_sq, g.compared, g.abandoned), (0.0, 0, false));
        // Length 1: only the DC term.
        let x = [Complex::new(3.0, 4.0)];
        let q = [Complex::new(0.0, 0.0)];
        let g = distance_outcome(&x, &[], &q, None);
        assert_eq!(g.dist_sq, 25.0);
        assert_eq!(g.compared, 1);
        // Tail lengths straddling the chunk width, including exact
        // multiples and ±1 around them.
        for n in [CHUNK, CHUNK + 1, CHUNK + 2, 2 * CHUNK, 2 * CHUNK + 1, 3] {
            let x = pseudo(5, n);
            let m = pseudo(6, n - 1);
            let q = pseudo(7, n);
            let (want, _) = scalar_reference(&x, &m, &q, None);
            let g = distance_outcome(&x, &m, &q, None);
            assert_eq!(g.dist_sq.to_bits(), want.to_bits(), "n={n}");
        }
    }

    #[test]
    fn euclidean_flat_matches_naive_bitwise() {
        let naive = |a: &[f64], b: &[f64]| -> f64 {
            a.iter()
                .zip(b)
                .map(|(x, y)| {
                    let d = x - y;
                    d * d
                })
                .sum::<f64>()
        };
        for n in [0usize, 1, 2, 7, 8, 9, 16, 17, 63, 64, 65, 200] {
            let a: Vec<f64> = (0..n)
                .map(|i| ((i * 37 + 11) % 101) as f64 * 0.317)
                .collect();
            let b: Vec<f64> = (0..n).map(|i| ((i * 53 + 7) % 97) as f64 * 0.211).collect();
            assert_eq!(
                euclidean_sq_flat(&a, &b).to_bits(),
                naive(&a, &b).to_bits(),
                "n={n}"
            );
        }
        // Denormals and signed zeros accumulate identically.
        let a = [0.0, -0.0, f64::MIN_POSITIVE / 4.0, -1e-310, 5.0];
        let b = [-0.0, 0.0, 0.0, 1e-310, 5.0];
        assert_eq!(euclidean_sq_flat(&a, &b).to_bits(), naive(&a, &b).to_bits());
    }

    /// Values where multiplying by `(1, ±0)` could differ from not
    /// multiplying at all, if anything could: signed zeros, subnormals,
    /// and magnitudes whose squares sit at the edge of overflow.
    const EDGES: [f64; 14] = [
        0.0,
        -0.0,
        5e-324,
        -5e-324,
        1e-310,
        -2.2e-308,
        1e-160,
        1e154,
        -1e154,
        1.3e154,
        1.5,
        -3.25,
        f64::MIN_POSITIVE,
        7.0e-3,
    ];

    /// The unit kernel against the slice kernel over multipliers `ONE`
    /// and `(1, −0)`: the same bits, abandon decision and `compared` count
    /// with no bound, at every partial sum of the reference (and one ulp
    /// either side of it) and at the extremes.
    fn assert_unit_is_the_slice(x: &[Complex], q: &[Complex]) {
        let tail = x.len().saturating_sub(1);
        let (full, _) = scalar_reference(x, &vec![Complex::ONE; tail], q, None);
        let mut limits = vec![None, Some(0.0), Some(-1.0), Some(f64::MAX), Some(full)];
        let mut acc = 0.0;
        for (f, (a, b)) in x.iter().zip(q).enumerate() {
            acc += (*a - *b).norm_sqr();
            for limit in [acc, acc.next_down(), acc.next_up()] {
                limits.push(Some(limit));
            }
            if f > 3 * CHUNK {
                break;
            }
        }
        for one in [Complex::ONE, Complex::new(1.0, -0.0)] {
            let m = vec![one; tail];
            for &limit in &limits {
                let slice = distance_outcome(x, &m, q, limit);
                let unit = distance_outcome_under(x, Unit, q, limit);
                let what = format!("n={} one={one:?} limit={limit:?}", x.len());
                assert_eq!(unit.dist_sq.to_bits(), slice.dist_sq.to_bits(), "{what}");
                assert_eq!(unit.compared, slice.compared, "{what}");
                assert_eq!(unit.abandoned, slice.abandoned, "{what}");
            }
        }
    }

    /// A spectrum of `n` coefficients drawn from [`EDGES`] and from
    /// ordinary values, by `next`.
    fn edge_spectrum(n: usize, next: &mut impl FnMut(u64) -> u64) -> Vec<Complex> {
        let mut value = || match next(3) {
            0 => (next(1 << 20) as f64 - 524_288.0) / 4096.0,
            _ => EDGES[next(EDGES.len() as u64) as usize],
        };
        (0..n).map(|_| Complex::new(value(), value())).collect()
    }

    fn xorshift(seed: u64) -> impl FnMut(u64) -> u64 {
        let mut state = seed;
        move |bound| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        }
    }

    #[test]
    fn the_unit_kernel_is_the_slice_kernel_over_ones_bitwise() {
        let mut next = xorshift(0x2545_F491_4F6C_DD1D);
        for n in 0..=3 * CHUNK + 2 {
            for _ in 0..40 {
                let x = edge_spectrum(n, &mut next);
                let q = edge_spectrum(n, &mut next);
                assert_unit_is_the_slice(&x, &q);
            }
        }
        // Every edge value against every other, in every slot of a chunk
        // and of the remainder.
        for n in [CHUNK + 1, CHUNK + 4] {
            for (i, &a) in EDGES.iter().enumerate() {
                for &b in &EDGES {
                    let mut x = vec![Complex::new(1.0, -1.0); n];
                    let mut q = vec![Complex::new(0.5, -0.0); n];
                    let f = 1 + i % (n - 1);
                    (x[f], q[f]) = (Complex::new(a, b), Complex::new(b, a));
                    x[n - 1] = Complex::new(b, -a);
                    assert_unit_is_the_slice(&x, &q);
                }
            }
        }
        assert!(Unit::covers(&[Complex::ONE, Complex::new(1.0, -0.0)]));
        assert!(Unit::covers(&[]));
        for other in [
            Complex::new(1.0, 1e-300),
            Complex::real(-1.0),
            Complex::ZERO,
        ] {
            assert!(!Unit::covers(&[Complex::ONE, other]));
        }
    }

    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn the_unit_kernel_is_the_slice_kernel_over_ones_bitwise_long() {
        let mut next = xorshift(0x9E37_79B9_7F4A_7C15);
        for _ in 0..20_000 {
            let n = next(300) as usize;
            let x = edge_spectrum(n, &mut next);
            let q = edge_spectrum(n, &mut next);
            assert_unit_is_the_slice(&x, &q);
        }
    }

    #[test]
    fn abandoned_rows_compare_fewer_coefficients() {
        // Energy-concentrated input: the first chunk already exceeds the
        // bound, so an abandoned row costs at most 1 + CHUNK comparisons.
        let n = 128;
        let mut x = vec![Complex::ZERO; n];
        x[1] = Complex::new(100.0, 0.0);
        let m = vec![Complex::ONE; n - 1];
        let q = vec![Complex::ZERO; n];
        let g = distance_outcome(&x, &m, &q, Some(1.0));
        assert!(g.abandoned);
        assert!(g.compared <= 1 + CHUNK as u64, "compared {}", g.compared);
    }
}
