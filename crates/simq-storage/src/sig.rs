//! Quantized feature-signature filter tier.
//!
//! A [`SignatureArray`] keeps, per relation (and per shard), a contiguous
//! `f32` array of each row's first few normal-form spectrum coefficients —
//! a reduced-precision *signature* sitting between the index and the full
//! verification step. Scanning it is a branch-free pass over flat memory,
//! and the bound it yields is conservative in the paper's Lemma 1 sense:
//! the quantized lower bound never exceeds the true spectral distance, so
//! dismissing a candidate whose bound is already above the query threshold
//! can never drop an answer (**no false dismissals**), while every avoided
//! verification skips touching the row's full spectrum and raw series.
//!
//! The numeric contract is deliberately one-sided. Quantizing `f64 → f32`
//! loses at most a `2⁻²⁴` relative half-ulp per component; the probe
//! subtracts a slightly larger allowance from every per-coefficient
//! distance *before* squaring, then deflates the final sum once more.
//! Any non-finite intermediate (overflowed coefficients, infinite
//! transformed queries, NaN) degrades the affected term to zero — i.e. to
//! "keep the candidate" — so exotic inputs cost performance, never
//! correctness.
//!
//! **The mirrored half.** The exact distance sums all `n` stored
//! coefficients, and a real series has `X[n−f] = conj(X[f])`: a signature
//! term at `f ≥ 1` also bounds the term at `n−f` when the query and the
//! multipliers are conjugate symmetric there too. Nothing is assumed — the
//! array measures its rows' departure from symmetry
//! ([`SignatureArray::mirror_slack`]), the probe the query's, and a term
//! claims its mirror only with both added to its allowance
//! ([`FilterProbe::mirrored`]).

use simq_dsp::complex::Complex;

/// Number of leading spectrum coefficients a signature keeps (fewer when
/// the series itself is shorter). Eight complex coefficients = 64 bytes
/// per row: one cache line, two AVX-512 lanes of `f32`.
pub const SIG_COEFFS: usize = 8;

/// Relative quantization/rounding allowance per real component. One
/// `f64 → f32` round-trip costs at most `2⁻²⁴ ≈ 6e-8` relative; the probe
/// also divides the query by the transform multiplier in `f64` (≤ 1e-15
/// relative). `1.2e-7` covers both with margin to spare, including the
/// binade-boundary case where the proxy magnitude is half the true one.
const REL_EPS: f64 = 1.2e-7;

/// Absolute allowance covering subnormal-range quantization, where
/// relative error bounds stop applying (`f32` subnormal spacing is
/// `≈ 1.4e-45`; anything below `1e-40` absolute is noise at `f64` scale).
const ABS_EPS: f64 = 1e-40;

/// Norm-wise rounding of one complex pull-back `q · m⁻¹`, as a multiple of
/// the pulled-back magnitude.
const PULL_EPS: f64 = 8.0 * f64::EPSILON;

/// Contiguous reduced-precision signatures, position-parallel to a
/// relation's row vector: row at position `p` owns the `2·coeffs` floats
/// starting at `p · 2·coeffs` (interleaved re/im pairs).
///
/// Signatures are *derived* data: they are recomputed from stored spectra
/// on snapshot restore and pushed on every insert, so they never appear in
/// any persistence format and are bit-identical however a relation was
/// assembled (bulk load, incremental insert, WAL replay, reshard) —
/// the property the filter-equivalence suite pins.
#[derive(Debug, Clone, Default)]
pub struct SignatureArray {
    coeffs: usize,
    data: Vec<f32>,
    /// Spectrum length of the rows held (that of the first row pushed).
    spectrum_len: usize,
    mirror_slack: f64,
}

impl SignatureArray {
    /// Creates an empty array keeping `coeffs` leading coefficients.
    pub fn new(coeffs: usize) -> Self {
        SignatureArray {
            coeffs,
            ..Self::default()
        }
    }

    /// The natural width for series of the given length: the first
    /// [`SIG_COEFFS`] coefficients, or all of them for short series.
    pub fn for_series_len(series_len: usize) -> Self {
        Self::new(series_len.min(SIG_COEFFS))
    }

    /// Coefficients kept per row.
    pub fn coeffs(&self) -> usize {
        self.coeffs
    }

    /// Number of signatures stored.
    pub fn len(&self) -> usize {
        if self.coeffs == 0 {
            0
        } else {
            self.data.len() / (2 * self.coeffs)
        }
    }

    /// True when no signatures are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The largest component of `X[n−f] − conj(X[f])` over the signature
    /// frequencies `f ≥ 1` of every row held (a few ulps for transforms of
    /// real series). Infinite — nothing may be mirrored — when a row is
    /// shorter than `2·coeffs` (`n−f` would be a signature frequency
    /// itself), rows differ in length, or a coefficient is not finite. A
    /// maximum over rows, so derived data like the signatures: every build
    /// path of the same rows measures the same value.
    pub fn mirror_slack(&self) -> f64 {
        self.mirror_slack
    }

    /// Appends the signature of a row with the given full spectrum.
    /// Deterministic round-to-nearest `f64 → f32` casts keep signatures
    /// bit-identical across every build path.
    pub fn push(&mut self, spectrum: &[Complex]) {
        let n = spectrum.len();
        if self.data.is_empty() {
            self.spectrum_len = n;
        }
        if n != self.spectrum_len || n < 2 * self.coeffs {
            self.mirror_slack = f64::INFINITY;
        } else {
            for f in 1..self.coeffs {
                let (x, y) = (spectrum[f], spectrum[n - f]);
                let (re, im) = (y.re - x.re, y.im + x.im);
                // `max` would drop a NaN.
                let gap = if re.is_nan() || im.is_nan() {
                    f64::INFINITY
                } else {
                    re.abs().max(im.abs())
                };
                self.mirror_slack = self.mirror_slack.max(gap);
            }
        }
        self.data.reserve(2 * self.coeffs);
        for f in 0..self.coeffs {
            let c = spectrum.get(f).copied().unwrap_or(Complex::ZERO);
            self.data.push(c.re as f32);
            self.data.push(c.im as f32);
        }
    }

    /// The signature at row position `pos` (interleaved re/im pairs).
    pub fn row(&self, pos: usize) -> Option<&[f32]> {
        let w = 2 * self.coeffs;
        let start = pos.checked_mul(w)?;
        self.data.get(start..start + w)
    }
}

/// Deflates a squared lower bound by one part in 10⁹ plus an absolute
/// nudge, absorbing the `f64` rounding of the verification sum it is
/// compared with, so it never dismisses (or out-ranks) a boundary tie.
#[inline]
pub fn deflate_sq(lower_bound_sq: f64) -> f64 {
    (lower_bound_sq * (1.0 - 1e-9) - 1e-12).max(0.0)
}

/// One precomputed per-coefficient probe term: the transformed query
/// pulled back into raw-spectrum space, the weight restoring the
/// transform's contribution (of both frequencies when the term mirrors)
/// and the absolute part of its allowance. Inert terms weigh nothing.
#[derive(Debug, Clone, Copy)]
struct ProbeTerm {
    w_re: f64,
    w_im: f64,
    scale_sq: f64,
    abs_eps: f64,
}

const INERT: ProbeTerm = ProbeTerm {
    w_re: 0.0,
    w_im: 0.0,
    scale_sq: 0.0,
    abs_eps: ABS_EPS,
};

/// The multiplier side of one term `f ≥ 1`, query-independent: `(1/m,
/// |m|²)` at `f` and, when `n−f` may be claimed at all, at `n−f`.
#[derive(Debug, Clone, Copy, Default)]
struct TermPlan {
    pull: Option<(Complex, f64)>,
    mirror: Option<(Complex, f64)>,
}

/// A compiled filter probe for one (query, transform) pair.
///
/// The verification distance is
/// `d² = |X₀ − q₀|² + Σ_{f≥1} |X_f·m_{f−1} − q_f|²`; for each signature
/// frequency the probe rewrites its term as `|m|²·|X_f − q_f/m|²` so the
/// stored quantized `X_f` can be compared directly. Terms with a zero
/// multiplier contribute the constant `|q_f|²` independent of the row;
/// frequencies beyond the signature width contribute nothing (dropping
/// non-negative terms keeps the bound a lower bound) — except the mirrored
/// ones a term claims, see [`FilterProbe::mirrored`].
#[derive(Debug, Clone)]
pub struct FilterProbe {
    konst: f64,
    terms: Vec<ProbeTerm>,
    plan: Vec<TermPlan>,
    /// The spectrum length compiled for.
    n: usize,
    mirror_slack: f64,
    floor: Option<(f64, f64)>,
}

impl FilterProbe {
    /// Compiles a probe that never mirrors: [`FilterProbe::mirrored`]
    /// against rows of unknown symmetry (`mirror_slack = ∞`).
    pub fn new(q_spec: &[Complex], multipliers: &[Complex], coeffs: usize) -> Self {
        Self::mirrored(q_spec, multipliers, coeffs, f64::INFINITY)
    }

    /// Compiles a probe for a query spectrum against rows whose signatures
    /// keep `coeffs` coefficients, under the transform's frequency
    /// `multipliers` (for frequencies `1..`, as the executors use them),
    /// the rows' spectra — of `q_spec`'s length `n` — being conjugate
    /// symmetric within `mirror_slack` ([`SignatureArray::mirror_slack`]).
    ///
    /// A term `f ≥ 1` whose pulled-back mirrored query `q[n−f]/m[n−f−1]`
    /// is the conjugate of its own `w = q[f]/m[f−1]` within a measured `δ`
    /// also claims frequency `n−f`: `|X[n−f] − q[n−f]/m[n−f−1]|` differs
    /// from `|X[f] − w|` by at most `δ + mirror_slack` per component, so
    /// the term weighs `|m[f−1]|² + |m[n−f−1]|²` with that much more
    /// allowance. It stays single when `n−f` is a signature frequency or
    /// has no finite non-zero multiplier, or when the extra allowance
    /// exceeds what quantization already grants a coefficient of `w`'s
    /// size: asymmetry anywhere costs pruning, never an answer.
    pub fn mirrored(
        q_spec: &[Complex],
        multipliers: &[Complex],
        coeffs: usize,
        mirror_slack: f64,
    ) -> Self {
        let n = q_spec.len();
        let side = |f: usize| multipliers.get(f - 1).map(|m| (m.recip(), m.norm_sqr()));
        let plan = (0..coeffs)
            .map(|f| match f {
                0 => TermPlan::default(),
                _ => TermPlan {
                    pull: side(f),
                    mirror: (mirror_slack.is_finite() && n >= f + coeffs)
                        .then(|| side(n - f))
                        .flatten()
                        .filter(|(inv, s)| inv.is_finite() && s.is_finite()),
                },
            })
            .collect();
        let mut probe = FilterProbe {
            konst: 0.0,
            terms: vec![INERT; coeffs],
            plan,
            n,
            mirror_slack,
            floor: None,
        };
        probe.recompile(q_spec);
        probe
    }

    /// Recompiles in place for another query spectrum under the same
    /// multipliers, keeping the allocation and everything derived from them.
    ///
    /// # Panics
    /// If `q_spec`'s length differs from the compiled one.
    pub fn recompile(&mut self, q_spec: &[Complex]) {
        assert_eq!(q_spec.len(), self.n, "probe recompiled for another length");
        self.konst = 0.0;
        self.terms.fill(INERT);
        let mut floor = Some((f64::INFINITY, 0.0));
        let terms = self.terms.iter_mut().zip(&self.plan).zip(q_spec);
        for (f, ((term, plan), &q)) in terms.enumerate() {
            if f == 0 {
                // DC term: compared untransformed.
                if q.is_finite() {
                    (term.w_re, term.w_im, term.scale_sq) = (q.re, q.im, 1.0);
                }
                continue;
            }
            let mut mirrored = None;
            match plan.pull {
                Some((_, 0.0)) => {
                    // |X_f·0 − q_f|² = |q_f|², row-independent.
                    let e = q.norm_sqr();
                    if e.is_finite() {
                        self.konst += e;
                    }
                }
                Some((inv, scale_sq)) => {
                    let w = q * inv;
                    if w.is_finite() && scale_sq.is_finite() {
                        (term.w_re, term.w_im, term.scale_sq) = (w.re, w.im, scale_sq);
                        mirrored = plan.mirror.and_then(|(m_inv, m_scale_sq)| {
                            let v = q_spec[self.n - f] * m_inv;
                            let size = w.re.abs() + w.im.abs();
                            let widen = (v.re - w.re).abs().max((v.im + w.im).abs())
                                + self.mirror_slack
                                + PULL_EPS * (size + v.re.abs() + v.im.abs());
                            let fits = widen <= REL_EPS * size;
                            (v.is_finite() && fits && (scale_sq + m_scale_sq).is_finite())
                                .then_some((widen, m_scale_sq))
                        });
                    }
                }
                // No multiplier (the executors' cover every stored
                // frequency): inert keeps the bound sound anyway.
                None => {}
            }
            let own = term.scale_sq;
            if let Some((widen, m_scale_sq)) = mirrored {
                (term.scale_sq, term.abs_eps) = (own + m_scale_sq, ABS_EPS + widen);
            }
            floor = floor
                .zip(mirrored)
                .map(|((rho_sq, a), (widen, m_scale_sq))| {
                    (rho_sq.min(m_scale_sq / own), a + (2.0 * own).sqrt() * widen)
                });
        }
        self.floor = floor.filter(|(rho_sq, _)| rho_sq.is_finite());
    }

    /// When every term `f ≥ 1` mirrors: `(ρ², a)` such that a row whose
    /// terms `|X_f·m_{f−1} − q_f|²` sum to at least `D` over this probe's
    /// frequencies is at least `ρ²·(√D − a)₊²` away over their mirrors —
    /// `ρ` the smallest `|m[n−f−1]| / |m[f−1]|`, `a` the terms' mirroring
    /// allowances in distance units, summed.
    pub fn mirror_floor(&self) -> Option<(f64, f64)> {
        self.floor
    }

    /// A conservative lower bound on the squared verification distance of
    /// the row owning `sig`. Never exceeds the true squared distance when
    /// that distance is finite; never negative.
    #[inline]
    pub fn lower_bound_sq(&self, sig: &[f32]) -> f64 {
        let mut acc = self.konst;
        for (t, c) in self.terms.iter().zip(sig.chunks_exact(2)) {
            let cre = c[0] as f64;
            let cim = c[1] as f64;
            // Allowance per component: relative in the *larger* of the two
            // magnitudes' sum, plus a subnormal floor. A NaN propagating
            // into `dx` collapses to 0 via `max` (NaN.max(0) == 0).
            let e_re = (cre.abs() + t.w_re.abs()) * REL_EPS + t.abs_eps;
            let e_im = (cim.abs() + t.w_im.abs()) * REL_EPS + t.abs_eps;
            let dx = ((t.w_re - cre).abs() - e_re).max(0.0);
            let dy = ((t.w_im - cim).abs() - e_im).max(0.0);
            acc += t.scale_sq * (dx * dx + dy * dy);
        }
        if acc.is_finite() {
            deflate_sq(acc)
        } else {
            0.0
        }
    }

    /// True when the row owning `sig` provably lies outside the squared
    /// threshold and full verification can be skipped.
    #[inline]
    pub fn dismisses(&self, sig: &[f32], threshold_sq: f64) -> bool {
        self.lower_bound_sq(sig) > threshold_sq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn true_distance_sq(spectrum: &[Complex], multipliers: &[Complex], q: &[Complex]) -> f64 {
        let mut acc = 0.0;
        for (f, x) in spectrum.iter().enumerate() {
            let t = if f == 0 {
                *x - q[0]
            } else {
                *x * multipliers[f - 1] - q[f]
            };
            acc += t.norm_sqr();
        }
        acc
    }

    fn pseudo(seed: u64, n: usize) -> Vec<Complex> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 11) as f64) / ((1u64 << 53) as f64) * 2.0 - 1.0
        };
        (0..n)
            .map(|_| Complex::new(next() * 50.0, next() * 50.0))
            .collect()
    }

    #[test]
    fn signatures_are_position_parallel() {
        let mut sigs = SignatureArray::new(3);
        let a = pseudo(1, 5);
        let b = pseudo(2, 5);
        sigs.push(&a);
        sigs.push(&b);
        assert_eq!(sigs.len(), 2);
        let row1 = sigs.row(1).unwrap();
        assert_eq!(row1.len(), 6);
        assert_eq!(row1[0], b[0].re as f32);
        assert_eq!(row1[5], b[2].im as f32);
        assert!(sigs.row(2).is_none());
    }

    #[test]
    fn short_spectra_pad_with_zeros() {
        let mut sigs = SignatureArray::new(4);
        sigs.push(&pseudo(3, 2));
        let row = sigs.row(0).unwrap();
        assert_eq!(&row[4..], &[0.0f32; 4]);
    }

    #[test]
    fn lower_bound_never_exceeds_true_distance() {
        for seed in 0..200u64 {
            let n = 4 + (seed % 13) as usize;
            let x = pseudo(seed * 3 + 1, n);
            let q = pseudo(seed * 3 + 2, n);
            let m = pseudo(seed * 3 + 3, n - 1);
            let coeffs = n.min(SIG_COEFFS);
            let mut sigs = SignatureArray::new(coeffs);
            sigs.push(&x);
            let probe = FilterProbe::new(&q, &m, coeffs);
            let lb = probe.lower_bound_sq(sigs.row(0).unwrap());
            let d = true_distance_sq(&x, &m, &q);
            assert!(lb <= d, "seed {seed}: lb {lb} > true {d}");
        }
    }

    #[test]
    fn identical_series_get_zero_bound() {
        let x = pseudo(9, 8);
        let m: Vec<Complex> = vec![Complex::ONE; 7];
        let mut sigs = SignatureArray::new(8);
        sigs.push(&x);
        let probe = FilterProbe::new(&x, &m, 8);
        assert_eq!(probe.lower_bound_sq(sigs.row(0).unwrap()), 0.0);
    }

    #[test]
    fn zero_multiplier_contributes_query_energy() {
        // With m = 0 at every frequency, d² = |X₀−q₀|² + Σ|q_f|² exactly;
        // the probe should recover almost all of it.
        let x = pseudo(11, 6);
        let q = pseudo(12, 6);
        let m = vec![Complex::ZERO; 5];
        let mut sigs = SignatureArray::new(6);
        sigs.push(&x);
        let probe = FilterProbe::new(&q, &m, 6);
        let lb = probe.lower_bound_sq(sigs.row(0).unwrap());
        let d = true_distance_sq(&x, &m, &q);
        assert!(lb <= d);
        assert!(lb > 0.9 * d, "bound too loose: {lb} vs {d}");
    }

    #[test]
    fn non_finite_inputs_degrade_to_keep() {
        let x = vec![Complex::new(f64::MAX, 0.0), Complex::new(1e300, 1e300)];
        let q = vec![
            Complex::new(f64::INFINITY, 0.0),
            Complex::new(f64::NAN, 0.0),
        ];
        let m = vec![Complex::new(1e-300, 0.0)];
        let mut sigs = SignatureArray::new(2);
        sigs.push(&x); // 1e300 overflows to f32::INFINITY
        let probe = FilterProbe::new(&q, &m, 2);
        let lb = probe.lower_bound_sq(sigs.row(0).unwrap());
        assert!(lb.is_finite());
        assert!(!probe.dismisses(sigs.row(0).unwrap(), 0.0) || lb == 0.0);
    }

    #[test]
    fn dismisses_distant_rows() {
        let x = vec![Complex::new(1000.0, 0.0); 8];
        let q = vec![Complex::new(-1000.0, 0.0); 8];
        let m = vec![Complex::ONE; 7];
        let mut sigs = SignatureArray::new(8);
        sigs.push(&x);
        let probe = FilterProbe::new(&q, &m, 8);
        assert!(probe.dismisses(sigs.row(0).unwrap(), 1.0));
    }
}
