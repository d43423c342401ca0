//! Geometry for the multidimensional feature space: rectangles, dimension
//! semantics, and the overlap tests used by the index.
//!
//! Two aspects go beyond textbook R-tree geometry, both needed by the
//! paper's polar feature representation:
//!
//! * **Circular dimensions.** Phase angles live on a circle. Data values are
//!   stored normalized to a canonical interval, so *tree construction* can
//!   treat every dimension linearly; but *query* rectangles and
//!   *transformed* bounding rectangles may leave the canonical interval
//!   (a rotation shifts an angle range past ±π, an ε-expansion may wrap).
//!   [`Space`] records which dimensions are circular and the overlap test
//!   compares intervals modulo the period, preserving the no-false-dismissal
//!   guarantee (Lemma 1) that a naive linear comparison would break.
//!
//!   The test runs for every entry a search tests, so its reduction
//!   `wrap` skips `rem_euclid`'s `fmod` where one exact operation gives
//!   its result: `x` on `[0, p)`, `x − p` on `[p, 2p)` (exact by Sterbenz's
//!   lemma, as `fmod` is), and on `(−p, 0)` the very `x + p` `rem_euclid`
//!   adds to `fmod`'s unchanged `x`. Elsewhere (±∞ and NaN too) it calls
//!   `rem_euclid`, so every decision is bit for bit the `rem_euclid` one.
//! * **Degenerate transforms.** A stretch of 0 collapses a rectangle to a
//!   point; the containment direction needed for correctness
//!   (`x ∈ R ⇒ T(x) ∈ T(R)`) still holds, so such transforms are accepted
//!   and merely increase false hits (removed in postprocessing).

use std::fmt;

/// Semantics of one dimension of the feature space.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DimSemantics {
    /// An ordinary linear axis (means, standard deviations, magnitudes,
    /// rectangular components).
    Linear,
    /// A circular axis with the given period (phase angles: period `2π`).
    Circular {
        /// The period after which values wrap.
        period: f64,
    },
}

/// The feature space: dimension count plus per-dimension semantics.
#[derive(Debug, Clone, PartialEq)]
pub struct Space {
    dims: Vec<DimSemantics>,
}

impl Space {
    /// A space where every dimension is linear.
    pub fn linear(dims: usize) -> Self {
        Space {
            dims: vec![DimSemantics::Linear; dims],
        }
    }

    /// A space with explicit per-dimension semantics.
    pub fn new(dims: Vec<DimSemantics>) -> Self {
        Space { dims }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims.len()
    }

    /// Iterates over per-dimension semantics.
    pub fn iter(&self) -> impl Iterator<Item = DimSemantics> + '_ {
        self.dims.iter().copied()
    }

    /// Do two rectangles overlap under this space's semantics?
    ///
    /// Linear dimensions use ordinary interval overlap; circular dimensions
    /// compare arcs modulo the period.
    #[inline]
    pub fn intersects(&self, a: &Rect, b: &Rect) -> bool {
        debug_assert_eq!(a.dims(), self.dims());
        debug_assert_eq!(b.dims(), self.dims());
        // Zipped slices: no bounds check per dimension.
        let corners = a.lo.iter().zip(&a.hi).zip(b.lo.iter().zip(&b.hi));
        self.dims
            .iter()
            .zip(corners)
            .all(|(dim, ((&a_lo, &a_hi), (&b_lo, &b_hi)))| match *dim {
                DimSemantics::Linear => a_lo <= b_hi && b_lo <= a_hi,
                DimSemantics::Circular { period } => {
                    circular_overlap(a_lo, a_hi, b_lo, b_hi, period)
                }
            })
    }

    /// Does rectangle `r` contain point `p` under this space's semantics?
    #[allow(clippy::needless_range_loop)] // indexes r.lo, r.hi and p in lockstep
    pub fn contains(&self, r: &Rect, p: &[f64]) -> bool {
        debug_assert_eq!(r.dims(), self.dims());
        debug_assert_eq!(p.len(), self.dims());
        for d in 0..self.dims() {
            let hit = match self.dims[d] {
                DimSemantics::Linear => r.lo[d] <= p[d] && p[d] <= r.hi[d],
                DimSemantics::Circular { period } => {
                    circular_overlap(r.lo[d], r.hi[d], p[d], p[d], period)
                }
            };
            if !hit {
                return false;
            }
        }
        true
    }
}

/// Overlap of two circular intervals `[a_lo, a_hi]`, `[b_lo, b_hi]` on a
/// circle of the given period. Interval endpoints are positions on the
/// circle; an interval whose extent `hi − lo` is at least the period covers
/// the whole circle.
pub fn circular_overlap(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64, period: f64) -> bool {
    debug_assert!(period > 0.0);
    let a_len = a_hi - a_lo;
    let b_len = b_hi - b_lo;
    if a_len >= period || b_len >= period {
        return true;
    }
    // Normalize both starts into [0, period).
    let a0 = wrap(a_lo, period);
    let b0 = wrap(b_lo, period);
    // Arc A is [a0, a0 + a_len]; test whether b's start lies within A
    // extended backwards by b_len (standard circular interval test).
    let diff = wrap(b0 - a0, period);
    diff <= a_len || diff >= period - b_len
}

/// `x.rem_euclid(p)` bit for bit, with no `fmod` on `(−p, 2p)` (see the
/// [module docs](self)).
#[inline(always)]
fn wrap(x: f64, p: f64) -> f64 {
    match x {
        _ if (0.0..p).contains(&x) => x,
        _ if (p..2.0 * p).contains(&x) => x - p,
        _ if -p < x && x < 0.0 => x + p,
        _ => x.rem_euclid(p),
    }
}

/// An axis-aligned (hyper-)rectangle: the `MBR` of the paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    /// Lower corner, one value per dimension.
    pub lo: Vec<f64>,
    /// Upper corner, one value per dimension.
    pub hi: Vec<f64>,
}

impl Rect {
    /// Builds a rectangle from corners.
    ///
    /// # Panics
    /// Panics if corners have different lengths or `lo > hi` in some
    /// dimension (circular query rectangles encode wrap by *extent*, not by
    /// swapped corners, so the invariant holds there too).
    pub fn new(lo: Vec<f64>, hi: Vec<f64>) -> Self {
        assert_eq!(lo.len(), hi.len(), "corner dimensionality mismatch");
        for d in 0..lo.len() {
            assert!(
                lo[d] <= hi[d],
                "rect invariant violated in dim {d}: {} > {}",
                lo[d],
                hi[d]
            );
        }
        Rect { lo, hi }
    }

    /// A degenerate rectangle covering exactly one point.
    pub fn point(p: &[f64]) -> Self {
        Rect {
            lo: p.to_vec(),
            hi: p.to_vec(),
        }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    /// Center of the rectangle.
    pub fn center(&self) -> Vec<f64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| (l + h) / 2.0)
            .collect()
    }

    /// Volume (product of extents). Zero for degenerate rectangles.
    pub fn area(&self) -> f64 {
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).product()
    }

    /// Margin (sum of extents) — the R* split criterion.
    pub fn margin(&self) -> f64 {
        self.lo.iter().zip(&self.hi).map(|(l, h)| h - l).sum()
    }

    /// Smallest rectangle containing both `self` and `other`.
    pub fn union(&self, other: &Rect) -> Rect {
        debug_assert_eq!(self.dims(), other.dims());
        Rect {
            lo: self
                .lo
                .iter()
                .zip(&other.lo)
                .map(|(a, b)| a.min(*b))
                .collect(),
            hi: self
                .hi
                .iter()
                .zip(&other.hi)
                .map(|(a, b)| a.max(*b))
                .collect(),
        }
    }

    /// Grows `self` in place to cover `other`.
    pub fn union_in_place(&mut self, other: &Rect) {
        debug_assert_eq!(self.dims(), other.dims());
        for d in 0..self.lo.len() {
            self.lo[d] = self.lo[d].min(other.lo[d]);
            self.hi[d] = self.hi[d].max(other.hi[d]);
        }
    }

    /// Area increase needed to cover `other`: the area of the union minus
    /// `self.area()`, bit for bit, without building the union.
    pub fn enlargement(&self, other: &Rect) -> f64 {
        debug_assert_eq!(self.dims(), other.dims());
        let union_area: f64 = (0..self.dims())
            .map(|d| self.hi[d].max(other.hi[d]) - self.lo[d].min(other.lo[d]))
            .product();
        union_area - self.area()
    }

    /// Area of the intersection with `other` under purely linear semantics
    /// (used by the R* split heuristics, where all stored values are
    /// canonical).
    ///
    /// Disjointness is tested from the last dimension down before any
    /// product is taken: the engine's leading dimensions are the mean and
    /// standard deviation, which its bulk-loaded leaves, cut over the
    /// coefficients, all span, so the trailing ones decide most tests. The
    /// product runs in dimension order, so the result is bit for bit the
    /// one-pass loop's (`overlap_area_is_the_one_pass_loop_bitwise`).
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        let extent = |d: usize| self.hi[d].min(other.hi[d]) - self.lo[d].max(other.lo[d]);
        let disjoint = |d: usize| self.hi[d].min(other.hi[d]) <= self.lo[d].max(other.lo[d]);
        if (0..self.dims()).rev().any(disjoint) {
            return 0.0;
        }
        (0..self.dims()).map(extent).fold(1.0, |acc, e| acc * e)
    }

    /// Linear-semantics intersection test (tree-internal comparisons on
    /// canonical data).
    pub fn intersects_linear(&self, other: &Rect) -> bool {
        for d in 0..self.dims() {
            if self.lo[d] > other.hi[d] || other.lo[d] > self.hi[d] {
                return false;
            }
        }
        true
    }

    /// Linear-semantics containment test for a point.
    pub fn contains_linear(&self, p: &[f64]) -> bool {
        debug_assert_eq!(p.len(), self.dims());
        p.iter()
            .enumerate()
            .all(|(d, v)| self.lo[d] <= *v && *v <= self.hi[d])
    }

    #[allow(clippy::needless_range_loop)] // indexes lo, hi and q in lockstep
    /// `MINDIST(q, R)`: squared Euclidean distance from point `q` to the
    /// nearest point of the rectangle (Roussopoulos–Kelley–Vincent); 0 when
    /// `q` is inside. Used for kNN pruning on linear dimensions.
    pub fn min_dist_sq(&self, q: &[f64]) -> f64 {
        debug_assert_eq!(q.len(), self.dims());
        let mut acc = 0.0;
        for d in 0..self.dims() {
            let v = q[d];
            let delta = if v < self.lo[d] {
                self.lo[d] - v
            } else if v > self.hi[d] {
                v - self.hi[d]
            } else {
                0.0
            };
            acc += delta * delta;
        }
        acc
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for d in 0..self.dims() {
            if d > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}..{}", self.lo[d], self.hi[d])?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn union_and_area() {
        let a = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let b = Rect::new(vec![2.0, -1.0], vec![3.0, 0.5]);
        let u = a.union(&b);
        assert_eq!(u, Rect::new(vec![0.0, -1.0], vec![3.0, 1.0]));
        assert_eq!(u.area(), 6.0);
        assert_eq!(a.area(), 1.0);
        assert_eq!(a.margin(), 2.0);
    }

    #[test]
    fn enlargement() {
        let a = Rect::new(vec![0.0, 0.0], vec![2.0, 2.0]);
        let b = Rect::point(&[3.0, 1.0]);
        assert_eq!(a.enlargement(&b), 6.0 - 4.0);
    }

    #[test]
    fn overlap_area() {
        let a = Rect::new(vec![0.0, 0.0], vec![2.0, 2.0]);
        let b = Rect::new(vec![1.0, 1.0], vec![3.0, 3.0]);
        assert_eq!(a.overlap_area(&b), 1.0);
        let c = Rect::new(vec![5.0, 5.0], vec![6.0, 6.0]);
        assert_eq!(a.overlap_area(&c), 0.0);
    }

    /// The two-pass `overlap_area` returns the one-pass loop's bits: random
    /// rectangle pairs of 1–6 dimensions, disjoint, touching, nested and
    /// degenerate on each axis, infinite and NaN bounds among them.
    #[test]
    fn overlap_area_is_the_one_pass_loop_bitwise() {
        let one_pass = |a: &Rect, b: &Rect| {
            let mut acc = 1.0;
            for d in 0..a.dims() {
                let lo = a.lo[d].max(b.lo[d]);
                let hi = a.hi[d].min(b.hi[d]);
                if hi <= lo {
                    return 0.0;
                }
                acc *= hi - lo;
            }
            acc
        };
        let mut state = 7u64;
        let bound = |state: &mut u64| match next(state) % 8 {
            0 => {
                [f64::NEG_INFINITY, f64::INFINITY, f64::NAN, 0.0, -0.0][(next(state) % 5) as usize]
            }
            1 => (next(state) % 5) as f64,
            _ => 4.0 * unit(state),
        };
        for case in 0..50_000 {
            let dims = 1 + case % 6;
            let rect = |state: &mut u64| {
                let (lo, hi): (Vec<f64>, Vec<f64>) = (0..dims)
                    .map(|_| {
                        let (x, y) = (bound(state), bound(state));
                        if y < x {
                            (y, x)
                        } else {
                            (x, y)
                        }
                    })
                    .unzip();
                Rect { lo, hi }
            };
            let (a, b) = (rect(&mut state), rect(&mut state));
            let (got, want) = (a.overlap_area(&b), one_pass(&a, &b));
            assert_eq!(got.to_bits(), want.to_bits(), "{a:?} ∩ {b:?}");
        }
    }

    #[test]
    fn linear_intersection() {
        let a = Rect::new(vec![0.0], vec![1.0]);
        let b = Rect::new(vec![1.0], vec![2.0]);
        let c = Rect::new(vec![1.1], vec![2.0]);
        assert!(a.intersects_linear(&b)); // touching counts
        assert!(!a.intersects_linear(&c));
    }

    #[test]
    fn min_dist() {
        let r = Rect::new(vec![0.0, 0.0], vec![2.0, 2.0]);
        assert_eq!(r.min_dist_sq(&[1.0, 1.0]), 0.0); // inside
        assert_eq!(r.min_dist_sq(&[3.0, 1.0]), 1.0);
        assert_eq!(r.min_dist_sq(&[3.0, 3.0]), 2.0);
    }

    #[test]
    fn circular_overlap_basic() {
        let p = 2.0 * PI;
        // Two arcs around the wrap point.
        assert!(circular_overlap(3.0, 3.3, 3.2, 3.4, p));
        assert!(!circular_overlap(0.0, 1.0, 2.0, 3.0, p));
        // Arc crossing ±π expressed as [π - 0.1, π + 0.3] meets an arc at
        // [-π, -π + 0.1] (≡ [π, π + 0.1]).
        assert!(circular_overlap(PI - 0.1, PI + 0.3, -PI, -PI + 0.1, p));
        // ...but a linear comparison would have missed it:
        let a = Rect::new(vec![PI - 0.1], vec![PI + 0.3]);
        let b = Rect::new(vec![-PI], vec![-PI + 0.1]);
        assert!(!a.intersects_linear(&b));
    }

    #[test]
    fn circular_full_circle_always_overlaps() {
        let p = 2.0 * PI;
        assert!(circular_overlap(0.0, p, 5.0, 5.1, p));
        assert!(circular_overlap(-100.0, -100.0 + p, 0.0, 0.0, p));
    }

    #[test]
    fn space_intersection_mixed_semantics() {
        let space = Space::new(vec![
            DimSemantics::Linear,
            DimSemantics::Circular { period: 2.0 * PI },
        ]);
        // Linear dim overlaps; circular dim overlaps only modulo 2π.
        let a = Rect::new(vec![0.0, PI - 0.1], vec![1.0, PI + 0.2]);
        let b = Rect::new(vec![0.5, -PI], vec![2.0, -PI + 0.05]);
        assert!(space.intersects(&a, &b));
        // Break the linear dim: no overlap.
        let c = Rect::new(vec![5.0, -PI], vec![6.0, -PI + 0.05]);
        assert!(!space.intersects(&a, &c));
    }

    #[test]
    fn space_contains_circular_point() {
        let space = Space::new(vec![DimSemantics::Circular { period: 2.0 * PI }]);
        let r = Rect::new(vec![PI - 0.1], vec![PI + 0.3]);
        // -π + 0.1 ≡ π + 0.1 is inside the wrapped range.
        assert!(space.contains(&r, &[-PI + 0.1]));
        assert!(!space.contains(&r, &[0.0]));
    }

    /// SplitMix64: the random source of the bitwise properties below and
    /// of `transform`'s.
    pub(crate) fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from `[0, 1)`.
    pub(crate) fn unit(state: &mut u64) -> f64 {
        (next(state) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A value to reduce modulo `p`: mostly near the circle (where the
    /// fast branches decide), sometimes far, sometimes any bit pattern.
    fn value(state: &mut u64, p: f64) -> f64 {
        match next(state) % 8 {
            0 => f64::from_bits(next(state)),
            1 => (unit(state) - 0.5) * 1e6 * p,
            2 => [-2.0, -1.0, 0.0, 1.0, 2.0][(next(state) % 5) as usize] * p,
            _ => (unit(state) - 0.5) * 6.0 * p,
        }
    }

    const PERIODS: [f64; 7] = [2.0 * PI, 1.0, 0.1, 7.5, f64::MIN_POSITIVE, 1e300, f64::MAX];

    /// Every edge of the branches of [`wrap`] for period `p`.
    fn edges(p: f64) -> Vec<f64> {
        let tiny = f64::from_bits(1); // the smallest subnormal
        let mut xs = vec![0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, 1e300, -1e300];
        xs.extend([f64::INFINITY, f64::NEG_INFINITY, f64::NAN, -f64::NAN]);
        for x in [
            p,
            -p,
            2.0 * p,
            -2.0 * p,
            0.5 * p,
            -0.5 * p,
            f64::MAX,
            f64::MIN,
        ] {
            xs.extend([x, x.next_up(), x.next_down()]);
        }
        xs
    }

    fn assert_wrap_is_rem_euclid(x: f64, p: f64) {
        let (got, want) = (wrap(x, p), x.rem_euclid(p));
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "wrap({x:e}, {p:e}) = {got:e}, not {want:e}"
        );
    }

    /// `wrap` over every edge value, then `cases` random values per period.
    fn wrap_matches_rem_euclid(cases: usize) {
        let mut state = 47;
        for p in PERIODS {
            edges(p)
                .into_iter()
                .for_each(|x| assert_wrap_is_rem_euclid(x, p));
            for _ in 0..cases {
                assert_wrap_is_rem_euclid(value(&mut state, p), p);
            }
        }
    }

    /// The overlap test as it was written with three `rem_euclid`s: the
    /// reference [`circular_overlap`] must decide exactly as.
    fn circular_overlap_reference(a_lo: f64, a_hi: f64, b_lo: f64, b_hi: f64, period: f64) -> bool {
        let a_len = a_hi - a_lo;
        let b_len = b_hi - b_lo;
        if a_len >= period || b_len >= period {
            return true;
        }
        let a0 = a_lo.rem_euclid(period);
        let b0 = b_lo.rem_euclid(period);
        let diff = (b0 - a0).rem_euclid(period);
        diff <= a_len || diff >= period - b_len
    }

    /// `cases` random pairs of arcs per period: points, short arcs, arcs
    /// past the period's edges, and full circles.
    fn circular_overlap_matches_reference(cases: usize) {
        let mut state = 11;
        for p in PERIODS {
            for _ in 0..cases {
                let mut arc = || {
                    let lo = value(&mut state, p);
                    let len = match next(&mut state) % 4 {
                        0 => 0.0,
                        1 => unit(&mut state) * 1.5 * p,
                        _ => unit(&mut state) * 0.3 * p,
                    };
                    (lo, lo + len)
                };
                let ((a_lo, a_hi), (b_lo, b_hi)) = (arc(), arc());
                assert_eq!(
                    circular_overlap(a_lo, a_hi, b_lo, b_hi, p),
                    circular_overlap_reference(a_lo, a_hi, b_lo, b_hi, p),
                    "[{a_lo:e}, {a_hi:e}] vs [{b_lo:e}, {b_hi:e}] modulo {p:e}"
                );
            }
        }
    }

    #[test]
    fn wrap_is_rem_euclid_bitwise() {
        wrap_matches_rem_euclid(20_000);
    }

    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn wrap_is_rem_euclid_bitwise_long() {
        wrap_matches_rem_euclid(150_000);
    }

    #[test]
    fn circular_overlap_matches_the_rem_euclid_formula() {
        circular_overlap_matches_reference(20_000);
    }

    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn circular_overlap_matches_the_rem_euclid_formula_long() {
        circular_overlap_matches_reference(150_000);
    }

    #[test]
    #[should_panic(expected = "rect invariant")]
    fn swapped_corners_rejected() {
        let _ = Rect::new(vec![1.0], vec![0.0]);
    }

    #[test]
    fn degenerate_rect_has_zero_area_and_margin() {
        let r = Rect::point(&[1.0, 2.0, 3.0]);
        assert_eq!(r.area(), 0.0);
        assert_eq!(r.margin(), 0.0);
        assert_eq!(r.center(), vec![1.0, 2.0, 3.0]);
    }
}
