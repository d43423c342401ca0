//! The one spatial transformation the index traverses under.
//!
//! Algorithm 1 of the paper constructs, for a safe transformation `T`, an
//! index `I'` on `T(D)` whose node rectangles are `T(MBR_i)` — *on the fly*,
//! without materializing anything. The traversal therefore only needs a way
//! to map points and rectangles through `T`. The proofs of Theorems 1–3
//! show every safe transformation acts as an independent affine map per
//! dimension (`T' = (c, d)` with real vectors `c`, `d`), so the index has
//! one transformation type, [`DiagonalAffine`]: the identity is `c = 1`,
//! `d = 0`, and a chain of transformations composes in the spectrum before
//! it is lowered to one map.

use crate::geom::Rect;

/// A per-dimension affine map `x_d ↦ scale_d · x_d + shift_d`.
///
/// This is the `T' = (c, d)` of the paper's safety proofs: every safe
/// transformation — real stretch + complex shift in `S_rect` (Theorem 2),
/// complex multiplier in `S_pol` (Theorem 3) — reduces to this form.
/// Negative scales flip the interval (the paper drops the positive-scale
/// restriction of GK95 precisely to allow them); zero scales collapse it.
/// It preserves the containment direction `x ∈ R ⇒ apply_point(x) ∈
/// apply_rect(R)`, the property that makes transformed search return a
/// superset of the true answer (Lemma 1).
#[derive(Debug, Clone, PartialEq)]
pub struct DiagonalAffine {
    scale: Vec<f64>,
    shift: Vec<f64>,
}

impl DiagonalAffine {
    /// Builds the map from per-dimension scales and shifts.
    ///
    /// # Panics
    /// Panics if the vectors disagree in length or contain non-finite
    /// values.
    pub fn new(scale: Vec<f64>, shift: Vec<f64>) -> Self {
        assert_eq!(scale.len(), shift.len(), "scale/shift length mismatch");
        assert!(
            scale.iter().chain(&shift).all(|v| v.is_finite()),
            "affine coefficients must be finite"
        );
        DiagonalAffine { scale, shift }
    }

    /// Per-dimension scales.
    pub fn scales(&self) -> &[f64] {
        &self.scale
    }

    /// Per-dimension shifts.
    pub fn shifts(&self) -> &[f64] {
        &self.shift
    }

    /// Number of dimensions the map expects.
    pub fn dims(&self) -> usize {
        self.scale.len()
    }

    /// Maps a point.
    pub fn apply_point(&self, p: &[f64]) -> Vec<f64> {
        debug_assert_eq!(p.len(), self.dims());
        p.iter()
            .enumerate()
            .map(|(d, v)| self.scale[d] * v + self.shift[d])
            .collect()
    }

    /// Maps a rectangle to the rectangle bounding the image of every point
    /// of the input.
    pub fn apply_rect(&self, r: &Rect) -> Rect {
        let mut out = r.clone();
        self.apply_rect_into(r, &mut out);
        out
    }

    /// Is every scale 1 and every shift 0? Such a map moves nothing.
    pub fn is_identity(&self) -> bool {
        self.scale.iter().all(|&s| s == 1.0) && self.shift.iter().all(|&t| t == 0.0)
    }

    /// [`DiagonalAffine::apply_rect`] written into `out`, which must have
    /// the map's dimensionality: the traversals call it once per index
    /// entry, with no allocation and no bounds check (an identity is
    /// `None` there, and not called at all).
    #[inline]
    pub fn apply_rect_into(&self, r: &Rect, out: &mut Rect) {
        debug_assert_eq!(r.dims(), self.dims());
        debug_assert_eq!(out.dims(), self.dims());
        let map = self.scale.iter().zip(&self.shift);
        let corners = r.lo.iter().zip(&r.hi);
        let moved = out.lo.iter_mut().zip(out.hi.iter_mut());
        for (((&s, &t), (&lo, &hi)), (out_lo, out_hi)) in map.zip(corners).zip(moved) {
            let a = s * lo + t;
            let b = s * hi + t;
            // A negative scale swaps the corner ordering.
            *out_lo = a.min(b);
            *out_hi = a.max(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::tests::{next, unit};

    #[test]
    fn affine_maps_point_and_rect_consistently() {
        let t = DiagonalAffine::new(vec![2.0, -1.0], vec![1.0, 0.0]);
        let r = Rect::new(vec![0.0, 0.0], vec![1.0, 1.0]);
        let tr = t.apply_rect(&r);
        // x: [0,1]·2+1 = [1,3]; y: [0,1]·(−1) = [−1,0] (flipped).
        assert_eq!(tr, Rect::new(vec![1.0, -1.0], vec![3.0, 0.0]));
        // Every corner maps inside.
        for p in [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]] {
            assert!(tr.contains_linear(&t.apply_point(&p)));
        }
    }

    #[test]
    fn containment_preserved_under_negative_scale() {
        let t = DiagonalAffine::new(vec![-3.0], vec![5.0]);
        let r = Rect::new(vec![-2.0], vec![4.0]);
        let tr = t.apply_rect(&r);
        for x in [-2.0, -1.0, 0.0, 3.9, 4.0] {
            assert!(tr.contains_linear(&t.apply_point(&[x])));
        }
    }

    #[test]
    fn zero_scale_collapses_but_still_contains() {
        let t = DiagonalAffine::new(vec![0.0], vec![7.0]);
        let r = Rect::new(vec![-10.0], vec![10.0]);
        let tr = t.apply_rect(&r);
        assert_eq!(tr, Rect::point(&[7.0]));
        assert!(tr.contains_linear(&t.apply_point(&[3.0])));
    }

    /// The per-dimension loop `apply_rect_into` replaced, indexing every
    /// slice: the zipped loop must write the same bits.
    fn apply_rect_indexed(t: &DiagonalAffine, r: &Rect, out: &mut Rect) {
        for d in 0..r.dims() {
            let a = t.scale[d] * r.lo[d] + t.shift[d];
            let b = t.scale[d] * r.hi[d] + t.shift[d];
            out.lo[d] = a.min(b);
            out.hi[d] = a.max(b);
        }
    }

    /// `cases` random maps and rectangles of 1–12 dimensions: scales
    /// negative, zero, one and anything, shifts zero or anything.
    fn apply_rect_matches_the_indexed_loop(cases: usize) {
        let mut state = 0x5EED_u64;
        let mut draw = |specials: &[f64]| match next(&mut state) % 4 {
            0 => specials[next(&mut state) as usize % specials.len()],
            1 => (unit(&mut state) - 0.5) * 1e6,
            _ => (unit(&mut state) - 0.5) * 8.0,
        };
        let bits = |r: &Rect| {
            r.lo.iter()
                .chain(&r.hi)
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        for case in 0..cases {
            let dims = 1 + case % 12;
            let scale = (0..dims)
                .map(|_| draw(&[0.0, -0.0, 1.0, -1.0, -2.5, 1e-300]))
                .collect();
            let shift = (0..dims).map(|_| draw(&[0.0, -0.0, 3.0, -1e300])).collect();
            let t = DiagonalAffine::new(scale, shift);
            let lo: Vec<f64> = (0..dims).map(|_| draw(&[0.0, -0.0, 1e300])).collect();
            let hi = lo.iter().map(|v| v + draw(&[0.0]).abs()).collect();
            let r = Rect::new(lo, hi);
            let (mut zipped, mut indexed) = (Rect::point(&[7.0; 12][..dims]), r.clone());
            t.apply_rect_into(&r, &mut zipped);
            apply_rect_indexed(&t, &r, &mut indexed);
            assert_eq!(bits(&zipped), bits(&indexed), "{t:?} on {r}");
        }
    }

    #[test]
    fn apply_rect_into_is_the_indexed_loop_bitwise() {
        apply_rect_matches_the_indexed_loop(20_000);
    }

    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn apply_rect_into_is_the_indexed_loop_bitwise_long() {
        apply_rect_matches_the_indexed_loop(1_000_000);
    }

    #[test]
    fn identity_is_every_scale_one_and_every_shift_zero() {
        assert!(DiagonalAffine::new(vec![1.0; 3], vec![0.0, -0.0, 0.0]).is_identity());
        assert!(DiagonalAffine::new(vec![], vec![]).is_identity());
        assert!(!DiagonalAffine::new(vec![1.0, -1.0], vec![0.0; 2]).is_identity());
        assert!(!DiagonalAffine::new(vec![1.0; 2], vec![0.0, 1e-300]).is_identity());
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_coefficients_rejected() {
        let _ = DiagonalAffine::new(vec![f64::NAN], vec![0.0]);
    }
}
