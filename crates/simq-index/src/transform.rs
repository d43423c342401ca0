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

    /// [`DiagonalAffine::apply_rect`] written into `out`, which must have
    /// the map's dimensionality: the traversals call it once per index
    /// entry, with no allocation.
    #[inline]
    pub fn apply_rect_into(&self, r: &Rect, out: &mut Rect) {
        debug_assert_eq!(r.dims(), self.dims());
        debug_assert_eq!(out.dims(), self.dims());
        for d in 0..r.dims() {
            let a = self.scale[d] * r.lo[d] + self.shift[d];
            let b = self.scale[d] * r.hi[d] + self.shift[d];
            // A negative scale swaps the corner ordering.
            out.lo[d] = a.min(b);
            out.hi[d] = a.max(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_coefficients_rejected() {
        let _ = DiagonalAffine::new(vec![f64::NAN], vec![0.0]);
    }
}
