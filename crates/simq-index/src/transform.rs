//! Spatial transformations applied during index traversal.
//!
//! Algorithm 1 of the paper constructs, for a safe transformation `T`, an
//! index `I'` on `T(D)` whose node rectangles are `T(MBR_i)` — *on the fly*,
//! without materializing anything. The traversal therefore only needs a way
//! to map points and rectangles through `T`. The proofs of Theorems 1–3
//! show every safe transformation acts as an independent affine map per
//! dimension (`T' = (c, d)` with real vectors `c`, `d`), which is exactly
//! [`DiagonalAffine`].

use crate::geom::Rect;

/// A transformation of the feature space usable during index traversal.
///
/// Implementations must preserve the containment direction
/// `x ∈ R ⇒ apply_point(x) ∈ apply_rect(R)` — the property that makes
/// transformed search return a superset of the true answer (Lemma 1).
///
/// `Send + Sync` lets a paused [`crate::RangeStream`] carry its
/// transformation to another thread; implementations are plain data, so
/// this costs nothing.
pub trait SpatialTransform: Send + Sync {
    /// Number of dimensions the transform expects.
    fn dims(&self) -> usize;

    /// Maps a point.
    fn apply_point(&self, p: &[f64]) -> Vec<f64>;

    /// Maps a rectangle to a rectangle bounding the image of every point of
    /// the input.
    fn apply_rect(&self, r: &Rect) -> Rect;

    /// Allocation-free variant of [`SpatialTransform::apply_rect`] writing
    /// into `out` (which must have the right dimensionality). Hot-path
    /// traversals call this once per index entry.
    fn apply_rect_into(&self, r: &Rect, out: &mut Rect) {
        *out = self.apply_rect(r);
    }
}

/// The identity transformation `T_i = (I, 0)` (used by the paper's
/// experiments to isolate transformation overhead).
#[derive(Debug, Clone, Copy)]
pub struct IdentityTransform {
    dims: usize,
}

impl IdentityTransform {
    /// Identity over a `dims`-dimensional space.
    pub fn new(dims: usize) -> Self {
        IdentityTransform { dims }
    }
}

impl SpatialTransform for IdentityTransform {
    fn dims(&self) -> usize {
        self.dims
    }

    fn apply_point(&self, p: &[f64]) -> Vec<f64> {
        p.to_vec()
    }

    fn apply_rect(&self, r: &Rect) -> Rect {
        r.clone()
    }

    fn apply_rect_into(&self, r: &Rect, out: &mut Rect) {
        out.lo.copy_from_slice(&r.lo);
        out.hi.copy_from_slice(&r.hi);
    }
}

/// A per-dimension affine map `x_d ↦ scale_d · x_d + shift_d`.
///
/// This is the `T' = (c, d)` of the paper's safety proofs: every safe
/// transformation — real stretch + complex shift in `S_rect` (Theorem 2),
/// complex multiplier in `S_pol` (Theorem 3) — reduces to this form.
/// Negative scales flip the interval (the paper drops the positive-scale
/// restriction of GK95 precisely to allow them); zero scales collapse it.
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

    /// Pure translation.
    pub fn translation(shift: Vec<f64>) -> Self {
        let scale = vec![1.0; shift.len()];
        Self::new(scale, shift)
    }

    /// Pure (per-dimension) scaling.
    pub fn scaling(scale: Vec<f64>) -> Self {
        let shift = vec![0.0; scale.len()];
        Self::new(scale, shift)
    }

    /// Per-dimension scales.
    pub fn scales(&self) -> &[f64] {
        &self.scale
    }

    /// Per-dimension shifts.
    pub fn shifts(&self) -> &[f64] {
        &self.shift
    }

    /// Composition `self ∘ other` (apply `other` first).
    pub fn compose(&self, other: &DiagonalAffine) -> DiagonalAffine {
        assert_eq!(self.scale.len(), other.scale.len());
        let scale = self
            .scale
            .iter()
            .zip(&other.scale)
            .map(|(a, b)| a * b)
            .collect();
        let shift = self
            .scale
            .iter()
            .zip(&other.shift)
            .zip(&self.shift)
            .map(|((a, b), c)| a * b + c)
            .collect();
        DiagonalAffine { scale, shift }
    }
}

impl SpatialTransform for DiagonalAffine {
    fn dims(&self) -> usize {
        self.scale.len()
    }

    fn apply_point(&self, p: &[f64]) -> Vec<f64> {
        debug_assert_eq!(p.len(), self.dims());
        p.iter()
            .enumerate()
            .map(|(d, v)| self.scale[d] * v + self.shift[d])
            .collect()
    }

    fn apply_rect(&self, r: &Rect) -> Rect {
        debug_assert_eq!(r.dims(), self.dims());
        let mut lo = Vec::with_capacity(r.dims());
        let mut hi = Vec::with_capacity(r.dims());
        for d in 0..r.dims() {
            let a = self.scale[d] * r.lo[d] + self.shift[d];
            let b = self.scale[d] * r.hi[d] + self.shift[d];
            // A negative scale swaps the corner ordering.
            lo.push(a.min(b));
            hi.push(a.max(b));
        }
        Rect::new(lo, hi)
    }

    fn apply_rect_into(&self, r: &Rect, out: &mut Rect) {
        debug_assert_eq!(r.dims(), self.dims());
        debug_assert_eq!(out.dims(), self.dims());
        for d in 0..r.dims() {
            let a = self.scale[d] * r.lo[d] + self.shift[d];
            let b = self.scale[d] * r.hi[d] + self.shift[d];
            out.lo[d] = a.min(b);
            out.hi[d] = a.max(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_noop() {
        let t = IdentityTransform::new(2);
        let r = Rect::new(vec![0.0, 1.0], vec![2.0, 3.0]);
        assert_eq!(t.apply_rect(&r), r);
        assert_eq!(t.apply_point(&[1.0, 2.0]), vec![1.0, 2.0]);
    }

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
    fn composition_matches_sequential_application() {
        let f = DiagonalAffine::new(vec![2.0, 1.0], vec![1.0, -1.0]);
        let g = DiagonalAffine::new(vec![-1.0, 3.0], vec![0.5, 2.0]);
        let fg = f.compose(&g);
        let p = [1.5, -2.0];
        let seq = f.apply_point(&g.apply_point(&p));
        let one = fg.apply_point(&p);
        for (a, b) in seq.iter().zip(&one) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn non_finite_coefficients_rejected() {
        let _ = DiagonalAffine::new(vec![f64::NAN], vec![0.0]);
    }
}
