//! # simq-series — the time-series instantiation of the similarity model
//!
//! Domain operations and feature-space machinery for time series, as used
//! by the published instantiation of the framework:
//!
//! * [`normal`] — normal form (Equation 9), shift, scale.
//! * [`mavg`] — circular (weighted) moving averages and their closed-form
//!   frequency coefficients (Equation 11).
//! * [`reverse`](mod@reverse) — series reversal `T_rev = (−1, 0)` (Example 2.2).
//! * [`warp`](mod@warp) — time warping and its coefficient vector (Appendix A,
//!   Equation 19).
//! * [`features`] — mapping series to indexable feature points (`S_rect`
//!   and `S_pol`), search rectangles (Figure 7), and feature distances.
//! * [`mindist`] — lower bounds on spectral distance from index
//!   rectangles (annular-sector MINDIST for the polar representation).
//! * [`kernel`] — the chunked flat-slice distance kernel shared by the
//!   executors and scan baselines (bitwise identical to the scalar
//!   reference loops, early abandoning hoisted to chunk granularity).
//! * [`transform`] — series transformations, their lowering to safe
//!   feature-space transformations (Theorems 2 and 3), and the safety
//!   checks that reject the unsafe cases.
//! * [`error`] — error types.

#![warn(missing_docs)]

pub mod error;
pub mod features;
pub mod kernel;
pub mod mavg;
pub mod mindist;
pub mod normal;
pub mod reverse;
pub mod transform;
pub mod warp;

pub use error::SeriesError;
pub use features::{FeaturePoint, FeatureScheme, Representation};
pub use kernel::{distance_outcome, euclidean_sq_flat, DistOutcome};
pub use mavg::{moving_average, plain_moving_average, weighted_moving_average};
pub use mindist::{sector_distance, spectral_mindist, SpectralMindist};
pub use normal::{mean, normal_form, normalize, std_dev, NormalForm};
pub use reverse::reverse;
pub use transform::SeriesTransform;
pub use warp::{warp, warp_coefficients};
