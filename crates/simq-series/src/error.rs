//! Error types for series operations.

use std::fmt;

/// Errors raised by series transformations and feature extraction.
#[derive(Debug, Clone, PartialEq)]
pub enum SeriesError {
    /// The series is empty where a non-empty one is required.
    EmptySeries,
    /// A moving-average window is invalid for the series length.
    InvalidWindow {
        /// Requested window length.
        window: usize,
        /// Series length.
        len: usize,
    },
    /// A weighted kernel has no weights.
    EmptyKernel,
    /// A warp factor must be at least 1.
    InvalidWarpFactor(usize),
    /// A warp factor must not exceed the series length: the warp
    /// coefficients cost `O(m·n)` to build, so an unbounded `m` would hold
    /// a statement for as long as the caller asks.
    WarpFactorTooLarge {
        /// Requested warp factor.
        m: usize,
        /// Series length.
        len: usize,
    },
    /// The series is constant, so its normal form (division by the standard
    /// deviation) is undefined.
    ZeroVariance,
    /// Feature extraction asked for more coefficients than the series can
    /// provide.
    TooFewSamples {
        /// Coefficients requested.
        k: usize,
        /// Series length.
        len: usize,
    },
    /// Two feature points or transforms disagree on dimensionality.
    DimensionMismatch {
        /// Expected dimension count.
        expected: usize,
        /// Actual dimension count.
        actual: usize,
    },
    /// A transformation is not safe for the requested representation
    /// (Theorems 2 and 3 of the paper).
    UnsafeTransformation(&'static str),
    /// A transformation's constants overflow: its action on the mean, the
    /// standard deviation or a spectrum coefficient is not a finite number.
    NonFiniteTransformation,
    /// A series holds a NaN or infinite sample, or its mean or standard
    /// deviation overflows, so it has no finite normal form.
    NonFiniteSeries,
    /// A row id is already present in the relation (explicit-id inserts on
    /// the persistence restore path).
    DuplicateRowId(u64),
}

impl fmt::Display for SeriesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeriesError::EmptySeries => write!(f, "series must be non-empty"),
            SeriesError::InvalidWindow { window, len } => {
                write!(f, "window {window} invalid for series of length {len}")
            }
            SeriesError::EmptyKernel => write!(f, "moving-average kernel must be non-empty"),
            SeriesError::InvalidWarpFactor(m) => {
                write!(f, "warp factor must be ≥ 1, got {m}")
            }
            SeriesError::WarpFactorTooLarge { m, len } => {
                write!(
                    f,
                    "warp factor {m} exceeds the series length {len} (1 ≤ m ≤ n)"
                )
            }
            SeriesError::ZeroVariance => {
                write!(
                    f,
                    "normal form undefined for constant series (zero variance)"
                )
            }
            SeriesError::TooFewSamples { k, len } => {
                write!(
                    f,
                    "cannot extract {k} coefficients from series of length {len}"
                )
            }
            SeriesError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            SeriesError::UnsafeTransformation(why) => {
                write!(f, "transformation is not safe: {why}")
            }
            SeriesError::NonFiniteTransformation => {
                write!(
                    f,
                    "transformation constants overflow: its action is not finite"
                )
            }
            SeriesError::NonFiniteSeries => write!(
                f,
                "series is not finite: a sample, its mean or its standard deviation is NaN or infinite"
            ),
            SeriesError::DuplicateRowId(id) => {
                write!(f, "row id {id} already exists in the relation")
            }
        }
    }
}

impl std::error::Error for SeriesError {}
