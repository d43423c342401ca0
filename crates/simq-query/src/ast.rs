//! Abstract syntax of the query language.
//!
//! The language covers the three query forms of the framework — range,
//! all-pairs and k-nearest-neighbour — each optionally under a chain of
//! transformations:
//!
//! ```text
//! FIND SIMILAR TO [36, 38, 40, …] IN stocks USING mavg(3) EPSILON 0.5
//! FIND SIMILAR TO ROW 7 IN stocks USING reverse THEN mavg(20) ON BOTH EPSILON 3
//! FIND 5 NEAREST TO NAME S0042 IN stocks USING normalize
//! FIND PAIRS IN stocks USING mavg(20) EPSILON 2.5 METHOD d
//! EXPLAIN FIND SIMILAR TO ROW 0 IN stocks EPSILON 1
//! ```

use simq_series::transform::SeriesTransform;

/// GK95-style window on the statistics dimensions: restrict matches to
/// rows whose (transformed) mean / standard deviation lie within the given
/// tolerances of the query's. The paper stores mean and σ as two index
/// dimensions precisely so that "simple shifts and scales" (GK95) coexist
/// with general transformations on one index.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StatsWindow {
    /// `MEAN WITHIN x` — tolerance on the mean dimension.
    pub mean: Option<f64>,
    /// `STD WITHIN y` — tolerance on the standard-deviation dimension.
    pub std_dev: Option<f64>,
}

impl StatsWindow {
    /// True when no constraint is set.
    pub fn is_empty(&self) -> bool {
        self.mean.is_none() && self.std_dev.is_none()
    }
}

/// Where the query series comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySource {
    /// An inline literal `[v1, v2, …]`.
    Literal(Vec<f64>),
    /// A stored row referenced by id: `ROW 7`.
    RowId(u64),
    /// A stored row referenced by its name attribute: `NAME S0042`.
    RowName(String),
}

/// Execution-strategy override.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Planner decides (index when available and safe).
    #[default]
    Auto,
    /// `FORCE SCAN` — sequential scan with early abandoning.
    ForceScan,
    /// `FORCE INDEX` — fail if no safe index plan exists.
    ForceIndex,
}

/// The paper's four all-pairs evaluation methods (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinMethod {
    /// Naive nested-loop scan, full distances.
    A,
    /// Nested-loop scan with early abandoning.
    B,
    /// Index probe join ignoring the transformation.
    C,
    /// Index probe join with the transformation (the default — the only
    /// method that answers the stated query).
    #[default]
    D,
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Range query: all rows within `eps` of the (transformed) query.
    Range {
        /// The query series.
        source: QuerySource,
        /// Relation name.
        relation: String,
        /// Transformation applied to stored series.
        transform: SeriesTransform,
        /// Whether the transformation is also applied to the query series
        /// (`ON BOTH`).
        on_both: bool,
        /// Distance threshold.
        eps: f64,
        /// Optional GK95 window on the statistics dimensions.
        stats_window: StatsWindow,
        /// Strategy override.
        strategy: Strategy,
    },
    /// k-nearest-neighbour query.
    Knn {
        /// Number of neighbours.
        k: usize,
        /// The query series.
        source: QuerySource,
        /// Relation name.
        relation: String,
        /// Transformation applied to stored series.
        transform: SeriesTransform,
        /// Whether the transformation is also applied to the query series.
        on_both: bool,
        /// Strategy override.
        strategy: Strategy,
    },
    /// All-pairs query (similarity self-join) between `L(r)` and `R(r)`.
    ///
    /// `USING t` sets both sides to `t` (the paper's Table 1 experiment);
    /// `USING t ON ONE` sets `left` to the identity (the `r ⋈ T_rev(r)`
    /// hedging join of Example 2.2); `MATCHING t1 AGAINST t2` sets them
    /// independently (Example 2.2 in full: `mavg(20)` against
    /// `reverse THEN mavg(20)`). A pair qualifies when either orientation
    /// is within ε; the smaller distance is reported.
    AllPairs {
        /// Relation name.
        relation: String,
        /// Transformation applied to the left side of each pair.
        left: SeriesTransform,
        /// Transformation applied to the right side of each pair.
        right: SeriesTransform,
        /// Distance threshold.
        eps: f64,
        /// Evaluation method.
        method: JoinMethod,
    },
    /// `EXPLAIN <query>` — plan without executing.
    Explain(Box<Query>),
    /// `EXPLAIN ANALYZE <query>` — execute instrumented and report the
    /// operator tree with wall times and work counters alongside the
    /// (bitwise-identical) results.
    ExplainAnalyze(Box<Query>),
}

impl Query {
    /// The relation a query targets.
    pub fn relation(&self) -> &str {
        match self {
            Query::Range { relation, .. }
            | Query::Knn { relation, .. }
            | Query::AllPairs { relation, .. } => relation,
            Query::Explain(inner) | Query::ExplainAnalyze(inner) => inner.relation(),
        }
    }
}

// ---------------------------------------------------------------------------
// Placeholders (prepared statements)
// ---------------------------------------------------------------------------

/// A reference to a statement parameter: `?` (positional, numbered in
/// lexical order of appearance) or `$name` (named).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum ParamRef {
    /// `?` — the n-th positional placeholder (0-based, lexical order).
    Positional(usize),
    /// `$name` — a named placeholder.
    Named(String),
}

impl std::fmt::Display for ParamRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamRef::Positional(i) => write!(f, "?{}", i + 1),
            ParamRef::Named(n) => write!(f, "${n}"),
        }
    }
}

/// The type a parameter slot expects at bind time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParamType {
    /// Any finite number (`EPSILON`, `MEAN WITHIN`, `STD WITHIN`).
    Number,
    /// A non-negative integer (`k`, `ROW <id>`).
    Integer,
    /// A whole query series (`Vec<f64>` — the source slot).
    Series,
}

impl std::fmt::Display for ParamType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamType::Number => write!(f, "number"),
            ParamType::Integer => write!(f, "integer"),
            ParamType::Series => write!(f, "series"),
        }
    }
}

/// Integer slots (`k`, `ROW <id>`) take whole numbers below 2⁵³: from
/// there on f64 — the lexer's numbers and [`Value::Number`]'s payload —
/// merges neighbouring integers, so a larger value would silently name a
/// different row.
///
/// [`Value::Number`]: crate::session::Value::Number
pub(crate) const INTEGER_LIMIT: f64 = (1u64 << 53) as f64;

/// The field of a [`Query`] a placeholder fills. `Display` names it the
/// way signatures and error messages do (`"EPSILON"`, `"k"`, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotField {
    /// `FIND <k> NEAREST`.
    K,
    /// `ROW <id>`.
    RowId,
    /// The query series (a placeholder in source position).
    Series,
    /// `EPSILON <e>`.
    Epsilon,
    /// `MEAN WITHIN <m>`.
    MeanWithin,
    /// `STD WITHIN <s>`.
    StdWithin,
}

impl SlotField {
    /// The type of value the field takes.
    pub(crate) fn ty(self) -> ParamType {
        match self {
            SlotField::K | SlotField::RowId => ParamType::Integer,
            SlotField::Series => ParamType::Series,
            SlotField::Epsilon | SlotField::MeanWithin | SlotField::StdWithin => ParamType::Number,
        }
    }

    pub(crate) fn as_str(self) -> &'static str {
        match self {
            SlotField::K => "k",
            SlotField::RowId => "ROW id",
            SlotField::Series => "query series",
            SlotField::Epsilon => "EPSILON",
            SlotField::MeanWithin => "MEAN WITHIN",
            SlotField::StdWithin => "STD WITHIN",
        }
    }
}

impl std::fmt::Display for SlotField {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One appearance of a placeholder in a statement, in lexical order —
/// the raw material of a prepared statement's signature. The field it
/// fills holds a dummy constant until a binding writes the value there.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamOccurrence {
    /// Which parameter.
    pub reference: ParamRef,
    /// The field the placeholder fills.
    pub field: SlotField,
    /// Byte offset of the placeholder in the statement text.
    pub offset: usize,
}
