//! What the three query workloads share: statements over a relation,
//! the two-kind op list, and the folding of the engine's work counters
//! into the exact per-pass counts and count-ratio layer metrics.

use simq_query::session::{SessionStats, Value};
use simq_query::ExecStats;

use crate::harness::{count, Counts, PRIMARY_ROOT, SECONDARY_ROOT};

/// Which of a workload's two op kinds an op is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The workload's headline op (p50 and p95 reported).
    Primary,
    /// Its companion op (p50 reported).
    Secondary,
}

impl Kind {
    /// Name of the root span of an op of this kind.
    pub fn root(self) -> &'static str {
        match self {
            Kind::Primary => PRIMARY_ROOT,
            Kind::Secondary => SECONDARY_ROOT,
        }
    }
}

/// One entry of a fixed op list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// Primary or secondary.
    pub kind: Kind,
    /// Index into the workload's statement (or payload) list.
    pub item: usize,
}

/// A range-statement shape: everything but the constants.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// The `USING …` clause with a trailing space, or empty.
    pub clause: &'static str,
    /// Trailing strategy override with a leading space, or empty.
    pub suffix: &'static str,
    /// The calibrated threshold.
    pub eps: f64,
}

impl Shape {
    /// The statement with its constants inline, as a client would type it.
    pub fn text(&self, relation: &str, row: u64) -> String {
        format!(
            "FIND SIMILAR TO ROW {row} IN {relation} {}EPSILON {}{}",
            self.clause, self.eps, self.suffix
        )
    }

    /// The statement with placeholders, for `Session::prepare`.
    pub fn template(&self, relation: &str) -> String {
        format!(
            "FIND SIMILAR TO ROW ? IN {relation} {}EPSILON ?{}",
            self.clause, self.suffix
        )
    }

    /// The placeholder values of [`Shape::template`] for `row`.
    pub fn values(&self, row: u64) -> Vec<Value> {
        vec![Value::from(row), Value::from(self.eps)]
    }
}

const KEYS: [[&str; 6]; 2] = [
    [
        "primary.nodes",
        "primary.candidates",
        "primary.filtered",
        "primary.coefficients",
        "primary.rows_scanned",
        "primary.hits",
    ],
    [
        "secondary.nodes",
        "secondary.candidates",
        "secondary.filtered",
        "secondary.coefficients",
        "secondary.rows_scanned",
        "secondary.hits",
    ],
];

/// Folds one execution's work counters into the pass's exact counts.
pub fn fold_exec(counts: &mut Counts, kind: Kind, stats: &ExecStats, hits: usize) {
    let keys = &KEYS[kind as usize];
    count(counts, keys[0], stats.nodes_visited);
    count(counts, keys[1], stats.candidates);
    count(counts, keys[2], stats.filtered_out);
    count(counts, keys[3], stats.coefficients_compared);
    count(counts, keys[4], stats.rows_scanned);
    count(counts, keys[5], hits as u64);
}

/// The `exec.*` count-ratio layer metrics of the primary (index-path)
/// ops of one pass over a relation of `rows` rows.
pub fn exec_ratios(counts: &Counts, ops: u64, rows: u64) -> Vec<(&'static str, f64)> {
    let get = |k: &str| counts.get(k).copied().unwrap_or(0) as f64;
    let [nodes, candidates, filtered, coefficients, scanned, hits] = KEYS[0].map(get);
    let per = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    vec![
        ("exec.nodes_per_op", per(nodes, ops as f64)),
        ("exec.candidates_per_hit", per(candidates, hits)),
        // Rows that reached exact verification, per answer row.
        ("exec.verified_per_hit", per(candidates - filtered, hits)),
        ("exec.filtered_share", per(filtered, candidates)),
        ("exec.coefficients_per_op", per(coefficients, ops as f64)),
        // Must stay ≤ 1 on an index path: an index plan that touches
        // more rows than the scan it replaces is a planner defect.
        (
            "exec.rows_touched_share",
            per(candidates + scanned, (ops * rows) as f64),
        ),
    ]
}

/// `session.plan_cache_hit_share`: hits over lookups of one session.
pub fn plan_cache_hit_share(stats: &SessionStats) -> (&'static str, f64) {
    let lookups = stats.plan_cache_hits + stats.plan_cache_misses;
    (
        "session.plan_cache_hit_share",
        stats.plan_cache_hits as f64 / lookups.max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_and_template_agree_on_shape() {
        let s = Shape {
            clause: "USING mavg(20) ON BOTH ",
            suffix: " FORCE SCAN",
            eps: 0.25,
        };
        assert_eq!(
            s.text("stocks", 7),
            "FIND SIMILAR TO ROW 7 IN stocks USING mavg(20) ON BOTH EPSILON 0.25 FORCE SCAN"
        );
        assert_eq!(
            s.template("stocks"),
            "FIND SIMILAR TO ROW ? IN stocks USING mavg(20) ON BOTH EPSILON ? FORCE SCAN"
        );
        // Both forms parse, and the template has exactly the two slots
        // `values` fills.
        assert_eq!(
            simq_query::parse(&s.text("stocks", 7)).unwrap().relation(),
            "stocks"
        );
        let parsed = simq_query::parse_template(&s.template("stocks")).unwrap();
        assert_eq!(parsed.params.len(), s.values(7).len());
    }

    #[test]
    fn ratios_read_the_primary_counters() {
        let mut c = Counts::new();
        let stats = ExecStats {
            nodes_visited: 40,
            candidates: 100,
            filtered_out: 60,
            coefficients_compared: 900,
            ..ExecStats::default()
        };
        fold_exec(&mut c, Kind::Primary, &stats, 8);
        fold_exec(&mut c, Kind::Primary, &stats, 12);
        fold_exec(&mut c, Kind::Secondary, &stats, 1);
        let r: std::collections::BTreeMap<_, _> = exec_ratios(&c, 2, 1000).into_iter().collect();
        assert_eq!(r["exec.nodes_per_op"], 40.0);
        assert_eq!(r["exec.candidates_per_hit"], 10.0);
        assert_eq!(r["exec.verified_per_hit"], 4.0);
        assert_eq!(r["exec.filtered_share"], 0.6);
        assert_eq!(r["exec.coefficients_per_op"], 900.0);
        assert_eq!(r["exec.rows_touched_share"], 0.1);
    }
}
