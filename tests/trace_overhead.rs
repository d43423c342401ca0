//! The near-zero-cost-when-off guard for span tracing.
//!
//! Instrumented call sites stay in release builds, so the disabled path
//! (`span::span` returning an inert guard after one relaxed atomic load
//! and one thread-local read) must be negligible against real query
//! work. This test pins that as a ratio rather than an absolute time —
//! robust across debug/release builds and noisy CI machines:
//!
//! * measure the per-call cost of a disabled span over a large batch,
//! * measure the median time of a representative query,
//! * assert a *generous* per-query span budget (far above what the
//!   executor actually opens) still costs < 2% of the query.
//!
//! Medians over repeated trials keep scheduler noise out; the span
//! measurement is the cheap side of the inequality, so noise there only
//! makes the test stricter.

mod common;

use common::{corpus, relation_with};
use similarity_queries::obs::span;
use similarity_queries::prelude::*;
use std::time::Instant;

/// Spans the executor actually opens per query, with headroom: a range
/// query opens 3 (plan, descend, merge), kNN 6, a join 2. Cursor pulls
/// open one span each, but every pull also resumes the descent, so the
/// per-query ratio bounds that case too.
const SPAN_BUDGET_PER_QUERY: u64 = 8;

/// Median of `trials` runs of `f`, in nanoseconds.
fn median_ns<T>(trials: usize, mut f: impl FnMut() -> T) -> u64 {
    std::hint::black_box(f()); // warm-up
    let mut times: Vec<u64> = (0..trials)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2]
}

#[test]
fn disabled_spans_cost_under_two_percent_of_query_time() {
    span::set_tracing(false);
    let _ = span::take_records();

    // The cheap side: per-call cost of a span that records nothing.
    const CALLS: u64 = 100_000;
    let batch_ns = median_ns(5, || {
        for i in 0..CALLS {
            let guard = span::span("overhead.probe");
            guard.note("i", i);
        }
    });
    let per_call_ns = batch_ns as f64 / CALLS as f64;

    // The work side: a representative indexed range query.
    let series = corpus(23, 200, 64);
    let rel = relation_with(&series, FeatureScheme::paper_default());
    let mut db = Database::new();
    db.add_relation_indexed(rel);
    let query_ns = median_ns(15, || {
        execute(&db, "FIND SIMILAR TO ROW 0 IN r EPSILON 3.0").unwrap()
    });

    let budget_ns = per_call_ns * SPAN_BUDGET_PER_QUERY as f64;
    let ratio = budget_ns / query_ns as f64;
    assert!(
        ratio < 0.02,
        "disabled-span overhead {budget_ns:.1}ns ({SPAN_BUDGET_PER_QUERY} spans × \
         {per_call_ns:.2}ns/call) is {:.3}% of the {query_ns}ns query — tracing is no \
         longer near-zero cost when off",
        ratio * 100.0
    );

    // And the off path must collect nothing at all.
    assert!(
        span::take_records().is_empty(),
        "disabled spans recorded data"
    );
}
