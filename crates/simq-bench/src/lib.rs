//! # simq-bench — shared fixtures for the paper reproduction
//!
//! Corpus builders and measurement helpers used by the `repro` binary
//! that prints every figure and table of the paper's evaluation
//! (Section 5). Engine performance is measured elsewhere, by the `bench/`
//! package that `BENCHMARK.json` declares.
//!
//! All fixtures are seeded and deterministic; building the same experiment
//! twice produces identical corpora, queries and answer sets.

#![warn(missing_docs)]

use simq_data::{StockMarket, WalkGenerator};
use simq_query::Database;
use simq_series::features::FeatureScheme;
use simq_storage::SeriesRelation;
use std::time::{Duration, Instant};

/// Default seed for every experiment corpus.
pub const SEED: u64 = 19970513; // the paper's SIGMOD'97 presentation month

/// Builds a relation of `rows` random-walk series of length `len` under
/// the paper's 6-d feature scheme.
pub fn walk_relation(name: &str, rows: usize, len: usize) -> SeriesRelation {
    let mut gen = WalkGenerator::new(SEED ^ (rows as u64) ^ ((len as u64) << 20));
    let mut rel = SeriesRelation::new(name, len, FeatureScheme::paper_default());
    let mut i = 0usize;
    while rel.len() < rows {
        let series = gen.series(len);
        // Random walks are non-constant with overwhelming probability; skip
        // the pathological case rather than fail.
        if rel.insert(format!("W{i:05}"), series).is_ok() {
            i += 1;
        }
    }
    rel
}

/// Builds the paper-sized simulated stock relation (1,067 × 128 by
/// default; smaller under `repro quick`).
pub fn stock_relation(name: &str, stocks: usize, days: usize) -> SeriesRelation {
    let market = StockMarket::generate(
        &simq_data::MarketConfig {
            stocks,
            days,
            ..Default::default()
        },
        SEED,
    );
    let mut rel = SeriesRelation::new(name, days, FeatureScheme::paper_default());
    for s in &market.stocks {
        rel.insert(s.name.clone(), s.prices.clone())
            .expect("simulated stocks are non-constant");
    }
    rel
}

/// Registers a relation into a fresh database with an index.
pub fn indexed_db(rel: SeriesRelation) -> Database {
    let mut db = Database::new();
    db.add_relation_indexed(rel);
    db
}

/// Measures the mean wall-clock time of `f` over `iters` runs after one
/// warm-up run, returning (mean, per-run results of the last run).
pub fn time_mean<T>(iters: usize, mut f: impl FnMut() -> T) -> (Duration, T) {
    let mut last = f(); // warm-up
    let start = Instant::now();
    for _ in 0..iters {
        last = f();
    }
    (start.elapsed() / iters as u32, last)
}

/// Formats a duration in fractional milliseconds.
pub fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Prints a table row with fixed-width columns.
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>14}")).collect();
    println!("{}", line.join(" "));
}

/// Prints a table header with fixed-width columns.
pub fn header(cells: &[&str]) {
    row(&cells.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    println!("{}", "-".repeat(15 * cells.len()));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a = walk_relation("a", 20, 64);
        let b = walk_relation("a", 20, 64);
        for (x, y) in a.rows().zip(b.rows()) {
            assert_eq!(x.raw, y.raw);
        }
        let s1 = stock_relation("s", 30, 64);
        let s2 = stock_relation("s", 30, 64);
        assert_eq!(s1.row(7).unwrap().raw, s2.row(7).unwrap().raw);
    }

    #[test]
    fn walk_relation_hits_requested_size() {
        let rel = walk_relation("r", 37, 64);
        assert_eq!(rel.len(), 37);
        assert_eq!(rel.series_len(), 64);
    }

    #[test]
    fn timer_runs_function() {
        let (d, v) = time_mean(3, || 21 * 2);
        assert_eq!(v, 42);
        assert!(d.as_nanos() < 1_000_000_000);
    }
}
