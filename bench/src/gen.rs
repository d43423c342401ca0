//! Bench-side input generation. None of it is ever timed, except
//! [`build_relation`], which is the program's own row-by-row feature
//! extraction.
//!
//! The stored corpora, the thresholds calibrated on them and the *set*
//! of requests a pass makes are fixed ([`CORPUS_SEED`]); `--seed` draws
//! the order the requests arrive in, and so what each one finds in the
//! caches, in the tree and in the log. Seeding the corpus made the
//! *work* differ between seeds by 17–29 % (candidates per query follow
//! the cluster layout), and seeding which rows are asked for still put
//! a 2–10 % sampling spread on the percentiles at the list lengths a
//! run has time to repeat often enough — no amount of repetition
//! averages either away; see NOISE.md.

use simq_data::{MarketConfig, StockMarket, WalkGenerator};
use simq_query::{execute, Database, QueryOutput};
use simq_series::features::FeatureScheme;
use simq_storage::SeriesRelation;

/// Seed of every stored corpus and of the rows ε is calibrated on.
pub const CORPUS_SEED: u64 = 19_950_522;

/// A named raw series, as a client would hand it to the engine.
pub type NamedSeries = (String, Vec<f64>);

/// SplitMix64: the harness's own stream for op lists, independent of
/// the corpus generators' streams.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A stream for `seed`, decorrelated per `purpose` so two op lists
    /// of one run never share draws.
    pub fn new(seed: u64, purpose: u64) -> Self {
        SplitMix64(seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n` (the modulo bias at these sizes is far
    /// below anything a timing could see).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The seed's order for a fixed list of `n` requests: a uniform
/// permutation of `0..n` (Fisher–Yates).
pub fn shuffled(rng: &mut SplitMix64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i + 1));
    }
    order
}

/// Sectors of the clustered corpus: enough that a tight range query
/// sees a populated neighbourhood, few enough that clusters stay dense.
pub const SECTORS: usize = 40;

/// `count` clustered series: the stock-market simulator with
/// [`SECTORS`] sector trends.
pub fn stock_series(seed: u64, count: usize, len: usize) -> Vec<NamedSeries> {
    let config = MarketConfig {
        stocks: count,
        days: len,
        sectors: SECTORS,
        ..MarketConfig::default()
    };
    let market = StockMarket::generate(&config, seed);
    assert_eq!(market.stocks.len(), count, "simulator honours the count");
    market
        .stocks
        .into_iter()
        .map(|s| (s.name, s.prices))
        .collect()
}

/// `count` of the paper's random walks, on which the index prunes poorly.
pub fn walk_series(seed: u64, count: usize, len: usize) -> Vec<NamedSeries> {
    let mut gen = WalkGenerator::new(seed);
    (0..count)
        .map(|i| (format!("W{i:05}"), gen.series(len)))
        .collect()
}

/// Program side: a relation under the paper's 6-d scheme, one feature
/// extraction (normalise + FFT + project) per row.
pub fn build_relation(name: &str, rows: &[NamedSeries], len: usize) -> SeriesRelation {
    let mut rel = SeriesRelation::new(name, len, FeatureScheme::paper_default());
    for (row_name, series) in rows {
        rel.insert(row_name.clone(), series.clone())
            .expect("generated series are non-constant and of the relation's length");
    }
    rel
}

/// The ε at which the median answer set of `FIND SIMILAR … <clause>`
/// holds `k` rows: the median, over `sample` query rows, of the distance
/// to the `k`-th nearest row under the same clause (scan-evaluated, so
/// the calibration does not depend on the index).
pub fn calibrate_eps(db: &Database, relation: &str, clause: &str, sample: &[u64], k: usize) -> f64 {
    let kth: Vec<f64> = sample
        .iter()
        .map(|row| {
            let text = format!("FIND {k} NEAREST TO ROW {row} IN {relation} {clause}FORCE SCAN");
            match execute(db, &text).expect("calibration query runs").output {
                QueryOutput::Hits(hits) => hits.last().expect("k ≥ 1 hits").distance,
                other => panic!("kNN returned {other:?}"),
            }
        })
        .collect();
    crate::stats::median(&kth)
}

/// `n` distinct-ish row ids for calibration and sampling.
pub fn sample_rows(rng: &mut SplitMix64, rows: usize, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.below(rows) as u64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_across_seeds_and_purposes() {
        let draw = |seed, purpose| {
            let mut r = SplitMix64::new(seed, purpose);
            (0..8).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 1), draw(1, 1));
        assert_ne!(draw(1, 1), draw(2, 1));
        assert_ne!(draw(1, 1), draw(1, 2));
    }

    #[test]
    fn shuffle_is_a_permutation_per_seed() {
        let order = |seed| shuffled(&mut SplitMix64::new(seed, 9), 100);
        assert_eq!(order(1), order(1));
        assert_ne!(order(1), order(2));
        let mut sorted = order(1);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert!(shuffled(&mut SplitMix64::new(1, 9), 0).is_empty());
    }

    #[test]
    fn corpora_repeat_per_seed() {
        assert_eq!(stock_series(5, 30, 32), stock_series(5, 30, 32));
        assert_ne!(stock_series(5, 30, 32), stock_series(6, 30, 32));
        assert_eq!(walk_series(5, 30, 32), walk_series(5, 30, 32));
        assert_ne!(walk_series(5, 30, 32), walk_series(6, 30, 32));
    }
}
