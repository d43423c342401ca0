//! ROADMAP item 9's comparison, re-runnable: what a 10-NN query costs by
//! the plan the planner picks (the ranked descent over the index) and by
//! `FORCE SCAN` (the same ranked descent over a flat source of the rows:
//! every row ranked by its signature bound, refined in bound order), on
//! corpora the index separates badly (random walks) and well (clustered
//! stocks).
//!
//! Protocol: `FIND 10 NEAREST TO ROW q IN r` as text through `execute`,
//! serial, 100 query rows spread evenly over the relation; per query the
//! minimum of 15 warm repeats, the two plans alternating; unpinned. The
//! two plans' answers are compared bitwise on every query.
//!
//! ```sh
//! cargo run --release --example knn_access_paths
//! ```

use similarity_queries::data::MarketConfig;
use similarity_queries::prelude::*;
use std::time::Instant;

/// Seed and sector count of the repo benchmark's corpora (`bench/src/gen.rs`).
const CORPUS_SEED: u64 = 19_950_522;
const SECTORS: usize = 40;
const LEN: usize = 128;
const QUERIES: usize = 100;
const REPEATS: usize = 15;

fn walks(rows: usize) -> Vec<Vec<f64>> {
    let mut gen = WalkGenerator::new(CORPUS_SEED);
    (0..rows).map(|_| gen.series(LEN)).collect()
}

fn stocks(rows: usize) -> Vec<Vec<f64>> {
    let config = MarketConfig {
        stocks: rows,
        days: LEN,
        sectors: SECTORS,
        ..MarketConfig::default()
    };
    let market = StockMarket::generate(&config, CORPUS_SEED);
    market.stocks.into_iter().map(|s| s.prices).collect()
}

fn hits(result: &QueryResult) -> Vec<(u64, u64)> {
    match &result.output {
        QueryOutput::Hits(hits) => hits.iter().map(|h| (h.id, h.distance.to_bits())).collect(),
        other => panic!("kNN returned {other:?}"),
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn p95(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() * 95).div_ceil(100) - 1]
}

fn measure(corpus: &str, series: Vec<Vec<f64>>) {
    let rows = series.len();
    let mut relation = SeriesRelation::new("r", LEN, FeatureScheme::paper_default());
    for (i, s) in series.into_iter().enumerate() {
        relation
            .insert(format!("S{i:05}"), s)
            .expect("valid series");
    }
    let mut db = Database::new();
    db.add_relation_indexed(relation);
    db.set_parallelism(Parallelism::Serial);

    let (mut planned_us, mut scan_us, mut ranked) = (Vec::new(), Vec::new(), Vec::new());
    let mut planned_wins = 0;
    for q in 0..QUERIES {
        let planned = format!("FIND 10 NEAREST TO ROW {} IN r", q * rows / QUERIES);
        let scan = format!("{planned} FORCE SCAN");
        let mut best = [f64::INFINITY; 2];
        for _ in 0..REPEATS {
            for (slot, text) in [&planned, &scan].into_iter().enumerate() {
                let started = Instant::now();
                let result = execute(&db, text).expect("query runs");
                best[slot] = best[slot].min(started.elapsed().as_secs_f64() * 1e6);
                std::hint::black_box(result);
            }
        }
        let via_plan = execute(&db, &planned).expect("query runs");
        let via_scan = execute(&db, &scan).expect("query runs");
        assert_eq!(via_plan.plan.access, AccessPath::IndexScan);
        assert_eq!(hits(&via_plan), hits(&via_scan), "{planned}");
        ranked.push(via_plan.stats.candidates as f64 / rows as f64);
        planned_wins += usize::from(best[0] < best[1]);
        planned_us.push(best[0]);
        scan_us.push(best[1]);
    }
    println!(
        "| {corpus} | {:.1} | {:.1} | {:.1} | {:.1} | {planned_wins} / {QUERIES} | {:.3} |",
        mean(&planned_us),
        p95(&planned_us),
        mean(&scan_us),
        p95(&scan_us),
        mean(&ranked),
    );
}

fn main() {
    println!("| corpus | planned (index) mean µs/q | p95 | FORCE SCAN mean µs/q | p95 | planned wins | mean ranked share |");
    println!("|---|---|---|---|---|---|---|");
    measure("2000 walks × 128", walks(2000));
    measure("8000 walks × 128", walks(8000));
    measure("2000 clustered stocks × 128", stocks(2000));
    measure("8000 clustered stocks × 128", stocks(8000));
}
