//! Shared fixtures for the integration suites: seeded corpus builders,
//! relation/database constructors and query helpers that every test file
//! used to carry its own copy of.
//!
//! Each integration test binary compiles this module independently and
//! uses the subset it needs, hence the file-wide `dead_code` allowance.

#![allow(dead_code)]

pub mod lattice;
pub mod oracle;

use similarity_queries::index::serial;
use similarity_queries::prelude::*;
use similarity_queries::query::{QueryResult, StoredRelation};
use similarity_queries::series::features::SeriesFeatures;

/// Builds a deterministic corpus of random-walk series.
pub fn corpus(seed: u64, rows: usize, len: usize) -> Vec<Vec<f64>> {
    let mut gen = WalkGenerator::new(seed);
    (0..rows).map(|_| gen.series(len)).collect()
}

/// Builds a relation named `name` over a seeded random-walk corpus, under
/// the paper's default 6-d feature scheme.
pub fn walk_relation(name: &str, seed: u64, rows: usize, len: usize) -> SeriesRelation {
    let mut gen = WalkGenerator::new(seed);
    let mut rel = SeriesRelation::new(name, len, FeatureScheme::paper_default());
    for i in 0..rows {
        rel.insert(format!("S{i:04}"), gen.series(len)).unwrap();
    }
    rel
}

/// Builds a relation named `r` from explicit series under an arbitrary
/// feature scheme (rows are named `S0`, `S1`, …).
pub fn relation_with(series: &[Vec<f64>], scheme: FeatureScheme) -> SeriesRelation {
    let mut rel = SeriesRelation::new("r", series[0].len(), scheme);
    for (i, s) in series.iter().enumerate() {
        rel.insert(format!("S{i}"), s.clone()).unwrap();
    }
    rel
}

/// Registers one relation into a fresh database with a bulk-loaded index.
pub fn indexed_db(rel: SeriesRelation) -> Database {
    let mut db = Database::new();
    db.add_relation_indexed(rel);
    db
}

/// [`relation_with`] + [`indexed_db`]: the one-call database builder the
/// property tests use.
pub fn db_with(series: &[Vec<f64>], scheme: FeatureScheme) -> Database {
    indexed_db(relation_with(series, scheme))
}

/// A database named `r` of seeded random walks under an arbitrary scheme,
/// with or without an index (the planner-matrix builder).
pub fn scheme_db(rep: Representation, stats: bool, indexed: bool) -> Database {
    let scheme = FeatureScheme::new(2, rep, stats);
    let mut gen = WalkGenerator::new(1);
    let mut rel = SeriesRelation::new("r", 64, scheme);
    for i in 0..50 {
        rel.insert(format!("S{i}"), gen.series(64)).unwrap();
    }
    let mut d = Database::new();
    if indexed {
        d.add_relation_indexed(rel);
    } else {
        d.add_relation(rel);
    }
    d
}

/// Every query form the engine executes, over a relation `r` (row 0
/// always exists): what the counter, work-sanity and observability suites
/// iterate. `tests/fixtures/exec_stats_golden.txt` records these by text.
pub const QUERY_FORMS: [&str; 10] = [
    "FIND SIMILAR TO ROW 0 IN r EPSILON 3.0",
    "FIND SIMILAR TO ROW 0 IN r EPSILON 25.0",
    "FIND SIMILAR TO ROW 0 IN r USING mavg(5) ON BOTH EPSILON 2.0",
    "FIND SIMILAR TO ROW 0 IN r EPSILON 4.0 MEAN WITHIN 2.0",
    "FIND SIMILAR TO ROW 0 IN r EPSILON 3.0 FORCE SCAN",
    "FIND 5 NEAREST TO ROW 0 IN r",
    "FIND 5 NEAREST TO ROW 0 IN r USING mavg(5) ON BOTH",
    "FIND 5 NEAREST TO ROW 0 IN r FORCE SCAN",
    "FIND PAIRS IN r EPSILON 4.0 METHOD b",
    "FIND PAIRS IN r USING mavg(5) EPSILON 3.0 METHOD d",
];

/// A database over `series` under the paper's default scheme, on `shards`
/// shards (1 = unsharded) at `threads` threads.
pub fn db_over(series: &[Vec<f64>], shards: usize, threads: usize) -> Database {
    let mut db = sharded_db(
        relation_with(series, FeatureScheme::paper_default()),
        shards,
    );
    db.set_parallelism(Parallelism::Fixed(threads));
    db
}

/// Registers `rel` with a bulk-loaded index per shard (1 = unsharded).
pub fn sharded_db(rel: SeriesRelation, shards: usize) -> Database {
    let mut db = Database::new();
    if shards > 1 {
        db.add_relation_sharded(rel, shards);
    } else {
        db.add_relation_indexed(rel);
    }
    db
}

/// Executes `q` and returns the hit ids (panics on non-hit output).
pub fn hit_ids(db: &Database, q: &str) -> Vec<u64> {
    let result = execute(db, q).unwrap();
    match result.output {
        QueryOutput::Hits(h) => h.into_iter().map(|x| x.id).collect(),
        other => panic!("expected hits, got {other:?}"),
    }
}

/// Executes `q` and returns the chosen access path.
pub fn access(db: &Database, q: &str) -> AccessPath {
    execute(db, q).unwrap().plan.access
}

/// Asserts two query results carry identical outputs — same ids/names in
/// the same order, with bitwise-equal distances (the equivalence contract
/// of the parallel, persistence and batch subsystems).
pub fn assert_outputs_bitwise_equal(a: &QueryResult, b: &QueryResult, what: &str) {
    assert_output_values_bitwise_equal(&a.output, &b.output, what);
}

/// The output-level body of [`assert_outputs_bitwise_equal`]; recursive so
/// `EXPLAIN ANALYZE` wrappers compare by their inner output.
pub fn assert_output_values_bitwise_equal(a: &QueryOutput, b: &QueryOutput, what: &str) {
    match (a, b) {
        (QueryOutput::Hits(x), QueryOutput::Hits(y)) => {
            assert_eq!(x.len(), y.len(), "{what}");
            for (h, g) in x.iter().zip(y) {
                assert_eq!(h.id, g.id, "{what}");
                assert_eq!(h.name, g.name, "{what}");
                assert_eq!(
                    h.distance.to_bits(),
                    g.distance.to_bits(),
                    "{what}: {} vs {}",
                    h.distance,
                    g.distance
                );
            }
        }
        (QueryOutput::Pairs(x), QueryOutput::Pairs(y)) => {
            assert_eq!(x.len(), y.len(), "{what}");
            for (h, g) in x.iter().zip(y) {
                assert_eq!((h.a, h.b), (g.a, g.b), "{what}");
                assert_eq!(h.distance.to_bits(), g.distance.to_bits(), "{what}");
            }
        }
        (QueryOutput::Plan(x), QueryOutput::Plan(y)) => assert_eq!(x, y, "{what}"),
        // EXPLAIN ANALYZE reports carry wall-clock timings and so are never
        // bitwise comparable; the *inner* outputs must be.
        (QueryOutput::Analyzed { output: x, .. }, QueryOutput::Analyzed { output: y, .. }) => {
            assert_output_values_bitwise_equal(x, y, what);
        }
        other => panic!("mismatched outputs for {what}: {other:?}"),
    }
}

/// Asserts two stores hold the same rows in the same order — id, name,
/// raw series, statistics, index point and spectrum — bit for bit.
pub fn assert_stores_bitwise_equal(got: &SeriesRelation, want: &SeriesRelation, what: &str) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(got.name(), want.name(), "{what}");
    assert_eq!(got.series_len(), want.series_len(), "{what}");
    assert_eq!(got.scheme(), want.scheme(), "{what}");
    assert_eq!(got.len(), want.len(), "{what}: row count");
    for (a, b) in got.rows().zip(want.rows()) {
        let what = format!("{what}: row {}", b.id);
        assert_eq!((a.id, &a.name), (b.id, &b.name), "{what}");
        assert_eq!(bits(&a.raw), bits(&b.raw), "{what}: raw");
        let (fa, fb) = (&a.features, &b.features);
        assert_eq!(fa.mean.to_bits(), fb.mean.to_bits(), "{what}: mean");
        assert_eq!(fa.std_dev.to_bits(), fb.std_dev.to_bits(), "{what}: std");
        assert_eq!(bits(&fa.point), bits(&fb.point), "{what}: point");
        let spectrum = |f: &SeriesFeatures| {
            f.spectrum
                .iter()
                .flat_map(|c| [c.re.to_bits(), c.im.to_bits()])
                .collect::<Vec<_>>()
        };
        assert_eq!(spectrum(fa), spectrum(fb), "{what}: spectrum");
    }
}

/// Asserts two databases hold the same relations in the same shapes, with
/// bitwise-equal rows ([`assert_stores_bitwise_equal`]) and byte-equal
/// serialized trees.
pub fn assert_same_database(got: &Database, want: &Database, what: &str) {
    assert_eq!(got.relation_names(), want.relation_names(), "{what}");
    for name in want.relation_names() {
        let (g, w) = (got.relation(name).unwrap(), want.relation(name).unwrap());
        let what = format!("{what}: relation {name}");
        assert_eq!(g.shard_count(), w.shard_count(), "{what}: shards");
        for (a, b) in g.stores().iter().zip(w.stores()) {
            assert_stores_bitwise_equal(a, b, &what);
        }
        let trees = |s: &StoredRelation| s.trees().iter().map(serial::to_bytes).collect::<Vec<_>>();
        assert_eq!(trees(g), trees(w), "{what}: trees");
    }
}

/// Runs `query` serially and at `threads` workers, asserting identical
/// outputs and a sane reported fan-out.
pub fn assert_parallel_equivalent(db: &mut Database, query: &str, threads: usize) {
    db.set_parallelism(Parallelism::Serial);
    let serial = execute(db, query).unwrap();
    db.set_parallelism(Parallelism::Fixed(threads));
    let parallel = execute(db, query).unwrap();
    // threads_used reports the actual fan-out: 1 for index descents and
    // kNN, and possibly below the budget for a scan with few rows.
    assert!(
        (1..=threads as u64).contains(&parallel.stats.threads_used),
        "{query}: threads_used {}",
        parallel.stats.threads_used
    );
    assert_outputs_bitwise_equal(&serial, &parallel, &format!("{query} (threads {threads})"));
}
