//! The threads axis of the configuration lattice
//! (`tests/common/lattice.rs`): for every form that fans out (range scans
//! and joins; index descents and kNN run on one thread at any budget) and
//! every thread count, parallel execution answers bitwise what serial
//! execution answers, with the same work: the contract that makes
//! [`Parallelism`] a pure throughput knob. One test per query form, each
//! over a world of its own, so a failure names the form; the cross
//! product with the other axes (at 4 threads) runs in `tests/lattice.rs`.

mod common;

use common::lattice::{world, Config, Kind, World};
use common::{assert_parallel_equivalent, corpus, db_with};
use similarity_queries::prelude::*;

fn at_threads() -> [Config; 3] {
    [2, 3, 8].map(|threads| Config {
        threads,
        ..Config::BASE
    })
}

#[test]
fn range_parallel_equals_serial() {
    world(41, 40, 64).check(&at_threads(), |s| s.kind == Kind::Range);
}

#[test]
fn join_parallel_equals_serial() {
    world(43, 13, 32).check(&at_threads(), |s| s.kind == Kind::Pairs);
}

/// The rectangular representation: the Euclidean kNN path, and the scan
/// fallback for every clause Theorem 2 keeps out of the index.
#[test]
fn rect_scheme_parallel_equals_serial() {
    let scheme = FeatureScheme::new(3, Representation::Rectangular, false);
    World::new(53, 40, 32, scheme).check(&at_threads(), |_| true);
}

/// Non-random regression at a size where every form that fans out splits
/// its rows into non-trivial chunks.
#[test]
fn large_corpus_all_forms_equivalent() {
    let series = corpus(4242, 600, 128);
    let mut db = db_with(&series, FeatureScheme::paper_default());
    for threads in [2, 4, 8] {
        for q in [
            "FIND SIMILAR TO ROW 11 IN r EPSILON 6.0 FORCE SCAN",
            "FIND PAIRS IN r EPSILON 1.0 METHOD b",
            "FIND PAIRS IN r EPSILON 1.0 METHOD d",
        ] {
            assert_parallel_equivalent(&mut db, q, threads);
        }
    }
}
