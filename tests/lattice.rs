//! The whole configuration lattice (`tests/common/lattice.rs`): every
//! point — threads × shards × WAL × front end × storage — answers every
//! statement of the corpus bitwise like the base point, which building
//! each world has already held to the tier-free paths and the time-domain
//! oracle (`World::new` does, or panics). The per-axis suites
//! (`parallel_equivalence`, `shard_equivalence`, …) sweep one axis each,
//! over worlds of their own, so a failure there names the axis; this is
//! the cross product.

mod common;

use common::lattice::{world, Config};

/// `(seed, rows, length)` of the default run: one relation whose trees
/// have inner nodes, and two whose four shards hold two or three rows —
/// one of them too short (`n < 2·SIG_COEFFS`) for the signature bound to
/// mirror.
const WORLDS: [(u64, usize, usize); 3] = [(20260927, 60, 64), (7, 9, 32), (8, 11, 12)];

/// No false dismissals, and the right answer: at the base point every
/// planned-index statement equals its tier-free twin bitwise, every kNN
/// equals `scan::scan_knn`, and every answer is the time-domain
/// definition's within the oracle's margin.
#[test]
fn base_point_equals_the_tier_free_paths_and_the_time_domain_oracle() {
    for (seed, rows, len) in WORLDS {
        world(seed, rows, len);
    }
}

#[test]
fn every_lattice_point_answers_like_the_base_point() {
    for (seed, rows, len) in WORLDS {
        world(seed, rows, len).check(&Config::all(), |_| true);
    }
}

/// More seeds and rows, and series lengths on both sides of the
/// `n < 2·SIG_COEFFS` edge where the signature bound stops mirroring.
#[test]
#[ignore = "long: run with --release -- --ignored"]
fn every_lattice_point_answers_like_the_base_point_wide() {
    for (seed, rows, len) in [
        (1, 40, 12),
        (2, 60, 15),
        (3, 90, 16),
        (4, 50, 17),
        (5, 200, 64),
        (6, 150, 128),
    ] {
        world(seed, rows, len).check(&Config::all(), |_| true);
    }
}
