//! The prepared and cursor front ends of the configuration lattice
//! (`tests/common/lattice.rs`):
//!
//! * **(a)** `prepare` + `bind` + session execution is **bitwise
//!   identical** to executing the equivalent literal query text through
//!   `execute()` — same hits, names and distances, and the same work —
//!   at 1 and 4 threads, against the in-memory database and
//!   against a saved and reopened one.
//! * **(b)** draining a streaming [`Cursor`] yields exactly the hits of
//!   the materialized `QueryOutput`.
//! * **(c)** a partially consumed range or kNN cursor's `nodes_visited`
//!   is strictly below the full execution's on the Figure 9 corpus — early
//!   termination really does abandon index descent.
//!
//! Plus prepare once, execute N bindings — each bitwise equal to its
//! literal text — alone and as one batch.

mod common;

use common::lattice::{world, Config, FrontEnd, Storage};
use common::{
    assert_output_values_bitwise_equal, assert_outputs_bitwise_equal, corpus, db_with, indexed_db,
    walk_relation,
};
use similarity_queries::prelude::*;
use similarity_queries::query::QueryOutput;

/// `front_end` at 1 and 4 threads over built and reopened storage.
fn points(front_end: FrontEnd) -> Vec<Config> {
    let over = |storage| {
        [1, 4].map(|threads| Config {
            threads,
            front_end,
            storage,
            ..Config::BASE
        })
    };
    [over(Storage::Built), over(Storage::Reopened)].concat()
}

#[test]
fn prepared_equals_literal_execution() {
    world(51, 10, 32).check(&points(FrontEnd::Prepared), |_| true);
}

#[test]
fn cursor_drain_equals_materialized_output() {
    world(52, 33, 20).check(&points(FrontEnd::CursorDrain), |_| true);
}

/// (c) On the Figure 9 corpus (random walks, as in `repro fig9`), a
/// cursor consumed for only three hits descends strictly fewer index
/// nodes than the full execution — a wide range and a 20-nearest alike,
/// the kNN cursor's three being the full answer's first three — and stops
/// growing once dropped.
#[test]
fn partially_consumed_cursor_descends_less_of_the_index() {
    let db = indexed_db(walk_relation("r", 19970513, 2000, 64));
    let session = Session::new(&db);
    let bind = |text: &str, values: &[Value]| session.prepare(text).unwrap().bind(values).unwrap();
    // A wide radius: many hits spread over many leaves.
    let range = bind(
        "FIND SIMILAR TO ROW ? IN r EPSILON ?",
        &[Value::from(0usize), Value::from(60.0)],
    );
    let knn = bind(
        "FIND ? NEAREST TO ROW ? IN r",
        &[Value::from(20usize), Value::from(0usize)],
    );
    for (bound, at_least, ranked) in [(range, 100, false), (knn, 20, true)] {
        let full = session.execute(&bound).unwrap();
        let QueryOutput::Hits(full_hits) = &full.output else {
            panic!("expected hits");
        };
        let what = format!("{:?}", bound.query());
        assert!(
            full_hits.len() >= at_least,
            "{what}: {} hits",
            full_hits.len()
        );
        assert!(full.stats.leaves_visited > 4, "{what}: {:?}", full.stats);

        let mut cursor = session.cursor(&bound).unwrap();
        let first: Vec<_> = cursor.by_ref().take(3).collect();
        let partial = cursor.stats();
        assert!(
            partial.nodes_visited < full.stats.nodes_visited,
            "{what}: partial consumption visited {} nodes, full run {}",
            partial.nodes_visited,
            full.stats.nodes_visited
        );
        assert_eq!(partial.verified, 3, "{what}");
        if ranked {
            let (got, want) = (
                QueryOutput::Hits(first),
                QueryOutput::Hits(full_hits[..3].to_vec()),
            );
            assert_output_values_bitwise_equal(&got, &want, &what);
        }
        // Dropping the cursor abandons the descent; a fully drained cursor
        // converges to the materializing traversal's node count.
        let mut drained = session.cursor(&bound).unwrap();
        let all = drained.drain_sorted();
        assert_eq!(all.len(), full_hits.len(), "{what}");
        assert_eq!(
            drained.stats().nodes_visited,
            full.stats.nodes_visited,
            "{what}"
        );
    }
}

/// Prepare once, bind/execute N times: results bitwise-identical to N
/// literal executions, one statement and N executions in the session
/// stats.
#[test]
fn prepare_once_execute_many_equals_literal_execution() {
    let series = corpus(42, 60, 64);
    let db = db_with(&series, FeatureScheme::paper_default());
    let session = Session::new(&db);
    let prepared = session
        .prepare("FIND SIMILAR TO ROW $row IN r USING mavg(5) ON BOTH EPSILON $eps")
        .unwrap();
    let n = 16u64;
    for i in 0..n {
        let row = (i * 7) % 60;
        let eps = 0.5 + i as f64 * 0.2;
        let bound = prepared
            .bind_named(&[("row", Value::from(row)), ("eps", Value::from(eps))])
            .unwrap();
        let via_session = session.execute(&bound).unwrap();
        let via_text = execute(
            &db,
            &format!("FIND SIMILAR TO ROW {row} IN r USING mavg(5) ON BOTH EPSILON {eps}"),
        )
        .unwrap();
        assert_outputs_bitwise_equal(&via_session, &via_text, &format!("binding {i}"));
    }
    let stats = session.stats();
    assert_eq!(stats.prepared_statements, 1);
    assert_eq!(stats.executions, n);
}

/// A prepared batch through the session: every slot — duplicate bindings
/// included — equals its individual execution bitwise.
#[test]
fn prepared_batch_equals_individual_execution() {
    let series = corpus(7, 120, 64);
    let db = db_with(&series, FeatureScheme::paper_default());
    let session = Session::new(&db);
    let prepared = session
        .prepare("FIND SIMILAR TO ROW ? IN r EPSILON ?")
        .unwrap();
    let bindings: Vec<(usize, f64)> = (0..12)
        .map(|i| ((i * 11) % 120, 0.8 + (i % 5) as f64 * 0.5))
        // Repeat the first four bindings: duplicates are ordinary slots.
        .chain((0..4).map(|i| ((i * 11) % 120, 0.8 + (i % 5) as f64 * 0.5)))
        .collect();
    let bounds: Vec<Bound> = bindings
        .iter()
        .map(|&(row, eps)| {
            prepared
                .bind(&[Value::from(row), Value::from(eps)])
                .unwrap()
        })
        .collect();
    let batch = session.execute_batch(&bounds);
    assert_eq!(batch.results.len(), bounds.len());
    assert_eq!(session.stats().executions, bounds.len() as u64);
    for (i, &(row, eps)) in bindings.iter().enumerate() {
        let individual = execute(
            &db,
            &format!("FIND SIMILAR TO ROW {row} IN r EPSILON {eps}"),
        )
        .unwrap();
        assert_outputs_bitwise_equal(
            batch.results[i].as_ref().unwrap(),
            &individual,
            &format!("slot {i}"),
        );
    }
}
