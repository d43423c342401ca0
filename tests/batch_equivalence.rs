//! The batched-execution contract as executable properties: running any
//! mix of queries through [`execute_batch`] returns, query for query,
//! exactly what one-at-a-time execution returns — same hits, same names,
//! bitwise-identical distances, same errors — at 1 and 4 threads, against
//! the in-memory database and against a snapshot-reloaded one. The batch
//! is allowed to differ in only one observable: **work**. The acceptance
//! regression pins that too: a 64-query range batch's merged node-visit
//! count is strictly less than the sum of the 64 individual executions.

mod common;

use common::{assert_outcomes_equal, assert_outputs_bitwise_equal, corpus, db_with};
use proptest::prelude::*;
use similarity_queries::prelude::*;
use similarity_queries::query::{execute_batch, QueryError, QueryResult};

/// Executes `texts` one at a time — the reference the batch must match.
fn one_at_a_time(db: &Database, texts: &[&str]) -> Vec<Result<QueryResult, QueryError>> {
    texts.iter().map(|q| execute(db, q)).collect()
}

/// Asserts batch results equal individual execution, serially and at 4
/// threads.
fn assert_batch_equivalent(db: &mut Database, queries: &[String]) {
    let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
    for threads in [1usize, 4] {
        db.set_parallelism(if threads == 1 {
            Parallelism::Serial
        } else {
            Parallelism::Fixed(threads)
        });
        let individual = one_at_a_time(db, &texts);
        let batch = execute_batch(db, &texts);
        assert_eq!(batch.results.len(), individual.len());
        for (i, (got, want)) in batch.results.iter().zip(&individual).enumerate() {
            assert_outcomes_equal(got, want, &format!("{} (threads {threads})", texts[i]));
            // Serial index-kNN members carry their stand-alone counters.
            let index_knn = texts[i].contains("NEAREST") && !texts[i].contains("FORCE SCAN");
            if let (true, 1, Ok(got), Ok(want)) = (index_knn, threads, got, want) {
                assert_eq!(got.stats, want.stats, "{}", texts[i]);
            }
        }
    }
}

/// One random query of a mix: range (either access path, optional
/// transformation), kNN (either access path), or an all-pairs join.
fn query_strategy(rows: usize) -> impl Strategy<Value = String> {
    prop_oneof![
        (
            0..rows,
            0.1f64..6.0,
            prop_oneof![
                Just(""),
                Just(" USING mavg(5) ON BOTH"),
                Just(" USING reverse ON BOTH"),
            ],
            prop_oneof![Just(""), Just(" FORCE SCAN")],
        )
            .prop_map(|(row, eps, t, f)| format!(
                "FIND SIMILAR TO ROW {row} IN r{t} EPSILON {eps}{f}"
            )),
        (
            1usize..8,
            0..rows,
            prop_oneof![Just(""), Just(" FORCE SCAN")]
        )
            .prop_map(|(k, row, f)| format!("FIND {k} NEAREST TO ROW {row} IN r{f}")),
        (0.3f64..2.0, prop_oneof![Just('b'), Just('d')])
            .prop_map(|(eps, m)| format!("FIND PAIRS IN r USING mavg(8) EPSILON {eps} METHOD {m}")),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random mixes against the in-memory database.
    #[test]
    fn batch_equals_one_at_a_time(
        seed in 0u64..300,
        queries in prop::collection::vec(query_strategy(30), 2..12),
    ) {
        let series = corpus(seed, 30, 64);
        let mut db = db_with(&series, FeatureScheme::paper_default());
        assert_batch_equivalent(&mut db, &queries);
    }

    /// The same contract holds after a snapshot round-trip: the reopened
    /// database batches exactly like the built one executes individually.
    #[test]
    fn batch_equals_one_at_a_time_after_snapshot_reload(
        seed in 0u64..200,
        queries in prop::collection::vec(query_strategy(25), 2..8),
    ) {
        let series = corpus(seed.wrapping_add(47), 25, 64);
        let mut db = db_with(&series, FeatureScheme::paper_default());
        let path = std::env::temp_dir().join(format!("simq-batch-eq-{seed}.simq"));
        db.save_snapshot(&path).unwrap();
        let mut reopened = Database::open_snapshot(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_batch_equivalent(&mut reopened, &queries);
        // Cross-check: the reopened batch matches the in-memory originals.
        let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
        db.set_parallelism(Parallelism::Serial);
        reopened.set_parallelism(Parallelism::Serial);
        let built = one_at_a_time(&db, &texts);
        let batch = execute_batch(&reopened, &texts);
        for (i, (got, want)) in batch.results.iter().zip(&built).enumerate() {
            assert_outcomes_equal(got, want, &format!("{} (reopened)", texts[i]));
        }
    }
}

/// The acceptance criterion: a 64-query range batch over one relation is
/// answer-identical to serial one-at-a-time execution, its per-query
/// node-visit counters equal the individual executions', and the merged
/// (shared-traversal) node-visit count is **strictly less** than the sum
/// of the individual executions'.
#[test]
fn batch_of_64_range_queries_shares_traversal() {
    let series = corpus(20260727, 400, 64);
    let db = db_with(&series, FeatureScheme::paper_default());
    let queries: Vec<String> = (0..64)
        .map(|i| {
            format!(
                "FIND SIMILAR TO ROW {} IN r EPSILON {:.2}",
                (i * 6) % 400,
                0.8 + (i % 9) as f64 * 0.45
            )
        })
        .collect();
    let texts: Vec<&str> = queries.iter().map(String::as_str).collect();

    let batch = execute_batch(&db, &texts);
    assert_eq!(batch.stats.shared_groups, 1);
    assert_eq!(batch.stats.grouped_queries, 64);

    let mut individual_nodes_sum = 0u64;
    for (i, q) in texts.iter().enumerate() {
        let individual = execute(&db, q).unwrap();
        let got = batch.results[i].as_ref().unwrap();
        assert_outputs_bitwise_equal(got, &individual, q);
        // The shared walk attributes to each query exactly the nodes its
        // own traversal would have read.
        assert_eq!(
            got.stats.nodes_visited, individual.stats.nodes_visited,
            "{q}"
        );
        individual_nodes_sum += individual.stats.nodes_visited;
    }
    assert!(
        batch.stats.merged.nodes_visited < individual_nodes_sum,
        "shared traversal must beat one-at-a-time: merged {} vs sum {}",
        batch.stats.merged.nodes_visited,
        individual_nodes_sum
    );
    assert_eq!(
        batch.stats.per_query_total.nodes_visited,
        individual_nodes_sum
    );
}

/// Batched index kNN runs every member's own ranked descent (bound,
/// signature probe, exact refinement) on the group's shared pool, so a
/// member's serial counters — candidates, filtered_out, coefficients,
/// threads_used, all of them — are exactly what `execute` reports for the
/// same text, on one store and on four, and the batch's merged counters
/// are their sum.
#[test]
fn batch_knn_members_report_their_own_serial_stats() {
    let series = corpus(99, 300, 64);
    let queries: Vec<String> = (0..24)
        .map(|i| {
            let using = if i % 3 == 0 {
                " USING mavg(5) ON BOTH"
            } else {
                ""
            };
            let (k, row) = (2 + i % 6, (i * 11) % 300);
            format!("FIND {k} NEAREST TO ROW {row} IN r{using}")
        })
        .collect();
    let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
    for shards in [1usize, 4] {
        let mut db = db_with(&series, FeatureScheme::paper_default());
        db.set_parallelism(Parallelism::Serial);
        if shards > 1 {
            db.shard_relation("r", shards).unwrap();
        }
        let batch = execute_batch(&db, &texts);
        assert_eq!(batch.stats.shared_groups, 1);
        let mut sum = similarity_queries::query::ExecStats::default();
        for (i, q) in texts.iter().enumerate() {
            let individual = execute(&db, q).unwrap();
            let got = batch.results[i].as_ref().unwrap();
            assert_outputs_bitwise_equal(got, &individual, q);
            assert_eq!(got.stats, individual.stats, "{q} (shards {shards})");
            assert!(
                got.stats.candidates > 0 && got.stats.filtered_out > 0,
                "{q}"
            );
            sum.nodes_visited += individual.stats.nodes_visited;
            sum.candidates += individual.stats.candidates;
            sum.filtered_out += individual.stats.filtered_out;
            sum.coefficients_compared += individual.stats.coefficients_compared;
        }
        let merged = &batch.stats.merged;
        assert_eq!(
            (
                merged.nodes_visited,
                merged.candidates,
                merged.filtered_out,
                merged.coefficients_compared
            ),
            (
                sum.nodes_visited,
                sum.candidates,
                sum.filtered_out,
                sum.coefficients_compared
            ),
            "shards {shards}"
        );
    }
}
