//! Batched execution: the single-query pipeline in a loop.
//!
//! A batch shares what many statements over one database really share,
//! and nothing else:
//!
//! 1. **One front end.** Every statement is parsed and planned up front
//!    against the pinned catalog. A statement that fails to parse or plan
//!    occupies its own result slot without failing the batch.
//! 2. **One catalog generation.** The executor pins a single
//!    [`ReadView`] and answers every slot from it.
//! 3. **One thread start-up.** Each planned slot runs through
//!    [`exec::run_with_plan`] — the code a lone statement runs. When the
//!    database's thread budget is above 1 and at least two slots are
//!    runnable, the slots are split into contiguous ranges over at most one
//!    worker per slot and every slot runs serially inside its worker, so
//!    the batch pays for one round of thread spawns instead of one per
//!    statement — and a batch of statements that would each run on one
//!    thread (index descents, kNN) still spreads across the budget. A
//!    batch of one stays an ordinary query with its plan's threads.
//!
//! Because a slot *is* an individual execution, its hits, distances,
//! errors and [`ExecStats`] (all but the fan-out, `threads_used`) are
//! identical to running the statement alone, and the batch's counters are
//! the sum of its slots'
//! (`tests/batch_equivalence.rs` pins both, at 1 and 4 threads, in memory
//! and after a save and reopen). In memory a batch does not save index or
//! row work; it saves the front end and thread start-up.

use crate::ast::Query;
use crate::catalog::{Database, ReadView};
use crate::error::QueryError;
use crate::exec::{self, ExecStats, QueryResult};
use crate::plan::{plan, Plan};
use simq_storage::scan::{chunk_bounds, fan};
use std::sync::atomic::Ordering;

/// Results of one batch: per-statement outcomes in input order plus the
/// batch's work counters.
#[derive(Debug)]
pub struct BatchResult {
    /// One slot per input statement, in input order — each exactly what
    /// executing that statement alone returns.
    pub results: Vec<Result<QueryResult, QueryError>>,
    /// The slots' work counters summed (`verified` included);
    /// `threads_used` is the widest fan-out the batch or any slot
    /// reached.
    pub stats: ExecStats,
}

/// Executes many statements against one catalog generation of a
/// database. See the [module docs](self) for the guarantees.
pub struct BatchExecutor {
    view: ReadView,
}

/// Parses and executes a batch of query texts (the convenience wrapper
/// around [`BatchExecutor`]).
pub fn execute_batch(db: &Database, inputs: &[&str]) -> BatchResult {
    BatchExecutor::new(db).execute_texts(inputs)
}

/// Splits a `;`-separated script into its non-empty query texts (the
/// language has no `;` token, so splitting is unambiguous).
pub fn split_batch_script(script: &str) -> Vec<String> {
    script
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

impl BatchExecutor {
    /// A batch executor over `db` as it stands now: the read view taken
    /// here serves every slot of every batch this executor runs.
    pub fn new(db: &Database) -> Self {
        BatchExecutor {
            view: db.read_view(),
        }
    }

    /// Parses every input and executes the batch; parse errors fill their
    /// slot without failing the rest.
    pub fn execute_texts(&self, inputs: &[&str]) -> BatchResult {
        let parsed: Vec<_> = inputs
            .iter()
            .map(|text| crate::parse::parse(text))
            .collect();
        let queries = parsed.iter().map(|p| p.as_ref().map_err(Clone::clone));
        self.run(queries.collect())
    }

    /// Executes a batch of parsed queries. The queries are only borrowed:
    /// a session's bound statements can carry whole query series.
    pub fn execute<'q>(&self, queries: impl IntoIterator<Item = &'q Query>) -> BatchResult {
        self.run(queries.into_iter().map(Ok).collect())
    }

    /// Renders the batch `EXPLAIN`: one line per statement with the plan
    /// it would run under (or the error its slot would hold).
    pub fn explain_texts(&self, inputs: &[&str]) -> String {
        let mut lines = vec![format!("batch: {} statements", inputs.len())];
        for (i, input) in inputs.iter().enumerate() {
            let planned = crate::parse::parse(input).and_then(|q| plan(self.view.database(), &q));
            lines.push(match planned {
                Ok(p) => format!("  #{i} · {:?} · {}", p.access, p.reason),
                Err(e) => format!("  #{i} · error: {e}"),
            });
        }
        lines.join("\n")
    }

    /// Plans every parsed statement, runs the planned ones through
    /// [`exec::run_with_plan`] and sums their counters.
    fn run(&self, queries: Vec<Result<&Query, QueryError>>) -> BatchResult {
        let db = self.view.database();
        let m = simq_obs::metrics::registry();
        m.batch_batches.fetch_add(1, Ordering::Relaxed);
        m.batch_queries.fetch_add(
            queries.iter().filter(|q| q.is_ok()).count() as u64,
            Ordering::Relaxed,
        );
        let planned: Vec<Result<(&Query, Plan), QueryError>> = queries
            .into_iter()
            .map(|query| query.and_then(|q| Ok((q, plan(db, q)?))))
            .collect();
        let runnable: Vec<&(&Query, Plan)> = planned.iter().flatten().collect();

        // Spend the thread budget across slots rather than inside each:
        // one round of worker spawns for the whole batch.
        let workers = if runnable.len() >= 2 { db.threads() } else { 1 };
        let ranges = chunk_bounds(runnable.len(), workers);
        let fanned = ranges.len() > 1;
        let executed = fan(&ranges, |&(lo, hi)| {
            let slots = runnable[lo..hi].iter().map(|(query, the_plan)| {
                let mut the_plan = the_plan.clone();
                // EXPLAIN does no work and describes the statement's own
                // plan; every other slot of a fanned batch runs serially.
                if fanned && !matches!(query, Query::Explain(_)) {
                    the_plan.threads = 1;
                }
                exec::run_with_plan(db, query, the_plan)
            });
            slots.collect::<Vec<_>>()
        });

        let mut executed = executed.into_iter().flatten();
        let results: Vec<Result<QueryResult, QueryError>> = planned
            .into_iter()
            .map(|slot| slot.and_then(|_| executed.next().expect("one result per runnable slot")))
            .collect();
        let mut stats = ExecStats {
            threads_used: ranges.len().max(1) as u64,
            ..ExecStats::default()
        };
        for r in results.iter().flatten() {
            stats.add_work(&r.stats);
            stats.verified += r.stats.verified;
            stats.threads_used = stats.threads_used.max(r.stats.threads_used);
        }
        BatchResult { results, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::QueryOutput;
    use simq_series::features::FeatureScheme;
    use simq_storage::SeriesRelation;

    fn make_db(rows: usize) -> Database {
        let mut rel = SeriesRelation::new("stocks", 64, FeatureScheme::paper_default());
        for i in 0..rows {
            let series: Vec<f64> = (0..64)
                .map(|t| {
                    25.0 + ((t as f64) * (0.07 + 0.011 * (i % 7) as f64)).sin() * 4.0
                        + (i as f64 * 0.3)
                        + ((t * t) as f64 * 0.001 * (i % 3) as f64)
                })
                .collect();
            rel.insert(format!("S{i:04}"), series).unwrap();
        }
        let mut db = Database::new();
        db.add_relation_indexed(rel);
        db
    }

    fn assert_same(a: &QueryResult, b: &QueryResult, what: &str) {
        match (&a.output, &b.output) {
            (QueryOutput::Hits(x), QueryOutput::Hits(y)) => {
                assert_eq!(x.len(), y.len(), "{what}");
                for (h, g) in x.iter().zip(y) {
                    assert_eq!(h.id, g.id, "{what}");
                    assert_eq!(h.name, g.name, "{what}");
                    assert_eq!(h.distance.to_bits(), g.distance.to_bits(), "{what}");
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
            other => panic!("mismatched outputs for {what}: {other:?}"),
        }
    }

    #[test]
    fn batch_equals_one_at_a_time_for_a_mixed_batch() {
        let db = make_db(80);
        let queries = [
            "FIND SIMILAR TO ROW 5 IN stocks EPSILON 3.0",
            "FIND SIMILAR TO ROW 9 IN stocks USING mavg(8) ON BOTH EPSILON 2.0",
            "FIND SIMILAR TO ROW 70 IN stocks EPSILON 1.0",
            "FIND 7 NEAREST TO ROW 10 IN stocks",
            "FIND 3 NEAREST TO ROW 44 IN stocks USING mavg(5) ON BOTH",
            "FIND SIMILAR TO ROW 2 IN stocks EPSILON 3.0 FORCE SCAN",
            "FIND SIMILAR TO ROW 13 IN stocks EPSILON 0.5 FORCE SCAN",
            "FIND 4 NEAREST TO ROW 1 IN stocks FORCE SCAN",
            "FIND 9 NEAREST TO ROW 2 IN stocks FORCE SCAN",
            "FIND PAIRS IN stocks USING mavg(8) EPSILON 1.5 METHOD d",
            "EXPLAIN FIND SIMILAR TO ROW 0 IN stocks EPSILON 1",
        ];
        let batch = execute_batch(&db, &queries);
        assert_eq!(batch.results.len(), queries.len());
        let mut sum = ExecStats {
            threads_used: 1,
            ..ExecStats::default()
        };
        for (i, q) in queries.iter().enumerate() {
            let individual = exec::execute(&db, q).unwrap();
            let got = batch.results[i].as_ref().unwrap();
            assert_same(got, &individual, q);
            // A slot is the individual execution, counters included.
            assert_eq!(got.stats, individual.stats, "{q}");
            sum.add_work(&individual.stats);
            sum.verified += individual.stats.verified;
        }
        assert_eq!(batch.stats, sum);
    }

    #[test]
    fn batch_preserves_per_query_errors() {
        let db = make_db(10);
        let queries = [
            "FIND SIMILAR TO ROW 5 IN stocks EPSILON 3.0",
            "FIND SIMILAR TO ROW 999 IN stocks EPSILON 1.0",
            "THIS IS NOT A QUERY",
            "FIND SIMILAR TO ROW 0 IN nope EPSILON 1.0",
            "FIND SIMILAR TO ROW 1 IN stocks EPSILON 2.0",
        ];
        let batch = execute_batch(&db, &queries);
        assert!(batch.results[0].is_ok());
        assert!(matches!(batch.results[1], Err(QueryError::UnknownRow(_))));
        assert!(matches!(batch.results[2], Err(QueryError::Parse { .. })));
        assert!(matches!(
            batch.results[3],
            Err(QueryError::UnknownRelation(_))
        ));
        assert!(batch.results[4].is_ok());
    }

    #[test]
    fn explain_texts_renders_one_plan_line_per_statement() {
        let db = make_db(30);
        let queries = [
            "FIND SIMILAR TO ROW 1 IN stocks EPSILON 1",
            "FIND SIMILAR TO ROW 2 IN stocks EPSILON 1",
            "FIND PAIRS IN stocks EPSILON 1 METHOD b",
            "garbage",
        ];
        let text = BatchExecutor::new(&db).explain_texts(&queries);
        assert_eq!(text.lines().count(), 1 + queries.len(), "{text}");
        assert!(text.contains("#1 · IndexScan · "), "{text}");
        assert!(text.contains("#2 · ScanJoin"), "{text}");
        assert!(text.contains("#3 · error:"), "{text}");
    }

    #[test]
    fn split_batch_script_splits_and_trims() {
        let parts = split_batch_script(
            " FIND SIMILAR TO ROW 1 IN r EPSILON 1 ;; FIND 2 NEAREST TO ROW 0 IN r ; ",
        );
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0], "FIND SIMILAR TO ROW 1 IN r EPSILON 1");
        assert_eq!(parts[1], "FIND 2 NEAREST TO ROW 0 IN r");
    }

    #[test]
    fn batch_parallel_equals_batch_serial() {
        use crate::catalog::Parallelism;
        let mut db = make_db(120);
        let queries: Vec<String> = (0..12)
            .map(|i| {
                format!(
                    "FIND SIMILAR TO ROW {i} IN stocks EPSILON {}",
                    1.0 + i as f64 * 0.3
                )
            })
            .chain((0..4).map(|i| format!("FIND {} NEAREST TO ROW {i} IN stocks", 3 + i)))
            .collect();
        let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
        db.set_parallelism(Parallelism::Serial);
        let serial = execute_batch(&db, &texts);
        db.set_parallelism(Parallelism::Fixed(4));
        let parallel = execute_batch(&db, &texts);
        for (i, (a, b)) in serial.results.iter().zip(&parallel.results).enumerate() {
            assert_same(
                a.as_ref().unwrap(),
                b.as_ref().unwrap(),
                &format!("query {i}"),
            );
        }
    }
}
