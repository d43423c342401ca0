//! Query execution.
//!
//! Index-based range evaluation is the paper's Algorithm 2:
//!
//! 1. *Preprocessing* — bring the query into the frequency domain, build
//!    its search rectangle (Section 3.1);
//! 2. *Search* — traverse the R*-tree applying the lowered transformation
//!    to every bounding rectangle and leaf point;
//! 3. *Postprocessing* — for every candidate, compute the exact distance
//!    on the full stored spectrum and keep those within ε.
//!
//! Lemma 1 guarantees step 2 returns a superset of the answer (no false
//! dismissals); step 3 removes the false hits. The property tests in
//! `tests/lemma1.rs` pin the end-to-end guarantee against brute force.

use crate::ast::{Query, QuerySource, StatsWindow};
use crate::catalog::{Database, StoredRelation};
use crate::error::QueryError;
use crate::plan::{explain, plan, AccessPath, Plan};
use crate::verify::{compile_probe, knn_rank, pad, sort_hits, KnnRank, Ledger, RangeVerifier};
use simq_dsp::complex::Complex;
use simq_index::forest_range;
use simq_obs::span;
use simq_series::kernel::transformed_distance_sq;
use simq_series::transform::SeriesTransform;
use simq_storage::scan;
use std::collections::BTreeMap;

/// Work counters accumulated across the whole execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Index nodes visited (proxy for disk accesses).
    pub nodes_visited: u64,
    /// Leaf nodes among them.
    pub leaves_visited: u64,
    /// Index entries tested.
    pub entries_tested: u64,
    /// Rows read by sequential scans.
    pub rows_scanned: u64,
    /// Complex coefficients compared by scans / postprocessing.
    pub coefficients_compared: u64,
    /// Candidates produced by the filter step.
    pub candidates: u64,
    /// Candidates dismissed by the quantized signature tier before their
    /// full spectrum was touched — rows the exact distance would have
    /// rejected too, by the no-false-dismissal bound. Always 0 on the
    /// tier-free paths (range scans, scan joins).
    pub filtered_out: u64,
    /// Candidates that survived exact verification.
    pub verified: u64,
    /// Worker threads that actually carried out query work — the widest
    /// fan-out any execution phase reached. 1 means the query ran on the
    /// calling thread: every index descent and kNN does, and a scan or
    /// join does when its plan has one thread or too few rows to split.
    pub threads_used: u64,
    /// Shards that carried work for this query — 0 for unsharded
    /// relations, the relation's shard count for sharded execution
    /// (index and scan phases both touch every shard; only the kNN forest
    /// search, whose one bound spans every shard, can effectively prune
    /// some shards, but they are still inspected). Per-shard counter
    /// breakdowns are in [`QueryResult::per_shard`].
    pub shards_touched: u64,
    /// R*-tree nodes materialized by write operations (node splits and
    /// root growth under incremental insert). Always 0 for read queries;
    /// `Session::insert` reports the per-insert delta here — staying
    /// near 0 per insert is what "no full rebuild" looks like.
    pub nodes_built: u64,
    /// WAL records appended by write operations (0 for reads and when no
    /// WAL directory is attached).
    pub wal_records: u64,
    /// Physical WAL syncs paid by write operations. Group commit is what
    /// keeps this below `wal_records`: a batched insert syncs once per
    /// touched shard, not once per row.
    pub wal_syncs: u64,
}

impl ExecStats {
    pub(crate) fn add_search(&mut self, s: &simq_index::SearchStats) {
        self.nodes_visited += s.nodes_visited;
        self.leaves_visited += s.leaves_visited;
        self.entries_tested += s.entries_tested;
        // A multi-step kNN search refines inside the descent.
        self.candidates += s.candidates;
        self.coefficients_compared += s.refine_work;
    }

    pub(crate) fn add_scan(&mut self, s: &scan::ScanStats) {
        self.rows_scanned += s.rows_scanned;
        self.coefficients_compared += s.coefficients_compared;
    }

    /// Accumulates another block's work counters (`verified` and
    /// `threads_used` are query-level, not additive).
    pub(crate) fn add_work(&mut self, o: &ExecStats) {
        self.nodes_visited += o.nodes_visited;
        self.leaves_visited += o.leaves_visited;
        self.entries_tested += o.entries_tested;
        self.rows_scanned += o.rows_scanned;
        self.coefficients_compared += o.coefficients_compared;
        self.candidates += o.candidates;
        self.filtered_out += o.filtered_out;
        self.nodes_built += o.nodes_built;
        self.wal_records += o.wal_records;
        self.wal_syncs += o.wal_syncs;
    }
}

/// A range/kNN hit.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Row id.
    pub id: u64,
    /// Row name attribute.
    pub name: String,
    /// Exact distance.
    pub distance: f64,
}

/// An all-pairs hit (canonicalized to `a < b`).
#[derive(Debug, Clone, PartialEq)]
pub struct PairHit {
    /// First row id.
    pub a: u64,
    /// Second row id.
    pub b: u64,
    /// Exact distance.
    pub distance: f64,
}

/// What a query returned.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutput {
    /// Range and kNN results, ordered by (distance, id).
    Hits(Vec<Hit>),
    /// All-pairs results, ordered by (a, b).
    Pairs(Vec<PairHit>),
    /// `EXPLAIN` rendering.
    Plan(String),
    /// `EXPLAIN ANALYZE` rendering: the operator tree with wall times
    /// and work counters, plus the instrumented execution's output —
    /// bitwise-identical to what an uninstrumented run returns.
    Analyzed {
        /// The rendered report (plan, spans, counters, splits).
        report: String,
        /// The inner query's output, untouched by instrumentation.
        output: Box<QueryOutput>,
    },
}

/// A completed query: output, the plan that produced it, statistics.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The result rows.
    pub output: QueryOutput,
    /// The plan used.
    pub plan: Plan,
    /// Work counters (merged across threads and shards).
    pub stats: ExecStats,
    /// Always empty. Execution keeps no per-thread breakdown; the field
    /// stays, with the wire's count-prefixed block it feeds
    /// (`RemoteResult::per_thread`), until the benchmark package stops
    /// reading it.
    pub per_thread: Vec<ExecStats>,
    /// Per-shard counters for sharded relations (empty for unsharded
    /// execution): entry `i` is shard `i`'s share of the index traversal
    /// and scan work. Verification work on merged candidate lists crosses
    /// shards and is reported in [`QueryResult::stats`] only.
    pub per_shard: Vec<ExecStats>,
}

/// Parses, plans and executes a query text.
///
/// # Errors
/// Any [`QueryError`] from the pipeline.
pub fn execute(db: &Database, input: &str) -> Result<QueryResult, QueryError> {
    let query = crate::parse::parse(input)?;
    run(db, &query)
}

/// Plans and executes a parsed query.
///
/// Execution is pinned to a [`ReadView`](crate::ReadView) taken at
/// entry: the whole plan-and-run sequence sees one catalog generation,
/// so a concurrent writer mutating the live database (copy-on-write)
/// can never change the catalog under a running query.
///
/// # Errors
/// Any [`QueryError`] from planning or execution.
pub fn run(db: &Database, query: &Query) -> Result<QueryResult, QueryError> {
    let view = db.read_view();
    let db = view.database();
    let the_plan = {
        let _plan_span = span::span("query.plan");
        plan(db, query)?
    };
    run_with_plan(db, query, the_plan)
}

/// Executes a parsed query under an already-made plan: [`run`] is `plan`
/// followed by this, and batches and cursors plan first and call it too.
///
/// The plan must have been made for this query against this database —
/// a plan made elsewhere (wrong access path, wrong thread count) executes
/// but may not match what planning here would choose.
///
/// # Errors
/// Any [`QueryError`] from execution.
pub fn run_with_plan(
    db: &Database,
    query: &Query,
    the_plan: Plan,
) -> Result<QueryResult, QueryError> {
    match query {
        Query::Explain(inner) => Ok(QueryResult {
            output: QueryOutput::Plan(explain(inner, &the_plan)),
            stats: ExecStats {
                // EXPLAIN executes no query work; the planned parallelism
                // is in the rendered plan text.
                threads_used: 1,
                ..ExecStats::default()
            },
            plan: the_plan,
            per_thread: Vec::new(),
            per_shard: Vec::new(),
        }),
        Query::ExplainAnalyze(inner) => {
            // Force span collection on this thread for exactly this
            // execution, regardless of the global `\trace` toggle, then
            // hand the *same* plan to the ordinary execution path — the
            // analyzed run takes every branch the plain run takes, so the
            // results are bitwise identical by construction (and proven
            // so in tests/observability_inert.rs).
            let _force = span::force_collection();
            let stale = span::take_records();
            drop(stale);
            let started = std::time::Instant::now();
            let inner_result = {
                let _root = span::span("query");
                run_with_plan(db, inner, the_plan)?
            };
            let total_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let records = span::take_records();
            let report = render_analyze(inner, &inner_result, total_ns, &records);
            Ok(QueryResult {
                output: QueryOutput::Analyzed {
                    report,
                    output: Box::new(inner_result.output),
                },
                plan: inner_result.plan,
                stats: inner_result.stats,
                per_thread: inner_result.per_thread,
                per_shard: inner_result.per_shard,
            })
        }
        Query::Range {
            source,
            relation,
            transform,
            on_both,
            eps,
            stats_window,
            ..
        } => {
            let stored = db
                .relation(relation)
                .ok_or_else(|| QueryError::UnknownRelation(relation.clone()))?;
            let ctx = resolve_query(stored, source, transform, *on_both)?;
            let result = range(stored, transform, ctx, *eps, *stats_window, &the_plan)?;
            note_query_metrics(&result);
            Ok(result)
        }
        Query::Knn {
            k,
            source,
            relation,
            transform,
            on_both,
            ..
        } => {
            let stored = db
                .relation(relation)
                .ok_or_else(|| QueryError::UnknownRelation(relation.clone()))?;
            let ctx = resolve_query(stored, source, transform, *on_both)?;
            let result = knn(stored, transform, ctx.spectrum, *k, &the_plan)?;
            note_query_metrics(&result);
            Ok(result)
        }
        Query::AllPairs {
            relation,
            left,
            right,
            eps,
            ..
        } => {
            let stored = db
                .relation(relation)
                .ok_or_else(|| QueryError::UnknownRelation(relation.clone()))?;
            let result = all_pairs(stored, left, right, *eps, &the_plan)?;
            note_query_metrics(&result);
            Ok(result)
        }
    }
}

/// Feeds the process-wide metrics registry after one execution.
fn note_query_metrics(result: &QueryResult) {
    use std::sync::atomic::Ordering;
    let m = simq_obs::metrics::registry();
    m.query_executions.fetch_add(1, Ordering::Relaxed);
    if result.stats.shards_touched > 0 {
        m.query_shard_work_units
            .fetch_add(result.stats.shards_touched, Ordering::Relaxed);
    }
    if result.stats.filtered_out > 0 {
        m.filter_dismissed
            .fetch_add(result.stats.filtered_out, Ordering::Relaxed);
    }
}

/// Renders the `EXPLAIN ANALYZE` report: the plan, the span tree of the
/// instrumented execution, merged work counters, and the per-shard split.
fn render_analyze(
    query: &Query,
    result: &QueryResult,
    total_ns: u64,
    spans: &[span::SpanRecord],
) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{}", explain(query, &result.plan));
    let _ = writeln!(out, "  total: {}", span::fmt_ns(total_ns));
    out.push_str("operators:\n");
    for line in span::render_tree(spans).lines() {
        let _ = writeln!(out, "  {line}");
    }
    let s = &result.stats;
    let _ = writeln!(
        out,
        "stats: nodes={} leaves={} entries={} rows={} candidates={} filtered_out={} verified={} coefficients={} threads={} shards={}",
        s.nodes_visited,
        s.leaves_visited,
        s.entries_tested,
        s.rows_scanned,
        s.candidates,
        s.filtered_out,
        s.verified,
        s.coefficients_compared,
        s.threads_used,
        s.shards_touched,
    );
    if !result.per_shard.is_empty() {
        let shares: Vec<String> = result
            .per_shard
            .iter()
            .map(|t| {
                format!(
                    "{}n/{}r/{}c",
                    t.nodes_visited, t.rows_scanned, t.coefficients_compared
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "per-shard (nodes/rows/coefficients): [{}]",
            shares.join(", ")
        );
    }
    out
}

/// The resolved query: comparison spectrum plus the query series'
/// statistics (needed by GK95 MEAN/STD windows).
pub(crate) struct QueryContext {
    pub(crate) spectrum: Vec<Complex>,
    pub(crate) mean: f64,
    pub(crate) std_dev: f64,
}

/// Resolves the query source: the normal-form spectrum of the query series
/// (transformed when `ON BOTH` was given) and its statistics.
pub(crate) fn resolve_query(
    stored: &StoredRelation,
    source: &QuerySource,
    transform: &SeriesTransform,
    on_both: bool,
) -> Result<QueryContext, QueryError> {
    let n = stored.series_len();
    let (spectrum, mean, std_dev) = match source {
        QuerySource::Literal(values) => {
            if values.len() != n {
                return Err(QueryError::QueryLengthMismatch {
                    expected: n,
                    actual: values.len(),
                });
            }
            let f = stored.scheme().extract(values)?;
            (f.spectrum, f.mean, f.std_dev)
        }
        QuerySource::RowId(id) => {
            let row = stored
                .row(*id)
                .ok_or_else(|| QueryError::UnknownRow(format!("id {id}")))?;
            (
                row.features.spectrum.clone(),
                row.features.mean,
                row.features.std_dev,
            )
        }
        QuerySource::RowName(name) => {
            let row = stored
                .find_row_named(name)
                .ok_or_else(|| QueryError::UnknownRow(format!("name {name:?}")))?;
            (
                row.features.spectrum.clone(),
                row.features.mean,
                row.features.std_dev,
            )
        }
    };
    let spectrum = if on_both {
        transform.apply_spectrum(&spectrum, n)?
    } else {
        spectrum
    };
    Ok(QueryContext {
        spectrum,
        mean,
        std_dev,
    })
}

fn range(
    stored: &StoredRelation,
    transform: &SeriesTransform,
    ctx: QueryContext,
    eps: f64,
    window: StatsWindow,
    the_plan: &Plan,
) -> Result<QueryResult, QueryError> {
    let mut ledger = Ledger::new(stored);
    let verifier = RangeVerifier::new(stored, transform, ctx, eps, window)?;

    let mut hits: Vec<Hit> = match the_plan.access {
        AccessPath::IndexScan => {
            let verifier = verifier.with_probe();
            let rect = verifier.search_rect()?;
            let lowered = transform.lower(stored.scheme(), stored.series_len())?;
            // One descent over the relation's forest of trees: every
            // shard's tree serves the same lowered query.
            let descend = span::span("range.descend");
            let (candidates, s) = forest_range(stored.trees(), Some(&lowered), &rect);
            ledger.search(&s);
            ledger.stats.candidates = candidates.len() as u64;
            descend.note("nodes", ledger.stats.nodes_visited);
            descend.note("leaves", ledger.stats.leaves_visited);
            descend.note("entries", ledger.stats.entries_tested);
            descend.note("candidates", ledger.stats.candidates);
            drop(descend);

            let verify_span = span::span("range.verify");
            let out: Vec<Hit> = candidates
                .iter()
                .filter_map(|&id| verifier.verify(id, &mut ledger.stats))
                .collect();
            verify_span.note("candidates", ledger.stats.candidates);
            verify_span.note("filtered", ledger.stats.filtered_out);
            verify_span.note("verified", out.len() as u64);
            drop(verify_span);
            out
        }
        AccessPath::SeqScan => {
            let scan_span = span::span("scan");
            let (scan_hits, s) = scan::scan_range_over(
                stored.stores(),
                transform,
                &verifier.ctx.spectrum,
                eps,
                the_plan.threads,
            )?;
            ledger.scan(&s);
            ledger.stats.candidates = ledger.stats.rows_scanned;
            scan_span.note("rows", ledger.stats.rows_scanned);
            scan_span.note("coefficients", ledger.stats.coefficients_compared);
            drop(scan_span);
            scan_hits
                .into_iter()
                .filter_map(|h| {
                    let row = stored.row(h.id).expect("scan ids are valid");
                    verifier.window_ok(row).then(|| Hit {
                        id: h.id,
                        name: row.name.clone(),
                        distance: h.distance,
                    })
                })
                .collect()
        }
        _ => unreachable!("range queries plan to IndexScan or SeqScan"),
    };

    let merge = span::span("range.merge");
    sort_hits(&mut hits);
    merge.note("hits", hits.len() as u64);
    drop(merge);
    Ok(ledger.finish(QueryOutput::Hits(hits), the_plan))
}

fn knn(
    stored: &StoredRelation,
    transform: &SeriesTransform,
    q_spec: Vec<Complex>,
    k: usize,
    the_plan: &Plan,
) -> Result<QueryResult, QueryError> {
    let mut ledger = Ledger::new(stored);

    let hits: Vec<Hit> = match the_plan.access {
        AccessPath::IndexScan => {
            // Optimal multi-step kNN (Seidl & Kriegel): one best-first
            // descent over the relation's whole forest of trees ranks
            // rows by lower bound and refines each as it surfaces,
            // stopping once the next bound exceeds the exact k-th best.
            let rank = KnnRank::new(stored, transform, q_spec, k)?;
            let rank_span = span::span("knn.rank");
            let (hits, s) = knn_rank(stored, &rank);
            ledger.search(&s);
            rank_span.note("nodes", ledger.stats.nodes_visited);
            rank_span.note("candidates", ledger.stats.candidates);
            rank_span.note("verified", hits.len() as u64);
            drop(rank_span);
            hits
        }
        AccessPath::SeqScan => {
            let scan_span = span::span("scan");
            let (scan_hits, s) = scan::scan_knn_over(stored.stores(), transform, &q_spec, k)?;
            ledger.scan(&s);
            ledger.stats.candidates = ledger.stats.rows_scanned;
            scan_span.note("rows", ledger.stats.rows_scanned);
            scan_span.note("coefficients", ledger.stats.coefficients_compared);
            drop(scan_span);
            scan_hits
                .into_iter()
                .map(|h| Hit {
                    id: h.id,
                    name: stored.row(h.id).expect("scan ids are valid").name.clone(),
                    distance: h.distance,
                })
                .collect()
        }
        _ => unreachable!("kNN queries plan to IndexScan or SeqScan"),
    };
    Ok(ledger.finish(QueryOutput::Hits(hits), the_plan))
}

fn all_pairs(
    stored: &StoredRelation,
    left: &SeriesTransform,
    right: &SeriesTransform,
    eps: f64,
    the_plan: &Plan,
) -> Result<QueryResult, QueryError> {
    let n = stored.series_len();
    let threads = the_plan.threads;
    let mut ledger = Ledger::new(stored);
    let symmetric = left == right;

    let mut pairs: Vec<PairHit> = match the_plan.access {
        AccessPath::ScanJoin { early_abandon } => {
            // Pair work crosses shards: the rows of every store run
            // through one pair scan, so parallelism is row-claimed and
            // there are no per-shard shares.
            let join_span = span::span("join.scan");
            let (found, s) = scan::scan_all_pairs_over(
                stored.stores(),
                left,
                right,
                eps,
                early_abandon,
                threads,
            )?;
            ledger.scan(&s);
            join_span.note("rows", ledger.stats.rows_scanned);
            join_span.note("pairs", found.len() as u64);
            drop(join_span);
            found
                .into_iter()
                .map(|(a, b, distance)| PairHit { a, b, distance })
                .collect()
        }
        AccessPath::IndexProbeJoin { transformed } => {
            let join_span = span::span("join.probe");
            let scheme = stored.scheme();
            let (eff_left, eff_right) = if transformed {
                (left.clone(), right.clone())
            } else {
                (SeriesTransform::Identity, SeriesTransform::Identity)
            };
            // The index side carries `right` (Algorithm 2); probe spectra
            // carry `left`, applied outside the index. Both actions are
            // computed once — per-probe recomputation of the coefficient
            // vectors would dominate the join.
            let lowered = eff_right.lower(scheme, n)?;
            let action = eff_right.action(n, n.saturating_sub(1))?;
            let left_action = eff_left.action(n, n.saturating_sub(1))?;
            // One probe per row, ranging over every tree of the forest;
            // for asymmetric joins both orientations of each unordered
            // pair are discovered (once from each probe); keep the
            // smaller distance per canonical (min, max) key. The
            // candidate union over shards equals the single-tree
            // candidate set and `min` is commutative, so the map is the
            // same however rows are sharded or chunked across workers.
            let rows: Vec<&simq_storage::SeriesRow> = stored.rows_in_scan_order();
            let chunks = scan::chunk_bounds(rows.len(), threads);
            type Found = BTreeMap<(u64, u64), f64>;
            let keep_min = |found: &mut Found, key: (u64, u64), d: f64| {
                let entry = found.entry(key).or_insert(d);
                if d < *entry {
                    *entry = d;
                }
            };
            let workers = scan::fan(&chunks, |&(lo, hi)| -> Result<_, QueryError> {
                let mut found = Found::new();
                let mut stats = ExecStats::default();
                // The probe spectrum is the "query" of each row's
                // verification step, so each probe row gets its own
                // quantized-tier bound against ε — recompiled in place.
                let mut probe_spec = vec![Complex::ZERO; n];
                let mut row_probe = compile_probe(stored, &probe_spec, &action.multipliers);
                for row in &rows[lo..hi] {
                    probe_spec.clear();
                    probe_spec.push(row.features.spectrum[0]);
                    probe_spec.extend(
                        row.features.spectrum[1..]
                            .iter()
                            .zip(&left_action.multipliers)
                            .map(|(x, a)| *x * *a),
                    );
                    let probe_point = scheme.point_from_spectrum(0.0, 0.0, &probe_spec)?;
                    let rect = scheme.search_rect(&probe_point, pad(eps));
                    row_probe.recompile(&probe_spec);
                    for tree in stored.trees() {
                        let (candidates, s) = tree.range_transformed(&lowered, &rect);
                        stats.add_search(&s);
                        stats.candidates += candidates.len() as u64;
                        for id in candidates {
                            // Symmetric joins need each unordered pair once.
                            if id == row.id || (symmetric && id < row.id) {
                                continue;
                            }
                            let sig = stored.signature(id);
                            if sig.is_some_and(|sig| row_probe.dismisses(sig, eps * eps)) {
                                stats.filtered_out += 1;
                                continue;
                            }
                            let other = stored.row(id).expect("index ids are valid");
                            let (d_sq, abandoned) = transformed_distance_sq(
                                &other.features.spectrum,
                                &action.multipliers,
                                &probe_spec,
                                Some(eps * eps),
                                &mut stats.coefficients_compared,
                            );
                            let d = d_sq.sqrt();
                            if !abandoned && d <= eps {
                                keep_min(&mut found, (row.id.min(id), row.id.max(id)), d);
                            }
                        }
                    }
                }
                Ok((found, stats))
            });
            let mut found = Found::new();
            let mut phase = Vec::with_capacity(workers.len());
            for w in workers {
                let (local, local_stats) = w?;
                for (key, d) in local {
                    keep_min(&mut found, key, d);
                }
                phase.push(local_stats);
            }
            ledger.workers(&phase);
            join_span.note("probes", rows.len() as u64);
            join_span.note("candidates", ledger.stats.candidates);
            join_span.note("filtered", ledger.stats.filtered_out);
            join_span.note("pairs", found.len() as u64);
            drop(join_span);
            found
                .into_iter()
                .map(|((a, b), distance)| PairHit { a, b, distance })
                .collect()
        }
        _ => unreachable!("all-pairs queries plan to joins"),
    };

    pairs.sort_by_key(|x| (x.a, x.b));
    Ok(ledger.finish(QueryOutput::Pairs(pairs), the_plan))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use simq_series::features::{FeatureScheme, Representation};
    use simq_storage::SeriesRelation;

    pub(crate) fn make_db(rows: usize, indexed: bool) -> Database {
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
        if indexed {
            db.add_relation_indexed(rel);
        } else {
            db.add_relation(rel);
        }
        db
    }

    fn hits(result: &QueryResult) -> Vec<u64> {
        match &result.output {
            QueryOutput::Hits(h) => h.iter().map(|x| x.id).collect(),
            other => panic!("expected hits, got {other:?}"),
        }
    }

    #[test]
    fn index_and_scan_agree_on_identity_range() {
        let db = make_db(60, true);
        let via_index = execute(&db, "FIND SIMILAR TO ROW 5 IN stocks EPSILON 3.0").unwrap();
        assert_eq!(via_index.plan.access, AccessPath::IndexScan);
        let via_scan = execute(
            &db,
            "FIND SIMILAR TO ROW 5 IN stocks EPSILON 3.0 FORCE SCAN",
        )
        .unwrap();
        assert_eq!(via_scan.plan.access, AccessPath::SeqScan);
        assert_eq!(hits(&via_index), hits(&via_scan));
        assert!(hits(&via_index).contains(&5));
    }

    #[test]
    fn index_and_scan_agree_on_transformed_range() {
        let db = make_db(60, true);
        let q = "FIND SIMILAR TO ROW 3 IN stocks USING mavg(8) ON BOTH EPSILON 2.0";
        let via_index = execute(&db, q).unwrap();
        assert_eq!(via_index.plan.access, AccessPath::IndexScan);
        let via_scan = execute(&db, &format!("{q} FORCE SCAN")).unwrap();
        assert_eq!(hits(&via_index), hits(&via_scan));
    }

    #[test]
    fn unindexed_relation_falls_back_to_scan() {
        let db = make_db(20, false);
        let r = execute(&db, "FIND SIMILAR TO ROW 0 IN stocks EPSILON 1").unwrap();
        assert_eq!(r.plan.access, AccessPath::SeqScan);
        assert!(r.plan.reason.contains("no index"));
    }

    #[test]
    fn force_index_fails_without_index() {
        let db = make_db(20, false);
        let err =
            execute(&db, "FIND SIMILAR TO ROW 0 IN stocks EPSILON 1 FORCE INDEX").unwrap_err();
        assert!(matches!(err, QueryError::IndexUnavailable(_)));
    }

    #[test]
    fn knn_index_path_matches_scan() {
        // Rectangular scheme without stats: index kNN is allowed.
        let mut rel = SeriesRelation::new(
            "r",
            64,
            FeatureScheme::new(3, Representation::Rectangular, false),
        );
        for i in 0..50 {
            let series: Vec<f64> = (0..64)
                .map(|t| {
                    10.0 + ((t as f64) * (0.1 + 0.005 * i as f64)).sin() * 3.0 + i as f64 * 0.1
                })
                .collect();
            rel.insert(format!("S{i}"), series).unwrap();
        }
        let mut db = Database::new();
        db.add_relation_indexed(rel);
        let via_index = execute(&db, "FIND 7 NEAREST TO ROW 10 IN r").unwrap();
        assert_eq!(via_index.plan.access, AccessPath::IndexScan);
        let via_scan = execute(&db, "FIND 7 NEAREST TO ROW 10 IN r FORCE SCAN").unwrap();
        assert_eq!(hits(&via_index), hits(&via_scan));
        assert_eq!(hits(&via_index)[0], 10);
    }

    #[test]
    fn knn_on_polar_scheme_uses_index_and_matches_scan() {
        let db = make_db(30, true);
        let r = execute(&db, "FIND 3 NEAREST TO ROW 0 IN stocks").unwrap();
        assert_eq!(r.plan.access, AccessPath::IndexScan);
        let s = execute(&db, "FIND 3 NEAREST TO ROW 0 IN stocks FORCE SCAN").unwrap();
        assert_eq!(hits(&r), hits(&s));
        assert_eq!(hits(&r)[0], 0);
    }

    #[test]
    fn knn_on_polar_scheme_with_transform_matches_scan() {
        let db = make_db(40, true);
        let q = "FIND 5 NEAREST TO ROW 3 IN stocks USING mavg(8) ON BOTH";
        let r = execute(&db, q).unwrap();
        assert_eq!(r.plan.access, AccessPath::IndexScan);
        let s = execute(&db, &format!("{q} FORCE SCAN")).unwrap();
        assert_eq!(hits(&r), hits(&s));
    }

    #[test]
    fn all_pairs_methods_b_and_d_agree() {
        let db = make_db(40, true);
        let b = execute(
            &db,
            "FIND PAIRS IN stocks USING mavg(8) EPSILON 1.5 METHOD b",
        )
        .unwrap();
        let d = execute(
            &db,
            "FIND PAIRS IN stocks USING mavg(8) EPSILON 1.5 METHOD d",
        )
        .unwrap();
        let (QueryOutput::Pairs(pb), QueryOutput::Pairs(pd)) = (&b.output, &d.output) else {
            panic!("expected pairs");
        };
        assert_eq!(pb.len(), pd.len());
        for (x, y) in pb.iter().zip(pd) {
            assert_eq!((x.a, x.b), (y.a, y.b));
            assert!((x.distance - y.distance).abs() < 1e-9);
        }
    }

    #[test]
    fn method_c_ignores_transformation() {
        let db = make_db(40, true);
        let c = execute(
            &db,
            "FIND PAIRS IN stocks USING mavg(8) EPSILON 1.5 METHOD c",
        )
        .unwrap();
        let id = execute(&db, "FIND PAIRS IN stocks EPSILON 1.5 METHOD d").unwrap();
        // Method c on a transformed query equals method d on the identity.
        assert_eq!(format!("{:?}", c.output), format!("{:?}", id.output));
    }

    #[test]
    fn explain_renders_plan() {
        let db = make_db(10, true);
        let r = execute(
            &db,
            "EXPLAIN FIND SIMILAR TO ROW 0 IN stocks USING mavg(20) EPSILON 1",
        )
        .unwrap();
        let QueryOutput::Plan(text) = &r.output else {
            panic!("expected plan output");
        };
        assert!(text.contains("IndexScan"), "{text}");
        assert!(text.contains("mavg(20)"), "{text}");
    }

    #[test]
    fn literal_query_with_wrong_length_rejected() {
        let db = make_db(5, true);
        let err = execute(&db, "FIND SIMILAR TO [1, 2, 3] IN stocks EPSILON 1").unwrap_err();
        assert!(matches!(err, QueryError::QueryLengthMismatch { .. }));
    }

    #[test]
    fn unknown_relation_and_row() {
        let db = make_db(5, true);
        assert!(matches!(
            execute(&db, "FIND SIMILAR TO ROW 0 IN nope EPSILON 1"),
            Err(QueryError::UnknownRelation(_))
        ));
        assert!(matches!(
            execute(&db, "FIND SIMILAR TO ROW 999 IN stocks EPSILON 1"),
            Err(QueryError::UnknownRow(_))
        ));
        assert!(matches!(
            execute(&db, "FIND SIMILAR TO NAME missing IN stocks EPSILON 1"),
            Err(QueryError::UnknownRow(_))
        ));
    }

    #[test]
    fn explain_prints_one_thread_for_descents_and_the_budget_for_scans_and_joins() {
        use crate::catalog::Parallelism;
        let mut db = make_db(40, true);
        db.set_parallelism(Parallelism::Fixed(4));
        for (q, threads) in [
            ("FIND SIMILAR TO ROW 0 IN stocks EPSILON 1", 1),
            ("FIND 3 NEAREST TO ROW 0 IN stocks", 1),
            ("FIND 3 NEAREST TO ROW 0 IN stocks FORCE SCAN", 1),
            ("FIND SIMILAR TO ROW 0 IN stocks EPSILON 1 FORCE SCAN", 4),
            ("FIND PAIRS IN stocks EPSILON 1 METHOD b", 4),
            ("FIND PAIRS IN stocks EPSILON 1 METHOD d", 4),
        ] {
            let r = execute(&db, &format!("EXPLAIN {q}")).unwrap();
            let QueryOutput::Plan(text) = &r.output else {
                panic!("expected plan output");
            };
            let s = if threads == 1 { "" } else { "s" };
            assert!(
                text.ends_with(&format!("parallelism: {threads} thread{s}")),
                "{text}"
            );
            // What EXPLAIN prints is what runs.
            assert_eq!(execute(&db, q).unwrap().stats.threads_used, threads, "{q}");
        }
    }

    #[test]
    fn auto_parallelism_plans_every_available_thread() {
        use crate::catalog::Parallelism;
        let mut db = make_db(10, true);
        db.set_parallelism(Parallelism::Auto);
        let available = std::thread::available_parallelism().map_or(1, |n| n.get());
        let q = "EXPLAIN FIND SIMILAR TO ROW 0 IN stocks EPSILON 1 FORCE SCAN";
        assert_eq!(execute(&db, q).unwrap().plan.threads, available);
    }

    #[test]
    fn stats_reflect_access_path() {
        let db = make_db(80, true);
        let via_index = execute(&db, "FIND SIMILAR TO ROW 1 IN stocks EPSILON 0.5").unwrap();
        assert!(via_index.stats.nodes_visited > 0);
        assert_eq!(via_index.stats.rows_scanned, 0);
        let via_scan = execute(
            &db,
            "FIND SIMILAR TO ROW 1 IN stocks EPSILON 0.5 FORCE SCAN",
        )
        .unwrap();
        assert_eq!(via_scan.stats.nodes_visited, 0);
        assert_eq!(via_scan.stats.rows_scanned, 80);
    }
}
