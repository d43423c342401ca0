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
//! dismissals); step 3 removes the false hits. Steps 2 and 3 are one
//! [`Descent`]: each row a leaf keeps is verified the
//! moment it is kept. kNN runs the same descent under its live `k`-th best.
//! The property tests in `tests/lemma1.rs` pin the end-to-end guarantee
//! against brute force.
//!
//! A sequential scan is the same descent over a flat source of the
//! relation's rows in scan order, with no entry test: the access path
//! picks the source and nothing else, so range and kNN each run one drain
//! whichever source the plan picked. A range scan with a thread budget
//! runs one flat descent per contiguous row span, merged in span order.
//!
//! An all-pairs join is a loop of range descents, one per outer row, each
//! posing the row (transformed by the left side) as the range query's
//! comparison spectrum: over the trees for methods c/d, over the flat
//! source for a/b, workers claiming rows from one shared cursor.

use crate::ast::{Query, QuerySource, StatsWindow};
use crate::catalog::{Database, StoredRelation};
use crate::error::QueryError;
use crate::plan::{explain, plan, AccessPath, Plan};
use crate::verify::{
    flat_rows, hit, knn_descent, lowered, sort_hits, Ledger, PairStage, PlanDescent, RangeVerifier,
};
use simq_dsp::complex::Complex;
use simq_index::{Descent, ForestStats, SearchStats};
use simq_obs::span;
use simq_series::transform::{NormalFormAction, SeriesTransform};
use simq_storage::scan;
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Work counters accumulated across the whole execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Index nodes visited (proxy for disk accesses).
    pub nodes_visited: u64,
    /// Leaf nodes among them.
    pub leaves_visited: u64,
    /// Index entries tested.
    pub entries_tested: u64,
    /// Rows read by flat descents: a scan's rows, and the rows each outer
    /// row of a scan join reads.
    pub rows_scanned: u64,
    /// Complex coefficients compared by scans / postprocessing.
    pub coefficients_compared: u64,
    /// Rows a descent handed to verification or refinement: the rows an
    /// index search's rectangle kept, every row a flat descent read, and
    /// for a join the sum over its outer rows' descents (the probe's own
    /// row and, in a symmetric index join, the ids below it included).
    pub candidates: u64,
    /// Candidates dismissed by the quantized signature tier before their
    /// full spectrum was touched — rows the exact distance would have
    /// rejected too, by the no-false-dismissal bound. Always 0 on the
    /// tier-free paths (range scans, scan joins) and for kNN, which ranks
    /// by the tier instead.
    pub filtered_out: u64,
    /// Candidates that survived exact verification.
    pub verified: u64,
    /// Worker threads that actually carried out query work — the widest
    /// fan-out any execution phase reached: a range scan's row spans, or a
    /// join's workers claiming outer rows. 1 means the query ran on the
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
        self.rows_scanned += s.rows_scanned;
        // Both descent forms refine their rows inside the descent.
        self.candidates += s.candidates;
        self.filtered_out += s.filtered_out;
        self.coefficients_compared += s.refine_work;
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
    /// execution): entry `i` is shard `i`'s share of the descents — node
    /// reads or scanned rows, and the candidates, dismissals and
    /// coefficients of the rows refined in its tree or store, range
    /// verification and every join descent included. `verified` is in
    /// [`QueryResult::stats`] only.
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
            let (stored, ctx, action) = resolve_query(db, relation, source, transform, *on_both)?;
            let result = range(stored, action, ctx, *eps, *stats_window, &the_plan)?;
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
            let (stored, ctx, action) = resolve_query(db, relation, source, transform, *on_both)?;
            let result = knn(stored, action, ctx.spectrum, *k, &the_plan)?;
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
#[derive(Clone)]
pub(crate) struct QueryContext {
    pub(crate) spectrum: Vec<Complex>,
    pub(crate) mean: f64,
    pub(crate) std_dev: f64,
}

/// Resolves a row query: the relation it names, the normal-form spectrum of
/// the query series (transformed when `ON BOTH` was given) with its
/// statistics, and the transformation's action on every frequency — the
/// statement's one resolution of it, from which the `ON BOTH` spectrum,
/// the verifier, the signature probe, the kNN rank and the index lowering
/// all derive. A statement whose distances can overflow is refused here
/// ([`NormalFormAction::check_distances`]).
pub(crate) fn resolve_query<'db>(
    db: &'db Database,
    relation: &str,
    source: &QuerySource,
    transform: &SeriesTransform,
    on_both: bool,
) -> Result<(&'db StoredRelation, QueryContext, NormalFormAction), QueryError> {
    let resolve = span::span("query.resolve");
    let stored = db
        .relation(relation)
        .ok_or_else(|| QueryError::UnknownRelation(relation.to_string()))?;
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
    let action = transform.action(n, n.saturating_sub(1))?;
    resolve.note("multipliers", action.multipliers.len() as u64);
    let spectrum = if on_both {
        action.apply_spectrum(&spectrum)
    } else {
        spectrum
    };
    action.check_distances(n, &spectrum)?;
    let ctx = QueryContext {
        spectrum,
        mean,
        std_dev,
    };
    Ok((stored, ctx, action))
}

fn range(
    stored: &StoredRelation,
    action: NormalFormAction,
    ctx: QueryContext,
    eps: f64,
    window: StatsWindow,
    the_plan: &Plan,
) -> Result<QueryResult, QueryError> {
    let mut ledger = Ledger::new(stored);
    let verifier = RangeVerifier::new(stored, action, ctx, eps, window);
    let (op, drained) = match the_plan.access {
        // One descent over the relation's forest of trees: every shard's
        // tree serves the same lowered query, and each row a leaf keeps is
        // verified the moment it is kept.
        AccessPath::IndexScan => {
            let op = span::span("range.descend");
            let descent = verifier.descend(&the_plan.access)?;
            (op, vec![drain(stored, descent)])
        }
        // One flat descent per contiguous span of the stores' rows, taken
        // store after store, one span per worker.
        _ => {
            let op = span::span("scan");
            let spans = scan::chunk_bounds(stored.row_count(), the_plan.threads);
            let scan = |&span: &(usize, usize)| drain(stored, verifier.clone().scan(span));
            (op, scan::fan(&spans, scan))
        }
    };
    let mut hits = charge(&mut ledger, op, drained);

    let merge = span::span("range.merge");
    sort_hits(&mut hits);
    merge.note("hits", hits.len() as u64);
    drop(merge);
    Ok(ledger.finish(QueryOutput::Hits(hits), the_plan))
}

/// Drains a plan's descent: its hits, in the order it yields them, and its
/// work.
fn drain(stored: &StoredRelation, mut descent: PlanDescent) -> (Vec<Hit>, ForestStats) {
    let hits = descent.by_ref().map(|nb| hit(stored, nb)).collect();
    (hits, descent.into_stats())
}

/// Charges the descents one phase drained, one per worker, to the ledger
/// and notes their work on the phase's operator span `op`: their hits,
/// concatenated in descent order.
fn charge<T>(
    ledger: &mut Ledger,
    op: span::SpanGuard,
    drained: Vec<(Vec<T>, ForestStats)>,
) -> Vec<T> {
    let (mut hits, mut work) = (Vec::new(), Vec::with_capacity(drained.len()));
    for (found, stats) in drained {
        if hits.is_empty() {
            hits = found;
        } else {
            hits.extend(found);
        }
        work.push(stats);
    }
    ledger.search(&work);
    let s = &ledger.stats;
    op.note("nodes", s.nodes_visited);
    op.note("leaves", s.leaves_visited);
    op.note("entries", s.entries_tested);
    op.note("rows", s.rows_scanned);
    op.note("candidates", s.candidates);
    op.note("filtered", s.filtered_out);
    op.note("coefficients", s.coefficients_compared);
    op.note("verified", hits.len() as u64);
    hits
}

fn knn(
    stored: &StoredRelation,
    action: NormalFormAction,
    q_spec: Vec<Complex>,
    k: usize,
    the_plan: &Plan,
) -> Result<QueryResult, QueryError> {
    let mut ledger = Ledger::new(stored);
    // Optimal multi-step kNN (Seidl & Kriegel): one best-first descent
    // over the relation's whole forest of trees, or over its rows when it
    // scans, ranks rows by lower bound and refines each as it surfaces,
    // yielding the k nearest in (d², id) order.
    let op = span::span(match the_plan.access {
        AccessPath::IndexScan => "knn.rank",
        _ => "scan",
    });
    let descent = knn_descent(stored, action, q_spec, k, &the_plan.access)?;
    let mut hits = charge(&mut ledger, op, vec![drain(stored, descent)]);
    // √ can turn two distinct squared distances into one tie.
    sort_hits(&mut hits);
    Ok(ledger.finish(QueryOutput::Hits(hits), the_plan))
}

/// Answers an all-pairs query as the paper does (Table 1): each row `x`,
/// moved by `left`, is posed as a range query of `right`. One body runs
/// every method: workers claim outer rows from one shared cursor, and each
/// row drains one fixed-bound descent, over the trees (methods c/d) or the
/// flat source (a/b), steered by the range verifier resolved once here and
/// re-aimed at the row's probe `L(x)`. A symmetric flat probe reads only
/// the rows after its own; every probe skips its own row, and a symmetric
/// tree probe every id below its own, so each unordered pair of a
/// symmetric join is verified once and each orientation of an asymmetric
/// one once. Both sides' transformations are resolved under every method,
/// so one no series of the relation admits is refused alike; a join whose
/// distances could overflow is refused as a range or kNN is, except under
/// METHOD c, which then ignores the transformations and never multiplies
/// by them.
fn all_pairs(
    stored: &StoredRelation,
    left: &SeriesTransform,
    right: &SeriesTransform,
    eps: f64,
    the_plan: &Plan,
) -> Result<QueryResult, QueryError> {
    let n = stored.series_len();
    let mut ledger = Ledger::new(stored);
    let symmetric = left == right;
    // The access path picks the source, whether distances abandon at ε and
    // whether the transformations apply (METHOD c ignores them).
    let (op, index, abandon, transformed) = match the_plan.access {
        AccessPath::ScanJoin { early_abandon } => ("join.scan", false, early_abandon, true),
        AccessPath::IndexProbeJoin { transformed } => ("join.probe", true, true, transformed),
        _ => unreachable!("all-pairs queries plan to joins"),
    };
    let op = span::span(op);
    let resolve = |t: &SeriesTransform| t.action(n, n.saturating_sub(1));
    let (mut probe_action, mut action) = (resolve(left)?.multipliers, resolve(right)?);
    if transformed {
        // Refused before any worker starts if a distance to a probe could
        // overflow: `|L(x)_f| ≤ M_left·√n`, as `|x_f| ≤ √n` for a normal form.
        let m_left = probe_action.iter().fold(0.0, |m: f64, a| m.max(a.abs()));
        action.check_distances(n, &[Complex::real(m_left * (n as f64).sqrt())])?;
    } else {
        action = resolve(&SeriesTransform::Identity)?;
        probe_action.clone_from(&action.multipliers);
    }
    let ctx = QueryContext {
        spectrum: vec![Complex::ZERO; n],
        mean: 0.0,
        std_dev: 0.0,
    };
    let lowered = index.then(|| lowered(&action, stored)).transpose()?;
    let verify = RangeVerifier::new(stored, action, ctx, eps, StatsWindow::default());
    let stage = verify.abandoning(abandon).stage(index)?;

    let (stores, rows) = (stored.stores(), stored.row_count());
    let cursor = AtomicUsize::new(0);
    let workers: Vec<usize> = (0..the_plan.threads.clamp(1, rows.max(1))).collect();
    let probe = |_: &usize| -> Result<(Vec<PairHit>, ForestStats), QueryError> {
        let (mut stage, mut found, mut work) = (stage.clone(), Vec::new(), ForestStats::default());
        loop {
            let p = cursor.fetch_add(1, Ordering::Relaxed);
            if p >= rows {
                return Ok((found, work));
            }
            let (mut store, mut pos) = (0, p);
            while pos >= stores[store].len() {
                pos -= stores[store].len();
                store += 1;
            }
            let row = &stores[store].row_slice()[pos];
            stage.aim(&row.features.spectrum, &probe_action)?;
            // A symmetric flat probe reads only the rows after its own.
            let pairs = PairStage {
                stage: &stage,
                own: row.id,
                below: if symmetric && index { row.id } else { 0 },
            };
            let mut descent = match &lowered {
                Some(lowered) => {
                    Descent::within(stored.trees(), lowered.as_ref().map(Cow::Borrowed), pairs)
                }
                None => {
                    let from = if symmetric { p + 1 } else { 0 };
                    Descent::within_flat(flat_rows(stores, (from, usize::MAX)), pairs)
                }
            };
            found.extend(descent.by_ref().map(|nb| PairHit {
                a: row.id.min(nb.id),
                b: row.id.max(nb.id),
                distance: nb.dist_sq.sqrt(),
            }));
            let done = descent.into_stats();
            work.merged.add(&done.merged);
            work.per_shard
                .resize(done.per_shard.len(), SearchStats::default());
            for (acc, s) in work.per_shard.iter_mut().zip(&done.per_shard) {
                acc.add(s);
            }
        }
    };
    let drained = scan::fan(&workers, probe);
    let mut pairs = charge(
        &mut ledger,
        op,
        drained.into_iter().collect::<Result<_, _>>()?,
    );
    // An asymmetric join finds a pair from each side: keep the nearer.
    pairs.sort_by(|x, y| {
        (x.a, x.b)
            .cmp(&(y.a, y.b))
            .then(x.distance.total_cmp(&y.distance))
    });
    pairs.dedup_by_key(|x| (x.a, x.b));
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
