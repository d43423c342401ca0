//! Batched multi-query execution with shared index traversal.
//!
//! The engine's workloads are naturally *many queries over one relation*
//! (Figure 9-style similarity retrieval for a stream of probe series), but
//! [`crate::exec`] plans and executes one query at a time. The
//! [`BatchExecutor`] amortizes that:
//!
//! 1. **Parse and plan once.** Every query of the batch is parsed and
//!    planned up front; per-query parse/plan errors occupy that query's
//!    result slot without failing the batch.
//! 2. **Group by (relation, access path).** Range queries that plan to the
//!    same relation's index form one *shared-traversal* group; likewise
//!    index kNN queries, scan-fallback range queries and scan-fallback kNN
//!    queries. All-pairs joins, `EXPLAIN`s and one-query groups run
//!    through the ordinary single-query executor.
//! 3. **Execute each group with shared work.**
//!    * Index range groups descend the R*-tree **once**: at every node
//!      each still-active query tests every entry under its own lowered
//!      transformation ([`simq_index::batch`]).
//!    * Index kNN groups run every member's ranked descent (bound,
//!      refine and all) over one work-stealing pool, each pruned by its
//!      own exact k-th best.
//!    * Scan groups make **one pass** over the relation, computing every
//!      query's distance per row ([`simq_storage::multi`]).
//!
//! Every per-row / per-node computation is the exact single-query code on
//! the same operands, so each query's hits, distances and errors are
//! **bitwise identical** to running it alone (the property tests in
//! `tests/batch_equivalence.rs` pin this at 1 and 4 threads, in memory and
//! after snapshot reload). What changes is the work: the batch's
//! [`BatchStats::merged`] counters count shared node reads and row passes
//! once, and for any batch of two or more index-range queries the merged
//! node-visit count is *strictly less* than the sum of the individual
//! executions' (they share the root at minimum).

use crate::ast::Query;
use crate::catalog::{Database, StoredRelation};
use crate::error::QueryError;
use crate::exec::{self, resolve_query, ExecStats, Hit, QueryOutput, QueryResult};
use crate::plan::{plan, AccessPath, Plan};
use crate::verify::{
    knn_rank_all, shards_touched, sort_hits, verify_all, KnnRank, Ledger, RangeVerifier,
};
use simq_dsp::complex::Complex;
use simq_index::{MultiRangeQuery, MultiSearchStats, Rect};
use simq_obs::span;
use simq_series::error::SeriesError;
use simq_series::transform::SeriesTransform;
use simq_storage::multi::{
    scan_knn_multi, scan_range_multi, MultiScanKnnQuery, MultiScanRangeQuery, MultiScanStats,
};
use simq_storage::ScanHit;
use std::collections::BTreeMap;
use std::sync::atomic::Ordering as AtomicOrdering;

/// Work summary of one batch execution.
#[derive(Debug, Clone, Default)]
pub struct BatchStats {
    /// The batch's true cost: shared node reads and relation passes are
    /// counted **once**, per-query work (verification, distances) summed.
    pub merged: ExecStats,
    /// The cost the same queries would have paid one at a time: the sum of
    /// every query's as-if-individual counters.
    pub per_query_total: ExecStats,
    /// Number of shared-traversal groups formed (≥ 2 queries each).
    pub shared_groups: usize,
    /// Number of queries executed inside shared groups.
    pub grouped_queries: usize,
    /// Candidate verifications skipped by cross-query dedup: when two
    /// queries of an index range group have bitwise-identical resolved
    /// verification inputs (same query spectrum, transformation action,
    /// epsilon and statistics window), each shared candidate row is
    /// verified once and the hits fan out to every query of the class.
    pub deduped_verifications: u64,
}

/// Results of one batch: per-query outcomes in input order plus the batch
/// work summary.
///
/// The *outputs* of each slot (hits, distances, ordering, errors) are
/// bitwise identical to individual execution; the *work counters* differ
/// by design. A grouped result's node/row/coefficient counters report
/// what its individual execution would have counted. Range and scan
/// groups stamp `threads_used` with the batch's configured fan-out and
/// leave `per_thread`/`per_shard` empty (their phases parallelize across
/// the whole group); an index kNN member runs its own search on the
/// shared pool and reports that search's counters and breakdowns, equal
/// to an individual run's. `shards_touched` is stamped either way.
#[derive(Debug)]
pub struct BatchResult {
    /// One slot per input query, in input order.
    pub results: Vec<Result<QueryResult, QueryError>>,
    /// Batch-level work counters.
    pub stats: BatchStats,
}

/// Executes many queries against one database, sharing planning and index
/// traversal across the batch. See the [module docs](self) for the
/// guarantees.
pub struct BatchExecutor<'a> {
    db: &'a Database,
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

/// How a planned query participates in the batch.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum GroupKind {
    IndexRange,
    ScanRange,
    IndexKnn,
    ScanKnn,
}

impl<'a> BatchExecutor<'a> {
    /// A batch executor over `db`.
    pub fn new(db: &'a Database) -> Self {
        BatchExecutor { db }
    }

    /// Parses every input and executes the batch; parse errors fill their
    /// slot without failing the rest.
    pub fn execute_texts(&self, inputs: &[&str]) -> BatchResult {
        self.execute_texts_with_planner(inputs, &mut |q| plan(self.db, q))
    }

    /// [`BatchExecutor::execute_texts`] with plans supplied by `planner`
    /// (the session's cache-aware text-batch path).
    pub(crate) fn execute_texts_with_planner(
        &self,
        inputs: &[&str],
        planner: &mut dyn FnMut(&Query) -> Result<Plan, QueryError>,
    ) -> BatchResult {
        let mut parsed: Vec<Option<Query>> = Vec::with_capacity(inputs.len());
        let mut slots: Vec<Option<Result<QueryResult, QueryError>>> =
            Vec::with_capacity(inputs.len());
        for input in inputs {
            match crate::parse::parse(input) {
                Ok(q) => {
                    parsed.push(Some(q));
                    slots.push(None);
                }
                Err(e) => {
                    parsed.push(None);
                    slots.push(Some(Err(e)));
                }
            }
        }
        self.run(&parsed, slots, planner)
    }

    /// Executes a batch of parsed queries.
    pub fn execute(&self, queries: &[Query]) -> BatchResult {
        self.execute_with_planner(queries.to_vec(), &mut |q| plan(self.db, q))
    }

    /// Executes a batch of parsed queries with plans supplied by
    /// `planner` — the prepared-batch path: `session::Session` passes its
    /// plan-cache lookup here, so a batch of N bound statements with
    /// shared shapes plans at most once per shape. Takes the queries by
    /// value: bound statements can carry whole query series, so callers
    /// hand over their one copy instead of paying a second clone.
    pub(crate) fn execute_with_planner(
        &self,
        queries: Vec<Query>,
        planner: &mut dyn FnMut(&Query) -> Result<Plan, QueryError>,
    ) -> BatchResult {
        let slots = vec![None; queries.len()];
        let parsed: Vec<Option<Query>> = queries.into_iter().map(Some).collect();
        self.run(&parsed, slots, planner)
    }

    /// Renders the batch plan: the shared-traversal groups the batch would
    /// form and the access path of every query (the batch `EXPLAIN`). Uses
    /// the same grouping pipeline as execution, so the preview cannot
    /// drift from what [`BatchExecutor::execute_texts`] actually forms.
    pub fn explain_texts(&self, inputs: &[&str]) -> String {
        let mut singles: Vec<(usize, String)> = Vec::new();
        let parsed: Vec<Option<Query>> = inputs
            .iter()
            .enumerate()
            .map(|(i, input)| match crate::parse::parse(input) {
                Ok(q) => Some(q),
                Err(e) => {
                    singles.push((i, format!("error: {e}")));
                    None
                }
            })
            .collect();
        let (plans, groups, errors) = self.plan_and_group(&parsed, &mut |q| plan(self.db, q));
        for (i, e) in errors {
            singles.push((i, format!("error: {e}")));
        }
        let grouped: std::collections::BTreeSet<usize> =
            groups.values().flatten().copied().collect();
        for (i, p) in plans.iter().enumerate() {
            if let Some(p) = p {
                if !grouped.contains(&i) {
                    singles.push((i, format!("{:?}", p.access)));
                }
            }
        }
        singles.sort_by_key(|(i, _)| *i);

        let mut lines: Vec<String> = Vec::new();
        let shared: usize = groups.values().filter(|m| m.len() >= 2).count();
        lines.push(format!(
            "batch: {} queries, {} shared group{}",
            inputs.len(),
            shared,
            if shared == 1 { "" } else { "s" },
        ));
        for ((relation, kind), members) in &groups {
            let what = match kind {
                GroupKind::IndexRange => "shared R*-tree range traversal",
                GroupKind::IndexKnn => "shared-pool multi-step kNN",
                GroupKind::ScanRange => "one shared sequential pass (range)",
                GroupKind::ScanKnn => "one shared sequential pass (kNN)",
            };
            let ids: Vec<String> = members.iter().map(|i| format!("#{i}")).collect();
            let note = if members.len() >= 2 {
                what.to_string()
            } else {
                format!("{what} — single query, runs individually")
            };
            lines.push(format!(
                "  relation `{relation}` · {} quer{} [{}] · {note}",
                members.len(),
                if members.len() == 1 { "y" } else { "ies" },
                ids.join(" "),
            ));
        }
        for (i, what) in singles {
            lines.push(format!("  #{i} · individual · {what}"));
        }
        lines.join("\n")
    }

    /// The grouping pipeline shared by execution and the batch `EXPLAIN`:
    /// plans every parsed query once and groups shareable plans by
    /// `(relation, kind)`. Returns the plans, the groups, and any plan
    /// errors with their slot indices.
    #[allow(clippy::type_complexity)]
    fn plan_and_group(
        &self,
        parsed: &[Option<Query>],
        planner: &mut dyn FnMut(&Query) -> Result<Plan, QueryError>,
    ) -> (
        Vec<Option<Plan>>,
        BTreeMap<(String, GroupKind), Vec<usize>>,
        Vec<(usize, QueryError)>,
    ) {
        let mut plans: Vec<Option<Plan>> = vec![None; parsed.len()];
        let mut groups: BTreeMap<(String, GroupKind), Vec<usize>> = BTreeMap::new();
        let mut errors: Vec<(usize, QueryError)> = Vec::new();
        for (i, query) in parsed.iter().enumerate() {
            let Some(query) = query else { continue };
            match planner(query) {
                Ok(the_plan) => {
                    if let Some(kind) = group_kind(query, &the_plan) {
                        groups
                            .entry((query.relation().to_string(), kind))
                            .or_default()
                            .push(i);
                    }
                    plans[i] = Some(the_plan);
                }
                Err(e) => errors.push((i, e)),
            }
        }
        (plans, groups, errors)
    }

    fn run(
        &self,
        parsed: &[Option<Query>],
        mut slots: Vec<Option<Result<QueryResult, QueryError>>>,
        planner: &mut dyn FnMut(&Query) -> Result<Plan, QueryError>,
    ) -> BatchResult {
        let mut stats = BatchStats::default();
        let m = simq_obs::metrics::registry();
        m.batch_batches.fetch_add(1, AtomicOrdering::Relaxed);
        m.batch_queries.fetch_add(
            parsed.iter().flatten().count() as u64,
            AtomicOrdering::Relaxed,
        );
        let (plans, groups, errors) = self.plan_and_group(parsed, planner);
        for (i, e) in errors {
            slots[i] = Some(Err(e));
        }

        // Shared execution for every group of at least two queries.
        for ((relation, kind), members) in &groups {
            if members.len() < 2 {
                continue;
            }
            let group_span = span::span("batch.group");
            group_span.note("members", members.len() as u64);
            m.batch_groups.fetch_add(1, AtomicOrdering::Relaxed);
            let stored = self
                .db
                .relation(relation)
                .expect("grouped queries planned against an existing relation");
            let threads = plans[members[0]]
                .as_ref()
                .expect("grouped query has a plan")
                .threads
                .max(1);
            stats.shared_groups += 1;
            stats.grouped_queries += members.len();
            match kind {
                GroupKind::IndexRange => self.index_range_group(
                    stored, members, parsed, &plans, threads, &mut slots, &mut stats,
                ),
                GroupKind::ScanRange => self.scan_range_group(
                    stored,
                    members,
                    parsed,
                    &plans,
                    threads,
                    &mut slots,
                    &mut stats.merged,
                ),
                GroupKind::IndexKnn => self.index_knn_group(
                    stored,
                    members,
                    parsed,
                    &plans,
                    threads,
                    &mut slots,
                    &mut stats.merged,
                ),
                GroupKind::ScanKnn => self.scan_knn_group(
                    stored,
                    members,
                    parsed,
                    &plans,
                    threads,
                    &mut slots,
                    &mut stats.merged,
                ),
            }
        }

        // Everything else — joins, EXPLAINs, one-query groups, and any
        // query whose group fell apart during resolution — runs through
        // the ordinary single-query executor, under the plan the batch's
        // planner already made.
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() {
                let query = parsed[i].as_ref().expect("unfilled slot has a query");
                let the_plan = plans[i].clone().expect("unfilled slot was planned");
                let result = exec::run_with_plan(self.db, query, the_plan);
                if let Ok(r) = &result {
                    stats.merged.add_work(&r.stats);
                }
                *slot = Some(result);
            }
        }

        // The one-at-a-time reference cost: per-query counters summed.
        for r in slots.iter().flatten().filter_map(|s| s.as_ref().ok()) {
            stats.per_query_total.add_work(&r.stats);
        }

        BatchResult {
            results: slots
                .into_iter()
                .map(|s| s.expect("every slot filled"))
                .collect(),
            stats,
        }
    }

    /// Shared-traversal execution of an index range group: one tree walk
    /// serves every query's search rectangle; verification stays
    /// per-query (the exact single-query code), except that queries with
    /// bitwise-identical verification inputs verify once and fan the
    /// hits out (`BatchStats::deduped_verifications`).
    #[allow(clippy::too_many_arguments)]
    fn index_range_group(
        &self,
        stored: &StoredRelation,
        members: &[usize],
        parsed: &[Option<Query>],
        plans: &[Option<Plan>],
        threads: usize,
        slots: &mut [Option<Result<QueryResult, QueryError>>],
        batch: &mut BatchStats,
    ) {
        // Resolve every member; failures fill their slot and drop out.
        struct Prepared<'db> {
            slot: usize,
            verifier: RangeVerifier<'db>,
            rect: Rect,
            lowered: simq_index::DiagonalAffine,
        }
        let mut prepared: Vec<Prepared> = Vec::with_capacity(members.len());
        for &i in members {
            let Some(Query::Range {
                source,
                transform,
                on_both,
                eps,
                stats_window,
                ..
            }) = parsed[i].as_ref()
            else {
                unreachable!("index range group holds range queries")
            };
            let outcome = (|| {
                let ctx = resolve_query(stored, source, transform, *on_both)?;
                let verifier = RangeVerifier::new(stored, transform, ctx, *eps, *stats_window)?;
                let rect = verifier.search_rect()?;
                let lowered = transform.lower(stored.scheme(), stored.series_len())?;
                Ok::<_, QueryError>(Prepared {
                    slot: i,
                    verifier,
                    rect,
                    lowered,
                })
            })();
            match outcome {
                Ok(p) => prepared.push(p),
                Err(e) => slots[i] = Some(Err(e)),
            }
        }

        let multi: Vec<MultiRangeQuery> = prepared
            .iter()
            .map(|p| MultiRangeQuery {
                transform: Some(&p.lowered),
                rect: &p.rect,
            })
            .collect();
        let (candidates, search) = multi_range_over(stored, &multi, threads);
        batch.merged.add_search(&search.merged);

        // Cross-query dedup: two members whose resolved verification
        // inputs are bitwise identical (query spectrum, transformation
        // action, epsilon, statistics window) built the same search
        // rectangle, received the same candidate list, and would run the
        // same per-candidate arithmetic — verify the class once and fan
        // the hits out. Per-query counters still report the as-if-
        // individual cost (the batch convention); only the merged
        // counters and `deduped_verifications` record the saving.
        let class_key = |v: &RangeVerifier| -> Vec<u64> {
            let mut key =
                Vec::with_capacity(10 + 2 * (v.ctx.spectrum.len() + v.action.multipliers.len()));
            key.push(v.eps.to_bits());
            for part in [v.window.mean, v.window.std_dev] {
                match part {
                    Some(v) => {
                        key.push(1);
                        key.push(v.to_bits());
                    }
                    None => key.push(0),
                }
            }
            key.push(v.ctx.mean.to_bits());
            key.push(v.ctx.std_dev.to_bits());
            key.push(v.action.mean_scale.to_bits());
            key.push(v.action.mean_shift.to_bits());
            key.push(v.action.std_scale.to_bits());
            for c in &v.action.multipliers {
                key.push(c.re.to_bits());
                key.push(c.im.to_bits());
            }
            for c in &v.ctx.spectrum {
                key.push(c.re.to_bits());
                key.push(c.im.to_bits());
            }
            key
        };
        // Per class: the representative's hits and verification work.
        let mut classes: BTreeMap<Vec<u64>, (Vec<Hit>, ExecStats)> = BTreeMap::new();

        for (qi, p) in prepared.into_iter().enumerate() {
            let ids = &candidates[qi];
            let mut stats = ExecStats {
                candidates: ids.len() as u64,
                shards_touched: shards_touched(stored),
                ..ExecStats::default()
            };
            stats.add_search(&search.per_query[qi]);
            batch.merged.candidates += stats.candidates;
            let (hits, work) = match classes.entry(class_key(&p.verifier)) {
                std::collections::btree_map::Entry::Occupied(class) => {
                    batch.deduped_verifications += ids.len() as u64;
                    class.into_mut()
                }
                std::collections::btree_map::Entry::Vacant(class) => {
                    // The exact verification (and parallel-split
                    // condition) of the single-query executor, so
                    // distances and coefficient counts match an
                    // individual run bitwise.
                    let verifier = p.verifier.with_filter(self.db.filter_enabled());
                    let (mut hits, per_worker) =
                        verify_all(ids, threads, |id, st| verifier.verify(id, st));
                    sort_hits(&mut hits);
                    let mut work = ExecStats::default();
                    per_worker.iter().for_each(|w| work.add_work(w));
                    batch.merged.add_work(&work);
                    class.insert((hits, work))
                }
            };
            stats.add_work(work);
            stats.verified = hits.len() as u64;
            stats.threads_used = threads as u64;
            slots[p.slot] = Some(Ok(QueryResult {
                output: QueryOutput::Hits(hits.clone()),
                plan: plans[p.slot].clone().expect("grouped query has a plan"),
                stats,
                per_thread: Vec::new(),
                per_shard: Vec::new(),
            }));
        }
    }

    /// Shared one-pass execution of a scan-fallback range group.
    #[allow(clippy::too_many_arguments)]
    fn scan_range_group(
        &self,
        stored: &StoredRelation,
        members: &[usize],
        parsed: &[Option<Query>],
        plans: &[Option<Plan>],
        threads: usize,
        slots: &mut [Option<Result<QueryResult, QueryError>>],
        merged: &mut ExecStats,
    ) {
        struct Prepared<'q, 'db> {
            slot: usize,
            transform: &'q SeriesTransform,
            verifier: RangeVerifier<'db>,
        }
        let mut prepared: Vec<Prepared> = Vec::with_capacity(members.len());
        for &i in members {
            let Some(Query::Range {
                source,
                transform,
                on_both,
                eps,
                stats_window,
                ..
            }) = parsed[i].as_ref()
            else {
                unreachable!("scan range group holds range queries")
            };
            let outcome = resolve_query(stored, source, transform, *on_both)
                .and_then(|ctx| RangeVerifier::new(stored, transform, ctx, *eps, *stats_window));
            match outcome {
                Ok(verifier) => prepared.push(Prepared {
                    slot: i,
                    transform,
                    verifier,
                }),
                Err(e) => slots[i] = Some(Err(e)),
            }
        }

        let multi: Vec<MultiScanRangeQuery> = prepared
            .iter()
            .map(|p| MultiScanRangeQuery {
                transform: p.transform,
                query_spectrum: &p.verifier.ctx.spectrum,
                eps: p.verifier.eps,
            })
            .collect();
        let scanned = scan_multi_over(stored, |store| {
            scan_range_multi(store, &multi, true, threads)
        });
        let (hit_lists, scan_stats) = match scanned {
            Ok(r) => r,
            Err(e) => {
                // Per-query transform errors were already caught when the
                // verifiers resolved their actions; a failure here affects
                // the whole group.
                for p in &prepared {
                    slots[p.slot] = Some(Err(QueryError::Series(e.clone())));
                }
                return;
            }
        };
        merged.add_scan(&scan_stats.merged);

        for (qi, p) in prepared.iter().enumerate() {
            let mut hits: Vec<Hit> = hit_lists[qi]
                .iter()
                .filter_map(|h| {
                    let row = stored.row(h.id).expect("scan ids are valid");
                    p.verifier.window_ok(row).then(|| Hit {
                        id: h.id,
                        name: row.name.clone(),
                        distance: h.distance,
                    })
                })
                .collect();
            sort_hits(&mut hits);
            let stats = scan_slot_stats(stored, &scan_stats.per_query[qi], hits.len(), threads);
            merged.candidates += stats.candidates;
            slots[p.slot] = Some(Ok(QueryResult {
                output: QueryOutput::Hits(hits),
                plan: plans[p.slot].clone().expect("grouped query has a plan"),
                stats,
                per_thread: Vec::new(),
                per_shard: Vec::new(),
            }));
        }
    }

    /// Batched multi-step kNN: every member's ranked descent — bound,
    /// refine and all — runs over one shared work-stealing pool, each
    /// pruned by its own exact `k`-th best. A member's counters are its
    /// own search's, exactly what [`exec::run_with_plan`] reports for it.
    #[allow(clippy::too_many_arguments)]
    fn index_knn_group(
        &self,
        stored: &StoredRelation,
        members: &[usize],
        parsed: &[Option<Query>],
        plans: &[Option<Plan>],
        threads: usize,
        slots: &mut [Option<Result<QueryResult, QueryError>>],
        merged: &mut ExecStats,
    ) {
        let filter = self.db.filter_enabled();
        let mut prepared: Vec<usize> = Vec::with_capacity(members.len());
        let mut ranks: Vec<KnnRank> = Vec::with_capacity(members.len());
        for &i in members {
            let Some(Query::Knn {
                k,
                source,
                transform,
                on_both,
                ..
            }) = parsed[i].as_ref()
            else {
                unreachable!("index kNN group holds kNN queries")
            };
            match resolve_query(stored, source, transform, *on_both)
                .and_then(|ctx| KnnRank::new(stored, transform, ctx.spectrum, *k, filter))
            {
                Ok(rank) => {
                    prepared.push(i);
                    ranks.push(rank);
                }
                Err(e) => slots[i] = Some(Err(e)),
            }
        }

        for (slot, (hits, search)) in prepared
            .into_iter()
            .zip(knn_rank_all(stored, &ranks, threads))
        {
            merged.add_search(&search.merged);
            let mut ledger = Ledger::new(stored, threads);
            ledger.search(&search);
            let the_plan = plans[slot].as_ref().expect("grouped query has a plan");
            slots[slot] = Some(Ok(ledger.finish(QueryOutput::Hits(hits), the_plan)));
        }
    }

    /// Shared one-pass execution of a scan-fallback kNN group.
    #[allow(clippy::too_many_arguments)]
    fn scan_knn_group(
        &self,
        stored: &StoredRelation,
        members: &[usize],
        parsed: &[Option<Query>],
        plans: &[Option<Plan>],
        threads: usize,
        slots: &mut [Option<Result<QueryResult, QueryError>>],
        merged: &mut ExecStats,
    ) {
        struct Prepared<'q> {
            slot: usize,
            k: usize,
            transform: &'q SeriesTransform,
            spectrum: Vec<Complex>,
        }
        let mut prepared: Vec<Prepared> = Vec::with_capacity(members.len());
        for &i in members {
            let Some(Query::Knn {
                k,
                source,
                transform,
                on_both,
                ..
            }) = parsed[i].as_ref()
            else {
                unreachable!("scan kNN group holds kNN queries")
            };
            match resolve_query(stored, source, transform, *on_both) {
                Ok(ctx) => prepared.push(Prepared {
                    slot: i,
                    k: *k,
                    transform,
                    spectrum: ctx.spectrum,
                }),
                Err(e) => slots[i] = Some(Err(e)),
            }
        }

        let multi: Vec<MultiScanKnnQuery> = prepared
            .iter()
            .map(|p| MultiScanKnnQuery {
                transform: p.transform,
                query_spectrum: &p.spectrum,
                k: p.k,
            })
            .collect();
        let scanned = scan_multi_over(stored, |store| scan_knn_multi(store, &multi, threads));
        let (hit_lists, scan_stats) = match scanned {
            Ok(r) => r,
            Err(e) => {
                for p in &prepared {
                    slots[p.slot] = Some(Err(QueryError::Series(e.clone())));
                }
                return;
            }
        };
        merged.add_scan(&scan_stats.merged);

        for (p, (hits, per)) in prepared
            .iter()
            .zip(hit_lists.into_iter().zip(&scan_stats.per_query))
        {
            // Per-store top-`k` lists merge by `(distance, id)` back to
            // `k` — any global top-`k` row is in its store's top-`k`.
            let hits: Vec<Hit> = simq_storage::scan::nearest_k(hits, p.k)
                .into_iter()
                .map(|h| Hit {
                    id: h.id,
                    name: stored.row(h.id).expect("scan ids are valid").name.clone(),
                    distance: h.distance,
                })
                .collect();
            let stats = scan_slot_stats(stored, per, hits.len(), threads);
            merged.candidates += stats.candidates;
            slots[p.slot] = Some(Ok(QueryResult {
                output: QueryOutput::Hits(hits),
                plan: plans[p.slot].clone().expect("grouped query has a plan"),
                stats,
                per_thread: Vec::new(),
                per_shard: Vec::new(),
            }));
        }
    }
}

/// A grouped scan query's as-if-individual counters.
fn scan_slot_stats(
    stored: &StoredRelation,
    per: &simq_storage::ScanStats,
    verified: usize,
    threads: usize,
) -> ExecStats {
    let mut stats = ExecStats {
        candidates: per.rows_scanned,
        verified: verified as u64,
        threads_used: threads as u64,
        shards_touched: shards_touched(stored),
        ..ExecStats::default()
    };
    stats.add_scan(per);
    stats
}

/// One shared batched range traversal per tree of the relation's forest
/// (the batch's per-shard work units), per-query candidate lists
/// concatenated across trees.
fn multi_range_over(
    stored: &StoredRelation,
    multi: &[MultiRangeQuery],
    threads: usize,
) -> (Vec<Vec<u64>>, MultiSearchStats) {
    let mut out: Vec<Vec<u64>> = vec![Vec::new(); multi.len()];
    let mut stats = MultiSearchStats {
        per_query: vec![simq_index::SearchStats::default(); multi.len()],
        ..MultiSearchStats::default()
    };
    for tree in stored.trees() {
        let (cands, s) = tree.multi_range_parallel(multi, threads);
        for (acc, ids) in out.iter_mut().zip(cands) {
            acc.extend(ids);
        }
        stats.add(&s);
    }
    (out, stats)
}

/// One shared scan pass (`pass`) per store of the relation, per-query hit
/// lists concatenated across stores.
fn scan_multi_over(
    stored: &StoredRelation,
    pass: impl Fn(
        &simq_storage::SeriesRelation,
    ) -> Result<(Vec<Vec<ScanHit>>, MultiScanStats), SeriesError>,
) -> Result<(Vec<Vec<ScanHit>>, MultiScanStats), SeriesError> {
    let mut out: Vec<Vec<ScanHit>> = Vec::new();
    let mut stats = MultiScanStats::default();
    for store in stored.stores() {
        let (hits, s) = pass(store)?;
        out.resize(hits.len(), Vec::new());
        for (acc, h) in out.iter_mut().zip(hits) {
            acc.extend(h);
        }
        stats.add(&s);
    }
    Ok((out, stats))
}

/// Which shared group a planned query can join, if any.
fn group_kind(query: &Query, the_plan: &Plan) -> Option<GroupKind> {
    match (query, &the_plan.access) {
        (Query::Range { .. }, AccessPath::IndexScan) => Some(GroupKind::IndexRange),
        (Query::Range { .. }, AccessPath::SeqScan { .. }) => Some(GroupKind::ScanRange),
        (Query::Knn { .. }, AccessPath::IndexScan) => Some(GroupKind::IndexKnn),
        (Query::Knn { .. }, AccessPath::SeqScan { .. }) => Some(GroupKind::ScanKnn),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert!(batch.stats.shared_groups >= 3);
        for (i, q) in queries.iter().enumerate() {
            let individual = exec::execute(&db, q).unwrap();
            let got = batch.results[i].as_ref().unwrap();
            assert_same(got, &individual, q);
        }
        // Shared traversal did strictly less node work than the sum.
        assert!(batch.stats.merged.nodes_visited < batch.stats.per_query_total.nodes_visited);
        // And one pass over the relation served both scan queries.
        assert!(batch.stats.merged.rows_scanned < batch.stats.per_query_total.rows_scanned);
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
    fn explain_texts_renders_groups() {
        let db = make_db(30);
        let queries = [
            "FIND SIMILAR TO ROW 1 IN stocks EPSILON 1",
            "FIND SIMILAR TO ROW 2 IN stocks EPSILON 1",
            "FIND PAIRS IN stocks EPSILON 1 METHOD b",
            "garbage",
        ];
        let text = BatchExecutor::new(&db).explain_texts(&queries);
        assert!(text.contains("shared R*-tree range traversal"), "{text}");
        assert!(text.contains("#0 #1"), "{text}");
        assert!(text.contains("error:"), "{text}");
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
