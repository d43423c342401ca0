//! Sessions, prepared statements and streaming cursors — the workload
//! API of the query engine.
//!
//! [`execute`](crate::execute) re-lexes, re-parses and re-plans its text
//! on every call and materializes the whole answer. Applications re-issue
//! the same query *shapes* with different constants; a [`Session`] moves
//! the front end out of the loop:
//!
//! * [`Session::prepare`] lexes and parses a statement **once** into the
//!   one [`Query`] AST, and plans it once to fail early (unknown relation,
//!   unsatisfiable `FORCE INDEX`). The text may contain placeholders — `?`
//!   positional or `$name` named — in the query-source, `EPSILON`, `k`,
//!   `ROW <id>` and `MEAN`/`STD WITHIN` slots; each holds a dummy constant.
//! * [`Prepared::bind`] clones that query and, placeholder by placeholder
//!   in lexical order, checks each value's type and domain and writes it
//!   into its field, producing a [`Bound`] statement.
//! * [`Session::execute`] runs a bound statement exactly as
//!   [`run`](crate::run) runs a parsed one: plan against the current
//!   catalog, then execute on a pinned read view. Planning costs well
//!   under a microsecond, so no plan is ever reused and none can go stale.
//! * [`Session::cursor`] returns a lazy [`Cursor`] that streams hits
//!   incrementally: a cursor is the plan's one descent — over the index or
//!   over a scan's flat source — paused between pulls, so a consumer that
//!   stops after a few hits — `LIMIT`-style — abandons the remaining
//!   descent instead of materializing everything.
//!
//! ```
//! use simq_query::session::{Session, Value};
//! use simq_query::{Database, QueryOutput};
//! use simq_series::features::FeatureScheme;
//! use simq_storage::SeriesRelation;
//!
//! let mut rel = SeriesRelation::new("stocks", 32, FeatureScheme::paper_default());
//! for i in 0..40u64 {
//!     let series: Vec<f64> = (0..32)
//!         .map(|t| 30.0 + ((t as f64) * (0.1 + i as f64 * 0.01)).sin() * 4.0)
//!         .collect();
//!     rel.insert(format!("S{i:04}"), series).unwrap();
//! }
//! let mut db = Database::new();
//! db.add_relation_indexed(rel);
//!
//! let session = Session::new(&db);
//! let prepared = session
//!     .prepare("FIND SIMILAR TO ROW $row IN stocks EPSILON $eps")
//!     .unwrap();
//! for row in 0..5u64 {
//!     let bound = prepared
//!         .bind_named(&[("row", Value::from(row)), ("eps", Value::from(2.0))])
//!         .unwrap();
//!     let result = session.execute(&bound).unwrap();
//!     assert!(matches!(result.output, QueryOutput::Hits(_)));
//! }
//! assert_eq!(session.stats().prepared_statements, 1);
//! assert_eq!(session.stats().executions, 5);
//! ```

use crate::ast::{
    ParamOccurrence, ParamRef, ParamType, Query, QuerySource, SlotField, INTEGER_LIMIT,
};
use crate::batch::{BatchExecutor, BatchResult};
use crate::catalog::{Database, InsertBatchReport, InsertReport, StoredRelation};
use crate::error::QueryError;
use crate::exec::{self, ExecStats, Hit, QueryResult};
use crate::plan::{plan as plan_query, Plan};
use crate::verify::{self, PlanDescent, RangeVerifier};
use simq_obs::slowlog::{SlowEntry, SlowLog};
use simq_obs::span;
#[cfg(test)]
use simq_storage::SeriesRelation;
use std::borrow::Borrow;
use std::cell::RefCell;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

// ---------------------------------------------------------------------------
// Parameter values
// ---------------------------------------------------------------------------

/// A value bound to a statement parameter.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A number (for `EPSILON`, `k`, `ROW <id>`, `MEAN`/`STD WITHIN`).
    Number(f64),
    /// A whole query series (for the source slot).
    Series(Vec<f64>),
}

impl Value {
    fn type_name(&self) -> &'static str {
        match self {
            Value::Number(_) => "number",
            Value::Series(_) => "series",
        }
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Number(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Number(v as f64)
    }
}
/// Integer conversions go through the `Number` f64, which is exact below
/// 2⁵³; any value from 2⁵³ on converts to at least 2⁵³, so binding it to
/// an integer slot is rejected at bind time rather than rounded.
impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::Number(v as f64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::Number(v as f64)
    }
}
impl From<Vec<f64>> for Value {
    fn from(v: Vec<f64>) -> Self {
        Value::Series(v)
    }
}
impl From<&[f64]> for Value {
    fn from(v: &[f64]) -> Self {
        Value::Series(v.to_vec())
    }
}

// ---------------------------------------------------------------------------
// Prepared statements
// ---------------------------------------------------------------------------

/// One slot of a prepared statement's signature.
#[derive(Debug, Clone, PartialEq)]
pub struct Slot {
    /// `Some(name)` for `$name` parameters, `None` for positional `?`.
    pub name: Option<String>,
    /// The type the slot expects.
    pub ty: ParamType,
    /// Where the slot appears (`"EPSILON"`, `"k"`, `"query series"`, …).
    pub context: &'static str,
}

/// A prepared statement: parsed once, executable many times with
/// different parameter bindings.
///
/// Produced by [`Session::prepare`]. The statement itself is immutable
/// and does not borrow the session or the database — it can outlive
/// both; every execution plans against the catalog it runs on.
#[derive(Debug, Clone)]
pub struct Prepared {
    text: Arc<str>,
    /// The statement, each placeholder's field holding a dummy constant.
    query: Query,
    /// Every placeholder, in lexical order: what a binding writes where.
    params: Vec<ParamOccurrence>,
    /// Positional slots (in `?`-ordinal order), then named slots (in
    /// first-appearance order).
    slots: Vec<Slot>,
    positional_count: usize,
}

impl Prepared {
    /// The original statement text.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The typed signature: positional slots in ordinal order, then
    /// named slots in first-appearance order.
    pub fn signature(&self) -> &[Slot] {
        &self.slots
    }

    /// Binds positional parameter values, in `?` order.
    ///
    /// ```
    /// # use simq_query::session::{Session, Value};
    /// # use simq_query::Database;
    /// # use simq_series::features::FeatureScheme;
    /// # use simq_storage::SeriesRelation;
    /// # let mut rel = SeriesRelation::new("r", 16, FeatureScheme::paper_default());
    /// # for i in 0..8u64 {
    /// #     rel.insert(format!("S{i}"), (0..16).map(|t| (t as f64 + i as f64).sin() + t as f64 * 0.1).collect::<Vec<_>>()).unwrap();
    /// # }
    /// # let mut db = Database::new();
    /// # db.add_relation_indexed(rel);
    /// let session = Session::new(&db);
    /// let p = session.prepare("FIND ? NEAREST TO ROW ? IN r").unwrap();
    /// let bound = p.bind(&[Value::from(3u64), Value::from(0u64)]).unwrap();
    /// assert!(session.execute(&bound).is_ok());
    /// // Type errors are caught at bind time:
    /// assert!(p.bind(&[Value::from(vec![1.0]), Value::from(0u64)]).is_err());
    /// ```
    ///
    /// # Errors
    /// [`QueryError::Bind`] on wrong arity, a missing named parameter
    /// (use [`Prepared::bind_all`]), a type mismatch, or an
    /// out-of-domain value (negative `EPSILON`, fractional `ROW` id, …).
    pub fn bind(&self, values: &[Value]) -> Result<Bound, QueryError> {
        self.bind_all(values, &[])
    }

    /// Binds named parameter values (`$name`).
    ///
    /// # Errors
    /// [`QueryError::Bind`] — see [`Prepared::bind`].
    pub fn bind_named(&self, values: &[(&str, Value)]) -> Result<Bound, QueryError> {
        self.bind_all(&[], values)
    }

    /// Binds a statement that mixes positional and named parameters.
    ///
    /// # Errors
    /// [`QueryError::Bind`] — see [`Prepared::bind`].
    pub fn bind_all(
        &self,
        positional: &[Value],
        named: &[(&str, Value)],
    ) -> Result<Bound, QueryError> {
        if positional.len() != self.positional_count {
            return Err(QueryError::Bind(format!(
                "statement takes {} positional parameter{}, got {}",
                self.positional_count,
                if self.positional_count == 1 { "" } else { "s" },
                positional.len()
            )));
        }
        let named_slots = &self.slots[self.positional_count..];
        for (name, _) in named {
            if !named_slots.iter().any(|s| s.name.as_deref() == Some(*name)) {
                return Err(QueryError::Bind(format!(
                    "statement has no parameter ${name}"
                )));
            }
        }
        for (i, (name, _)) in named.iter().enumerate() {
            if named[..i].iter().any(|(seen, _)| seen == name) {
                return Err(QueryError::Bind(format!("parameter ${name} bound twice")));
            }
        }
        for slot in named_slots {
            let name = slot.name.as_deref().expect("named slot has a name");
            if !named.iter().any(|(given, _)| *given == name) {
                return Err(QueryError::Bind(format!("parameter ${name} is not bound")));
            }
        }
        let mut query = self.query.clone();
        for occ in &self.params {
            let value = match &occ.reference {
                ParamRef::Positional(i) => &positional[*i],
                ParamRef::Named(name) => {
                    let bound = named.iter().find(|(given, _)| given == name);
                    &bound.expect("every name is bound").1
                }
            };
            fill(&mut query, occ, value)?;
        }
        Ok(Bound {
            query,
            text: Arc::clone(&self.text),
        })
    }
}

/// A prepared statement with every parameter bound: a concrete,
/// executable query plus the statement text it came from (the slow-query
/// log's label).
#[derive(Debug, Clone)]
pub struct Bound {
    query: Query,
    text: Arc<str>,
}

impl Bound {
    /// The concrete query this binding produces.
    pub fn query(&self) -> &Query {
        &self.query
    }
}

/// Checks `value` against the field `occ` names and writes it there,
/// below any `EXPLAIN` / `EXPLAIN ANALYZE` wrapper.
fn fill(query: &mut Query, occ: &ParamOccurrence, value: &Value) -> Result<(), QueryError> {
    let (field, r) = (occ.field, &occ.reference);
    let mut q = query;
    while let Query::Explain(inner) | Query::ExplainAnalyze(inner) = q {
        q = inner;
    }
    match (field, q) {
        (SlotField::K, Query::Knn { k, .. }) => *k = integer(value, field, r)? as usize,
        (SlotField::RowId, Query::Range { source, .. } | Query::Knn { source, .. }) => {
            *source = QuerySource::RowId(integer(value, field, r)?)
        }
        (SlotField::Series, Query::Range { source, .. } | Query::Knn { source, .. }) => {
            *source = QuerySource::Literal(series(value, r)?)
        }
        (SlotField::Epsilon, Query::Range { eps, .. } | Query::AllPairs { eps, .. }) => {
            *eps = number(value, field, r)?
        }
        (SlotField::MeanWithin, Query::Range { stats_window, .. }) => {
            stats_window.mean = Some(number(value, field, r)?)
        }
        (SlotField::StdWithin, Query::Range { stats_window, .. }) => {
            stats_window.std_dev = Some(number(value, field, r)?)
        }
        (field, q) => unreachable!("the parser records no {field} placeholder in {q:?}"),
    }
    Ok(())
}

/// A finite, non-negative number: every number slot is a distance or a
/// tolerance.
fn number(value: &Value, field: SlotField, r: &ParamRef) -> Result<f64, QueryError> {
    match *value {
        Value::Number(v) if !v.is_finite() => Err(QueryError::Bind(format!(
            "{field} parameter {r} must be finite, got {v}"
        ))),
        Value::Number(v) if v < 0.0 => Err(QueryError::Bind(format!(
            "{field} must be non-negative, got {v}"
        ))),
        Value::Number(v) => Ok(v),
        ref other => Err(mismatch(field, r, ParamType::Number, other)),
    }
}

/// A whole number below [`INTEGER_LIMIT`], the rule literals meet too.
fn integer(value: &Value, field: SlotField, r: &ParamRef) -> Result<u64, QueryError> {
    match *value {
        Value::Number(v) if v.fract() == 0.0 && (0.0..INTEGER_LIMIT).contains(&v) => Ok(v as u64),
        Value::Number(v) if v >= INTEGER_LIMIT => Err(QueryError::Bind(format!(
            "{field} parameter {r} must be below 2^53 to be represented exactly, got {v}"
        ))),
        Value::Number(v) => Err(QueryError::Bind(format!(
            "{field} parameter {r} must be a non-negative integer, got {v}"
        ))),
        ref other => Err(mismatch(field, r, ParamType::Integer, other)),
    }
}

/// A query series of finite samples.
fn series(value: &Value, r: &ParamRef) -> Result<Vec<f64>, QueryError> {
    match value {
        Value::Series(values) => match values.iter().find(|v| !v.is_finite()) {
            Some(bad) => Err(QueryError::Bind(format!(
                "query series parameter {r} contains a non-finite value {bad}"
            ))),
            None => Ok(values.clone()),
        },
        other => Err(mismatch(SlotField::Series, r, ParamType::Series, other)),
    }
}

fn mismatch(field: SlotField, r: &ParamRef, want: ParamType, got: &Value) -> QueryError {
    let article = if want == ParamType::Integer {
        "an"
    } else {
        "a"
    };
    QueryError::Bind(format!(
        "{field} parameter {r} expects {article} {want}, got a {}",
        got.type_name()
    ))
}

// ---------------------------------------------------------------------------
// The session
// ---------------------------------------------------------------------------

/// Cumulative work counters of one session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Statements prepared.
    pub prepared_statements: u64,
    /// Bound/text statements executed (cursors count at open).
    pub executions: u64,
    /// Streaming cursors opened.
    pub cursors_opened: u64,
    /// Always 0: sessions plan every statement and cache no plans. Kept
    /// only because the frozen benchmark's `session.plan_cache_hit_share`
    /// metric reads it; it goes with that metric (ROADMAP item 1).
    pub plan_cache_hits: u64,
    /// Always 0, for the same reason as
    /// [`plan_cache_hits`](Self::plan_cache_hits).
    pub plan_cache_misses: u64,
    /// Rows inserted through [`Session::insert`].
    pub inserts: u64,
    /// WAL records those inserts appended (0 without an attached WAL).
    pub wal_records: u64,
    /// WAL records replayed when the session's database was opened
    /// durably (snapshotted from [`Database::wal_status`]).
    pub wal_replayed: u64,
    /// Executions that exceeded the session's slow-query threshold
    /// (cumulative — entries may have fallen out of the bounded log).
    pub slow_queries: u64,
}

struct Inner {
    stats: SessionStats,
    slow_log: SlowLog,
}

/// A query session over a database: the unit of statement preparation
/// and execution statistics.
///
/// `D` is how the session holds its database: `Session<&Database>`
/// borrows one, `Session<Database>` owns one (the CLI does this) and
/// additionally offers [`Session::db_mut`], and `Session<ReadView>` (the
/// server's per-connection session) owns a frozen catalog.
///
/// Sessions are cheap: a handful of counters plus the slow-query log.
/// They use interior mutability for those, so all query methods take
/// `&self`; a session is single-threaded by construction (`!Sync`), but
/// the queries it runs still use the database's configured
/// [`Parallelism`](crate::Parallelism) internally.
pub struct Session<D: Borrow<Database> = Database> {
    db: D,
    inner: RefCell<Inner>,
}

impl<D: Borrow<Database>> Session<D> {
    /// A session over `db`.
    pub fn new(db: D) -> Self {
        Session {
            db,
            inner: RefCell::new(Inner {
                stats: SessionStats::default(),
                slow_log: SlowLog::new(),
            }),
        }
    }

    /// Sets (or clears, with `None`) the slow-query threshold: every
    /// execution whose wall time reaches it is recorded in the session's
    /// bounded slow-query log and counted in
    /// [`SessionStats::slow_queries`].
    pub fn set_slow_query_threshold(&self, threshold: Option<Duration>) {
        self.inner.borrow_mut().slow_log.set_threshold(threshold);
    }

    /// The current slow-query threshold (`None` = disabled).
    pub fn slow_query_threshold(&self) -> Option<Duration> {
        self.inner.borrow().slow_log.threshold()
    }

    /// The retained slow-query entries, oldest first (the log is a
    /// bounded ring; [`SessionStats::slow_queries`] counts every slow
    /// execution, including those that fell off).
    pub fn slow_queries(&self) -> Vec<SlowEntry> {
        self.inner.borrow().slow_log.entries().cloned().collect()
    }

    /// The database the session queries.
    pub fn db(&self) -> &Database {
        self.db.borrow()
    }

    /// Cumulative session statistics.
    pub fn stats(&self) -> SessionStats {
        let mut stats = self.inner.borrow().stats;
        if let Some(wal) = self.db().wal_status() {
            stats.wal_replayed = wal.replay.records_applied;
        }
        stats
    }

    /// Prepares a statement: lexes, parses and builds the typed
    /// signature. The statement is also planned once, with dummy
    /// constants, so what every binding would fail to plan fails here.
    ///
    /// # Errors
    /// Lex/parse errors; [`QueryError::Bind`] when a named parameter is
    /// used with conflicting types; planning errors (unknown relation,
    /// unsatisfiable `FORCE INDEX`).
    pub fn prepare(&self, text: &str) -> Result<Prepared, QueryError> {
        let crate::parse::ParsedTemplate { query, params } = crate::parse::parse_template(text)?;
        let mut slots: Vec<Slot> = Vec::new();
        let mut named: Vec<Slot> = Vec::new();
        for occ in &params {
            let (ty, context) = (occ.field.ty(), occ.field.as_str());
            let ParamRef::Named(name) = &occ.reference else {
                slots.push(Slot {
                    name: None,
                    ty,
                    context,
                });
                continue;
            };
            match named.iter().find(|s| s.name.as_ref() == Some(name)) {
                Some(first) if first.ty != ty => {
                    return Err(QueryError::Bind(format!(
                        "parameter ${name} is used both as {} ({}) and as {ty} ({context})",
                        first.ty, first.context
                    )))
                }
                Some(_) => {}
                None => named.push(Slot {
                    name: Some(name.clone()),
                    ty,
                    context,
                }),
            }
        }
        let positional_count = slots.len();
        slots.extend(named);

        // Constants never affect the plan, so the statement with its
        // dummy constants plans exactly what every binding will.
        plan_query(self.db(), &query)?;
        self.inner.borrow_mut().stats.prepared_statements += 1;
        simq_obs::metrics::registry()
            .session_prepared
            .fetch_add(1, Ordering::Relaxed);
        Ok(Prepared {
            text: text.into(),
            query,
            params,
            slots,
            positional_count,
        })
    }

    /// Executes a bound statement. The returned [`QueryResult`] is
    /// identical — bitwise, including hit order and work counters — to
    /// [`execute`](crate::execute) on the equivalent literal query text.
    ///
    /// # Errors
    /// Any [`QueryError`] from planning or execution.
    pub fn execute(&self, bound: &Bound) -> Result<QueryResult, QueryError> {
        self.run(&bound.query, &bound.text)
    }

    /// Prepare-free convenience: parses `text` (no placeholders) and
    /// executes it, counting toward the session's statistics and
    /// slow-query log.
    ///
    /// # Errors
    /// Any [`QueryError`] from the pipeline.
    pub fn execute_text(&self, text: &str) -> Result<QueryResult, QueryError> {
        self.run(&crate::parse::parse(text)?, text)
    }

    /// Opens a streaming [`Cursor`] over a bound range or kNN statement.
    /// See the cursor's docs for the streaming guarantees and ordering
    /// caveat.
    ///
    /// # Errors
    /// [`QueryError::Unsupported`] for `EXPLAIN` and all-pairs queries;
    /// otherwise any planning/resolution error.
    pub fn cursor(&self, bound: &Bound) -> Result<Cursor<'_>, QueryError> {
        self.open_cursor(&bound.query)
    }

    /// [`Session::cursor`] for ad-hoc (placeholder-free) query text.
    ///
    /// # Errors
    /// Any [`QueryError`] from the pipeline; [`QueryError::Unsupported`]
    /// for `EXPLAIN` and all-pairs queries.
    pub fn cursor_text(&self, text: &str) -> Result<Cursor<'_>, QueryError> {
        self.open_cursor(&crate::parse::parse(text)?)
    }

    /// The one execution path both `execute*` variants share:
    /// [`exec::run`], then the session counters, the latency histogram
    /// and the slow-query log (labelled with the statement text).
    fn run(&self, query: &Query, label: &str) -> Result<QueryResult, QueryError> {
        let started = std::time::Instant::now();
        let result = exec::run(self.db(), query)?;
        let elapsed = started.elapsed();
        let m = simq_obs::metrics::registry();
        m.query_latency
            .record(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        let mut inner = self.inner.borrow_mut();
        inner.stats.executions += 1;
        if inner.slow_log.observe(elapsed, || label.to_string()) {
            inner.stats.slow_queries += 1;
            m.session_slow_queries.fetch_add(1, Ordering::Relaxed);
        }
        Ok(result)
    }

    /// The shared cursor-opening path.
    fn open_cursor(&self, query: &Query) -> Result<Cursor<'_>, QueryError> {
        let the_plan = {
            let _plan_span = span::span("query.plan");
            plan_query(self.db(), query)?
        };
        let cursor = Cursor::open(self.db(), query, the_plan)?;
        self.inner.borrow_mut().stats.cursors_opened += 1;
        simq_obs::metrics::registry()
            .session_cursors
            .fetch_add(1, Ordering::Relaxed);
        Ok(cursor)
    }

    /// Executes a batch of bound statements as one [`BatchExecutor`]
    /// batch: every slot is answered from one catalog generation, and the
    /// thread budget is spent across slots.
    pub fn execute_batch(&self, bounds: &[Bound]) -> BatchResult {
        self.count_batch(BatchExecutor::new(self.db()).execute(bounds.iter().map(|b| &b.query)))
    }

    /// Executes a `;`-script-style batch of query texts through the
    /// session: per-slot parse errors as in
    /// [`execute_batch`](crate::execute_batch), and the executions count
    /// toward [`SessionStats`]. The CLI routes its batch lines here.
    pub fn execute_batch_texts(&self, inputs: &[&str]) -> BatchResult {
        self.count_batch(BatchExecutor::new(self.db()).execute_texts(inputs))
    }

    /// Counts a batch's executions: slots that never reached execution
    /// (lex/parse failures) do not count.
    fn count_batch(&self, result: BatchResult) -> BatchResult {
        let executed = result
            .results
            .iter()
            .filter(|slot| {
                !matches!(
                    slot,
                    Err(QueryError::Lex { .. }) | Err(QueryError::Parse { .. })
                )
            })
            .count();
        self.inner.borrow_mut().stats.executions += executed as u64;
        result
    }
}

impl Session<Database> {
    /// Mutable access to an owned database. Every later execution plans
    /// against the catalog as mutated.
    pub fn db_mut(&mut self) -> &mut Database {
        &mut self.db
    }

    /// Inserts a series through the owned database's durable write path
    /// ([`Database::insert_into`]) and folds the write-side counters into
    /// the session statistics. The returned [`ExecStats`] carries the
    /// write work: `nodes_built` is the incremental tree maintenance this
    /// insert paid (splits and root growth — near 0 is the no-rebuild
    /// property) and `wal_records` is 1 when the insert was logged.
    ///
    /// # Errors
    /// As [`Database::insert_into`].
    pub fn insert(
        &mut self,
        relation: &str,
        name: impl Into<String>,
        series: Vec<f64>,
    ) -> Result<(InsertReport, ExecStats), QueryError> {
        let report = self.db.insert_into(relation, name, series)?;
        let mut inner = self.inner.borrow_mut();
        inner.stats.inserts += 1;
        inner.stats.wal_records += u64::from(report.wal_appended);
        let stats = ExecStats {
            nodes_built: report.nodes_built,
            wal_records: u64::from(report.wal_appended),
            wal_syncs: u64::from(report.wal_appended),
            ..ExecStats::default()
        };
        Ok((report, stats))
    }

    /// Inserts a batch of series through the owned database's grouped
    /// write path ([`Database::insert_batch`]) and folds the write-side
    /// counters into the session statistics. The returned [`ExecStats`]
    /// shows the group-commit win directly: `wal_syncs` is at most one
    /// per touched shard, against one `wal_records` per acknowledged row.
    ///
    /// # Errors
    /// As [`Database::insert_batch`].
    pub fn insert_batch(
        &mut self,
        relation: &str,
        rows: Vec<(String, Vec<f64>)>,
    ) -> Result<(InsertBatchReport, ExecStats), QueryError> {
        let report = self.db.insert_batch(relation, rows)?;
        let mut inner = self.inner.borrow_mut();
        inner.stats.inserts += report.acked.len() as u64;
        inner.stats.wal_records += report.wal_records;
        let stats = ExecStats {
            nodes_built: report.nodes_built,
            wal_records: report.wal_records,
            wal_syncs: report.wal_syncs,
            shards_touched: report.shards_touched as u64,
            ..ExecStats::default()
        };
        Ok((report, stats))
    }

    /// Consumes the session, returning the database.
    pub fn into_db(self) -> Database {
        self.db
    }
}

// ---------------------------------------------------------------------------
// Streaming cursors
// ---------------------------------------------------------------------------

/// A lazy query result: an iterator of [`Hit`]s produced incrementally.
///
/// * **A cursor is the plan's descent, paused.** It holds the query's one
///   best-first descent ([`simq_index::Descent`]) — over the relation's
///   forest of trees, or over a scan's flat source of its rows — and
///   resumes it on every pull. Stopping early — dropping the cursor, or
///   just not calling `next` — abandons the remaining descent, so
///   `LIMIT`-style consumption does strictly less work than a full
///   execution ([`Cursor::stats`] shows the difference).
/// * **Order.** A kNN cursor yields hits in `(distance², id)` order, which
///   is the materialized order up to ties the square root creates. A range
///   cursor yields hits in traversal order, not `(distance, id)` order.
///   [`Cursor::drain_sorted`] drains the remaining hits and sorts them;
///   on a fresh cursor it returns exactly the hits of the materialized
///   [`QueryOutput`](crate::QueryOutput).
///
/// Streaming cursors run on the calling thread, so their `threads_used`
/// is 1 — streaming and multi-threaded fan-out are at odds; use
/// [`Session::execute`] for a range scan that fans out over the thread
/// budget.
pub struct Cursor<'db> {
    plan: Plan,
    stats: ExecStats,
    descent: PlanDescent<'db>,
    stored: &'db StoredRelation,
}

impl<'db> Cursor<'db> {
    fn open(db: &'db Database, query: &Query, the_plan: Plan) -> Result<Self, QueryError> {
        let (stored, descent) = match query {
            Query::Explain(_) | Query::ExplainAnalyze(_) => {
                return Err(QueryError::Unsupported(
                    "cursors stream result rows; EXPLAIN has none — use execute".into(),
                ))
            }
            Query::AllPairs { .. } => {
                return Err(QueryError::Unsupported(
                    "cursors yield per-row hits; all-pairs queries return pairs — use execute"
                        .into(),
                ))
            }
            Query::Knn {
                k,
                source,
                relation,
                transform,
                on_both,
                ..
            } => {
                let (stored, ctx, action) =
                    exec::resolve_query(db, relation, source, transform, *on_both)?;
                let access = &the_plan.access;
                let descent = verify::knn_descent(stored, action, ctx.spectrum, *k, access)?;
                (stored, descent)
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
                let (stored, ctx, action) =
                    exec::resolve_query(db, relation, source, transform, *on_both)?;
                let verify = RangeVerifier::new(stored, action, ctx, *eps, *stats_window);
                (stored, verify.descend(&the_plan.access)?)
            }
        };
        Ok(Cursor {
            plan: the_plan,
            stats: ExecStats {
                threads_used: 1,
                shards_touched: verify::shards_touched(stored),
                ..ExecStats::default()
            },
            descent,
            stored,
        })
    }

    /// The plan the cursor executes under.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Work performed **so far**: a partially consumed cursor reports only
    /// the index nodes actually descended and the rows actually read and
    /// refined; dropping the cursor freezes the count.
    pub fn stats(&self) -> ExecStats {
        let mut stats = self.stats;
        stats.add_search(&self.descent.stats().merged);
        stats
    }

    /// Drains the remaining hits and sorts them in the engine's
    /// deterministic `(distance, id)` order. Called on a fresh cursor,
    /// this returns exactly the hits a materialized execution returns.
    pub fn drain_sorted(&mut self) -> Vec<Hit> {
        let mut hits: Vec<Hit> = self.by_ref().collect();
        verify::sort_hits(&mut hits);
        hits
    }
}

impl Iterator for Cursor<'_> {
    type Item = Hit;

    fn next(&mut self) -> Option<Hit> {
        let pull = span::span("cursor.pull");
        let out = self.descent.next().map(|nb| {
            self.stats.verified += 1;
            verify::hit(self.stored, nb)
        });
        pull.note("yielded", u64::from(out.is_some()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute, QueryOutput};
    use simq_series::features::FeatureScheme;

    fn make_db(rows: usize) -> Database {
        let mut rel = SeriesRelation::new("stocks", 64, FeatureScheme::paper_default());
        for i in 0..rows {
            let series: Vec<f64> = (0..64)
                .map(|t| {
                    25.0 + ((t as f64) * (0.07 + 0.011 * (i % 7) as f64)).sin() * 4.0
                        + (i as f64 * 0.3)
                })
                .collect();
            rel.insert(format!("S{i:04}"), series).unwrap();
        }
        let mut db = Database::new();
        db.add_relation_indexed(rel);
        db
    }

    fn hits(result: &QueryResult) -> &[Hit] {
        match &result.output {
            QueryOutput::Hits(h) => h,
            other => panic!("expected hits, got {other:?}"),
        }
    }

    #[test]
    fn prepared_execution_matches_literal_execution() {
        let db = make_db(60);
        let session = Session::new(&db);
        let p = session
            .prepare("FIND SIMILAR TO ROW ? IN stocks EPSILON ?")
            .unwrap();
        for (row, eps) in [(5u64, 3.0), (9, 1.5), (30, 0.75)] {
            let bound = p.bind(&[Value::from(row), Value::from(eps)]).unwrap();
            let via_session = session.execute(&bound).unwrap();
            let via_text = execute(
                &db,
                &format!("FIND SIMILAR TO ROW {row} IN stocks EPSILON {eps}"),
            )
            .unwrap();
            assert_eq!(hits(&via_session).len(), hits(&via_text).len());
            for (a, b) in hits(&via_session).iter().zip(hits(&via_text)) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.distance.to_bits(), b.distance.to_bits());
            }
            assert_eq!(via_session.stats, via_text.stats);
        }
        let stats = session.stats();
        assert_eq!(stats.executions, 3);
        assert_eq!(stats.prepared_statements, 1);
    }

    #[test]
    fn series_parameter_binds_a_whole_query_series() {
        let db = make_db(30);
        let session = Session::new(&db);
        let p = session
            .prepare("FIND SIMILAR TO ? IN stocks EPSILON ?")
            .unwrap();
        assert_eq!(p.signature()[0].ty, ParamType::Series);
        let series: Vec<f64> = db.relation("stocks").unwrap().row(3).unwrap().raw.clone();
        let bound = p
            .bind(&[Value::from(series.clone()), Value::from(2.0)])
            .unwrap();
        let via_session = session.execute(&bound).unwrap();
        let via_row = execute(&db, "FIND SIMILAR TO ROW 3 IN stocks EPSILON 2").unwrap();
        assert_eq!(
            hits(&via_session).iter().map(|h| h.id).collect::<Vec<_>>(),
            hits(&via_row).iter().map(|h| h.id).collect::<Vec<_>>()
        );
    }

    #[test]
    fn bind_type_and_arity_errors() {
        let db = make_db(5);
        let session = Session::new(&db);
        let p = session
            .prepare("FIND ? NEAREST TO ROW ? IN stocks")
            .unwrap();
        // Wrong arity.
        assert!(matches!(
            p.bind(&[Value::from(1u64)]),
            Err(QueryError::Bind(_))
        ));
        // Unknown / missing named parameters.
        let p3 = session
            .prepare("FIND SIMILAR TO ROW $r IN stocks EPSILON $e")
            .unwrap();
        assert!(matches!(
            p3.bind_named(&[("nope", Value::from(1.0))]),
            Err(QueryError::Bind(_))
        ));
        assert!(matches!(
            p3.bind_named(&[("r", Value::from(0u64))]),
            Err(QueryError::Bind(_))
        ));
    }

    /// Text ≡ bound at the AST: a bound template equals the parse of its
    /// literal text, and a wrong binding is refused with its message.
    #[test]
    fn bound_statements_equal_their_literal_text() {
        let db = make_db(5);
        let session = Session::new(&db);
        let (n, series) = (|v: f64| Value::from(v), Value::from(vec![1.0, 2.5]));
        #[rustfmt::skip]
        let cases = [
            ("FIND ? NEAREST TO ROW ? IN stocks FORCE SCAN",
             vec![n(3.0), Value::from((1u64 << 53) - 1)], vec![],
             "FIND 3 NEAREST TO ROW 9007199254740991 IN stocks FORCE SCAN"),
            ("FIND SIMILAR TO ? IN stocks STD WITHIN $s MEAN WITHIN ? EPSILON $e",
             vec![series.clone(), n(0.5)], vec![("e", n(2.0)), ("s", n(0.25))],
             "FIND SIMILAR TO [1, 2.5] IN stocks STD WITHIN 0.25 MEAN WITHIN 0.5 EPSILON 2"),
            ("EXPLAIN ANALYZE FIND $k NEAREST TO ROW $k IN stocks USING mavg(3)",
             vec![], vec![("k", n(4.0))],
             "EXPLAIN ANALYZE FIND 4 NEAREST TO ROW 4 IN stocks USING mavg(3)"),
            ("EXPLAIN FIND PAIRS IN stocks USING reverse ON ONE EPSILON ? METHOD c",
             vec![n(1.5)], vec![],
             "EXPLAIN FIND PAIRS IN stocks USING reverse ON ONE EPSILON 1.5 METHOD c"),
        ];
        for (template, positional, named, text) in cases {
            let p = session.prepare(template).unwrap();
            let bound = p.bind_all(&positional, &named).unwrap();
            assert_eq!(bound.query(), &crate::parse(text).unwrap(), "{template}");
        }

        // One wrong-type binding per slot kind, then the domain checks. Of
        // several wrong values the first in lexical order is reported: STD
        // WITHIN in the last row, although the AST holds `eps` first. The
        // kNN template takes the first two values of a row.
        let range = "FIND SIMILAR TO ROW ? IN stocks STD WITHIN ? MEAN WITHIN ? EPSILON ?";
        let knn = "FIND ? NEAREST TO ? IN stocks";
        let limit = "must be below 2^53 to be represented exactly, got 9007199254740992";
        let big = |v: u64| Value::from(v);
        #[rustfmt::skip]
        let wrong: [(&str, [Value; 4], String); 12] = [
            (range, [series.clone(), n(1.0), n(1.0), n(1.0)], "ROW id parameter ?1 expects an integer, got a series".into()),
            (range, [n(1.0), series.clone(), n(1.0), n(1.0)], "STD WITHIN parameter ?2 expects a number, got a series".into()),
            (range, [n(1.0), n(1.0), series.clone(), n(1.0)], "MEAN WITHIN parameter ?3 expects a number, got a series".into()),
            (range, [n(1.0), n(1.0), n(1.0), series.clone()], "EPSILON parameter ?4 expects a number, got a series".into()),
            (knn, [series.clone(), series.clone(), n(1.0), n(1.0)], "k parameter ?1 expects an integer, got a series".into()),
            (knn, [n(1.0), n(1.0), n(1.0), n(1.0)], "query series parameter ?2 expects a series, got a number".into()),
            (range, [n(2.5), n(1.0), n(1.0), n(1.0)], "ROW id parameter ?1 must be a non-negative integer, got 2.5".into()),
            (range, [big(1 << 53), n(1.0), n(1.0), n(1.0)], format!("ROW id parameter ?1 {limit}")),
            (knn, [big((1 << 53) + 1), series.clone(), n(1.0), n(1.0)], format!("k parameter ?1 {limit}")),
            (range, [n(1.0), n(1.0), n(f64::NAN), n(1.0)], "MEAN WITHIN parameter ?3 must be finite, got NaN".into()),
            (range, [n(1.0), n(1.0), n(1.0), n(-1.0)], "EPSILON must be non-negative, got -1".into()),
            (range, [n(1.0), n(-2.0), n(1.0), n(-1.0)], "STD WITHIN must be non-negative, got -2".into()),
        ];
        for (template, values, message) in wrong {
            let arity = if template == knn { 2 } else { 4 };
            let p = session.prepare(template).unwrap();
            let err = p.bind(&values[..arity]).unwrap_err();
            assert_eq!(err, QueryError::Bind(message), "{template}");
        }
    }

    #[test]
    fn conflicting_named_types_rejected_at_prepare() {
        let db = make_db(5);
        let session = Session::new(&db);
        // $x as a series source and as epsilon.
        let err = session
            .prepare("FIND SIMILAR TO $x IN stocks EPSILON $x")
            .unwrap_err();
        assert!(matches!(err, QueryError::Bind(_)), "{err}");
    }

    #[test]
    fn prepare_fails_early_on_unknown_relation() {
        let db = make_db(5);
        let session = Session::new(&db);
        assert!(matches!(
            session.prepare("FIND SIMILAR TO ROW ? IN nope EPSILON ?"),
            Err(QueryError::UnknownRelation(_))
        ));
    }

    #[test]
    fn prepared_statement_plans_for_the_current_catalog() {
        let db = make_db(30);
        let mut session = Session::new(db);
        let p = session
            .prepare("FIND SIMILAR TO ? IN stocks EPSILON ? FORCE SCAN")
            .unwrap();
        let probe: Vec<f64> = (0..64)
            .map(|t| 5.0 + (t as f64 * 0.37).cos() * 2.0)
            .collect();
        let bound = p
            .bind(&[Value::from(probe.clone()), Value::from(1e-9)])
            .unwrap();
        let before = session.execute(&bound).unwrap();
        assert_eq!((before.plan.threads, before.plan.shards), (1, 1));

        // Three catalog changes after the prepare: the next execution
        // plans for all of them.
        let db = session.db_mut();
        db.set_parallelism(crate::plan::Parallelism::Fixed(2));
        db.shard_relation("stocks", 3).unwrap();
        session.insert("stocks", "NEW", probe).unwrap();
        let after = session.execute(&bound).unwrap();
        assert_eq!((after.plan.threads, after.plan.shards), (2, 3));
        assert_eq!(hits(&after)[0].name, "NEW");
        assert_eq!(hits(&after)[0].distance, 0.0);
    }

    /// A kNN `FORCE SCAN` cursor is the flat descent paused: nothing is
    /// refined at open, one pull refines no more than the whole run, and a
    /// fresh cursor drains to the materialized answer bitwise.
    #[test]
    fn knn_scan_cursor_streams_the_flat_descent() {
        let db = make_db(80);
        let session = Session::new(&db);
        let q = "FIND 5 NEAREST TO ROW 3 IN stocks FORCE SCAN";
        let mut cursor = session.cursor_text(q).unwrap();
        let open = cursor.stats();
        assert_eq!((open.candidates, open.coefficients_compared), (0, 0));
        assert!(cursor.next().is_some());
        let first = cursor.stats();
        let mut drained = session.cursor_text(q).unwrap();
        let got = drained.drain_sorted();
        assert!(first.candidates <= drained.stats().candidates);
        let want = execute(&db, q).unwrap();
        let bits =
            |h: &[Hit]| -> Vec<_> { h.iter().map(|h| (h.id, h.distance.to_bits())).collect() };
        assert_eq!(bits(&got), bits(hits(&want)));
        assert_eq!(drained.stats(), want.stats);
    }

    #[test]
    fn cursor_rejects_pairs_and_explain() {
        let db = make_db(10);
        let session = Session::new(&db);
        assert!(matches!(
            session.cursor_text("FIND PAIRS IN stocks EPSILON 1 METHOD b"),
            Err(QueryError::Unsupported(_))
        ));
        assert!(matches!(
            session.cursor_text("EXPLAIN FIND SIMILAR TO ROW 0 IN stocks EPSILON 1"),
            Err(QueryError::Unsupported(_))
        ));
    }
}
