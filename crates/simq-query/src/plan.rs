//! The query planner.
//!
//! The planner's one non-trivial decision is the access path for range and
//! kNN queries: use the R*-tree with an on-the-fly transformation
//! (Algorithm 2), or fall back to the early-abandoning sequential scan.
//! The index is usable exactly when the transformation *lowers safely* to
//! the relation's feature representation (Theorems 2 and 3) — e.g. a
//! moving average is index-accelerable over a polar index but not over a
//! rectangular one. The plan records the reason for the choice, and
//! `EXPLAIN` surfaces it.
//!
//! The catalog the planner reads lives in [`crate::catalog`]; its public
//! names are re-exported here so `simq_query::plan::*` paths keep
//! resolving.

use crate::ast::{JoinMethod, Query, Strategy};
pub use crate::catalog::{
    Database, InsertBatchReport, InsertReport, Parallelism, ReadView, StoredRelation, WalStatus,
};
use crate::error::QueryError;
use simq_series::features::Representation;

/// The chosen access path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessPath {
    /// Transformed R*-tree traversal (Algorithm 2) plus exact
    /// postprocessing.
    IndexScan,
    /// Sequential scan over frequency-domain storage, abandoning each
    /// row's distance once it exceeds ε (range) or the k-th best (kNN).
    SeqScan,
    /// Probe join: one range query per row (the paper's methods *c*/*d*).
    IndexProbeJoin {
        /// Whether the transformation is pushed into the probes (method
        /// *d*) or ignored (method *c*).
        transformed: bool,
    },
    /// Nested-loop scan join (methods *a*/*b*).
    ScanJoin {
        /// Early abandoning (method *b*).
        early_abandon: bool,
    },
}

/// A planned query.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The access path.
    pub access: AccessPath,
    /// Why the planner chose it.
    pub reason: String,
    /// Worker threads execution will use (1 = the calling thread). Only
    /// the forms that read every row or pair fan out — a range `SeqScan`
    /// and both joins — up to the count the database's [`Parallelism`]
    /// resolved to when it was set; an index descent and every kNN run on
    /// one thread, where a second one measured no gain.
    pub threads: usize,
    /// Shard count of the relation at planning time (1 = unsharded).
    /// Index and scan phases fan out one work unit per shard.
    pub shards: usize,
}

/// Plans a (non-EXPLAIN) query against the database.
///
/// # Errors
/// [`QueryError::UnknownRelation`] for missing relations;
/// [`QueryError::IndexUnavailable`] when `FORCE INDEX` (or an index-only
/// join method) cannot be satisfied.
pub fn plan(db: &Database, query: &Query) -> Result<Plan, QueryError> {
    let stored = db
        .relation(query.relation())
        .ok_or_else(|| QueryError::UnknownRelation(query.relation().to_string()))?;
    let scheme = stored.scheme();
    let n = stored.series_len();
    let threads = db.threads();
    let shards = stored.shard_count();

    match query {
        Query::Explain(inner) | Query::ExplainAnalyze(inner) => plan(db, inner),
        Query::Range {
            transform,
            strategy,
            stats_window,
            ..
        } => {
            if *strategy == Strategy::ForceScan {
                return Ok(Plan {
                    access: AccessPath::SeqScan,
                    reason: "FORCE SCAN requested".into(),
                    threads,
                    shards,
                });
            }
            let index_reason = if !stats_window.is_empty() && !scheme.include_stats {
                Err("MEAN/STD windows require a scheme with statistics dimensions".to_string())
            } else if !stored.has_index() {
                Err("no index on relation".to_string())
            } else {
                match transform.lower(scheme, n) {
                    Ok(_) => Ok(()),
                    Err(e) => Err(format!("transformation not index-safe: {e}")),
                }
            };
            match index_reason {
                Ok(()) => Ok(Plan {
                    access: AccessPath::IndexScan,
                    reason: format!(
                        "transformation {} lowers safely to the {} representation",
                        transform.name(),
                        rep_name(scheme.rep)
                    ),
                    threads: 1,
                    shards,
                }),
                Err(why) if *strategy == Strategy::ForceIndex => {
                    Err(QueryError::IndexUnavailable(why))
                }
                Err(why) => Ok(Plan {
                    access: AccessPath::SeqScan,
                    reason: why,
                    threads,
                    shards,
                }),
            }
        }
        Query::Knn {
            transform,
            strategy,
            ..
        } => {
            if *strategy == Strategy::ForceScan {
                return Ok(Plan {
                    access: AccessPath::SeqScan,
                    reason: "FORCE SCAN requested".into(),
                    threads: 1,
                    shards,
                });
            }
            // Index kNN works on both representations via the spectral
            // MINDIST lower bound (annular sectors in the polar layout);
            // statistics dimensions are skipped by the bound. Only a safe
            // lowering of the transformation is required.
            let index_reason = if !stored.has_index() {
                Err("no index on relation".to_string())
            } else {
                match transform.lower(scheme, n) {
                    Ok(_) => Ok(()),
                    Err(e) => Err(format!("transformation not index-safe: {e}")),
                }
            };
            match index_reason {
                Ok(()) => Ok(Plan {
                    access: AccessPath::IndexScan,
                    reason: format!(
                        "multi-step kNN with spectral MINDIST over the {} index",
                        rep_name(scheme.rep)
                    ),
                    threads: 1,
                    shards,
                }),
                Err(why) if *strategy == Strategy::ForceIndex => {
                    Err(QueryError::IndexUnavailable(why))
                }
                Err(why) => Ok(Plan {
                    access: AccessPath::SeqScan,
                    reason: why,
                    threads: 1,
                    shards,
                }),
            }
        }
        Query::AllPairs { method, right, .. } => match method {
            JoinMethod::A => Ok(Plan {
                access: AccessPath::ScanJoin {
                    early_abandon: false,
                },
                reason: "METHOD a: naive nested-loop scan".into(),
                threads,
                shards,
            }),
            JoinMethod::B => Ok(Plan {
                access: AccessPath::ScanJoin {
                    early_abandon: true,
                },
                reason: "METHOD b: nested-loop scan with early abandoning".into(),
                threads,
                shards,
            }),
            JoinMethod::C | JoinMethod::D => {
                if !stored.has_index() {
                    return Err(QueryError::IndexUnavailable(
                        "join methods c and d require an index".into(),
                    ));
                }
                let transformed = *method == JoinMethod::D;
                if transformed {
                    // Only the index side (right) needs a safe lowering;
                    // probe spectra are transformed outside the index.
                    right
                        .lower(scheme, n)
                        .map_err(|e| QueryError::IndexUnavailable(e.to_string()))?;
                }
                Ok(Plan {
                    access: AccessPath::IndexProbeJoin { transformed },
                    reason: format!(
                        "METHOD {}: one range probe per row{}",
                        if transformed { "d" } else { "c" },
                        if transformed {
                            " with the transformation pushed into the index"
                        } else {
                            " ignoring the transformation"
                        }
                    ),
                    threads,
                    shards,
                })
            }
        },
    }
}

fn rep_name(rep: Representation) -> &'static str {
    match rep {
        Representation::Polar => "polar",
        Representation::Rectangular => "rectangular",
    }
}

/// Renders a plan for `EXPLAIN` output.
pub fn explain(query: &Query, plan: &Plan) -> String {
    let access = match &plan.access {
        AccessPath::IndexScan => "IndexScan (transformed R*-tree traversal + exact postprocess)",
        AccessPath::SeqScan => "SeqScan (frequency domain, early abandoning)",
        AccessPath::IndexProbeJoin { transformed: true } => {
            "IndexProbeJoin (transformed probes, Algorithm 2 per row)"
        }
        AccessPath::IndexProbeJoin { transformed: false } => {
            "IndexProbeJoin (untransformed probes)"
        }
        AccessPath::ScanJoin {
            early_abandon: true,
        } => "ScanJoin (early abandoning)",
        AccessPath::ScanJoin {
            early_abandon: false,
        } => "ScanJoin (full distances)",
    };
    let what = match query {
        Query::Range { eps, transform, .. } => {
            format!("Range query, eps={eps}, transform={}", transform.name())
        }
        Query::Knn { k, transform, .. } => {
            format!("kNN query, k={k}, transform={}", transform.name())
        }
        Query::AllPairs {
            eps, left, right, ..
        } => {
            format!(
                "All-pairs query, eps={eps}, left={}, right={}",
                left.name(),
                right.name()
            )
        }
        Query::Explain(_) => "Explain".to_string(),
        Query::ExplainAnalyze(_) => "Explain Analyze".to_string(),
    };
    let shards = if plan.shards > 1 {
        format!("\n  shards: {} (per-shard fan-out)", plan.shards)
    } else {
        String::new()
    };
    format!(
        "{what}\n  access: {access}\n  reason: {}\n  parallelism: {} thread{}{shards}",
        plan.reason,
        plan.threads,
        if plan.threads == 1 { "" } else { "s" },
    )
}
