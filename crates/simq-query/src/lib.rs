//! # simq-query — the query language `L`
//!
//! A small declarative language for similarity queries over time-series
//! relations, covering the three query forms of the framework:
//!
//! ```text
//! FIND SIMILAR TO [36, 38, …] IN stocks USING mavg(3) EPSILON 0.5
//! FIND 5 NEAREST TO NAME S0042 IN stocks
//! FIND PAIRS IN stocks USING reverse THEN mavg(20) EPSILON 3 METHOD d
//! EXPLAIN FIND SIMILAR TO ROW 7 IN stocks USING warp(2) EPSILON 1
//! ```
//!
//! Pipeline: [`token`] → [`parse()`](parse()) → [`plan`] → [`exec`], over
//! the relations the [`catalog`] holds. For
//! workloads that re-issue the same query shapes with different constants,
//! [`session`] adds prepared statements with `?`/`$name` placeholders,
//! streaming [`Cursor`]s and prepared batches on top of the same pipeline
//! — every statement is planned when it runs. The planner
//! chooses between the transformed R*-tree traversal (Algorithm 2) and the
//! early-abandoning frequency-domain scan, driven by the safety theorems:
//! a transformation that does not lower safely to the relation's feature
//! representation silently falls back to the scan (and `EXPLAIN` tells you
//! why). `FORCE SCAN` / `FORCE INDEX` override the choice for experiments.

#![warn(missing_docs)]

pub mod ast;
pub mod batch;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod parse;
pub mod plan;
pub mod session;
pub mod token;
mod verify;

pub use ast::{JoinMethod, ParamRef, ParamType, Query, QuerySource, Strategy};
pub use batch::{execute_batch, split_batch_script, BatchExecutor, BatchResult};
pub use catalog::{
    Database, InsertBatchReport, InsertReport, Parallelism, ReadView, StoredRelation, WalStatus,
};
pub use error::QueryError;
pub use exec::{execute, run, run_with_plan, ExecStats, Hit, PairHit, QueryOutput, QueryResult};
pub use parse::{parse, parse_template, ParsedTemplate};
pub use plan::{explain, plan as plan_query, AccessPath, Plan};
pub use session::{Bound, Cursor, Prepared, Session, SessionStats, Slot, Value};
