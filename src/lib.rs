//! # similarity-queries
//!
//! A production-quality Rust implementation of the similarity-query
//! framework of *Similarity-Based Queries* (Jagadish, Mendelzon, Milo —
//! PODS 1995), together with its published time-series instantiation
//! (Rafiei, Mendelzon — SIGMOD 1997): a pattern language, a costed
//! transformation language, a query language with range / all-pairs / kNN
//! similarity queries, and an R*-tree indexing method that evaluates
//! transformed queries with no extra index structures.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | Module | Crate | Contents |
//! |--------|-------|----------|
//! | [`core`] | `simq-core` | The domain-independent similarity model `(P, T, L)` and the cost-bounded distance |
//! | [`dsp`] | `simq-dsp` | Complex numbers, normalized DFT/FFT, circular convolution |
//! | [`series`] | `simq-series` | Moving average, normal form, reversal, warping, feature spaces, safe transformations |
//! | [`index`] | `simq-index` | R*-tree with transformed traversal, kNN, joins, bulk loading |
//! | [`storage`] | `simq-storage` | Relations, frequency-domain scans, persistence |
//! | [`query`] | `simq-query` | The query language: parser, planner, executor, EXPLAIN |
//! | [`obs`] | `simq-obs` | Observability: span tracing, metrics registry, slow-query log |
//! | [`strings`] | `simq-strings` | The string instantiation: rewrite rules, edit distance, patterns |
//! | [`data`] | `simq-data` | Workload generators (random walks, simulated stock market) |
//! | [`server`] | `simq-server` | Network service: wire frames, request/response vocabulary, TCP server |
//! | [`client`] | `simq-client` | Blocking wire-protocol client with streaming remote cursors |
//!
//! ## Quickstart
//!
//! ```
//! use similarity_queries::prelude::*;
//!
//! // A relation of 64-day series, indexed under the paper's 6-d scheme.
//! let mut rel = SeriesRelation::new("stocks", 64, FeatureScheme::paper_default());
//! for i in 0..100u64 {
//!     let series: Vec<f64> = (0..64)
//!         .map(|t| 30.0 + (t as f64 * (0.05 + i as f64 * 0.01)).sin() * 5.0)
//!         .collect();
//!     rel.insert(format!("S{i:04}"), series).unwrap();
//! }
//! let mut db = Database::new();
//! db.add_relation_indexed(rel);
//!
//! // Range query under a 20-day moving average, served by the index.
//! let result = execute(
//!     &db,
//!     "FIND SIMILAR TO ROW 0 IN stocks USING mavg(20) ON BOTH EPSILON 2.0",
//! )
//! .unwrap();
//! let QueryOutput::Hits(hits) = result.output else { unreachable!() };
//! assert_eq!(hits[0].id, 0); // the query row matches itself
//! ```

pub use simq_client as client;
pub use simq_core as core;
pub use simq_data as data;
pub use simq_dsp as dsp;
pub use simq_index as index;
pub use simq_obs as obs;
pub use simq_query as query;
pub use simq_series as series;
pub use simq_server as server;
pub use simq_storage as storage;
pub use simq_strings as strings;

/// The most common imports in one place.
pub mod prelude {
    pub use simq_client::{Client, ClientError, RemoteCursor};
    pub use simq_core::{
        similarity_distance, DataObject, RealSequence, SearchConfig, SimilarityModel, SymbolString,
        TransformationSet,
    };
    pub use simq_data::{StockMarket, WalkGenerator};
    pub use simq_dsp::{euclidean, Complex};
    pub use simq_index::{RTree, RTreeConfig, Rect};
    pub use simq_query::{
        execute, execute_batch, parse, plan_query, AccessPath, BatchExecutor, BatchResult, Bound,
        Cursor, Database, InsertBatchReport, InsertReport, Parallelism, Prepared, QueryOutput,
        QueryResult, ReadView, Session, SessionStats, StoredRelation, Value, WalStatus,
    };
    pub use simq_series::{
        moving_average, normal_form, warp, FeatureScheme, Representation, SeriesTransform,
    };
    pub use simq_server::{RemoteInsertReport, RemoteResult, Server, ServerConfig};
    pub use simq_storage::{scan_range, SeriesRelation, ShardLayout, ShardedRelation};
    pub use simq_strings::{levenshtein, rewrite_distance, RewriteBudget, RewriteRule, RuleSet};
}
