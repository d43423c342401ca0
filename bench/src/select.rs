//! `embedded_select` — the paper's Algorithm 2 on a clustered corpus.
//!
//! In-process indexed range queries cycling three statement shapes,
//! each calibrated so the median answer set is 0.2 % of the rows. The
//! primary op sends the statement as text through `simq_query::execute`
//! (lex → parse → plan → execute every time); the secondary sends the
//! same statement through `Session::prepare`/`bind`/`execute` (the
//! plan-cache path). Their difference is the front end. It is the one
//! workload where front end, index descent, filter probe and verify all
//! hold a visible share.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use simq_index::{DiagonalAffine, Rect};
use simq_query::session::{Prepared, Session};
use simq_query::{execute, parse, plan_query, run_with_plan, token, Database};
use simq_series::transform::SeriesTransform;

use crate::check::{hits_of, range_answer_matches, same_hits, TimeOracle};
use crate::decompose;
use crate::gen::{self, NamedSeries, SplitMix64};
use crate::harness::{per_op_us, Agg, Pass, Sizes, SpanMetric, Workload};
use crate::layers::{build_layers, median_us};
use crate::queryops::{exec_ratios, fold_exec, plan_cache_hit_share, Kind, Op, Shape};
use crate::trace::Tracer;

/// The relation every statement names.
pub const RELATION: &str = "stocks";

/// The three shapes: a tight untransformed range, a smoothed range with
/// the query smoothed too, and the hedging search for reversed rows.
pub const CLAUSES: [&str; 3] = ["", "USING mavg(20) ON BOTH ", "USING reverse THEN mavg(5) "];

/// One statement: a shape and the row it queries around.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Statement {
    /// Index into the shapes.
    pub shape: usize,
    /// The query row.
    pub row: u64,
}

/// Seeded inputs of the workload.
pub struct Inputs {
    /// The corpus.
    pub rows: Vec<NamedSeries>,
    /// Points per series.
    pub series_len: usize,
    /// The calibrated shapes.
    pub shapes: Vec<Shape>,
    /// The statements of a pass.
    pub statements: Vec<Statement>,
    /// Each statement's text form.
    pub texts: Vec<String>,
    /// The op list: each statement once per kind in the seed's order,
    /// kinds interleaved and offset so no statement runs twice in a row.
    pub ops: Vec<Op>,
    /// Statements checked against the time-domain oracle.
    pub oracle_sample: Vec<usize>,
}

/// Calibrates the shapes and draws the statements on `db` (properties
/// of the corpus, not of the seed), then puts them in the seed's order.
pub fn draw(seed: u64, sizes: &Sizes, rows: Vec<NamedSeries>, db: &Database) -> Inputs {
    let mut fixed = SplitMix64::new(gen::CORPUS_SEED, 1);
    let calibration = gen::sample_rows(&mut fixed, rows.len(), 32);
    let mut rng = SplitMix64::new(seed, 1);
    let shapes: Vec<Shape> = CLAUSES
        .iter()
        .map(|&clause| Shape {
            clause,
            suffix: "",
            eps: gen::calibrate_eps(db, RELATION, clause, &calibration, sizes.answer_rows()),
        })
        .collect();
    let statements: Vec<Statement> = (0..sizes.select_queries)
        .map(|i| Statement {
            shape: i % shapes.len(),
            row: fixed.below(rows.len()) as u64,
        })
        .collect();
    let texts = statements
        .iter()
        .map(|s| shapes[s.shape].text(RELATION, s.row))
        .collect();
    let n = statements.len();
    let order = gen::shuffled(&mut rng, n);
    let ops = (0..n)
        .flat_map(|i| {
            [
                Op {
                    kind: Kind::Primary,
                    item: order[i],
                },
                Op {
                    kind: Kind::Secondary,
                    item: order[(i + n / 2) % n],
                },
            ]
        })
        .collect();
    let oracle_sample = (0..sizes.oracle_sample.min(n))
        .map(|_| rng.below(n))
        .collect();
    Inputs {
        series_len: sizes.series_len,
        rows,
        shapes,
        statements,
        texts,
        ops,
        oracle_sample,
    }
}

/// Program side: extract every row, bulk-load the index.
pub fn build_db(rows: &[NamedSeries], series_len: usize) -> Database {
    let mut db = Database::new();
    db.add_relation_indexed(gen::build_relation(RELATION, rows, series_len));
    db
}

/// The workload instance: one indexed in-memory database.
pub struct Select {
    db: Database,
}

fn prepare_all(session: &Session<&Database>, shapes: &[Shape]) -> Vec<Prepared> {
    shapes
        .iter()
        .map(|s| {
            session
                .prepare(&s.template(RELATION))
                .expect("workload statements prepare")
        })
        .collect()
}

impl Select {
    /// Checks the sampled statements against the time-domain oracle.
    fn oracle_failures(&self, inputs: &Inputs) -> u64 {
        let oracles: Vec<(TimeOracle, bool)> = inputs
            .shapes
            .iter()
            .map(|shape| {
                let text = shape.text(RELATION, 0);
                let simq_query::Query::Range {
                    transform, on_both, ..
                } = parse(&text).expect("workload statements parse")
                else {
                    unreachable!("shapes are range statements")
                };
                (TimeOracle::new(&inputs.rows, &transform), on_both)
            })
            .collect();
        inputs
            .oracle_sample
            .iter()
            .filter(|&&i| {
                let st = inputs.statements[i];
                let (oracle, on_both) = &oracles[st.shape];
                let truth = oracle.distances(st.row as usize, *on_both);
                let got = execute(&self.db, &inputs.texts[i]).expect("statement runs");
                !range_answer_matches(&truth, inputs.shapes[st.shape].eps, hits_of(&got.output))
            })
            .count() as u64
    }
}

impl Workload for Select {
    const NAME: &'static str = "embedded_select";
    const PASSES_PER_SECOND: f64 = 13.0;
    type Inputs = Inputs;

    fn generate(seed: u64, sizes: &Sizes) -> Inputs {
        let rows = gen::stock_series(gen::CORPUS_SEED, sizes.rows, sizes.series_len);
        let db = build_db(&rows, sizes.series_len);
        draw(seed, sizes, rows, &db)
    }

    fn setup(inputs: &Inputs, _scratch: &Path) -> (Self, f64) {
        let started = Instant::now();
        let db = build_db(&inputs.rows, inputs.series_len);
        let seconds = started.elapsed().as_secs_f64();
        (Select { db }, seconds)
    }

    fn pass(&mut self, inputs: &Inputs, check: bool) -> Pass {
        let db = &self.db;
        let session = Session::new(db);
        let prepared = prepare_all(&session, &inputs.shapes);
        let mut pass = Pass::default();
        let mut answers = Vec::new();
        let loop_started = Instant::now();
        for op in &inputs.ops {
            let st = inputs.statements[op.item];
            let started = Instant::now();
            let result = match op.kind {
                Kind::Primary => execute(db, &inputs.texts[op.item]),
                Kind::Secondary => prepared[st.shape]
                    .bind(&inputs.shapes[st.shape].values(st.row))
                    .and_then(|bound| session.execute(&bound)),
            };
            let us = started.elapsed().as_secs_f64() * 1e6;
            match op.kind {
                Kind::Primary => pass.primary_us.push(us),
                Kind::Secondary => pass.secondary_us.push(us),
            }
            match result {
                Ok(r) => {
                    fold_exec(
                        &mut pass.counts,
                        op.kind,
                        &r.stats,
                        hits_of(&r.output).len(),
                    );
                    if check {
                        answers.push((*op, r));
                    } else {
                        black_box(r);
                    }
                }
                Err(_) => pass.failed += 1,
            }
        }
        pass.wall_s = loop_started.elapsed().as_secs_f64();
        // The warm-up pass checks every op: index answer == scan answer.
        for (op, got) in answers {
            let scan = execute(db, &format!("{} FORCE SCAN", inputs.texts[op.item]));
            let same = scan.is_ok_and(|s| same_hits(hits_of(&s.output), hits_of(&got.output)));
            if !same {
                pass.failed += 1;
            }
        }
        if check {
            pass.failed += self.oracle_failures(inputs);
        }
        pass
    }

    fn trace_pass(&mut self, inputs: &Inputs, t: &mut Tracer) -> Pass {
        let db = &self.db;
        let session = Session::new(db);
        let prepared = prepare_all(&session, &inputs.shapes);
        let mut pass = Pass::default();
        let mut recent = Vec::with_capacity(16);
        let mut answers = Vec::with_capacity(inputs.ops.len());
        let loop_started = Instant::now();
        // First sweep: the real calls, each as cold as in a plain pass.
        for (i, op) in inputs.ops.iter().enumerate() {
            let st = inputs.statements[op.item];
            let shape = &inputs.shapes[st.shape];
            let text = &inputs.texts[op.item];
            let result = match op.kind {
                Kind::Primary => {
                    let root = t.begin_op(op.kind.root(), i);
                    // Lexing alone, beside the parse that repeats it.
                    black_box(t.leaf("token.tokenize", || token::tokenize(text)).ok());
                    let actual = t.open("actual");
                    let query = t
                        .leaf("parse.parse", || parse(text))
                        .expect("statement parses");
                    let plan = t
                        .leaf("plan.plan", || plan_query(db, &query))
                        .expect("statement plans");
                    let run = t.open("exec.run");
                    let result = run_with_plan(db, &query, plan);
                    t.adopt_program_spans();
                    t.close(run);
                    t.close(actual);
                    t.end_op(root);
                    pass.primary_us.push(0.0);
                    result
                }
                Kind::Secondary => {
                    let root = t.begin_op(op.kind.root(), i);
                    // What a fresh connection pays to prepare the shape.
                    let template = shape.template(RELATION);
                    black_box(
                        t.leaf("session.prepare", || Session::new(db).prepare(&template))
                            .ok(),
                    );
                    let actual = t.open("actual");
                    let bound = t
                        .leaf("session.bind", || {
                            prepared[st.shape].bind(&shape.values(st.row))
                        })
                        .expect("statement binds");
                    let run = t.open("session.execute");
                    let result = session.execute(&bound);
                    t.adopt_program_spans();
                    t.close(run);
                    t.close(actual);
                    black_box(t.leaf("session.cursor_first_hit", || {
                        session.cursor(&bound).map(|mut c| c.next())
                    }))
                    .ok();
                    recent.push(bound);
                    if recent.len() == 16 {
                        let batch = t
                            .leaf_units("session.batch16", || (session.execute_batch(&recent), 16));
                        pass.failed += batch.results.iter().filter(|r| r.is_err()).count() as u64;
                        recent.clear();
                    }
                    t.end_op(root);
                    pass.secondary_us.push(0.0);
                    result
                }
            };
            answers.push(result.ok());
        }
        // Second sweep: the same ops rebuilt from the layers' public
        // functions — in a sweep of their own, so the real call has not
        // just pulled the op's tree nodes and spectra into the cache.
        for (i, (op, answer)) in inputs.ops.iter().zip(answers).enumerate() {
            let query = parse(&inputs.texts[op.item]).expect("statement parses");
            let root = t.begin_op(op.kind.root(), i);
            let rebuilt = t.open("rebuilt");
            let hits = decompose::range(t, db, &query);
            t.close(rebuilt);
            t.end_op(root);
            match answer {
                Some(r) if same_hits(hits_of(&r.output), &hits) => {
                    fold_exec(&mut pass.counts, op.kind, &r.stats, hits.len());
                }
                _ => pass.failed += 1,
            }
        }
        pass.wall_s = loop_started.elapsed().as_secs_f64();
        let primaries = pass.primary_us.len() as u64;
        pass.layers = exec_ratios(&pass.counts, primaries, inputs.rows.len() as u64);
        pass.layers.push(plan_cache_hit_share(&session.stats()));
        pass
    }

    fn layer_probes(&mut self, inputs: &Inputs, sizes: &Sizes) -> Vec<(&'static str, f64)> {
        let (rel, _) = decompose::single(&self.db, RELATION);
        let mut out = build_layers(rel, sizes);
        // Probe join: one transformed range probe per row of a prefix.
        let rows = &inputs.rows[..sizes.probe_join_rows.min(inputs.rows.len())];
        let prefix = gen::build_relation("prefix", rows, inputs.series_len);
        let tree = prefix.build_index(simq_index::RTreeConfig::default());
        let lowered: DiagonalAffine = SeriesTransform::MovingAverage { window: 20 }
            .lower(prefix.scheme(), inputs.series_len)
            .expect("mavg lowers safely");
        let probes: Vec<(Rect, u64)> = prefix
            .rows()
            .map(|r| (Rect::point(&r.features.point), r.id))
            .collect();
        let eps = inputs.shapes[1].eps;
        let join_us = median_us(3, || tree.join_via_probes(&probes, &lowered, &lowered, eps));
        out.push(("index.probe_join_ms", join_us / 1e3));
        out
    }

    fn span_metrics() -> &'static [SpanMetric] {
        const M: &[SpanMetric] = &[
            per_op_us("token.tokenize_us", "token.tokenize"),
            SpanMetric {
                metric: "parse.parse_us",
                span: "parse.parse",
                minus: Some("token.tokenize"),
                agg: Agg::OpMedianUs,
            },
            per_op_us("plan.plan_us", "plan.plan"),
            per_op_us("session.prepare_us", "session.prepare"),
            per_op_us("session.bind_us", "session.bind"),
            per_op_us("exec.run_us", "exec.run"),
            per_op_us("session.execute_us", "session.execute"),
            SpanMetric {
                metric: "session.batch16_us_per_query",
                span: "session.batch16",
                minus: None,
                agg: Agg::UsPerUnit,
            },
            per_op_us("session.cursor_first_hit_us", "session.cursor_first_hit"),
            per_op_us("index.range_us", "index.range"),
            per_op_us("series.action_us", "series.action"),
            per_op_us("series.lower_us", "series.lower"),
            SpanMetric {
                metric: "series.distance_ns_per_coef",
                span: "series.distance",
                minus: None,
                agg: Agg::NsPerUnit,
            },
            per_op_us("sig.compile_us", "sig.compile"),
            SpanMetric {
                metric: "sig.probe_ns_per_row",
                span: "sig.probe",
                minus: None,
                agg: Agg::NsPerUnit,
            },
        ];
        M
    }

    fn ledger_spans() -> &'static [&'static str] {
        &[
            "parse.parse",
            "plan.plan",
            "exec.resolve",
            "series.action",
            "series.search_rect",
            "series.lower",
            "index.range",
            "sig.compile",
            "sig.probe",
            "series.distance",
            "exec.materialise",
        ]
    }

    fn actual_spans() -> &'static [&'static str] {
        &["actual"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_list_repeats_per_seed_and_differs_across_seeds() {
        let a = Select::generate(7, &Sizes::SMOKE);
        let b = Select::generate(7, &Sizes::SMOKE);
        let c = Select::generate(8, &Sizes::SMOKE);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.statements, b.statements);
        assert_eq!(a.texts, b.texts);
        assert_eq!(a.shapes, b.shapes);
        assert_eq!(a.rows, b.rows);
        // Another seed asks the same statements of the same corpus in
        // another order.
        assert_ne!(a.ops, c.ops);
        assert_eq!(a.statements, c.statements);
        assert_eq!(a.rows, c.rows);
        assert_eq!(a.shapes, c.shapes);
    }

    #[test]
    fn every_statement_runs_once_per_kind_and_never_twice_in_a_row() {
        let inputs = Select::generate(7, &Sizes::SMOKE);
        let n = inputs.statements.len();
        assert_eq!(inputs.ops.len(), 2 * n);
        for kind in [Kind::Primary, Kind::Secondary] {
            let mut items: Vec<usize> = inputs
                .ops
                .iter()
                .filter(|op| op.kind == kind)
                .map(|op| op.item)
                .collect();
            items.sort_unstable();
            assert_eq!(items, (0..n).collect::<Vec<_>>());
        }
        assert!(inputs.ops.windows(2).all(|w| w[0].item != w[1].item));
    }
}
