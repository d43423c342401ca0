//! `embedded_rank` — ranking on a corpus the index cannot separate.
//!
//! In-process queries over random walks, both through prepared
//! statements. The primary op is `FIND 10 NEAREST TO ROW ?` on the
//! index path, whose second step today verifies the whole relation; the
//! secondary is a `warp(2)` range sent to the sequential scan. Verify
//! kernels, signature probe and scan do nearly all the work and the
//! front end almost none — the mirror image of `embedded_select`.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use simq_dsp::complex::Complex;
use simq_query::session::{Prepared, Session, Value};
use simq_query::{execute, Database};
use simq_series::transform::SeriesTransform;
use simq_storage::scan;

use crate::check::{
    hits_of, knn_answer_matches, range_answer_matches, same_hits, spectral_distances, TimeOracle,
};
use crate::decompose;
use crate::gen::{self, NamedSeries, SplitMix64};
use crate::harness::{per_op_us, Agg, Pass, Sizes, SpanMetric, Workload, RANK_K};
use crate::layers::build_layers;
use crate::queryops::{exec_ratios, fold_exec, plan_cache_hit_share, Kind, Op, Shape};
use crate::trace::Tracer;

/// The relation every statement names.
pub const RELATION: &str = "walks";

/// The secondary's transformation.
const WARP: SeriesTransform = SeriesTransform::Warp { m: 2 };

/// Seeded inputs of the workload.
pub struct Inputs {
    rows: Vec<NamedSeries>,
    series_len: usize,
    /// The scan-path range shape, calibrated.
    scan_shape: Shape,
    /// Query rows of the kNN ops.
    knn_rows: Vec<u64>,
    /// Query rows of the scan ops.
    scan_rows: Vec<u64>,
    ops: Vec<Op>,
    oracle_sample: usize,
}

fn knn_template() -> String {
    format!("FIND {RANK_K} NEAREST TO ROW ? IN {RELATION}")
}

fn knn_text(row: u64, suffix: &str) -> String {
    format!("FIND {RANK_K} NEAREST TO ROW {row} IN {RELATION}{suffix}")
}

fn build_db(rows: &[NamedSeries], series_len: usize) -> Database {
    let mut db = Database::new();
    db.add_relation_indexed(gen::build_relation(RELATION, rows, series_len));
    db
}

/// The workload instance: one indexed in-memory database.
pub struct Rank {
    db: Database,
}

struct Statements {
    knn: Prepared,
    scan: Prepared,
}

fn prepare(session: &Session<&Database>, inputs: &Inputs) -> Statements {
    Statements {
        knn: session
            .prepare(&knn_template())
            .expect("kNN statement prepares"),
        scan: session
            .prepare(&inputs.scan_shape.template(RELATION))
            .expect("scan statement prepares"),
    }
}

impl Inputs {
    fn values(&self, op: &Op) -> Vec<Value> {
        match op.kind {
            Kind::Primary => vec![Value::from(self.knn_rows[op.item])],
            Kind::Secondary => self.scan_shape.values(self.scan_rows[op.item]),
        }
    }
}

impl Rank {
    /// Brute-force checks on a sample of each op kind.
    fn oracle_failures(&self, inputs: &Inputs) -> u64 {
        let (rel, _) = decompose::single(&self.db, RELATION);
        let time = TimeOracle::new(&inputs.rows, &SeriesTransform::Identity);
        let spectra: Vec<&[Complex]> = rel.rows().map(|r| r.features.spectrum.as_slice()).collect();
        let mut failures = 0u64;
        for &row in inputs.knn_rows.iter().take(inputs.oracle_sample) {
            let got = execute(&self.db, &knn_text(row, "")).expect("statement runs");
            let truth = time.distances(row as usize, false);
            failures += u64::from(!knn_answer_matches(&truth, RANK_K, hits_of(&got.output)));
        }
        for &row in inputs.scan_rows.iter().take(inputs.oracle_sample) {
            let text = inputs.scan_shape.text(RELATION, row);
            let got = execute(&self.db, &text).expect("statement runs");
            let truth =
                spectral_distances(&spectra, &WARP, inputs.series_len, spectra[row as usize]);
            failures += u64::from(!range_answer_matches(
                &truth,
                inputs.scan_shape.eps,
                hits_of(&got.output),
            ));
        }
        failures
    }
}

impl Workload for Rank {
    const NAME: &'static str = "embedded_rank";
    const PASSES_PER_SECOND: f64 = 4.5;
    type Inputs = Inputs;

    fn generate(seed: u64, sizes: &Sizes) -> Inputs {
        let rows = gen::walk_series(gen::CORPUS_SEED, sizes.rows, sizes.series_len);
        let db = build_db(&rows, sizes.series_len);
        let mut fixed = SplitMix64::new(gen::CORPUS_SEED, 2);
        let calibration = gen::sample_rows(&mut fixed, rows.len(), 32);
        let mut rng = SplitMix64::new(seed, 2);
        let clause = "USING warp(2) ";
        let scan_shape = Shape {
            clause,
            // warp lowers safely in the polar scheme, so the planner
            // would pick the index; the secondary is the scan path.
            suffix: " FORCE SCAN",
            eps: gen::calibrate_eps(&db, RELATION, clause, &calibration, sizes.answer_rows()),
        };
        // Which rows are asked about is the corpus's; the order is the seed's.
        let knn_rows = gen::sample_rows(&mut fixed, rows.len(), sizes.rank_primaries);
        let scans = sizes.rank_primaries / sizes.rank_primaries_per_secondary;
        let scan_rows = gen::sample_rows(&mut fixed, rows.len(), scans.max(1));
        let knn_order = gen::shuffled(&mut rng, knn_rows.len());
        let scan_order = gen::shuffled(&mut rng, scan_rows.len());
        let mut ops = Vec::new();
        for (i, &item) in knn_order.iter().enumerate() {
            ops.push(Op {
                kind: Kind::Primary,
                item,
            });
            let due = (i + 1) % sizes.rank_primaries_per_secondary == 0;
            let s = i / sizes.rank_primaries_per_secondary;
            if due && s < scan_rows.len() {
                ops.push(Op {
                    kind: Kind::Secondary,
                    item: scan_order[s],
                });
            }
        }
        Inputs {
            rows,
            series_len: sizes.series_len,
            scan_shape,
            knn_rows,
            scan_rows,
            ops,
            oracle_sample: sizes.oracle_sample,
        }
    }

    fn setup(inputs: &Inputs, _scratch: &Path) -> (Self, f64) {
        let started = Instant::now();
        let db = build_db(&inputs.rows, inputs.series_len);
        let seconds = started.elapsed().as_secs_f64();
        (Rank { db }, seconds)
    }

    fn pass(&mut self, inputs: &Inputs, check: bool) -> Pass {
        let db = &self.db;
        let session = Session::new(db);
        let statements = prepare(&session, inputs);
        let mut pass = Pass::default();
        let mut answers = Vec::new();
        let loop_started = Instant::now();
        for op in &inputs.ops {
            let statement = match op.kind {
                Kind::Primary => &statements.knn,
                Kind::Secondary => &statements.scan,
            };
            let started = Instant::now();
            let result = statement
                .bind(&inputs.values(op))
                .and_then(|bound| session.execute(&bound));
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
        // Warm-up pass: every op against the other access path.
        for (op, got) in answers {
            let other = match op.kind {
                Kind::Primary => knn_text(inputs.knn_rows[op.item], " FORCE SCAN"),
                Kind::Secondary => Shape {
                    suffix: "",
                    ..inputs.scan_shape.clone()
                }
                .text(RELATION, inputs.scan_rows[op.item]),
            };
            let same = execute(db, &other)
                .is_ok_and(|o| same_hits(hits_of(&o.output), hits_of(&got.output)));
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
        let (rel, _) = decompose::single(db, RELATION);
        let session = Session::new(db);
        let statements = prepare(&session, inputs);
        let mut pass = Pass::default();
        let mut answers = Vec::with_capacity(inputs.ops.len());
        let loop_started = Instant::now();
        // First sweep: the real calls, each as cold as in a plain pass.
        for (i, op) in inputs.ops.iter().enumerate() {
            let statement = match op.kind {
                Kind::Primary => &statements.knn,
                Kind::Secondary => &statements.scan,
            };
            let root = t.begin_op(op.kind.root(), i);
            let actual = t.open("actual");
            let bound = t
                .leaf("session.bind", || statement.bind(&inputs.values(op)))
                .expect("statement binds");
            let run = t.open("session.execute");
            let result = session.execute(&bound);
            t.adopt_program_spans();
            t.close(run);
            t.close(actual);
            t.end_op(root);
            match op.kind {
                Kind::Primary => pass.primary_us.push(0.0),
                Kind::Secondary => pass.secondary_us.push(0.0),
            }
            answers.push((bound, result.ok()));
        }
        // Second sweep: the same ops rebuilt from the layers' public
        // functions — in a sweep of their own, so the real call has not
        // just pulled the op's rows into the cache.
        for (i, (op, (bound, answer))) in inputs.ops.iter().zip(answers).enumerate() {
            let root = t.begin_op(op.kind.root(), i);
            let rebuilt = t.open("rebuilt");
            let hits = match op.kind {
                Kind::Primary => decompose::knn(t, db, bound.query()),
                Kind::Secondary => decompose::scan_range(t, db, bound.query()),
            };
            t.close(rebuilt);
            if op.kind == Kind::Primary {
                // The access path the planner did not take, for the same op.
                let spectrum = &rel
                    .row(inputs.knn_rows[op.item])
                    .expect("op lists name stored rows")
                    .features
                    .spectrum;
                black_box(t.leaf("scan.knn", || {
                    scan::scan_knn(rel, &SeriesTransform::Identity, spectrum, RANK_K)
                }))
                .ok();
            }
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

    fn layer_probes(&mut self, _inputs: &Inputs, sizes: &Sizes) -> Vec<(&'static str, f64)> {
        let (rel, _) = decompose::single(&self.db, RELATION);
        build_layers(rel, sizes)
    }

    fn span_metrics() -> &'static [SpanMetric] {
        const M: &[SpanMetric] = &[
            per_op_us("session.bind_us", "session.bind"),
            per_op_us("session.execute_us", "session.execute"),
            per_op_us("index.knn_us", "index.knn"),
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
            per_op_us("scan.range_us", "scan.range"),
            per_op_us("scan.knn_us", "scan.knn"),
        ];
        M
    }

    fn ledger_spans() -> &'static [&'static str] {
        &[
            "session.bind",
            "exec.resolve",
            "series.lower",
            "series.action",
            "index.knn",
            "series.search_rect",
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
        let a = Rank::generate(7, &Sizes::SMOKE);
        let b = Rank::generate(7, &Sizes::SMOKE);
        let c = Rank::generate(8, &Sizes::SMOKE);
        assert_eq!(a.ops, b.ops);
        assert_eq!((&a.knn_rows, &a.scan_rows), (&b.knn_rows, &b.scan_rows));
        assert_eq!(a.scan_shape, b.scan_shape);
        assert_eq!(a.rows, b.rows);
        // Another seed asks about the same rows of the same corpus in
        // another order.
        assert_ne!(a.ops, c.ops);
        assert_eq!((&a.knn_rows, &a.scan_rows), (&c.knn_rows, &c.scan_rows));
        assert_eq!(a.rows, c.rows);
        assert_eq!(a.scan_shape, c.scan_shape);
    }

    #[test]
    fn one_scan_op_follows_each_run_of_knn_ops() {
        let inputs = Rank::generate(7, &Sizes::SMOKE);
        let kinds: Vec<Kind> = inputs.ops.iter().map(|op| op.kind).collect();
        assert_eq!(kinds.len(), 16 + 4);
        for chunk in kinds.chunks(5) {
            assert_eq!(chunk[..4], [Kind::Primary; 4]);
            assert_eq!(chunk[4], Kind::Secondary);
        }
    }
}
