//! The run protocol shared by all four workloads: seeded inputs, one
//! checked warm-up pass, a fixed number of identical timed passes each
//! on a freshly built instance, per-op-minimum reporting — and the
//! traced variant that replays the same op list in decomposed form to
//! fill the layer ledger.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::stats::{fold_min, median, percentile, sorted, spread, Better, Spread};
use crate::trace::{per_op, self_times_ns_where, Span, Tracer};

/// Fixed workload sizes. Inputs vary with `--seed`; sizes never do.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Rows of the clustered and random-walk query corpora.
    pub rows: usize,
    /// Base rows of the `logged_ingest` relation (a pass adds about half).
    pub ingest_rows: usize,
    /// Points per series.
    pub series_len: usize,
    /// `embedded_select`: distinct statements per pass; each runs once
    /// as text (primary) and once prepared (secondary).
    pub select_queries: usize,
    /// `embedded_rank`: indexed kNN ops per pass.
    pub rank_primaries: usize,
    /// `embedded_rank`: one scan-path range op after this many kNN ops.
    pub rank_primaries_per_secondary: usize,
    /// `served_mixed`: ops per pass; every [`SERVED_INSERT_EVERY`]-th is
    /// an insert.
    pub served_ops: usize,
    /// `logged_ingest`: cycles of [`INGEST_SINGLES`] single inserts and
    /// one [`INGEST_BATCH`]-row batch per pass.
    pub ingest_cycles: usize,
    /// Timed passes of a run whatever `--seconds` says (`--smoke`);
    /// `None` derives them from `--seconds`.
    pub passes: Option<usize>,
    /// Decomposed passes of a traced run, each preceded by a plain pass
    /// the end-to-end reference is taken from.
    pub traced_passes: usize,
    /// Ops per kind checked against the brute-force oracle.
    pub oracle_sample: usize,
    /// Rows of the probe-join layer measurement.
    pub probe_join_rows: usize,
    /// Rows sampled for the extract / FFT layer measurements.
    pub layer_sample: usize,
}

/// `served_mixed`: 100 reads, then one insert.
pub const SERVED_INSERT_EVERY: usize = 101;
/// `logged_ingest`: single-row inserts per cycle.
pub const INGEST_SINGLES: usize = 50;
/// `logged_ingest`: rows of the one batch that ends a cycle.
pub const INGEST_BATCH: usize = 64;
/// Neighbours of the `embedded_rank` kNN statement.
pub const RANK_K: usize = 10;
/// Median answer set of every calibrated range statement, as a share of
/// the relation's rows.
pub const ANSWER_SHARE: f64 = 0.002;

impl Sizes {
    /// The measured configuration.
    pub const FULL: Sizes = Sizes {
        rows: 2_000,
        ingest_rows: 1_000,
        series_len: 128,
        select_queries: 300,
        rank_primaries: 200,
        rank_primaries_per_secondary: 2,
        served_ops: 505,
        ingest_cycles: 5,
        passes: None,
        traced_passes: 8,
        oracle_sample: 24,
        probe_join_rows: 1_000,
        layer_sample: 500,
    };

    /// `--smoke`: exercises every code path of the harness in seconds;
    /// its numbers mean nothing.
    pub const SMOKE: Sizes = Sizes {
        rows: 400,
        ingest_rows: 200,
        series_len: 64,
        select_queries: 30,
        rank_primaries: 16,
        rank_primaries_per_secondary: 4,
        served_ops: 202,
        ingest_cycles: 1,
        passes: Some(1),
        traced_passes: 1,
        oracle_sample: 4,
        probe_join_rows: 100,
        layer_sample: 20,
    };

    /// Rows the calibrated median answer set holds.
    pub fn answer_rows(&self) -> usize {
        ((self.rows as f64 * ANSWER_SHARE).round() as usize).max(2)
    }
}

/// Exact work counters of one pass. The harness asserts they repeat
/// across the identical passes of a run.
pub type Counts = BTreeMap<&'static str, u64>;

/// Adds `n` to counter `key`.
pub fn count(counts: &mut Counts, key: &'static str, n: u64) {
    *counts.entry(key).or_default() += n;
}

/// What one pass over the op list measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of the op loop alone (untimed per-pass preparation and
    /// checks excluded).
    pub wall_s: f64,
    /// Per-op latency of the primary op kind, µs, in op-list order.
    pub primary_us: Vec<f64>,
    /// Per-op latency of the secondary op kind, µs, in op-list order.
    pub secondary_us: Vec<f64>,
    /// Per-op latency of ops that belong to the pass and to `ops_per_s`
    /// but have no latency metric of their own (the inserts of
    /// `served_mixed`), µs, in op-list order.
    pub other_us: Vec<f64>,
    /// Exact work counters.
    pub counts: Counts,
    /// Ops that errored or whose answer failed a check.
    pub failed: u64,
    /// Per-layer values the pass itself measures (checkpoint time,
    /// count ratios, …).
    pub layers: Vec<(&'static str, f64)>,
}

impl Pass {
    /// Ops the pass attempted.
    pub fn ops(&self) -> u64 {
        (self.primary_us.len() + self.secondary_us.len() + self.other_us.len()) as u64
    }
}

/// How a per-layer metric is derived from the spans of one traced pass.
#[derive(Debug, Clone, Copy)]
pub enum Agg {
    /// Median over the ops holding the span of the span's summed
    /// duration (minus the `minus` span's), µs.
    OpMedianUs,
    /// Total duration over total units across the pass, ns per unit.
    NsPerUnit,
    /// Total duration over total units across the pass, µs per unit.
    UsPerUnit,
}

/// One span-derived per-layer metric.
#[derive(Debug, Clone, Copy)]
pub struct SpanMetric {
    /// Metric name, as in `BENCHMARK.json`.
    pub metric: &'static str,
    /// Span the metric reads.
    pub span: &'static str,
    /// A span whose per-op time is subtracted (for calls that contain
    /// another measured call).
    pub minus: Option<&'static str>,
    /// Aggregation.
    pub agg: Agg,
}

/// Shorthand for the common per-op metric.
pub const fn per_op_us(metric: &'static str, span: &'static str) -> SpanMetric {
    SpanMetric {
        metric,
        span,
        minus: None,
        agg: Agg::OpMedianUs,
    }
}

/// Root span of the op kind the ledger decomposes.
pub const PRIMARY_ROOT: &str = "op.primary";
/// Root span of the secondary op kind.
pub const SECONDARY_ROOT: &str = "op.secondary";

/// One benchmark workload.
pub trait Workload: Sized {
    /// Name, as in `BENCHMARK.json`.
    const NAME: &'static str;
    /// Timed passes per second of `--seconds`, set so that a run's
    /// passes, with the fresh build before each, take about `--seconds`
    /// on the host NOISE.md describes.
    const PASSES_PER_SECOND: f64;
    /// Bench-side generated inputs: corpus, calibrated constants, op list.
    type Inputs;

    /// Generates the inputs from the seed. Never timed.
    fn generate(seed: u64, sizes: &Sizes) -> Self::Inputs;

    /// Program-side set-up; returns the instance and the seconds of
    /// program work it took (bench-side housekeeping excluded).
    fn setup(inputs: &Self::Inputs, scratch: &Path) -> (Self, f64);

    /// One pass over the op list from the workload's start state. With
    /// `check`, every answer is verified (the untimed warm-up pass).
    fn pass(&mut self, inputs: &Self::Inputs, check: bool) -> Pass;

    /// One pass in decomposed form, recording a span around every call
    /// into a layer.
    fn trace_pass(&mut self, inputs: &Self::Inputs, tracer: &mut Tracer) -> Pass;

    /// Layer measurements that are not per-op (bulk load, extract, …).
    fn layer_probes(&mut self, inputs: &Self::Inputs, sizes: &Sizes) -> Vec<(&'static str, f64)>;

    /// Span-derived per-layer metrics of this workload.
    fn span_metrics() -> &'static [SpanMetric];

    /// Spans whose self times the ledger sums for a primary op.
    fn ledger_spans() -> &'static [&'static str];

    /// Spans that together are the primary op's real end-to-end call.
    fn actual_spans() -> &'static [&'static str];
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The reported value: for the latencies and the rate, that of the
    /// op list with every op at its minimum over the passes; for
    /// `setup_s` and the layer times, the best sample.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Best / median / worst whole pass (or sample), where the metric
    /// has several.
    pub spread: Option<Spread>,
}

/// The result of one run.
#[derive(Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// True when every answer checked out and every count repeated.
    pub correct: bool,
    /// Ops attempted across all passes.
    pub attempted: u64,
    /// Ops that errored or failed a check.
    pub failed: u64,
    /// Timed (or traced) passes made.
    pub passes: usize,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// Human-readable remarks (count mismatches, scratch location).
    pub notes: Vec<String>,
}

/// End-to-end metrics: the same six on every workload.
pub const END_TO_END: [(&str, &str, Better); 6] = [
    ("setup_s", "s", Better::Lower),
    ("ops_per_s", "1/s", Better::Higher),
    ("primary_p50_us", "us", Better::Lower),
    ("primary_p95_us", "us", Better::Lower),
    ("secondary_p50_us", "us", Better::Lower),
    ("peak_rss_mb", "MB", Better::Lower),
];

/// Per-layer metrics, outermost layer first. A traced run reports all
/// of them; a layer the workload never enters reports 0.
pub const PER_LAYER: [(&str, &str); 54] = [
    // simq-query front end
    ("token.tokenize_us", "us"),
    ("parse.parse_us", "us"),
    ("plan.plan_us", "us"),
    ("session.prepare_us", "us"),
    ("session.bind_us", "us"),
    ("session.plan_cache_hit_share", "share"),
    // simq-query exec / session
    ("exec.run_us", "us"),
    ("session.execute_us", "us"),
    ("exec.nodes_per_op", "count"),
    ("exec.candidates_per_hit", "count"),
    ("exec.verified_per_hit", "count"),
    ("exec.filtered_share", "share"),
    ("exec.coefficients_per_op", "count"),
    ("exec.rows_touched_share", "share"),
    ("session.batch16_us_per_query", "us"),
    ("session.cursor_first_hit_us", "us"),
    // simq-index
    ("index.bulk_load_ms", "ms"),
    ("index.range_us", "us"),
    ("index.knn_us", "us"),
    ("index.insert_us", "us"),
    ("index.probe_join_ms", "ms"),
    // simq-series / simq-dsp
    ("series.extract_us", "us"),
    ("dsp.fft128_us", "us"),
    ("series.action_us", "us"),
    ("series.lower_us", "us"),
    ("series.distance_ns_per_coef", "ns"),
    // simq-storage, read side
    ("sig.compile_us", "us"),
    ("sig.probe_ns_per_row", "ns"),
    ("scan.range_us", "us"),
    ("scan.knn_us", "us"),
    // simq-storage, write side
    ("relation.insert_us", "us"),
    ("wal.encode_us", "us"),
    ("wal.append_us", "us"),
    ("wal.append_group64_us", "us"),
    ("wal.appends_per_row", "count"),
    ("wal.bytes_per_row", "count"),
    ("durable.checkpoint_ms", "ms"),
    ("durable.checkpoint_bytes_per_row", "count"),
    ("durable.open_ms", "ms"),
    ("snapshot.save_ms", "ms"),
    ("snapshot.open_ms", "ms"),
    // simq-server / simq-client
    ("wire.encode_frame_us", "us"),
    ("wire.decode_frame_us", "us"),
    ("proto.request_codec_us", "us"),
    ("proto.response_codec_us", "us"),
    ("client.ping_us", "us"),
    ("client.exec_us", "us"),
    ("client.query_us", "us"),
    ("client.insert_us", "us"),
    ("server.bytes_per_exec", "count"),
    ("server.overhead_us", "us"),
    // simq-obs / ledger
    ("obs.trace_overhead_pct", "%"),
    ("ledger.coverage", "share"),
    ("ledger.unattributed_us", "us"),
];

/// Directory the harness may write under: `bench/out` of the checkout
/// the command runs from (or of the package, under `cargo test`).
pub fn out_dir() -> PathBuf {
    if Path::new("bench/Cargo.toml").exists() {
        PathBuf::from("bench/out")
    } else {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
    }
}

/// A fresh scratch directory for this process under [`out_dir`], for
/// WAL directories and snapshots. Checkout-local on purpose: the
/// benchmark may not write outside its checkout.
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("scratch-{tag}-{}", std::process::id()));
    // A recycled pid must not inherit another run's files.
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch directory under bench/out is creatable");
    dir
}

/// Peak resident set of this process, MB (`VmHWM`); 0 where `/proc` is
/// not available.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Compares a pass's counters with the reference pass's.
fn counts_differ(reference: &Counts, other: &Counts) -> Option<String> {
    if reference == other {
        return None;
    }
    let keys: std::collections::BTreeSet<_> = reference.keys().chain(other.keys()).collect();
    let diffs: Vec<String> = keys
        .into_iter()
        .filter(|k| reference.get(*k) != other.get(*k))
        .map(|k| format!("{k}: {:?} vs {:?}", reference.get(k), other.get(k)))
        .collect();
    Some(diffs.join(", "))
}

fn p50(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// `ops_per_s`, `primary_p50_us`, `primary_p95_us`, `secondary_p50_us`
/// of one set of `ops` per-op latencies (µs) that took `wall_s` in all.
fn latency_metrics(primary_us: &[f64], secondary_us: &[f64], ops: u64, wall_s: f64) -> [f64; 4] {
    let primary = sorted(primary_us);
    [
        ops as f64 / wall_s,
        percentile(&primary, 0.5),
        percentile(&primary, 0.95),
        p50(secondary_us),
    ]
}

/// Timed passes a run makes at least.
const MIN_PASSES: usize = 10;

/// A run that has used this many times its `--seconds` stops before
/// its planned passes are done, so that on a host much slower than the
/// one the pass rates were set on it still ends inside the time the
/// benchmark contract gives a run.
const OVERRUN: f64 = 1.5;

impl Sizes {
    /// Timed passes of a run of `seconds` for a workload that makes
    /// `per_second` passes a second on the reference host. The count is
    /// fixed by `--seconds` alone, never by how fast the passes go: a
    /// minimum over more passes is lower, so a faster commit given more
    /// passes would look faster still.
    pub fn timed_passes(&self, seconds: f64, per_second: f64) -> usize {
        self.passes
            .unwrap_or_else(|| ((seconds * per_second).round() as usize).max(MIN_PASSES))
    }
}

/// The untraced run: every end-to-end metric.
pub fn run_untraced<W: Workload>(seed: u64, seconds: f64, sizes: &Sizes) -> Outcome {
    let scratch = scratch_dir(W::NAME);
    let inputs = W::generate(seed, sizes);
    let planned = sizes.timed_passes(seconds, W::PASSES_PER_SECOND);
    let (w, first_setup_s) = W::setup(&inputs, &scratch);
    let mut w = Some(w);
    let mut setup_seconds = vec![first_setup_s];

    let mut notes = vec![format!("scratch: {}", scratch.display())];
    let warm = w.as_mut().expect("built above").pass(&inputs, true);
    let mut attempted = warm.ops();
    let mut failed = warm.failed;
    let mut correct = true;

    let mut per_pass: [Vec<f64>; 4] = Default::default();
    let mut calmest_primary = Vec::new();
    let mut calmest_secondary = Vec::new();
    let mut calmest_other = Vec::new();
    let started = Instant::now();
    let mut passes = 0usize;
    while passes < planned {
        if passes >= MIN_PASSES.min(planned) && started.elapsed().as_secs_f64() > seconds * OVERRUN
        {
            notes.push(format!(
                "stopped after {passes} of {planned} passes: they overran {OVERRUN} x {seconds} s"
            ));
            break;
        }
        // Every pass starts from a freshly built instance, and each
        // build is one `setup_s` sample, so the set-ups sample the whole
        // run. One instance at a time: the previous one goes first.
        drop(w.take());
        let (fresh, setup_s) = W::setup(&inputs, &scratch);
        setup_seconds.push(setup_s);
        let p = w.insert(fresh).pass(&inputs, false);
        attempted += p.ops();
        failed += p.failed;
        if let Some(diff) = counts_differ(&warm.counts, &p.counts) {
            correct = false;
            notes.push(format!(
                "pass {passes}: counts differ from the warm-up pass: {diff}"
            ));
        }
        for (all, this) in per_pass.iter_mut().zip(latency_metrics(
            &p.primary_us,
            &p.secondary_us,
            p.ops(),
            p.wall_s,
        )) {
            all.push(this);
        }
        fold_min(&mut calmest_primary, &p.primary_us);
        fold_min(&mut calmest_secondary, &p.secondary_us);
        fold_min(&mut calmest_other, &p.other_us);
        passes += 1;
    }
    notes.push(format!(
        "{passes} fresh builds and passes took {:.1} s",
        started.elapsed().as_secs_f64()
    ));
    drop(w);
    std::fs::remove_dir_all(&scratch).ok();

    // Reported: the op list with each op at its least-disturbed
    // execution across the passes — a pass no single pass was.
    let calmest = [&calmest_primary, &calmest_secondary, &calmest_other];
    let calm_wall_s = calmest.iter().map(|v| v.iter().sum::<f64>()).sum::<f64>() / 1e6;
    let calm_ops = calmest.iter().map(|v| v.len() as u64).sum();
    let reported = latency_metrics(&calmest_primary, &calmest_secondary, calm_ops, calm_wall_s);

    let mut metrics = Vec::with_capacity(END_TO_END.len());
    for (i, &(name, unit, better)) in END_TO_END.iter().enumerate() {
        let (value, spread) = match name {
            "setup_s" => {
                let s = spread(&setup_seconds, better);
                (s.best, Some(s))
            }
            "peak_rss_mb" => (peak_rss_mb(), None),
            _ => (reported[i - 1], Some(spread(&per_pass[i - 1], better))),
        };
        metrics.push(Metric {
            name,
            value,
            unit,
            spread,
        });
    }
    correct &= failed == 0 && metrics.iter().all(|m| m.value.is_finite() && m.value > 0.0);
    Outcome {
        workload: W::NAME,
        correct,
        attempted,
        failed,
        passes,
        metrics,
        notes,
    }
}

/// Per op, the summed duration of the harness spans named `name` in
/// one traced pass, µs.
fn per_op_us_of(spans: &[Span], name: &str) -> BTreeMap<u32, f64> {
    per_op(spans, name)
        .into_iter()
        .map(|(op, (ns, _))| (op, ns as f64 / 1e3))
        .collect()
}

/// Total span time over total units in one traced pass, in `unit_ns`
/// nanoseconds per reported unit; `None` without units.
fn per_unit_value(spans: &[Span], span: &str, unit_ns: f64) -> Option<f64> {
    let (ns, units) = per_op(spans, span)
        .values()
        .fold((0u64, 0u64), |(a, b), &(ns, u)| (a + ns, b + u));
    (units > 0).then(|| ns as f64 / unit_ns / units as f64)
}

/// Per primary op (rooted at `root`), the summed value — self times when
/// given, durations otherwise — of the harness spans in `names`, µs.
fn per_primary_op_us(
    spans: &[Span],
    root: &str,
    names: &[&str],
    selfs: Option<&[u64]>,
) -> BTreeMap<u32, f64> {
    let mut per: BTreeMap<u32, f64> = spans
        .iter()
        .filter(|s| s.parent.is_none() && s.name == root)
        .map(|s| (s.op, 0.0))
        .collect();
    for (i, s) in spans.iter().enumerate() {
        if names.contains(&s.name) && !s.program {
            if let Some(total) = per.get_mut(&s.op) {
                *total += selfs.map_or(s.duration_ns(), |t| t[i]) as f64 / 1e3;
            }
        }
    }
    per
}

/// Keeps, per op, the least-disturbed value seen across traced passes.
fn merge_min(calmest: &mut BTreeMap<u32, f64>, pass: BTreeMap<u32, f64>) {
    for (op, v) in pass {
        calmest
            .entry(op)
            .and_modify(|best| *best = best.min(v))
            .or_insert(v);
    }
}

fn median_of(per_op: &BTreeMap<u32, f64>) -> f64 {
    p50(&per_op.values().copied().collect::<Vec<_>>())
}

/// The traced run: every per-layer metric. Writes the last traced
/// pass's spans to `trace_file` when one is given.
pub fn run_traced<W: Workload>(seed: u64, sizes: &Sizes, trace_file: Option<&Path>) -> Outcome {
    let scratch = scratch_dir(W::NAME);
    let inputs = W::generate(seed, sizes);
    let (mut w, _) = W::setup(&inputs, &scratch);
    let mut notes = vec![format!("scratch: {}", scratch.display())];

    let warm = w.pass(&inputs, true);
    let mut attempted = warm.ops();
    let mut failed = warm.failed;
    let mut correct = true;

    // Plain and decomposed passes alternate, so a slow phase of the host
    // weighs on the end-to-end reference and on the ledger alike. Both
    // keep each op's least-disturbed execution.
    let mut untraced = Vec::new();
    let mut values: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut span_us: BTreeMap<&'static str, BTreeMap<u32, f64>> = BTreeMap::new();
    let mut attributed = BTreeMap::new();
    let mut actual = BTreeMap::new();
    let mut last_tracer = None;
    for k in 0..sizes.traced_passes.max(1) {
        let p = w.pass(&inputs, false);
        attempted += p.ops();
        failed += p.failed;
        fold_min(&mut untraced, &p.primary_us);

        simq_obs::span::set_tracing(true);
        let mut tracer = Tracer::new();
        let p = w.trace_pass(&inputs, &mut tracer);
        simq_obs::span::set_tracing(false);
        drop(simq_obs::span::take_records());
        attempted += p.ops();
        failed += p.failed;
        if let Some(diff) = counts_differ(&warm.counts, &p.counts) {
            correct = false;
            notes.push(format!(
                "traced pass {k}: counts differ from the warm-up pass: {diff}"
            ));
        }
        let spans = tracer.spans();
        for m in W::span_metrics() {
            match m.agg {
                Agg::OpMedianUs => {
                    for name in std::iter::once(m.span).chain(m.minus) {
                        merge_min(span_us.entry(name).or_default(), per_op_us_of(spans, name));
                    }
                }
                Agg::NsPerUnit => values
                    .entry(m.metric)
                    .or_default()
                    .extend(per_unit_value(spans, m.span, 1.0)),
                Agg::UsPerUnit => values
                    .entry(m.metric)
                    .or_default()
                    .extend(per_unit_value(spans, m.span, 1e3)),
            }
        }
        for (name, v) in p.layers {
            values.entry(name).or_default().push(v);
        }
        let selfs = self_times_ns_where(spans, |s| !s.program);
        merge_min(
            &mut attributed,
            per_primary_op_us(spans, PRIMARY_ROOT, W::ledger_spans(), Some(&selfs)),
        );
        merge_min(
            &mut actual,
            per_primary_op_us(spans, PRIMARY_ROOT, W::actual_spans(), None),
        );
        last_tracer = Some(tracer);
    }
    let untraced_us = p50(&untraced);
    values.retain(|_, v| !v.is_empty());
    // Counts and shares derived per pass must repeat exactly, like the
    // counters they are made of.
    for (name, unit) in PER_LAYER {
        let differ = values
            .get(name)
            .is_some_and(|v| v.iter().any(|x| x.to_bits() != v[0].to_bits()));
        if matches!(unit, "count" | "share") && differ {
            correct = false;
            notes.push(format!(
                "{name} differs between traced passes: {:?}",
                values[name]
            ));
        }
    }
    for m in W::span_metrics()
        .iter()
        .filter(|m| matches!(m.agg, Agg::OpMedianUs))
    {
        // Over the ops holding the span: its least-disturbed time, less
        // the `minus` span's where the op has one.
        let Some(main) = span_us.get(m.span).filter(|main| !main.is_empty()) else {
            continue;
        };
        let minus = m.minus.and_then(|name| span_us.get(name));
        let net: Vec<f64> = main
            .iter()
            .map(|(op, us)| {
                us - minus
                    .and_then(|other| other.get(op))
                    .copied()
                    .unwrap_or(0.0)
            })
            .collect();
        values.insert(m.metric, vec![median(&net)]);
    }

    for (name, v) in w.layer_probes(&inputs, sizes) {
        values.entry(name).or_default().push(v);
    }
    drop(w);
    std::fs::remove_dir_all(&scratch).ok();

    let attributed_us = median_of(&attributed);
    let actual_us = median_of(&actual);
    values.insert("ledger.coverage", vec![attributed_us / untraced_us]);
    values.insert("ledger.unattributed_us", vec![untraced_us - attributed_us]);
    values.insert(
        "obs.trace_overhead_pct",
        vec![100.0 * (actual_us - untraced_us) / untraced_us],
    );

    if let (Some(path), Some(tracer)) = (trace_file, &last_tracer) {
        let spans = tracer.spans();
        match crate::trace::write_jsonl(path, spans) {
            Ok(()) => notes.push(format!("trace: {} ({} spans)", path.display(), spans.len())),
            Err(e) => notes.push(format!("trace not written to {}: {e}", path.display())),
        }
    }

    let metrics: Vec<Metric> = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            // Times report their least-disturbed pass; counts and shares
            // are equal across passes, so the same rule reads them.
            let s = values.get(name).map(|v| spread(v, Better::Lower));
            Metric {
                name,
                value: s.map_or(0.0, |s| s.best),
                unit,
                spread: s,
            }
        })
        .collect();
    for name in values.keys() {
        assert!(
            PER_LAYER.iter().any(|(n, _)| n == name),
            "workload {} measured {name}, which PER_LAYER does not list",
            W::NAME
        );
    }
    correct &= failed == 0 && metrics.iter().all(|m| m.value.is_finite());
    Outcome {
        workload: W::NAME,
        correct,
        attempted,
        failed,
        passes: sizes.traced_passes.max(1),
        metrics,
        notes,
    }
}

/// The last line of a run: the contract's result object.
pub fn result_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

/// The human-readable report that precedes the result line: every
/// metric by name and unit. Beside the reported value stand the best,
/// median and worst whole pass, so the spread of the run stays visible
/// — and so does the fact that the reported latencies and rate are
/// those of no single pass.
pub fn report(o: &Outcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {} — {} passes, {} ops attempted, {} failed, correct: {}",
        o.workload, o.passes, o.attempted, o.failed, o.correct
    );
    let _ = writeln!(
        out,
        "{:<34} {:>14} {:>14} {:>14} {:>14}  unit",
        "metric", "reported", "best pass", "median pass", "worst pass"
    );
    for m in &o.metrics {
        let _ = write!(out, "{:<34} {:>14.4}", m.name, m.value);
        let _ = match m.spread {
            Some(s) => write!(
                out,
                " {:>14.4} {:>14.4} {:>14.4}",
                s.best, s.median, s.worst
            ),
            None => write!(out, " {:>14} {:>14} {:>14}", "-", "-", "-"),
        };
        let _ = writeln!(out, "  {}", m.unit);
    }
    for n in &o.notes {
        let _ = writeln!(out, "note: {n}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section is an array");
        body[..end]
            .split("\"name\":")
            .skip(1)
            .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let e2e: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        assert_eq!(names_in(json, "end_to_end"), e2e);
        let layers: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
        assert_eq!(names_in(json, "per_layer"), layers);
        for (name, unit) in PER_LAYER {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} is listed with unit {unit}"
            );
        }
    }

    #[test]
    fn count_mismatch_is_named() {
        let mut a = Counts::new();
        let mut b = Counts::new();
        count(&mut a, "hits", 3);
        count(&mut b, "hits", 3);
        assert_eq!(counts_differ(&a, &b), None);
        count(&mut b, "hits", 1);
        count(&mut b, "nodes", 9);
        let diff = counts_differ(&a, &b).expect("differs");
        assert!(diff.contains("hits: Some(3) vs Some(4)"), "{diff}");
        assert!(diff.contains("nodes: None vs Some(9)"), "{diff}");
    }

    #[test]
    fn span_metrics_aggregate_per_op_and_per_unit() {
        let mk = |name, start, end, op, units| Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: None,
            op,
            units,
            program: false,
        };
        let spans = vec![
            mk("parse", 0, 5_000, 0, 0),
            mk("lex", 0, 1_000, 0, 0),
            mk("parse", 10_000, 13_000, 1, 0),
            mk("lex", 10_000, 11_000, 1, 0),
            mk("parse", 20_000, 29_000, 2, 0),
            mk("probe", 30_000, 31_000, 2, 10),
            mk("probe", 32_000, 35_000, 3, 30),
        ];
        let parse = per_op_us_of(&spans, "parse");
        assert_eq!(parse.values().copied().collect::<Vec<_>>(), [5.0, 3.0, 9.0]);
        assert_eq!(median_of(&parse), 5.0);
        assert_eq!(per_unit_value(&spans, "probe", 1.0), Some(100.0));
        assert_eq!(per_unit_value(&spans, "probe", 1e3), Some(0.1));
        assert_eq!(per_unit_value(&spans, "parse", 1.0), None);
        assert!(per_op_us_of(&spans, "absent").is_empty());

        // Across passes each op keeps its least-disturbed value.
        let mut calmest = parse;
        merge_min(&mut calmest, BTreeMap::from([(0, 7.0), (1, 2.5), (5, 1.0)]));
        assert_eq!(
            calmest,
            BTreeMap::from([(0, 5.0), (1, 2.5), (2, 9.0), (5, 1.0)])
        );
    }

    #[test]
    fn ledger_sums_only_primary_ops_and_harness_spans() {
        let mk = |name, start, end, parent, op, program| Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op,
            units: 0,
            program,
        };
        let spans = vec![
            mk("op.primary", 0, 100_000, None, 0, false),
            mk("index.range", 10_000, 30_000, Some(0), 0, false),
            mk("index.range", 12_000, 20_000, Some(1), 0, true), // the program's own
            mk("sig.probe", 40_000, 45_000, Some(0), 0, false),
            mk("op.secondary", 200_000, 300_000, None, 1, false),
            mk("index.range", 210_000, 250_000, Some(4), 1, false),
        ];
        let selfs = crate::trace::self_times_ns(&spans);
        let per = per_primary_op_us(
            &spans,
            "op.primary",
            &["index.range", "sig.probe"],
            Some(&selfs),
        );
        // index.range's self time excludes the adopted child: 12 µs + 5 µs.
        assert_eq!(per, BTreeMap::from([(0, 17.0)]));
        let whole = per_primary_op_us(&spans, "op.primary", &["index.range"], None);
        assert_eq!(whole, BTreeMap::from([(0, 20.0)]));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let o = Outcome {
            workload: "w",
            correct: true,
            attempted: 7,
            failed: 0,
            passes: 1,
            metrics: vec![Metric {
                name: "setup_s",
                value: 0.0625,
                unit: "s",
                spread: None,
            }],
            notes: Vec::new(),
        };
        assert_eq!(
            result_line(&o),
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.0625, \"unit\": \"s\"}}}"
        );
    }
}
