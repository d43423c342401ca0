//! The quantized signature filter tier: work saved per query form.
//!
//! Runs the same tight range, kNN and join workloads with the filter on
//! (the default) and off, over random-walk corpora. The timings show the
//! latency effect; the counter evidence makes the mechanism concrete —
//! with the filter on, a slice of the index's candidates is dismissed
//! from their 64-byte quantized signatures alone (`filtered_out`), so
//! strictly fewer exact verifications run and strictly fewer spectrum
//! coefficients are touched, while the answers stay bitwise identical
//! (the no-false-dismissal contract `tests/filter_equivalence.rs` pins).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use simq_bench::report::{quick_mode, BenchReport};
use simq_bench::walk_relation;
use simq_query::{execute, Database, QueryOutput};
use std::time::Duration;

/// The measured workloads: tight thresholds so the index over-approximates
/// and the signature tier has candidates to dismiss. Epsilons scale with
/// the corpus (the full corpus is denser, so its index rectangles are
/// more selective at any fixed ε).
fn queries(quick: bool) -> Vec<(&'static str, String)> {
    let (range_eps, mavg_eps, join_eps) = if quick {
        (0.6, 0.8, 0.45)
    } else {
        (1.5, 1.5, 0.8)
    };
    vec![
        (
            "range_tight",
            format!("FIND SIMILAR TO ROW 0 IN r EPSILON {range_eps}"),
        ),
        (
            "range_mavg",
            format!("FIND SIMILAR TO ROW 3 IN r USING mavg(5) ON BOTH EPSILON {mavg_eps}"),
        ),
        ("knn", "FIND 8 NEAREST TO ROW 1 IN r".to_string()),
        (
            "join_probe",
            format!("FIND PAIRS IN r EPSILON {join_eps} METHOD d"),
        ),
    ]
}

fn db_of(rows: usize, len: usize) -> Database {
    let mut db = Database::new();
    db.add_relation_indexed(walk_relation("r", rows, len));
    db
}

/// Sorted (id, distance-bits) fingerprint of a result, for the bitwise
/// identity assertion across filter states.
fn fingerprint(output: &QueryOutput) -> Vec<(u64, u64, u64)> {
    match output {
        QueryOutput::Hits(hits) => hits
            .iter()
            .map(|h| (h.id, 0, h.distance.to_bits()))
            .collect(),
        QueryOutput::Pairs(pairs) => pairs
            .iter()
            .map(|p| (p.a, p.b, p.distance.to_bits()))
            .collect(),
        other => panic!("unexpected output {other:?}"),
    }
}

fn bench(c: &mut Criterion) {
    let quick = quick_mode();
    let rows = if quick { 600 } else { 4_000 };
    let len = 128;
    let mut db = db_of(rows, len);

    let mut group = c.benchmark_group("filter_tier");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(if quick { 50 } else { 200 }))
        .measurement_time(Duration::from_millis(if quick { 150 } else { 700 }));
    let workloads = queries(quick);
    for (label, q) in &workloads {
        for on in [true, false] {
            db.set_filter(on);
            let tag = if on { "filtered" } else { "unfiltered" };
            group.bench_with_input(BenchmarkId::new(*label, tag), q, |b, q| {
                b.iter(|| execute(&db, q).unwrap())
            });
        }
    }
    group.finish();
    db.set_filter(true);

    // Counter evidence + the acceptance assertion: identical answers,
    // strictly fewer exact verifications with the filter on.
    let smoke = std::env::args().any(|a| a == "--test");
    let mut report = BenchReport::new("filter_tier");
    let samples = if quick { 10 } else { 30 };
    report.note("rows", rows as u64);
    report.note("series_len", len as u64);
    let mut total_verified_filtered = 0u64;
    let mut total_verified_unfiltered = 0u64;
    for (label, q) in &workloads {
        db.set_filter(true);
        let filtered = execute(&db, q).unwrap();
        db.set_filter(false);
        let unfiltered = execute(&db, q).unwrap();
        assert_eq!(
            fingerprint(&filtered.output),
            fingerprint(&unfiltered.output),
            "{label}: filtered and unfiltered answers diverge"
        );
        assert_eq!(unfiltered.stats.filtered_out, 0);
        if *label == "knn" {
            // Multi-step kNN ranks rows by their whole signature bound
            // and stops at the exact k-th best, whichever way the toggle
            // stands: there is no dismissal left for it to govern. One
            // query whose leading coefficients say little about it can
            // still rank many rows, so the minority claim is asserted
            // over a sample of query rows.
            assert!(
                filtered.stats.candidates < rows as u64,
                "knn ranked every row"
            );
            assert_eq!(
                filtered.stats, unfiltered.stats,
                "knn: the toggle moved work"
            );
            let sample = 16u64;
            let ranked: u64 = (0..sample)
                .map(|row| {
                    let q = format!("FIND 8 NEAREST TO ROW {row} IN r");
                    execute(&db, &q).unwrap().stats.candidates
                })
                .sum();
            assert!(
                ranked < sample * rows as u64 / 2,
                "knn ranked {ranked} rows over {sample} queries of {rows} rows"
            );
            report.note("candidates_over_16_queries/knn", ranked);
        }
        // Exact verifications actually performed: every candidate, minus
        // those the signature tier dismissed.
        let verified_unfiltered = unfiltered.stats.candidates;
        let verified_filtered = filtered.stats.candidates - filtered.stats.filtered_out;
        total_verified_filtered += verified_filtered;
        total_verified_unfiltered += verified_unfiltered;
        println!(
            "filter_tier/{label}: {} candidates, {} dismissed by signature \
             ({} exact verifications vs {} unfiltered), coefficients {} vs {}",
            filtered.stats.candidates,
            filtered.stats.filtered_out,
            verified_filtered,
            verified_unfiltered,
            filtered.stats.coefficients_compared,
            unfiltered.stats.coefficients_compared,
        );
        report.note(format!("candidates/{label}"), filtered.stats.candidates);
        report.note(format!("filtered_out/{label}"), filtered.stats.filtered_out);
        report.note(format!("verified_filtered/{label}"), verified_filtered);
        report.note(format!("verified_unfiltered/{label}"), verified_unfiltered);
        report.note(
            format!("coefficients_filtered/{label}"),
            filtered.stats.coefficients_compared,
        );
        report.note(
            format!("coefficients_unfiltered/{label}"),
            unfiltered.stats.coefficients_compared,
        );
        db.set_filter(true);
        report.measure(format!("filtered/{label}"), samples, || {
            execute(&db, q).unwrap()
        });
        db.set_filter(false);
        report.measure(format!("unfiltered/{label}"), samples, || {
            execute(&db, q).unwrap()
        });
        db.set_filter(true);
    }
    // The acceptance line: across the workload, strictly fewer exact
    // verifications with the filter on, with bitwise-identical answers
    // (asserted per query above).
    assert!(
        total_verified_filtered < total_verified_unfiltered,
        "filter tier dismissed nothing across the whole workload \
         ({total_verified_filtered} vs {total_verified_unfiltered})"
    );
    report.note("total_verified_filtered", total_verified_filtered);
    report.note("total_verified_unfiltered", total_verified_unfiltered);
    // Smoke mode (`cargo test --benches`) runs everything above — the
    // assertions are the point — but never clobbers the committed report
    // with one-iteration noise.
    if !smoke {
        report.write();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
