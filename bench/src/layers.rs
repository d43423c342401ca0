//! Layer measurements that are not per-op: each calls one public
//! function of one layer directly on the workload's own data and
//! reports the median call.

use std::hint::black_box;
use std::time::Instant;

use simq_index::{RTree, RTreeConfig};
use simq_storage::SeriesRelation;

use crate::gen::NamedSeries;
use crate::harness::Sizes;
use crate::stats::median;

/// Runs `f`, returning its result and its wall time in µs.
pub fn timed_us<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e6)
}

/// Median wall time of `runs` calls of `f`, µs.
pub fn median_us<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..runs.max(1))
        .map(|_| {
            let (out, us) = timed_us(&mut f);
            black_box(out);
            us
        })
        .collect();
    median(&times)
}

/// What `setup_s` is made of: `index.bulk_load_ms`, `series.extract_us`
/// and `dsp.fft128_us`, on the relation's own rows.
pub fn build_layers(rel: &SeriesRelation, sizes: &Sizes) -> Vec<(&'static str, f64)> {
    let bulk_ms = median_us(3, || rel.build_index(RTreeConfig::default())) / 1e3;
    let scheme = rel.scheme();
    let sample: Vec<&[f64]> = rel
        .rows()
        .take(sizes.layer_sample)
        .map(|r| r.raw.as_slice())
        .collect();
    let extract: Vec<f64> = sample
        .iter()
        .map(|s| {
            let (f, us) = timed_us(|| scheme.extract(black_box(s)));
            black_box(f.expect("stored series extract")).point.len();
            us
        })
        .collect();
    let fft: Vec<f64> = sample
        .iter()
        .map(|s| {
            let nf = simq_series::normal_form(s).expect("stored series normalise");
            let (spectrum, us) = timed_us(|| simq_dsp::forward_real(black_box(&nf)));
            black_box(spectrum);
            us
        })
        .collect();
    vec![
        ("index.bulk_load_ms", bulk_ms),
        ("series.extract_us", median(&extract)),
        ("dsp.fft128_us", median(&fft)),
    ]
}

/// What an insert is made of below the catalog: `relation.insert_us`
/// (extract + store + signature) and `index.insert_us` (incremental
/// R*-tree insert), on copies of the workload's relation and tree fed
/// the workload's own insert payload.
pub fn insert_layers(
    rel: &SeriesRelation,
    tree: &RTree,
    payload: &[NamedSeries],
) -> Vec<(&'static str, f64)> {
    let mut rel = rel.clone();
    let mut tree = tree.clone();
    let mut relation_us = Vec::with_capacity(payload.len());
    let mut index_us = Vec::with_capacity(payload.len());
    for (name, series) in payload {
        let (id, us) = timed_us(|| rel.insert(name.clone(), series.clone()));
        let id = id.expect("payload series are valid rows");
        relation_us.push(us);
        let point = rel.row(id).expect("just inserted").features.point.clone();
        let ((), us) = timed_us(|| tree.insert_point(&point, id));
        index_us.push(us);
    }
    black_box((rel.len(), tree.len()));
    vec![
        ("relation.insert_us", median(&relation_us)),
        ("index.insert_us", median(&index_us)),
    ]
}
