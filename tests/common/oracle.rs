//! The time-domain oracle: the paper's *definition* of every query form,
//! written once, outside every production crate, sharing nothing with the
//! paths it judges — no stored spectrum, no signature, no kernel, no tree.
//!
//! Distance under `T` (docs/QUERY_LANGUAGE.md, "Distance under a
//! transformation"): take the normal form of each raw series, apply `T`'s
//! steps to it in the time domain, sum the squared differences. `shift`
//! leaves a normal form's shape alone and `scale(k)` contributes only
//! `sign(k)` — their constants act on the mean and standard deviation,
//! which is what `MEAN` / `STD WITHIN` test. `warp(m)` lengthens the
//! series, so the comparison is over the first `n` coefficients of the
//! naive DFT of the warped series (Appendix A compares exactly those).
//!
//! Two routes to one real number differ by rounding, so agreement with the
//! engine is within [`MARGIN`], and a statement is only decidable when no
//! row sits within the margin of its threshold: [`threshold_near`] and
//! [`decidable_k`] pick constants out of gaps in the oracle's own distance
//! lists, and [`Oracle::check`] reports a statement that was not so picked
//! as one to regenerate. Path-vs-path agreement is not the oracle's
//! business — that stays bitwise (`lattice.rs`).

use similarity_queries::prelude::*;
use similarity_queries::query::{JoinMethod, Query, QuerySource};
use similarity_queries::series::normal::{mean, std_dev};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Relative-plus-absolute rounding margin between the time-domain and the
/// engine's frequency-domain route to one distance: far above what either
/// accumulates (≈ 1e-13), far below any real disagreement.
pub const MARGIN: f64 = 1e-9;

/// Whether two routes to one number agree within [`MARGIN`].
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= MARGIN * (1.0 + a.abs().max(b.abs()))
}

/// The smallest gap between neighbours a constant may be drawn from.
const GAP: f64 = 1e3 * MARGIN;

/// `T`'s steps applied to a normal form `s` in the time domain.
pub fn shape(t: &SeriesTransform, s: &[f64]) -> Vec<f64> {
    use SeriesTransform::*;
    match t {
        Shift(_) => s.to_vec(),
        Scale(k) => s.iter().map(|v| v * k.signum()).collect(),
        Chain(steps) => steps.iter().fold(s.to_vec(), |cur, step| shape(step, &cur)),
        Identity | MovingAverage { .. } | WeightedMovingAverage { .. } | Reverse | Warp { .. } => {
            t.apply_time(s).expect("corpus transformations apply")
        }
    }
}

/// Plain Euclidean distance: root of the sum of squared differences.
pub fn euclid(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// The coordinates two shapes are compared in: the samples themselves, or —
/// once a warp has lengthened them past `n` — the first `n` coefficients
/// of their naive DFT.
fn coordinates(shape: Vec<f64>, n: usize, spectral: bool) -> Vec<f64> {
    if !spectral {
        return shape;
    }
    let spectrum = similarity_queries::dsp::dft::dft(&shape);
    spectrum[..n].iter().flat_map(|c| [c.re, c.im]).collect()
}

fn warps(t: &SeriesTransform) -> bool {
    match t {
        SeriesTransform::Warp { .. } => true,
        SeriesTransform::Chain(steps) => steps.iter().any(warps),
        _ => false,
    }
}

/// A midpoint between two neighbouring values of `values`, at or after the
/// `want`-th smallest, that no value is within [`GAP`] of: a threshold
/// every route decides alike, admitting about `want` rows.
pub fn threshold_near(values: &[f64], want: usize) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let gap = |w: &[f64]| w[1] - w[0] > GAP * (1.0 + w[1].abs());
    let at = want.clamp(1, sorted.len() - 1);
    let pair = sorted[at - 1..].windows(2).find(|w| gap(w));
    pair.map_or(sorted[sorted.len() - 1] + 1.0, |w| (w[0] + w[1]) / 2.0)
}

/// The smallest `k ≥ want` whose `k`-th and `k+1`-th nearest are a clear
/// gap apart (or every row).
pub fn decidable_k(distances: &[f64], want: usize) -> usize {
    let mut sorted = distances.to_vec();
    sorted.sort_by(f64::total_cmp);
    let clear = |k: usize| sorted[k] - sorted[k - 1] > GAP * (1.0 + sorted[k].abs());
    (want.max(1)..sorted.len())
        .find(|&k| clear(k))
        .unwrap_or(sorted.len())
}

/// Every row's coordinates under one transformation.
type Coordinates = Vec<Vec<f64>>;

/// An answer, keyed for comparison: a pair by its two ids, a hit by its id
/// twice.
type Keyed = Vec<((u64, u64), f64)>;

/// Whether `value` is within `limit` — or a request to regenerate the
/// statement, when the two routes could decide it differently.
fn inside(value: f64, limit: f64) -> Result<bool, String> {
    if close(value, limit) {
        return Err(format!("regenerate: {value} sits on the threshold {limit}"));
    }
    Ok(value <= limit)
}

/// The raw rows of one relation (ids are positions, names `S<id>`) and their
/// normal forms.
pub struct Oracle {
    raw: Vec<Vec<f64>>,
    normal: Vec<Vec<f64>>,
    cache: Mutex<BTreeMap<(String, bool), Arc<Coordinates>>>,
}

impl Oracle {
    pub fn new(rows: &[Vec<f64>]) -> Self {
        let normal = |s: &Vec<f64>| normal_form(s).expect("non-constant rows");
        Oracle {
            raw: rows.to_vec(),
            normal: rows.iter().map(normal).collect(),
            cache: Mutex::default(),
        }
    }

    fn series_of(&self, source: &QuerySource) -> Vec<f64> {
        match source {
            QuerySource::Literal(values) => values.clone(),
            QuerySource::RowId(id) => self.raw[*id as usize].clone(),
            // `S<id>`, as `tests/common::relation_with` names rows.
            QuerySource::RowName(name) => {
                self.raw[name[1..].parse::<usize>().expect("S<id>")].clone()
            }
        }
    }

    /// Every row's coordinates under `t` — computed once per clause: the
    /// naive DFT of a warped relation is most of what the oracle costs.
    fn rows_under(&self, t: &SeriesTransform, spectral: bool) -> Arc<Coordinates> {
        let n = self.normal[0].len();
        let mut cache = self.cache.lock().expect("no panic holds the cache");
        let rows = || {
            self.normal
                .iter()
                .map(|s| coordinates(shape(t, s), n, spectral))
                .collect()
        };
        cache
            .entry((format!("{t:?}"), spectral))
            .or_insert_with(|| Arc::new(rows()))
            .clone()
    }

    /// Distance from every row under `t` to the query series (itself under
    /// `t` when `on_both`).
    pub fn distances(&self, query: &[f64], t: &SeriesTransform, on_both: bool) -> Vec<f64> {
        let q = normal_form(query).expect("non-constant query");
        let q = shape(
            if on_both {
                t
            } else {
                &SeriesTransform::Identity
            },
            &q,
        );
        let q = coordinates(q, query.len(), warps(t));
        self.rows_under(t, warps(t))
            .iter()
            .map(|row| euclid(row, &q))
            .collect()
    }

    /// `(mean, std)` of every row under `t`: the mean of `t` applied to the
    /// raw series, and the row's own σ times `|k|` of every `scale(k)` —
    /// smoothing and warping leave the σ dimension alone by definition.
    pub fn statistics(&self, t: &SeriesTransform) -> Vec<(f64, f64)> {
        fn sigma_factor(t: &SeriesTransform) -> f64 {
            match t {
                SeriesTransform::Scale(k) => k.abs(),
                SeriesTransform::Chain(steps) => steps.iter().map(sigma_factor).product(),
                _ => 1.0,
            }
        }
        let moved = |s: &Vec<f64>| mean(&t.apply_time(s).expect("corpus transformations apply"));
        self.raw
            .iter()
            .map(|s| (moved(s), std_dev(s) * sigma_factor(t)))
            .collect()
    }

    /// Every unordered pair's distance: the smaller of its two orientations.
    pub fn pair_distances(&self, left: &SeriesTransform, right: &SeriesTransform) -> Keyed {
        let spectral = warps(left) || warps(right);
        let (l, r) = (
            self.rows_under(left, spectral),
            self.rows_under(right, spectral),
        );
        let ids = 0..self.raw.len();
        let one_way = |i: usize, j: usize| euclid(&l[i], &r[j]);
        let pair = |i: usize, j: usize| ((i as u64, j as u64), one_way(i, j).min(one_way(j, i)));
        ids.clone()
            .flat_map(|i| ids.clone().skip(i + 1).map(move |j| (i, j)))
            .map(|(i, j)| pair(i, j))
            .collect()
    }

    /// The definition's answer to `query` — or a request to regenerate it,
    /// when a row sits on one of its thresholds.
    fn answer(&self, query: &Query) -> Result<Keyed, String> {
        let by_row = |d: Vec<f64>| {
            d.into_iter()
                .enumerate()
                .map(|(id, d)| ((id as u64, id as u64), d))
        };
        match query {
            Query::Range {
                source,
                transform,
                on_both,
                eps,
                stats_window,
                ..
            } => {
                let query = self.series_of(source);
                let (q_mean, q_std) = (mean(&query), std_dev(&query));
                let stats = self.statistics(transform);
                let mut want = Keyed::new();
                for ((key, d), (m, s)) in
                    by_row(self.distances(&query, transform, *on_both)).zip(stats)
                {
                    let mean_ok = stats_window
                        .mean
                        .map_or(Ok(true), |tol| inside((m - q_mean).abs(), tol))?;
                    let std_ok = stats_window
                        .std_dev
                        .map_or(Ok(true), |tol| inside((s - q_std).abs(), tol))?;
                    if inside(d, *eps)? && mean_ok && std_ok {
                        want.push((key, d));
                    }
                }
                Ok(want)
            }
            Query::Knn {
                k,
                source,
                transform,
                on_both,
                ..
            } => {
                let mut want: Keyed =
                    by_row(self.distances(&self.series_of(source), transform, *on_both)).collect();
                want.sort_by(|a, b| a.1.total_cmp(&b.1));
                if want.len() > *k {
                    inside(want[*k - 1].1, want[*k].1)?;
                    want.truncate(*k);
                }
                Ok(want)
            }
            Query::AllPairs {
                left,
                right,
                eps,
                method,
                ..
            } => {
                // METHOD c probes with the transformation ignored.
                let identity = SeriesTransform::Identity;
                let ignored = *method == JoinMethod::C;
                let (left, right) = if ignored {
                    (&identity, &identity)
                } else {
                    (left, right)
                };
                let mut want = Keyed::new();
                for (key, d) in self.pair_distances(left, right) {
                    if inside(d, *eps)? {
                        want.push((key, d));
                    }
                }
                Ok(want)
            }
            Query::Explain(inner) | Query::ExplainAnalyze(inner) => self.answer(inner),
        }
    }

    /// Judges the engine's `output` for `query` against the definition:
    /// the same rows or pairs, each at the definition's distance within
    /// [`MARGIN`], neighbours in ascending order.
    pub fn check(&self, query: &Query, output: &QueryOutput) -> Result<(), String> {
        let want: BTreeMap<(u64, u64), f64> = self.answer(query)?.into_iter().collect();
        let got: Keyed = match output {
            QueryOutput::Hits(hits) => hits.iter().map(|h| ((h.id, h.id), h.distance)).collect(),
            QueryOutput::Pairs(pairs) => pairs.iter().map(|p| ((p.a, p.b), p.distance)).collect(),
            other => return Err(format!("expected rows or pairs, got {other:?}")),
        };
        if got.len() != want.len() {
            return Err(format!(
                "{} answers, the definition gives {}",
                got.len(),
                want.len()
            ));
        }
        if matches!(query, Query::Knn { .. }) && !got.windows(2).all(|w| w[0].1 <= w[1].1) {
            return Err("neighbours are not in ascending order".into());
        }
        for (key, d) in got {
            match want.get(&key) {
                Some(&w) if close(w, d) => {}
                Some(w) => return Err(format!("{key:?} at {d}, the definition gives {w}")),
                None => return Err(format!("{key:?} is not in the definition's answer")),
            }
        }
        Ok(())
    }
}
