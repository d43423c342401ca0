//! Batched sequential scans: one pass over the relation serving a whole
//! batch of queries.
//!
//! The scan fallbacks of [`crate::scan`] read every stored spectrum once
//! *per query*; a batch of queries against the same relation can share
//! that pass — each row is brought in once and every query's distance is
//! computed against it before moving on (better locality, one iteration's
//! worth of bookkeeping). Every per-row computation is the exact serial
//! code on the same operands, so each query's hits and distances are
//! bitwise identical to its individual [`crate::scan::scan_range`] /
//! [`crate::scan::scan_knn`] run.
//!
//! Work accounting mirrors the batched index traversals:
//! [`MultiScanStats::merged`] counts each row once per shared pass;
//! `per_query[i]` counts what query `i`'s individual scan would have
//! counted.

use crate::relation::SeriesRelation;
use crate::scan::{chunk_bounds, nearest_k, transformed_distance_sq, ScanHit, ScanStats};
use simq_dsp::complex::Complex;
use simq_series::error::SeriesError;
use simq_series::transform::SeriesTransform;

/// One range query of a scan batch.
pub struct MultiScanRangeQuery<'a> {
    /// Transformation applied to the stored spectra.
    pub transform: &'a SeriesTransform,
    /// The comparison spectrum (already transformed when `ON BOTH`).
    pub query_spectrum: &'a [Complex],
    /// Distance threshold.
    pub eps: f64,
}

/// One kNN query of a scan batch.
pub struct MultiScanKnnQuery<'a> {
    /// Transformation applied to the stored spectra.
    pub transform: &'a SeriesTransform,
    /// The comparison spectrum.
    pub query_spectrum: &'a [Complex],
    /// Number of neighbours requested.
    pub k: usize,
}

/// Work counters of one batched scan.
#[derive(Debug, Clone, Default)]
pub struct MultiScanStats {
    /// Rows counted once per shared pass; coefficient comparisons summed
    /// over all queries (each is real work).
    pub merged: ScanStats,
    /// What each query's individual scan would have counted.
    pub per_query: Vec<ScanStats>,
}

impl MultiScanStats {
    fn with_queries(n: usize) -> Self {
        MultiScanStats {
            merged: ScanStats::default(),
            per_query: vec![ScanStats::default(); n],
        }
    }
}

/// Range queries by one shared pass over the frequency-domain relation
/// (the batched sibling of [`crate::scan::scan_range`], early-abandoning
/// at each query's own `eps²`). With `threads > 1` the row range is split
/// into contiguous chunks exactly like
/// [`crate::scan::scan_range_over`], so hit order per query is the
/// serial row order either way.
///
/// # Errors
/// Transformation-domain errors from any query in the batch.
pub fn scan_range_multi(
    relation: &SeriesRelation,
    queries: &[MultiScanRangeQuery],
    early_abandon: bool,
    threads: usize,
) -> Result<(Vec<Vec<ScanHit>>, MultiScanStats), SeriesError> {
    let n = relation.series_len();
    let count = n.saturating_sub(1);
    let mut actions = Vec::with_capacity(queries.len());
    for q in queries {
        actions.push(q.transform.action(n, count)?);
    }
    let mut out: Vec<Vec<ScanHit>> = vec![Vec::new(); queries.len()];
    let mut stats = MultiScanStats::with_queries(queries.len());
    if queries.is_empty() {
        return Ok((out, stats));
    }

    let rows: Vec<&crate::relation::SeriesRow> = relation.rows().collect();
    let scan_chunk = |rows: &[&crate::relation::SeriesRow],
                      out: &mut [Vec<ScanHit>],
                      stats: &mut MultiScanStats| {
        for row in rows {
            stats.merged.rows_scanned += 1;
            for (qi, q) in queries.iter().enumerate() {
                let s = &mut stats.per_query[qi];
                s.rows_scanned += 1;
                let limit = early_abandon.then_some(q.eps * q.eps);
                let before = s.coefficients_compared;
                let (d_sq, abandoned) = transformed_distance_sq(
                    &row.features.spectrum,
                    &actions[qi].multipliers,
                    q.query_spectrum,
                    limit,
                    &mut s.coefficients_compared,
                );
                stats.merged.coefficients_compared += s.coefficients_compared - before;
                if abandoned {
                    s.early_abandoned += 1;
                    stats.merged.early_abandoned += 1;
                    continue;
                }
                if d_sq.sqrt() <= q.eps {
                    out[qi].push(ScanHit {
                        id: row.id,
                        distance: d_sq.sqrt(),
                    });
                }
            }
        }
    };

    let bounds = chunk_bounds(rows.len(), threads.max(1));
    if bounds.len() <= 1 {
        scan_chunk(&rows, &mut out, &mut stats);
        return Ok((out, stats));
    }
    type Worker = (Vec<Vec<ScanHit>>, MultiScanStats);
    let workers: Vec<Worker> = std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(lo, hi)| {
                let rows = &rows[lo..hi];
                let scan_chunk = &scan_chunk;
                scope.spawn(move || {
                    let mut out: Vec<Vec<ScanHit>> = vec![Vec::new(); queries.len()];
                    let mut stats = MultiScanStats::with_queries(queries.len());
                    scan_chunk(rows, &mut out, &mut stats);
                    (out, stats)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("batched scan worker panicked"))
            .collect()
    });
    for (local_out, local) in workers {
        for (acc, hits) in out.iter_mut().zip(local_out) {
            acc.extend(hits);
        }
        stats.add(&local);
    }
    Ok((out, stats))
}

/// kNN queries by one shared pass (the batched sibling of
/// [`crate::scan::scan_knn`]): full distances for every row against every
/// query, then per-query `(distance, id)` sort and truncation — exactly
/// the serial reference semantics, so results are bitwise identical to
/// individual scans at any thread count.
///
/// # Errors
/// Transformation-domain errors from any query in the batch.
pub fn scan_knn_multi(
    relation: &SeriesRelation,
    queries: &[MultiScanKnnQuery],
    threads: usize,
) -> Result<(Vec<Vec<ScanHit>>, MultiScanStats), SeriesError> {
    let n = relation.series_len();
    let count = n.saturating_sub(1);
    let mut actions = Vec::with_capacity(queries.len());
    for q in queries {
        actions.push(q.transform.action(n, count)?);
    }
    let mut out: Vec<Vec<ScanHit>> = vec![Vec::new(); queries.len()];
    let mut stats = MultiScanStats::with_queries(queries.len());
    if queries.is_empty() {
        return Ok((out, stats));
    }

    let rows: Vec<&crate::relation::SeriesRow> = relation.rows().collect();
    let scan_chunk = |rows: &[&crate::relation::SeriesRow],
                      out: &mut [Vec<ScanHit>],
                      stats: &mut MultiScanStats| {
        for row in rows {
            stats.merged.rows_scanned += 1;
            for (qi, q) in queries.iter().enumerate() {
                let s = &mut stats.per_query[qi];
                s.rows_scanned += 1;
                let before = s.coefficients_compared;
                let (d_sq, _) = transformed_distance_sq(
                    &row.features.spectrum,
                    &actions[qi].multipliers,
                    q.query_spectrum,
                    None,
                    &mut s.coefficients_compared,
                );
                stats.merged.coefficients_compared += s.coefficients_compared - before;
                out[qi].push(ScanHit {
                    id: row.id,
                    distance: d_sq.sqrt(),
                });
            }
        }
    };

    let bounds = chunk_bounds(rows.len(), threads.max(1));
    if bounds.len() <= 1 {
        scan_chunk(&rows, &mut out, &mut stats);
    } else {
        type Worker = (Vec<Vec<ScanHit>>, MultiScanStats);
        let workers: Vec<Worker> = std::thread::scope(|scope| {
            let handles: Vec<_> = bounds
                .iter()
                .map(|&(lo, hi)| {
                    let rows = &rows[lo..hi];
                    let scan_chunk = &scan_chunk;
                    scope.spawn(move || {
                        let mut out: Vec<Vec<ScanHit>> = vec![Vec::new(); queries.len()];
                        let mut stats = MultiScanStats::with_queries(queries.len());
                        scan_chunk(rows, &mut out, &mut stats);
                        (out, stats)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batched kNN scan worker panicked"))
                .collect()
        });
        for (local_out, local) in workers {
            for (acc, hits) in out.iter_mut().zip(local_out) {
                acc.extend(hits);
            }
            stats.add(&local);
        }
    }
    let out = out
        .into_iter()
        .zip(queries)
        .map(|(hits, q)| nearest_k(hits, q.k))
        .collect();
    Ok((out, stats))
}

impl MultiScanStats {
    /// Accumulates another pass (component-wise; `per_query` is matched
    /// by index).
    pub fn add(&mut self, other: &MultiScanStats) {
        self.merged.add(&other.merged);
        if self.per_query.len() < other.per_query.len() {
            self.per_query
                .resize(other.per_query.len(), ScanStats::default());
        }
        for (a, b) in self.per_query.iter_mut().zip(&other.per_query) {
            a.add(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::{scan_knn, scan_range};
    use simq_series::features::FeatureScheme;

    fn relation_with(rows: usize) -> SeriesRelation {
        let mut rel = SeriesRelation::new("r", 64, FeatureScheme::paper_default());
        for i in 0..rows {
            let series: Vec<f64> = (0..64)
                .map(|t| {
                    20.0 + (t as f64 * (0.1 + i as f64 * 0.013)).sin() * 4.0
                        + (t as f64 * 0.31).cos() * (i % 5) as f64
                })
                .collect();
            rel.insert(format!("S{i}"), series).unwrap();
        }
        rel
    }

    #[test]
    fn batched_range_scan_matches_individual() {
        let rel = relation_with(80);
        let t_id = SeriesTransform::Identity;
        let t_ma = SeriesTransform::MovingAverage { window: 5 };
        let specs: Vec<(SeriesTransform, Vec<Complex>, f64)> = vec![
            (
                t_id.clone(),
                rel.row(3).unwrap().features.spectrum.clone(),
                2.0,
            ),
            (
                t_ma.clone(),
                rel.row(10).unwrap().features.spectrum.clone(),
                0.7,
            ),
            (
                t_id.clone(),
                rel.row(40).unwrap().features.spectrum.clone(),
                15.0,
            ),
        ];
        let queries: Vec<MultiScanRangeQuery> = specs
            .iter()
            .map(|(t, q, eps)| MultiScanRangeQuery {
                transform: t,
                query_spectrum: q,
                eps: *eps,
            })
            .collect();
        for abandon in [false, true] {
            for threads in [1, 4] {
                let (batch, stats) = scan_range_multi(&rel, &queries, abandon, threads).unwrap();
                for (qi, (t, q, eps)) in specs.iter().enumerate() {
                    let (individual, s) = scan_range(&rel, t, q, *eps, abandon).unwrap();
                    assert_eq!(batch[qi].len(), individual.len(), "q {qi}");
                    for (a, b) in batch[qi].iter().zip(&individual) {
                        assert_eq!(a.id, b.id);
                        assert_eq!(a.distance.to_bits(), b.distance.to_bits());
                    }
                    assert_eq!(stats.per_query[qi], s, "q {qi} threads {threads}");
                }
                // One shared pass: rows counted once, not once per query.
                assert_eq!(stats.merged.rows_scanned, 80);
            }
        }
    }

    #[test]
    fn batched_knn_scan_matches_individual() {
        let rel = relation_with(60);
        let t = SeriesTransform::Identity;
        let specs: Vec<(Vec<Complex>, usize)> = vec![
            (rel.row(0).unwrap().features.spectrum.clone(), 5),
            (rel.row(30).unwrap().features.spectrum.clone(), 1),
            (rel.row(59).unwrap().features.spectrum.clone(), 200),
        ];
        let queries: Vec<MultiScanKnnQuery> = specs
            .iter()
            .map(|(q, k)| MultiScanKnnQuery {
                transform: &t,
                query_spectrum: q,
                k: *k,
            })
            .collect();
        for threads in [1, 3] {
            let (batch, stats) = scan_knn_multi(&rel, &queries, threads).unwrap();
            for (qi, (q, k)) in specs.iter().enumerate() {
                let (individual, _) = scan_knn(&rel, &t, q, *k).unwrap();
                assert_eq!(batch[qi].len(), individual.len(), "q {qi}");
                for (a, b) in batch[qi].iter().zip(&individual) {
                    assert_eq!(a.id, b.id, "q {qi} threads {threads}");
                    assert_eq!(a.distance.to_bits(), b.distance.to_bits());
                }
            }
            assert_eq!(stats.merged.rows_scanned, 60);
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let rel = relation_with(5);
        let (out, stats) = scan_range_multi(&rel, &[], true, 4).unwrap();
        assert!(out.is_empty());
        assert_eq!(stats.merged.rows_scanned, 0);
    }
}
