//! Sequential-scan baselines.
//!
//! Two scan strategies, matching methods *a* and *b* of the paper's join
//! experiment and the scan side of Figures 10–12:
//!
//! * **naive** — compute the full transformed distance for every row;
//! * **early-abandoning** — "we stop the distance computation process as
//!   soon as the distance exceeds ε. In addition, we do the sequential
//!   scanning on the relation that stores the series in the frequency
//!   domain, not the time domain. Because each series in the frequency
//!   domain has its larger coefficients at the beginning, the distance
//!   computation process can skip many sequences within the first few
//!   coefficients."
//!
//! Both operate on stored normal-form spectra; distances equal time-domain
//! normal-form distances by Parseval.
//!
//! [`scan_range`] and [`scan_knn`] are the single-store kernels and the
//! oracle every other path is tested against ([`scan_knn`] computes every
//! full distance). The engine's own scans are not here: a range or kNN
//! scan, and each outer row of a scan join, is a `simq_index::Descent`
//! over a flat source of the stores' rows, steered by the same stage as
//! the index path. What stays are the fan-out helpers the query layer
//! splits its work with ([`chunk_bounds`], [`fan`]) and the stores'
//! [`mirror_slack`].

use crate::relation::SeriesRelation;
use simq_dsp::complex::Complex;
use simq_index::knn::cmp_distance_id;
use simq_series::error::SeriesError;
use simq_series::kernel::transformed_distance_sq;
use simq_series::transform::SeriesTransform;

/// Work counters for scans, comparable with index search statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanStats {
    /// Rows examined.
    pub rows_scanned: u64,
    /// Complex coefficients compared.
    pub coefficients_compared: u64,
    /// Rows abandoned before the full distance was computed.
    pub early_abandoned: u64,
}

/// A scan hit: row id and exact distance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScanHit {
    /// Row id.
    pub id: u64,
    /// Euclidean distance between the (transformed) stored spectrum and
    /// the query spectrum.
    pub distance: f64,
}

/// The deterministic `(distance, id)` order of kNN scan results, first
/// `k` kept — also how per-store top-`k` lists merge into a relation's.
fn nearest_k(mut hits: Vec<ScanHit>, k: usize) -> Vec<ScanHit> {
    hits.sort_by(|a, b| cmp_distance_id((a.distance, a.id), (b.distance, b.id)));
    hits.truncate(k);
    hits
}

/// Splits `n` work items into at most `threads` contiguous, non-empty
/// `[lo, hi)` chunks (a range scan's row spans and a batch's slots in
/// `simq-query`).
pub fn chunk_bounds(n: usize, threads: usize) -> Vec<(usize, usize)> {
    let threads = threads.max(1).min(n.max(1));
    let chunk = n.div_ceil(threads);
    (0..threads)
        .map(|t| (t * chunk, ((t + 1) * chunk).min(n)))
        .filter(|(lo, hi)| lo < hi)
        .collect()
}

/// Runs `work` once per unit — on the calling thread when there is at most
/// one, on one scoped thread each otherwise — returning results in unit
/// order (a range scan's spans, a join's workers and a batch's slots in
/// `simq-query`).
pub fn fan<U: Sync, T: Send>(units: &[U], work: impl Fn(&U) -> T + Sync) -> Vec<T> {
    if units.len() <= 1 {
        return units.iter().map(work).collect();
    }
    std::thread::scope(|scope| {
        let handles: Vec<_> = units
            .iter()
            .map(|unit| {
                let work = &work;
                scope.spawn(move || work(unit))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    })
}

/// How far the stores' spectra are from conjugate symmetry: the largest
/// [`crate::SignatureArray::mirror_slack`] of any of them — what a probe
/// over all of them must allow before it mirrors a term.
pub fn mirror_slack(stores: &[SeriesRelation]) -> f64 {
    let slacks = stores.iter().map(|s| s.signatures().mirror_slack());
    slacks.fold(0.0, f64::max)
}

/// Range query by sequential scan over the frequency-domain relation.
///
/// Finds every row whose transformed normal-form spectrum lies within
/// `eps` of `query_spectrum`. With `early_abandon` the per-row computation
/// stops as soon as the partial sum exceeds `eps²` (method *b*); without
/// it the full distance is always computed (method *a*).
///
/// # Errors
/// Transformation-domain errors (invalid window for the relation's series
/// length, etc.).
pub fn scan_range(
    relation: &SeriesRelation,
    transform: &SeriesTransform,
    query_spectrum: &[Complex],
    eps: f64,
    early_abandon: bool,
) -> Result<(Vec<ScanHit>, ScanStats), SeriesError> {
    let n = relation.series_len();
    let action = transform.action(n, n.saturating_sub(1))?;
    let mut hits = Vec::new();
    let mut stats = ScanStats::default();
    for row in relation.rows() {
        stats.rows_scanned += 1;
        let (d_sq, abandoned) = transformed_distance_sq(
            &row.features.spectrum,
            &action.multipliers,
            query_spectrum,
            early_abandon.then_some(eps * eps),
            &mut stats.coefficients_compared,
        );
        if abandoned {
            stats.early_abandoned += 1;
            continue;
        }
        if d_sq.sqrt() <= eps {
            hits.push(ScanHit {
                id: row.id,
                distance: d_sq.sqrt(),
            });
        }
    }
    Ok((hits, stats))
}

/// k-nearest-neighbour query by full scan (the exact reference answer for
/// index-based kNN). Ties broken by id.
///
/// # Errors
/// Transformation-domain errors.
pub fn scan_knn(
    relation: &SeriesRelation,
    transform: &SeriesTransform,
    query_spectrum: &[Complex],
    k: usize,
) -> Result<(Vec<ScanHit>, ScanStats), SeriesError> {
    let n = relation.series_len();
    let action = transform.action(n, n.saturating_sub(1))?;
    let mut stats = ScanStats::default();
    let mut all: Vec<ScanHit> = Vec::with_capacity(relation.len());
    for row in relation.rows() {
        stats.rows_scanned += 1;
        let (d_sq, _) = transformed_distance_sq(
            &row.features.spectrum,
            &action.multipliers,
            query_spectrum,
            None,
            &mut stats.coefficients_compared,
        );
        all.push(ScanHit {
            id: row.id,
            distance: d_sq.sqrt(),
        });
    }
    Ok((nearest_k(all, k), stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::SeriesRelation;
    use simq_series::features::FeatureScheme;

    fn relation_with(seedlings: usize) -> SeriesRelation {
        let mut rel = SeriesRelation::new("r", 64, FeatureScheme::paper_default());
        for i in 0..seedlings {
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
    fn early_abandon_matches_naive() {
        let rel = relation_with(60);
        let q = rel.row(10).unwrap().features.spectrum.clone();
        let t = SeriesTransform::Identity;
        for eps in [0.1, 1.0, 5.0, 100.0] {
            let (mut naive, _) = scan_range(&rel, &t, &q, eps, false).unwrap();
            let (mut fast, fast_stats) = scan_range(&rel, &t, &q, eps, true).unwrap();
            naive.sort_by_key(|h| h.id);
            fast.sort_by_key(|h| h.id);
            assert_eq!(naive.len(), fast.len(), "eps {eps}");
            for (a, b) in naive.iter().zip(&fast) {
                assert_eq!(a.id, b.id);
                assert!((a.distance - b.distance).abs() < 1e-12);
            }
            if eps < 5.0 {
                assert!(fast_stats.early_abandoned > 0, "eps {eps} abandoned none");
            }
        }
    }

    #[test]
    fn early_abandon_compares_fewer_coefficients() {
        let rel = relation_with(100);
        let q = rel.row(0).unwrap().features.spectrum.clone();
        let t = SeriesTransform::Identity;
        let (_, naive) = scan_range(&rel, &t, &q, 0.5, false).unwrap();
        let (_, fast) = scan_range(&rel, &t, &q, 0.5, true).unwrap();
        assert!(fast.coefficients_compared < naive.coefficients_compared / 2);
    }

    #[test]
    fn query_finds_itself_at_distance_zero() {
        let rel = relation_with(20);
        let q = rel.row(7).unwrap().features.spectrum.clone();
        let (hits, _) = scan_range(&rel, &SeriesTransform::Identity, &q, 1e-9, true).unwrap();
        assert!(hits.iter().any(|h| h.id == 7 && h.distance < 1e-9));
    }

    #[test]
    fn transformed_scan_matches_time_domain_reference() {
        // Distance after mavg(5) on normal forms: frequency-domain scan
        // must equal the time-domain computation (Parseval + Equation 11).
        let rel = relation_with(15);
        let t = SeriesTransform::MovingAverage { window: 5 };
        let q_row = rel.row(3).unwrap();
        let q_spec = t.apply_spectrum(&q_row.features.spectrum, 64).unwrap();
        let (hits, _) = scan_range(&rel, &t, &q_spec, 100.0, false).unwrap();
        for h in &hits {
            let row = rel.row(h.id).unwrap();
            let nf_a = simq_series::normal_form(&row.raw).unwrap();
            let nf_q = simq_series::normal_form(&q_row.raw).unwrap();
            let ta = t.apply_time(&nf_a).unwrap();
            let tq = t.apply_time(&nf_q).unwrap();
            let expected = simq_dsp::euclidean(&ta, &tq);
            assert!(
                (h.distance - expected).abs() < 1e-8,
                "row {}: {} vs {expected}",
                h.id,
                h.distance
            );
        }
    }

    #[test]
    fn knn_scan_orders_by_distance() {
        let rel = relation_with(30);
        let q = rel.row(0).unwrap().features.spectrum.clone();
        let (hits, _) = scan_knn(&rel, &SeriesTransform::Identity, &q, 5).unwrap();
        assert_eq!(hits.len(), 5);
        assert_eq!(hits[0].id, 0);
        for w in hits.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }
}
