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
//! full distance). The engine's own range and kNN scans are not here: they
//! are `simq_index::Descent`s over a flat source of the stores' rows,
//! steered by the same stage as the index path. What stays is the pair
//! scan over a slice of stores (one per relation shard; an unsharded
//! relation is a slice of one), whose workers claim outer rows, and the
//! fan-out helpers the query layer splits its work with ([`chunk_bounds`],
//! [`fan`]).

use crate::relation::{SeriesRelation, SeriesRow};
use simq_dsp::complex::Complex;
use simq_index::knn::cmp_distance_id;
use simq_series::error::SeriesError;
use simq_series::kernel::transformed_distance_sq;
use simq_series::transform::SeriesTransform;
use std::sync::atomic::{AtomicUsize, Ordering};

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

impl ScanStats {
    /// Component-wise accumulation.
    pub fn add(&mut self, other: &ScanStats) {
        self.rows_scanned += other.rows_scanned;
        self.coefficients_compared += other.coefficients_compared;
        self.early_abandoned += other.early_abandoned;
    }
}

/// Pairs produced by all-pairs scans: `(id_a, id_b, distance)` with
/// `id_a < id_b`.
pub type PairList = Vec<(u64, u64, f64)>;

/// Pairs produced from one outer row, tagged with the row's position so
/// parallel workers' output can be reassembled in serial order.
type RowPairs = (usize, PairList);

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
/// `[lo, hi)` chunks (shared by the scans here and by the probe join and
/// batch slots in `simq-query`).
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
/// order (shared by the scans here and by the probe join and batch slots
/// in `simq-query`).
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

/// The rows of a relation's stores in the unsharded scan order: a single
/// store's insertion order, several stores' rows flattened in id order.
/// The two coincide for sequentially built relations; a relation
/// assembled with out-of-order explicit-id inserts loses its global
/// insertion order on sharding (rows keep only their per-shard relative
/// order), so for such relations the sharded↔unsharded equivalence holds
/// against the id-ordered scan.
pub fn rows_in_scan_order(stores: &[SeriesRelation]) -> Vec<&SeriesRow> {
    let mut rows: Vec<&SeriesRow> = stores.iter().flat_map(SeriesRelation::rows).collect();
    if stores.len() > 1 {
        rows.sort_by_key(|r| r.id);
    }
    rows
}

/// All-pairs scan between `L(r)` and `R(r)` with independent
/// transformations per side — the general join of the query language
/// (`MATCHING L AGAINST R`) — over a slice of stores on up to `threads`
/// threads. A pair `(i, j)`, `i < j`, qualifies when *either* orientation
/// `D(L(x̂_i), R(x̂_j))` or `D(L(x̂_j), R(x̂_i))` is within `eps`; the
/// smaller distance is reported. When `left == right` the orientations
/// coincide and only one is computed.
///
/// A single store scans in its insertion order; several stores scan with
/// their rows flattened in id order — the scan order of every
/// sequentially built relation, so sharded output is bitwise identical to
/// unsharded. Pair work crosses stores, so threads claim outer rows from
/// a shared cursor (the triangular inner loop makes static chunks
/// unbalanced) and the per-row pair lists are reassembled in row order,
/// reproducing the serial output exactly. Returns the pairs, the merged
/// counters (pair work has no per-store shares) and the threads that
/// carried the work.
///
/// # Errors
/// Transformation-domain errors.
pub fn scan_all_pairs_over(
    stores: &[SeriesRelation],
    left: &SeriesTransform,
    right: &SeriesTransform,
    eps: f64,
    early_abandon: bool,
    threads: usize,
) -> Result<(PairList, ScanStats, usize), SeriesError> {
    let rows = rows_in_scan_order(stores);
    let n = stores.first().map_or(0, SeriesRelation::series_len);
    let ctx = PairScan::prepare(&rows, n, left, right, eps, early_abandon)?;
    let cursor = AtomicUsize::new(0);
    let workers: Vec<usize> = (0..threads.max(1).min(rows.len().max(1))).collect();
    let claimed: Vec<(Vec<RowPairs>, ScanStats)> = fan(&workers, |_| {
        let mut stats = ScanStats::default();
        let mut produced: Vec<RowPairs> = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= rows.len() {
                break;
            }
            stats.rows_scanned += 1;
            let mut local = Vec::new();
            for j in (i + 1)..rows.len() {
                if let Some(d) = ctx.pair_distance(i, j, &mut stats) {
                    local.push((rows[i].id, rows[j].id, d));
                }
            }
            if !local.is_empty() {
                produced.push((i, local));
            }
        }
        (produced, stats)
    });

    let mut grouped: Vec<RowPairs> = Vec::new();
    let mut stats = ScanStats::default();
    for (produced, s) in claimed {
        grouped.extend(produced);
        stats.add(&s);
    }
    grouped.sort_by_key(|(i, _)| *i);
    let out: PairList = grouped.into_iter().flat_map(|(_, v)| v).collect();
    Ok((out, stats, workers.len()))
}

/// The per-side pre-transformed spectra and the per-pair predicate of the
/// all-pairs scan.
struct PairScan {
    lefts: Vec<Vec<Complex>>,
    /// Empty when the join is symmetric (`lefts` serves both sides).
    rights: Vec<Vec<Complex>>,
    symmetric: bool,
    identity: Vec<Complex>,
    limit: Option<f64>,
    eps: f64,
}

impl PairScan {
    /// Computes both transformation actions and pre-transforms every
    /// stored spectrum once per side (the scan reads each row many
    /// times).
    fn prepare(
        rows: &[&SeriesRow],
        series_len: usize,
        left: &SeriesTransform,
        right: &SeriesTransform,
        eps: f64,
        early_abandon: bool,
    ) -> Result<Self, SeriesError> {
        let n = series_len;
        let count = n.saturating_sub(1);
        let left_action = left.action(n, count)?;
        let right_action = right.action(n, count)?;
        let symmetric = left == right;
        let apply = |mults: &[Complex]| -> Vec<Vec<Complex>> {
            rows.iter()
                .map(|r| {
                    let mut s = Vec::with_capacity(r.features.spectrum.len());
                    s.push(r.features.spectrum[0]);
                    for (x, a) in r.features.spectrum[1..].iter().zip(mults) {
                        s.push(*x * *a);
                    }
                    s
                })
                .collect()
        };
        Ok(PairScan {
            lefts: apply(&left_action.multipliers),
            rights: if symmetric {
                Vec::new()
            } else {
                apply(&right_action.multipliers)
            },
            symmetric,
            identity: vec![Complex::ONE; count],
            limit: early_abandon.then_some(eps * eps),
            eps,
        })
    }

    fn rights(&self) -> &[Vec<Complex>] {
        if self.symmetric {
            &self.lefts
        } else {
            &self.rights
        }
    }

    /// The all-pairs predicate for rows `(i, j)`: the smaller qualifying
    /// orientation distance, or `None` when neither orientation is within
    /// `eps`.
    fn pair_distance(&self, i: usize, j: usize, stats: &mut ScanStats) -> Option<f64> {
        let mut best: Option<f64> = None;
        let mut check = |a: &[Complex], b: &[Complex], stats: &mut ScanStats| {
            let (d_sq, abandoned) = transformed_distance_sq(
                a,
                &self.identity,
                b,
                self.limit,
                &mut stats.coefficients_compared,
            );
            if abandoned {
                stats.early_abandoned += 1;
                return;
            }
            let d = d_sq.sqrt();
            if d <= self.eps && best.is_none_or(|cur| d < cur) {
                best = Some(d);
            }
        };
        check(&self.lefts[i], &self.rights()[j], stats);
        if !self.symmetric {
            check(&self.lefts[j], &self.rights()[i], stats);
        }
        best
    }
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
    fn all_pairs_is_symmetric_free_and_complete() {
        let rel = relation_with(25);
        let id = SeriesTransform::Identity;
        let (pairs, ..) =
            scan_all_pairs_over(std::slice::from_ref(&rel), &id, &id, 3.0, true, 1).unwrap();
        // Each unordered pair at most once, i < j.
        for (i, j, _) in &pairs {
            assert!(i < j);
        }
        // Cross-check against range queries.
        for (i, j, d) in &pairs {
            let q = rel.row(*i).unwrap().features.spectrum.clone();
            let (hits, _) = scan_range(&rel, &SeriesTransform::Identity, &q, 3.0, false).unwrap();
            let hit = hits.iter().find(|h| h.id == *j).expect("pair member found");
            assert!((hit.distance - d).abs() < 1e-9);
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

    #[test]
    fn parallel_all_pairs_equals_serial() {
        let rel = relation_with(40);
        let left = SeriesTransform::MovingAverage { window: 5 };
        let right = SeriesTransform::Identity;
        for (l, r) in [(&left, &left), (&left, &right)] {
            let (serial, ..) =
                scan_all_pairs_over(std::slice::from_ref(&rel), l, r, 6.0, true, 1).unwrap();
            for threads in [1, 2, 4, 9] {
                let stores = std::slice::from_ref(&rel);
                let (par, ..) = scan_all_pairs_over(stores, l, r, 6.0, true, threads).unwrap();
                assert_eq!(par.len(), serial.len(), "threads {threads}");
                for (a, b) in par.iter().zip(&serial) {
                    assert_eq!((a.0, a.1), (b.0, b.1));
                    assert_eq!(a.2.to_bits(), b.2.to_bits());
                }
            }
        }
    }
}
