//! Answer checks: exact equality between execution paths, and brute
//! force oracles that share nothing with the engine's execution code.

use simq_dsp::complex::Complex;
use simq_query::{Hit, QueryOutput};
use simq_series::transform::SeriesTransform;

use crate::gen::NamedSeries;

/// The hits of a range / kNN output (empty for any other output, which
/// then fails the comparison it was wanted for).
pub fn hits_of(output: &QueryOutput) -> &[Hit] {
    match output {
        QueryOutput::Hits(hits) => hits,
        _ => &[],
    }
}

/// Bitwise equality of two hit lists: ids, names and distance bits, in
/// order. Every execution path promises exactly this.
pub fn same_hits(a: &[Hit], b: &[Hit]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.id == y.id && x.name == y.name && x.distance.to_bits() == y.distance.to_bits()
        })
}

/// Relative slack between two routes to one distance (time domain vs
/// frequency domain): far above rounding, far below any real error.
const SLACK: f64 = 1e-7;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= SLACK * (1.0 + a.abs().max(b.abs()))
}

/// Time-domain oracle for one transformation: `T(normal form)` of every
/// row, so a distance is a plain Euclidean norm — no spectrum, no
/// kernel, no index.
pub struct TimeOracle {
    normal: Vec<Vec<f64>>,
    transformed: Vec<Vec<f64>>,
}

impl TimeOracle {
    /// Normalises and transforms every row in the time domain.
    pub fn new(rows: &[NamedSeries], transform: &SeriesTransform) -> Self {
        let normal: Vec<Vec<f64>> = rows
            .iter()
            .map(|(_, s)| simq_series::normal_form(s).expect("non-constant series"))
            .collect();
        let transformed = normal
            .iter()
            .map(|nf| transform.apply_time(nf).expect("valid transformation"))
            .collect();
        TimeOracle {
            normal,
            transformed,
        }
    }

    /// Distance from every transformed row to query row `q` (itself
    /// transformed under `ON BOTH`).
    pub fn distances(&self, q: usize, on_both: bool) -> Vec<f64> {
        let query = if on_both {
            &self.transformed[q]
        } else {
            &self.normal[q]
        };
        self.transformed
            .iter()
            .map(|row| simq_dsp::euclidean(row, query))
            .collect()
    }
}

/// Frequency-domain oracle distances for transformations that change
/// the series length in the time domain (warp): the transformation's
/// multipliers applied to each stored spectrum, plain complex norm.
pub fn spectral_distances(
    spectra: &[&[Complex]],
    transform: &SeriesTransform,
    series_len: usize,
    query: &[Complex],
) -> Vec<f64> {
    let action = transform
        .action(series_len, series_len.saturating_sub(1))
        .expect("valid transformation");
    spectra
        .iter()
        .map(|s| {
            let moved: Vec<Complex> = s
                .iter()
                .take(1)
                .copied()
                .chain(
                    s.iter()
                        .skip(1)
                        .zip(&action.multipliers)
                        .map(|(x, a)| *x * *a),
                )
                .collect();
            simq_dsp::euclidean_complex(&moved, query)
        })
        .collect()
}

/// Whether `hits` is the range answer the oracle distances imply: every
/// row clearly inside ε present, every row clearly outside absent
/// (rows within rounding of the boundary may fall either way), and
/// every reported distance the oracle's.
pub fn range_answer_matches(oracle: &[f64], eps: f64, hits: &[Hit]) -> bool {
    let reported: std::collections::BTreeMap<u64, f64> =
        hits.iter().map(|h| (h.id, h.distance)).collect();
    reported.len() == hits.len()
        && oracle.iter().enumerate().all(|(id, &d)| {
            let on_boundary = close(d, eps);
            match reported.get(&(id as u64)) {
                Some(&got) => close(got, d) && (d <= eps || on_boundary),
                None => d > eps || on_boundary,
            }
        })
}

/// Whether `hits` is the `k`-nearest answer the oracle distances imply:
/// ascending, the oracle's distances, and nothing unreported closer
/// than the last hit.
pub fn knn_answer_matches(oracle: &[f64], k: usize, hits: &[Hit]) -> bool {
    if hits.len() != k.min(oracle.len()) {
        return false;
    }
    let ascending = hits.windows(2).all(|w| w[0].distance <= w[1].distance);
    let exact = hits.iter().all(|h| {
        oracle
            .get(h.id as usize)
            .is_some_and(|&d| close(d, h.distance))
    });
    let Some(worst) = hits.last().map(|h| h.distance) else {
        return true;
    };
    let ids: std::collections::BTreeSet<u64> = hits.iter().map(|h| h.id).collect();
    let none_closer = oracle
        .iter()
        .enumerate()
        .all(|(id, &d)| ids.contains(&(id as u64)) || d >= worst || close(d, worst));
    ascending && exact && none_closer && ids.len() == hits.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hit(id: u64, distance: f64) -> Hit {
        Hit {
            id,
            name: format!("S{id}"),
            distance,
        }
    }

    #[test]
    fn same_hits_is_bitwise() {
        let a = vec![hit(1, 0.5), hit(2, 0.75)];
        assert!(same_hits(&a, &a.clone()));
        assert!(!same_hits(&a, &[hit(1, 0.5), hit(2, 0.75 + f64::EPSILON)]));
        assert!(!same_hits(&a, &a[..1]));
    }

    #[test]
    fn range_oracle_catches_missing_and_extra_rows() {
        let oracle = [0.0, 0.4, 1.0 + 1e-12, 2.0];
        let eps = 1.0;
        assert!(range_answer_matches(
            &oracle,
            eps,
            &[hit(0, 0.0), hit(1, 0.4)]
        ));
        // The boundary row may be reported or not.
        assert!(range_answer_matches(
            &oracle,
            eps,
            &[hit(0, 0.0), hit(1, 0.4), hit(2, 1.0)]
        ));
        assert!(!range_answer_matches(&oracle, eps, &[hit(0, 0.0)]));
        assert!(!range_answer_matches(
            &oracle,
            eps,
            &[hit(0, 0.0), hit(1, 0.4), hit(3, 2.0)]
        ));
        assert!(!range_answer_matches(
            &oracle,
            eps,
            &[hit(0, 0.0), hit(1, 0.41)]
        ));
    }

    #[test]
    fn knn_oracle_catches_a_skipped_neighbour() {
        let oracle = [0.0, 3.0, 1.0, 2.0];
        assert!(knn_answer_matches(&oracle, 2, &[hit(0, 0.0), hit(2, 1.0)]));
        assert!(!knn_answer_matches(&oracle, 2, &[hit(0, 0.0), hit(3, 2.0)]));
        assert!(!knn_answer_matches(&oracle, 2, &[hit(2, 1.0), hit(0, 0.0)]));
        assert!(!knn_answer_matches(&oracle, 3, &[hit(0, 0.0), hit(2, 1.0)]));
    }
}
