//! Estimators: nearest-rank percentiles, the per-op minimum over
//! identical passes, and the best / median / worst summary of a metric
//! over the passes of one run.
//!
//! On a shared host noise only ever adds time, and on this one a
//! millisecond of pure computation takes anything from 1.0 to 2.0 times
//! its best, the median 1.5 (NOISE.md). A pass of a tenth of a second
//! is therefore never wholly undisturbed, but each *op* — microseconds
//! to a few milliseconds — is in a few of a hundred identical passes.
//! So every reported latency is built from each op's least-disturbed
//! execution: the elementwise minimum over the passes of the fixed op
//! list. Measured on the same runs, the best whole pass repeats 1.5 to
//! 2 times worse and any per-op quantile above the minimum worse still.

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Rates: the best pass is the maximum.
    Higher,
    /// Times and sizes: the best pass is the minimum.
    Lower,
}

/// Ascending copy of `values`.
///
/// # Panics
/// Panics on NaN — a NaN time is a harness bug, not a measurement.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Nearest-rank percentile (`p` in `0..=1`) of an ascending sample: the
/// smallest element with at least `p` of the sample at or below it.
///
/// # Panics
/// Panics on an empty sample.
pub fn percentile(ascending: &[f64], p: f64) -> f64 {
    assert!(!ascending.is_empty(), "percentile of an empty sample");
    let rank = (p * ascending.len() as f64).ceil() as usize;
    ascending[rank.clamp(1, ascending.len()) - 1]
}

/// Nearest-rank median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Folds one pass's per-op latencies into the running per-op minimum.
/// Every pass runs the same op list, so position `i` is the same op.
///
/// # Panics
/// Panics when the passes disagree on the number of ops.
pub fn fold_min(calmest: &mut Vec<f64>, pass: &[f64]) {
    if calmest.is_empty() {
        calmest.extend_from_slice(pass);
        return;
    }
    assert_eq!(calmest.len(), pass.len(), "passes run the same op list");
    for (best, &now) in calmest.iter_mut().zip(pass) {
        *best = best.min(now);
    }
}

/// One metric over the passes of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The least-disturbed whole pass (or sample).
    pub best: f64,
    /// The median pass.
    pub median: f64,
    /// The most-disturbed pass.
    pub worst: f64,
}

/// Summarizes one metric's per-pass values.
pub fn spread(per_pass: &[f64], better: Better) -> Spread {
    let asc = sorted(per_pass);
    let (lo, hi) = (asc[0], asc[asc.len() - 1]);
    let (best, worst) = match better {
        Better::Lower => (lo, hi),
        Better::Higher => (hi, lo),
    };
    Spread {
        best,
        median: percentile(&asc, 0.5),
        worst,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 5.0);
        assert_eq!(percentile(&s, 0.95), 10.0);
        assert_eq!(percentile(&s, 0.90), 9.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        // 200 samples: p95 leaves exactly ten beyond it.
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.95), 190.0);
    }

    #[test]
    fn median_sorts_first() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn best_pass_follows_direction() {
        let passes = [12.0, 10.0, 30.0, 11.0, 10.5];
        let t = spread(&passes, Better::Lower);
        assert_eq!((t.best, t.median, t.worst), (10.0, 11.0, 30.0));
        let r = spread(&passes, Better::Higher);
        assert_eq!((r.best, r.median, r.worst), (30.0, 11.0, 10.0));
    }

    #[test]
    fn per_op_minimum_survives_a_disturbance_in_every_pass() {
        // Each pass is disturbed somewhere, so no whole pass is calm —
        // but every op is calm in at least one of them.
        let calm = [10.0, 20.0, 30.0, 40.0];
        let passes = [
            [55.0, 20.0, 30.0, 40.5],
            [10.0, 91.0, 30.2, 40.0],
            [10.4, 20.0, 30.0, 77.0],
            [10.0, 20.3, 64.0, 40.0],
        ];
        let mut calmest = Vec::new();
        for p in &passes {
            fold_min(&mut calmest, p);
        }
        assert_eq!(calmest, calm);
        let best_whole_pass = passes
            .iter()
            .map(|p| p.iter().sum::<f64>())
            .fold(f64::INFINITY, f64::min);
        assert!(best_whole_pass > calm.iter().sum::<f64>() + 30.0);
    }

    #[test]
    #[should_panic(expected = "same op list")]
    fn per_op_minimum_rejects_passes_of_different_length() {
        let mut calmest = vec![1.0, 2.0];
        fold_min(&mut calmest, &[1.0]);
    }

    #[test]
    fn one_disturbed_pass_does_not_move_the_best() {
        let calm = [10.0, 10.1, 10.2, 10.05];
        let mut noisy = calm.to_vec();
        noisy.push(55.0);
        assert_eq!(
            spread(&calm, Better::Lower).best,
            spread(&noisy, Better::Lower).best
        );
    }
}
