//! Verification — step 3 of Algorithm 2 — and the work ledger, shared by
//! every execution surface.
//!
//! Materialized execution ([`crate::exec`] — batches run it per slot) and
//! streaming cursors ([`crate::session`]) both verify candidates through
//! the stages here, one candidate after another on the calling thread:
//! window test → signature probe → exact distance. This module also owns
//! the one rule deciding which counter breakdown a phase is charged to
//! ([`Ledger`]).

use crate::ast::StatsWindow;
use crate::catalog::StoredRelation;
use crate::error::QueryError;
use crate::exec::{ExecStats, Hit, QueryContext, QueryOutput, QueryResult};
use crate::plan::Plan;
use simq_dsp::complex::Complex;
use simq_index::{
    cmp_distance_id, forest_nearest, DiagonalAffine, ForestStats, ItemStage, KnnQuery, Rect,
    SearchStats,
};
use simq_series::kernel::transformed_distance_sq;
use simq_series::transform::{NormalFormAction, SeriesTransform};
use simq_series::SpectralMindist;
use simq_storage::{deflate_sq, scan, FilterProbe, ScanFanStats, SeriesRow};

/// Pads a search radius by one part in 10⁹ plus one absolute ulp-scale
/// nudge. Transformed index coordinates are computed by different
/// floating-point routes than query coordinates (e.g. `angle + π` vs
/// `atan2` of the negated coefficient), so an exact-boundary match can
/// round to either side; the pad keeps such items in the candidate set,
/// where exact verification decides. Padding never adds false dismissals —
/// it can only widen the candidate superset of Lemma 1.
pub(crate) fn pad(radius: f64) -> f64 {
    radius * (1.0 + 1e-9) + 1e-9
}

/// The deterministic `(distance, id)` hit order of every query form.
pub(crate) fn sort_hits(hits: &mut [Hit]) {
    hits.sort_by(|a, b| cmp_distance_id((a.distance, a.id), (b.distance, b.id)));
}

/// What `ExecStats::shards_touched` reports for a query over `stored`:
/// the store count when the relation has more than one store, 0 otherwise.
pub(crate) fn shards_touched(stored: &StoredRelation) -> u64 {
    match stored.stores().len() {
        0 | 1 => 0,
        n => n as u64,
    }
}

/// The quantized-tier probe of one verification stage: the signature
/// bound mirrored as far as the relation's measured symmetry allows.
pub(crate) fn compile_probe(
    stored: &StoredRelation,
    q_spec: &[Complex],
    multipliers: &[Complex],
) -> FilterProbe {
    let (coeffs, slack) = (stored.sig_coeffs(), scan::mirror_slack(stored.stores()));
    FilterProbe::mirrored(q_spec, multipliers, coeffs, slack)
}

/// The range verifier: everything one range query needs to decide a
/// candidate row, resolved once.
pub(crate) struct RangeVerifier<'db> {
    stored: &'db StoredRelation,
    /// The transformation's action on normal-form spectra and statistics.
    action: NormalFormAction,
    /// The GK95 MEAN/STD window.
    window: StatsWindow,
    /// The comparison spectrum and the query series' statistics.
    pub(crate) ctx: QueryContext,
    /// The distance threshold.
    eps: f64,
    probe: Option<FilterProbe>,
}

impl<'db> RangeVerifier<'db> {
    /// Resolves the transformation's action for `stored`'s series length.
    pub(crate) fn new(
        stored: &'db StoredRelation,
        transform: &SeriesTransform,
        ctx: QueryContext,
        eps: f64,
        window: StatsWindow,
    ) -> Result<Self, QueryError> {
        let n = stored.series_len();
        Ok(RangeVerifier {
            stored,
            action: transform.action(n, n.saturating_sub(1))?,
            window,
            ctx,
            eps,
            probe: None,
        })
    }

    /// Puts the quantized signature tier ahead of the exact distance (the
    /// index paths; the scan paths read every row anyway and stay
    /// tier-free): one probe per query, one flat-array lookup per
    /// candidate. Dismissal needs `lb² > ε²`, which (the bound being a
    /// true lower bound) implies the exact distance also exceeds ε — the
    /// candidate could never have become a hit.
    pub(crate) fn with_probe(mut self) -> Self {
        self.probe = Some(compile_probe(
            self.stored,
            &self.ctx.spectrum,
            &self.action.multipliers,
        ));
        self
    }

    /// The search rectangle around the features of the comparison
    /// spectrum; statistics dimensions are unbounded unless a MEAN/STD
    /// window constrains them.
    pub(crate) fn search_rect(&self) -> Result<Rect, QueryError> {
        let scheme = self.stored.scheme();
        let q_point =
            scheme.point_from_spectrum(self.ctx.mean, self.ctx.std_dev, &self.ctx.spectrum)?;
        Ok(if self.window.is_empty() {
            scheme.search_rect(&q_point, pad(self.eps))
        } else {
            scheme.search_rect_with_stats(
                &q_point,
                pad(self.eps),
                Some((
                    pad(self.window.mean.unwrap_or(f64::INFINITY)),
                    pad(self.window.std_dev.unwrap_or(f64::INFINITY)),
                )),
            )
        })
    }

    /// The GK95 window test on the *transformed* row statistics —
    /// consistent with the index traversal, which applies the lowered
    /// affine to the statistics dimensions too.
    pub(crate) fn window_ok(&self, row: &SeriesRow) -> bool {
        let t_mean = self.action.mean_scale * row.features.mean + self.action.mean_shift;
        let t_std = self.action.std_scale * row.features.std_dev;
        self.window
            .mean
            .is_none_or(|tol| (t_mean - self.ctx.mean).abs() <= tol)
            && self
                .window
                .std_dev
                .is_none_or(|tol| (t_std - self.ctx.std_dev).abs() <= tol)
    }

    /// Verifies one candidate: window test → signature probe → exact
    /// distance. `None` when the row is not a hit.
    pub(crate) fn verify(&self, id: u64, stats: &mut ExecStats) -> Option<Hit> {
        let row = self.stored.row(id).expect("candidate ids are valid");
        if !self.window_ok(row) {
            return None;
        }
        let eps_sq = self.eps * self.eps;
        if let (Some(p), Some(sig)) = (&self.probe, self.stored.signature(id)) {
            if p.dismisses(sig, eps_sq) {
                stats.filtered_out += 1;
                return None;
            }
        }
        // Squared distances until the last step: early abandoning (the
        // paper's sequential-scan idea, applied per candidate) compares
        // partial sums with ε² and avoids a `sqrt` roundtrip on the bound.
        let (d_sq, abandoned) = transformed_distance_sq(
            &row.features.spectrum,
            &self.action.multipliers,
            &self.ctx.spectrum,
            Some(eps_sq),
            &mut stats.coefficients_compared,
        );
        let d = d_sq.sqrt();
        (!abandoned && d <= self.eps).then(|| Hit {
            id,
            name: row.name.clone(),
            distance: d,
        })
    }
}

/// One indexed kNN query resolved for the optimal multi-step search
/// (Seidl & Kriegel): the bounds that rank subtrees and rows, and the
/// refine step that decides a ranked row against the shrinking exact
/// `k`-th best. Everything is in squared distances.
pub(crate) struct KnnRank<'a> {
    stored: &'a StoredRelation,
    q_spec: Vec<Complex>,
    k: usize,
    lowered: DiagonalAffine,
    multipliers: Vec<Complex>,
    mindist: SpectralMindist,
    /// What the mirrored index frequencies add to a subtree's MINDIST:
    /// the [`FilterProbe::mirror_floor`] of the signature bound cut to the
    /// index's own frequencies `0..=k`.
    floor: Option<(f64, f64)>,
    /// The row-level twin of `mindist`: the whole signature bound, read
    /// from the flat signature array — no trigonometry, no rectangle.
    signature: FilterProbe,
}

impl<'a> KnnRank<'a> {
    /// Resolves the transformation and the query's comparison spectrum
    /// for `stored`.
    pub(crate) fn new(
        stored: &'a StoredRelation,
        transform: &SeriesTransform,
        q_spec: Vec<Complex>,
        k: usize,
    ) -> Result<Self, QueryError> {
        let scheme = stored.scheme();
        let n = stored.series_len();
        let mindist = SpectralMindist::new(scheme, &q_spec[1..]);
        let multipliers = transform.action(n, n.saturating_sub(1))?.multipliers;
        let slack = scan::mirror_slack(stored.stores());
        let over = |coeffs| FilterProbe::mirrored(&q_spec, &multipliers, coeffs, slack);
        Ok(KnnRank {
            stored,
            k,
            lowered: transform.lower(scheme, n)?,
            mindist,
            floor: (scheme.k < stored.sig_coeffs())
                .then(|| over(scheme.k + 1).mirror_floor())
                .flatten(),
            signature: over(stored.sig_coeffs()),
            multipliers,
            q_spec,
        })
    }

    /// The ranking key of a subtree: the squared spectral MINDIST `D` of
    /// its transformed rectangle over the index frequencies plus, when
    /// every one of them mirrors, the `ρ²·(√D − a)₊²` their mirrors are
    /// then at least away — deflated like the signature bound (and the
    /// way [`pad`] widens a radius): it reaches the coefficients by
    /// another floating-point route than the exact distance.
    fn subtree_bound(&self, rect: &Rect) -> f64 {
        let d = self.mindist.dist_sq(rect);
        let mirrored = self.floor.map_or(0.0, |(rho_sq, a)| {
            let rest = (d.sqrt() - a).max(0.0);
            rho_sq * rest * rest
        });
        deflate_sq(d + mirrored)
    }
}

impl ItemStage for KnnRank<'_> {
    /// The ranking key of a row: its whole (deflated) signature bound, so
    /// a row that surfaces has nothing left to be dismissed by.
    fn bound(&self, id: u64) -> f64 {
        self.stored
            .signature(id)
            .map_or(0.0, |sig| self.signature.lower_bound_sq(sig))
    }

    /// Decides one ranked row against the current exact `k`-th best
    /// squared distance: its exact squared distance, or `None` when the
    /// abandoned accumulation proves it farther.
    fn refine(&self, id: u64, kth_now: f64, stats: &mut SearchStats) -> Option<f64> {
        let row = self.stored.row(id).expect("index ids are valid");
        let (d_sq, abandoned) = transformed_distance_sq(
            &row.features.spectrum,
            &self.multipliers,
            &self.q_spec,
            kth_now.is_finite().then_some(kth_now),
            &mut stats.refine_work,
        );
        (!abandoned).then_some(d_sq)
    }
}

/// Runs `rank` as one ranked descent over the relation's forest: the `k`
/// nearest rows in `(distance, id)` order and the work the search did —
/// index reads and, per shard, the refine work done inside it.
pub(crate) fn knn_rank(stored: &StoredRelation, rank: &KnnRank) -> (Vec<Hit>, ForestStats) {
    let query = KnnQuery {
        bound: &|rect: &Rect| rank.subtree_bound(rect),
        transform: Some(&rank.lowered),
        k: rank.k,
        items: Some(rank),
    };
    let (found, stats) = forest_nearest(stored.trees(), &query);
    let mut hits: Vec<Hit> = found
        .into_iter()
        .map(|nb| Hit {
            id: nb.id,
            name: stored.row(nb.id).expect("index ids are valid").name.clone(),
            distance: nb.dist_sq.sqrt(),
        })
        .collect();
    sort_hits(&mut hits);
    (hits, stats)
}

/// The counters of one execution — merged totals, the per-shard breakdown
/// and the widest fan-out — and the one rule for what the breakdown holds:
/// a phase over the relation's forest of stores / trees (index reads, the
/// refine work a kNN descent does inside them, scanned rows) is charged
/// **per shard** when the relation has more than one store. Work with no
/// shard affinity (verifying a merged candidate list, pair work that
/// crosses shards) is in the totals only. Single-store relations keep
/// `shards_touched = 0` and an empty `per_shard`.
pub(crate) struct Ledger {
    /// The merged totals.
    pub(crate) stats: ExecStats,
    per_shard: Vec<ExecStats>,
    sharded: bool,
    /// The widest fan-out any phase reached (1 = the calling thread).
    widest: usize,
}

impl Ledger {
    /// An empty ledger for a query over `stored`.
    pub(crate) fn new(stored: &StoredRelation) -> Self {
        let shards_touched = shards_touched(stored);
        Ledger {
            stats: ExecStats {
                shards_touched,
                ..ExecStats::default()
            },
            per_shard: Vec::new(),
            sharded: shards_touched > 0,
            widest: 1,
        }
    }

    /// Charges a phase's per-store counters to the breakdown.
    fn forest<T>(&mut self, per_shard: &[T], add: impl Fn(&mut ExecStats, &T)) {
        if !self.sharded {
            return;
        }
        if self.per_shard.len() < per_shard.len() {
            self.per_shard.resize(per_shard.len(), ExecStats::default());
        }
        for (acc, s) in self.per_shard.iter_mut().zip(per_shard) {
            add(acc, s);
        }
    }

    /// Charges an index traversal.
    pub(crate) fn search(&mut self, s: &ForestStats) {
        self.stats.add_search(&s.merged);
        self.forest(&s.per_shard, ExecStats::add_search);
    }

    /// Charges a sequential scan.
    pub(crate) fn scan(&mut self, s: &ScanFanStats) {
        self.stats.add_scan(&s.merged);
        self.widest = self.widest.max(s.threads);
        self.forest(&s.per_shard, ExecStats::add_scan);
    }

    /// Charges work without shard affinity, one entry per worker that
    /// carried it.
    pub(crate) fn workers(&mut self, per_worker: &[ExecStats]) {
        self.widest = self.widest.max(per_worker.len());
        per_worker.iter().for_each(|w| self.stats.add_work(w));
    }

    /// Closes the ledger into a result.
    pub(crate) fn finish(mut self, output: QueryOutput, plan: &Plan) -> QueryResult {
        self.stats.verified = match &output {
            QueryOutput::Hits(hits) => hits.len() as u64,
            QueryOutput::Pairs(pairs) => pairs.len() as u64,
            _ => 0,
        };
        self.stats.threads_used = self.widest as u64;
        QueryResult {
            output,
            plan: plan.clone(),
            stats: self.stats,
            per_thread: Vec::new(),
            per_shard: self.per_shard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simq_index::SpatialTransform;

    /// A subtree's ranking key never exceeds the exact distance of a row
    /// under it: for `cases` groups of rows per transformation, the key of
    /// the group's bounding rectangle (moved by the lowered transformation,
    /// as the descent moves a node's) is at most every member's
    /// full-spectrum distance — with the mirrored half claimed.
    fn subtree_keys_bound_their_rows(cases: u64) {
        let (n, rows) = (64, 150u64);
        let db = crate::exec::tests::make_db(rows as usize, true);
        let stored = db.relation("stocks").unwrap();
        let spectrum = |id: u64| &stored.row(id).unwrap().features.spectrum;
        let mavg = SeriesTransform::MovingAverage { window: 5 };
        let transforms = [
            SeriesTransform::Identity,
            mavg.clone(),
            SeriesTransform::Reverse,
            SeriesTransform::Chain(vec![SeriesTransform::Reverse, mavg]),
        ];
        for (t, transform) in transforms.iter().enumerate() {
            for case in 0..cases {
                let mut q_spec = spectrum(case * 7 % rows).clone();
                if case % 2 == 1 {
                    q_spec = transform.apply_spectrum(&q_spec, n).unwrap();
                }
                let rank = KnnRank::new(stored, transform, q_spec, 5).unwrap();
                assert!(rank.floor.is_some(), "transformation {t} does not mirror");
                let ids = (0..1 + case % 12).map(|i| (case * 13 + i * (1 + case % 5)) % rows);
                let point = |id| Rect::point(&stored.row(id).unwrap().features.point);
                let node = ids.clone().map(point).reduce(|a, b| a.union(&b)).unwrap();
                let key = rank.subtree_bound(&rank.lowered.apply_rect(&node));
                for id in ids {
                    let (m, q) = (&rank.multipliers, &rank.q_spec);
                    let (exact, _) = transformed_distance_sq(spectrum(id), m, q, None, &mut 0);
                    assert!(key <= exact, "transformation {t}: key {key} > {exact}");
                }
            }
        }
    }

    #[test]
    fn subtree_keys_never_exceed_a_rows_exact_distance() {
        subtree_keys_bound_their_rows(100);
    }

    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn subtree_keys_never_exceed_a_rows_exact_distance_long() {
        subtree_keys_bound_their_rows(2000);
    }
}
