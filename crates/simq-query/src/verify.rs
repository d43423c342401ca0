//! Verification — step 3 of Algorithm 2 — the stage that runs it inside
//! the one descent, and the work ledger, shared by every execution
//! surface.
//!
//! A plan opens one [`Descent`] with a [`PlanStage`]; its access path only
//! picks the source. An index plan descends the relation's forest of
//! trees, a scan plan a flat source of its stores' rows in scan order. The
//! stage is a range query's search rectangle and verifier (window test →
//! signature probe → exact distance against ε, for each row the moment its
//! leaf keeps it; a scan has no rectangle and no probe), or a kNN query's
//! ranking bounds and refine step. An all-pairs join re-aims one range
//! stage at each outer row and runs it behind a [`PairStage`], the pair
//! rule. Materialized execution ([`crate::exec`]
//! — batches run it per slot) drains the descent; a streaming cursor
//! ([`crate::session`]) pauses it between pulls. This module also owns the
//! one rule deciding which counter breakdown a phase is charged to
//! ([`Ledger`]).

use crate::ast::StatsWindow;
use crate::catalog::StoredRelation;
use crate::error::QueryError;
use crate::exec::{ExecStats, Hit, QueryContext, QueryOutput, QueryResult};
use crate::plan::{AccessPath, Plan};
use simq_dsp::complex::Complex;
use simq_index::{
    cmp_distance_id, Descent, DiagonalAffine, ForestStats, Neighbor, Rect, RowRef, SearchStats,
    Space, Stage, Window,
};
use simq_series::kernel::{distance_outcome_under, Unit};
use simq_series::transform::NormalFormAction;
use simq_series::SpectralMindist;
use simq_storage::{deflate_sq, scan, FilterProbe, SeriesRelation, SeriesRow};
use std::borrow::Cow;
use std::ops::Range;

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

/// The positions of each store's rows that fall at `lo..hi` of the
/// stores' store-after-store order: the flat source of a scan plan's
/// descent (`(0, usize::MAX)` for every row).
pub(crate) fn flat_rows(stores: &[SeriesRelation], (lo, hi): (usize, usize)) -> Vec<Range<usize>> {
    let mut start = 0;
    let rows = stores.iter().map(|store| {
        let end = start + store.len();
        let span = lo.clamp(start, end) - start..hi.clamp(start, end) - start;
        start = end;
        span
    });
    rows.collect()
}

/// A descent's row of `stored`, read at its place.
#[inline(always)]
fn row_at(stored: &StoredRelation, row: RowRef) -> &SeriesRow {
    &stored.stores()[row.store].row_slice()[row.pos]
}

/// A descent's row's filter-tier signature, read at its place. Kept out
/// of line: inlined into the descent's entry loop through the kNN row
/// bound, it made an indexed 10-NN over 8000 walks 2–4 % slower.
#[inline(never)]
fn signature_at(stored: &StoredRelation, row: RowRef) -> Option<&[f32]> {
    stored.stores()[row.store].signatures().row(row.pos)
}

/// The exact squared distance of the stored spectrum `x` to `q` under a
/// statement's `multipliers`, abandoned once it passes `abandon_over`, with
/// the coefficients compared added to `compared`: by the multiply-free
/// kernel when `unit` (every multiplier is one; the same bits).
#[inline(always)]
fn exact_sq(
    x: &[Complex],
    multipliers: &[Complex],
    unit: bool,
    q: &[Complex],
    abandon_over: Option<f64>,
    compared: &mut u64,
) -> (f64, bool) {
    let o = if unit {
        distance_outcome_under(x, Unit, q, abandon_over)
    } else {
        distance_outcome_under(x, multipliers, q, abandon_over)
    };
    *compared += o.compared;
    (o.dist_sq, o.abandoned)
}

/// The range verifier: everything one range query needs to decide a
/// candidate row, resolved once.
#[derive(Clone)]
pub(crate) struct RangeVerifier<'db> {
    stored: &'db StoredRelation,
    /// The transformation's action on normal-form spectra and statistics.
    action: NormalFormAction,
    /// Whether every multiplier of `action` is one: rows verify by the
    /// multiply-free kernel.
    unit: bool,
    /// The GK95 MEAN/STD window.
    window: StatsWindow,
    /// The comparison spectrum and the query series' statistics.
    ctx: QueryContext,
    /// The distance threshold.
    eps: f64,
    /// Whether the exact distance stops once it passes ε² (every form but
    /// `METHOD a`, which keeps full distances).
    abandon: bool,
    probe: Option<FilterProbe>,
}

impl<'db> RangeVerifier<'db> {
    /// The verifier of a range query over `stored`, from the statement's
    /// one resolved `action` (every frequency of `stored`'s series length,
    /// as [`crate::exec::resolve_query`] computes it): its multipliers
    /// verify and feed the signature probe, and its first `k` lower the
    /// query into the index.
    pub(crate) fn new(
        stored: &'db StoredRelation,
        action: NormalFormAction,
        ctx: QueryContext,
        eps: f64,
        window: StatsWindow,
    ) -> Self {
        RangeVerifier {
            stored,
            unit: Unit::covers(&action.multipliers),
            action,
            window,
            ctx,
            eps,
            abandon: true,
            probe: None,
        }
    }

    /// Sets whether the exact distance abandons once it passes ε².
    pub(crate) fn abandoning(self, abandon: bool) -> Self {
        RangeVerifier { abandon, ..self }
    }

    /// Puts the quantized signature tier ahead of the exact distance (the
    /// index paths; the scan paths read every row anyway and stay
    /// tier-free): one probe per query, one flat-array lookup per
    /// candidate. Dismissal needs `lb² > ε²`, which (the bound being a
    /// true lower bound) implies the exact distance also exceeds ε — the
    /// candidate could never have become a hit.
    fn with_probe(mut self) -> Self {
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
    fn search_rect(&self) -> Result<Rect, QueryError> {
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
    fn window_ok(&self, row: &SeriesRow) -> bool {
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

    /// Decides one row: window test → signature probe → exact distance.
    /// Its squared distance when it is a hit; dismissals by the probe are
    /// counted in `filtered_out`, coefficients compared in `coefficients`.
    #[inline(always)]
    fn distance_sq(
        &self,
        at: RowRef,
        filtered_out: &mut u64,
        coefficients: &mut u64,
    ) -> Option<f64> {
        let row = row_at(self.stored, at);
        if !self.window_ok(row) {
            return None;
        }
        let eps_sq = self.eps * self.eps;
        if let Some(p) = &self.probe {
            let sig = signature_at(self.stored, at);
            if sig.is_some_and(|sig| p.dismisses(sig, eps_sq)) {
                *filtered_out += 1;
                return None;
            }
        }
        // Squared distances until the last step: early abandoning (the
        // paper's sequential-scan idea, applied per candidate) compares
        // partial sums with ε² and avoids a `sqrt` roundtrip on the bound.
        let (d_sq, abandoned) = exact_sq(
            &row.features.spectrum,
            &self.action.multipliers,
            self.unit,
            &self.ctx.spectrum,
            self.abandon.then_some(eps_sq),
            coefficients,
        );
        (!abandoned && d_sq.sqrt() <= self.eps).then_some(d_sq)
    }

    /// Opens the range query's descent over the source `access` picks:
    /// the index, or a scan of every row.
    pub(crate) fn descend(self, access: &AccessPath) -> Result<PlanDescent<'db>, QueryError> {
        if *access != AccessPath::IndexScan {
            return Ok(self.scan((0, usize::MAX)));
        }
        let stored = self.stored;
        let lowered = lowered(&self.action, stored)?.map(Cow::Owned);
        let stage = self.stage(true)?;
        Ok(Descent::within(stored.trees(), lowered, stage))
    }

    /// The range query's stage over the index, or over a flat source. Over
    /// the index the search rectangle prunes nodes and rows, and each row a
    /// leaf keeps is verified with the quantized tier ahead of the exact
    /// distance; a flat source's rows are all verified, tier-free.
    pub(crate) fn stage(self, index: bool) -> Result<PlanStage<'db>, QueryError> {
        if !index {
            return Ok(PlanStage::Scan(self));
        }
        let verify = self.with_probe();
        let rect = verify.search_rect()?;
        Ok(PlanStage::Range { rect, verify })
    }

    /// Opens a scan of the rows at positions `span` of the stores'
    /// store-after-store order: a flat descent, every row verified.
    pub(crate) fn scan(self, span: (usize, usize)) -> PlanDescent<'db> {
        let rows = flat_rows(self.stored.stores(), span);
        Descent::within_flat(rows, PlanStage::Scan(self))
    }
}

/// A hit of the descent's row `nb`, at distance `√d²`.
pub(crate) fn hit(stored: &StoredRelation, nb: Neighbor) -> Hit {
    Hit {
        id: nb.id,
        name: stored.row(nb.id).expect("index ids are valid").name.clone(),
        distance: nb.dist_sq.sqrt(),
    }
}

/// One kNN query resolved for the optimal multi-step search (Seidl &
/// Kriegel): the bounds that rank subtrees and rows, and the refine step
/// that decides a ranked row against the shrinking exact `k`-th best.
/// Everything is in squared distances.
#[derive(Clone)]
pub(crate) struct KnnRank<'a> {
    stored: &'a StoredRelation,
    q_spec: Vec<Complex>,
    multipliers: Vec<Complex>,
    /// Whether every one of `multipliers` is one: rows refine by the
    /// multiply-free kernel.
    unit: bool,
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
    /// The ranking bounds and refine step of a kNN query over `stored`,
    /// from the query's comparison spectrum and the `multipliers` of the
    /// statement's one resolved action (every frequency of `stored`'s
    /// series length, as [`crate::exec::resolve_query`] computes it).
    pub(crate) fn new(
        stored: &'a StoredRelation,
        multipliers: Vec<Complex>,
        q_spec: Vec<Complex>,
    ) -> Self {
        let scheme = stored.scheme();
        let mindist = SpectralMindist::new(scheme, &q_spec[1..]);
        let slack = scan::mirror_slack(stored.stores());
        let over = |coeffs| FilterProbe::mirrored(&q_spec, &multipliers, coeffs, slack);
        KnnRank {
            stored,
            mindist,
            floor: (scheme.k < stored.sig_coeffs())
                .then(|| over(scheme.k + 1).mirror_floor())
                .flatten(),
            signature: over(stored.sig_coeffs()),
            unit: Unit::covers(&multipliers),
            multipliers,
            q_spec,
        }
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

    /// The ranking key of a row: its whole (deflated) signature bound, so
    /// a row that surfaces has nothing left to be dismissed by.
    #[inline(always)]
    fn row_bound(&self, row: RowRef) -> f64 {
        signature_at(self.stored, row).map_or(0.0, |sig| self.signature.lower_bound_sq(sig))
    }

    /// [`KnnRank::row_bound`] of the rows at positions `rows` of store
    /// `store`, appended as `(key, position)`: the store's signatures are
    /// found once, not once per row.
    fn leaf_bounds(&self, store: usize, rows: Range<usize>, out: &mut Vec<(f64, u64)>) {
        let sigs = self.stored.stores()[store].signatures();
        out.extend(rows.map(|pos| {
            let key = sigs
                .row(pos)
                .map_or(0.0, |sig| self.signature.lower_bound_sq(sig));
            (key, pos as u64)
        }));
    }

    /// Decides one ranked row against the current exact `k`-th best
    /// squared distance: its exact squared distance, or `None` when the
    /// abandoned accumulation proves it farther.
    fn refine(&self, row: RowRef, kth_now: f64, stats: &mut SearchStats) -> Option<f64> {
        let row = row_at(self.stored, row);
        let (d_sq, abandoned) = exact_sq(
            &row.features.spectrum,
            &self.multipliers,
            self.unit,
            &self.q_spec,
            kth_now.is_finite().then_some(kth_now),
            &mut stats.refine_work,
        );
        (!abandoned).then_some(d_sq)
    }
}

/// What a plan's descent does at the entries and rows it reaches: the one
/// [`Stage`] of both query forms and both sources.
#[derive(Clone)]
pub(crate) enum PlanStage<'db> {
    /// Range: the search rectangle prunes, the verifier decides each row
    /// against ε.
    Range {
        rect: Rect,
        verify: RangeVerifier<'db>,
    },
    /// A range scan: its flat source has no rectangles to test, and the
    /// verifier decides every row, tier-free.
    Scan(RangeVerifier<'db>),
    /// kNN: subtree and row bounds rank, refine decides each row against
    /// the live `k`-th best.
    Knn(KnnRank<'db>),
}

impl Stage for PlanStage<'_> {
    fn key(&self, space: &Space, rect: &Rect) -> Option<f64> {
        match self {
            PlanStage::Range { rect: window, .. } => Window(window).key(space, rect),
            PlanStage::Scan(_) => Some(0.0),
            PlanStage::Knn(rank) => Some(rank.subtree_bound(rect)),
        }
    }

    #[inline(always)]
    fn row_bound(&self, row: RowRef) -> Option<f64> {
        match self {
            PlanStage::Range { .. } | PlanStage::Scan(_) => None,
            PlanStage::Knn(rank) => Some(rank.row_bound(row)),
        }
    }

    // Inlined into the descent's loops: out of line, each scanned row paid
    // a call (a range scan at 2000 rows ran ≈ 1.5 % slower).
    #[inline(always)]
    fn refine(&self, row: RowRef, _: f64, bound: f64, stats: &mut SearchStats) -> Option<f64> {
        match self {
            PlanStage::Range { verify, .. } | PlanStage::Scan(verify) => {
                let (filtered, coefficients) = (&mut stats.filtered_out, &mut stats.refine_work);
                verify.distance_sq(row, filtered, coefficients)
            }
            PlanStage::Knn(rank) => rank.refine(row, bound, stats),
        }
    }

    fn row_bounds(&self, store: usize, rows: Range<usize>, out: &mut Vec<(f64, u64)>) {
        match self {
            PlanStage::Knn(rank) => rank.leaf_bounds(store, rows, out),
            _ => out.extend(rows.map(|pos| (0.0, pos as u64))),
        }
    }

    fn id(&self, row: RowRef) -> u64 {
        let stored = match self {
            PlanStage::Range { verify, .. } | PlanStage::Scan(verify) => verify.stored,
            PlanStage::Knn(rank) => rank.stored,
        };
        row_at(stored, row).id
    }
}

impl PlanStage<'_> {
    /// Re-aims a range stage at the comparison spectrum `x` moved by
    /// `multipliers` — an all-pairs join's probe `L(x)`: its verifier, its
    /// signature probe and, over the index, its search rectangle.
    pub(crate) fn aim(&mut self, x: &[Complex], multipliers: &[Complex]) -> Result<(), QueryError> {
        let (PlanStage::Range { verify, .. } | PlanStage::Scan(verify)) = self else {
            unreachable!("a join probes with a range stage")
        };
        let q = &mut verify.ctx.spectrum;
        q.clear();
        q.extend(x.first());
        q.extend(x.iter().skip(1).zip(multipliers).map(|(x, m)| *x * *m));
        if let Some(probe) = &mut verify.probe {
            probe.recompile(q);
        }
        if let PlanStage::Range { rect, verify } = self {
            *rect = verify.search_rect()?;
        }
        Ok(())
    }
}

/// The pair rule of an all-pairs join ahead of the range stage that
/// verifies one probe's rows: the probe's own row, and rows whose id is
/// below `below` (a symmetric tree join's probe id: each unordered pair
/// once), are skipped before any refine work. Rows are told apart by the
/// id read at their place, never by position. The descent still counts
/// them as candidates.
pub(crate) struct PairStage<'s, 'db> {
    pub(crate) stage: &'s PlanStage<'db>,
    /// The probe's row id.
    pub(crate) own: u64,
    /// Rows with a smaller id are skipped (0: none).
    pub(crate) below: u64,
}

impl Stage for PairStage<'_, '_> {
    fn key(&self, space: &Space, rect: &Rect) -> Option<f64> {
        self.stage.key(space, rect)
    }

    #[inline(always)]
    fn refine(&self, row: RowRef, key: f64, bound: f64, stats: &mut SearchStats) -> Option<f64> {
        let id = self.stage.id(row);
        if id == self.own || id < self.below {
            return None;
        }
        self.stage.refine(row, key, bound, stats)
    }

    fn id(&self, row: RowRef) -> u64 {
        self.stage.id(row)
    }
}

/// The descent of a plan over a relation's forest of trees or its flat
/// source.
pub(crate) type PlanDescent<'db> = Descent<'db, PlanStage<'db>>;

/// Opens a kNN query's descent over the source `access` picks: the
/// optimal multi-step search (Seidl & Kriegel), ranking rows by lower
/// bound and refining each as it surfaces, for the `k` nearest rows of
/// `stored` to `q_spec`. A scan ranks every row by its signature bound and
/// lowers nothing.
pub(crate) fn knn_descent<'db>(
    stored: &'db StoredRelation,
    action: NormalFormAction,
    q_spec: Vec<Complex>,
    k: usize,
    access: &AccessPath,
) -> Result<PlanDescent<'db>, QueryError> {
    if *access != AccessPath::IndexScan {
        let stage = PlanStage::Knn(KnnRank::new(stored, action.multipliers, q_spec));
        let rows = flat_rows(stored.stores(), (0, usize::MAX));
        return Ok(Descent::nearest_flat(rows, stage, k));
    }
    let lowered = lowered(&action, stored)?.map(Cow::Owned);
    let stage = PlanStage::Knn(KnnRank::new(stored, action.multipliers, q_spec));
    Ok(Descent::nearest(stored.trees(), lowered, stage, k))
}

/// The map `action` lowers to over `stored`'s feature space, or `None`
/// for the identity: a descent then tests each entry's own rectangle.
pub(crate) fn lowered(
    action: &NormalFormAction,
    stored: &StoredRelation,
) -> Result<Option<DiagonalAffine>, QueryError> {
    let lowered = action.lower(stored.scheme())?;
    Ok((!lowered.is_identity()).then_some(lowered))
}

/// The counters of one execution — merged totals, the per-shard breakdown
/// and the widest fan-out — and the one rule for what the breakdown holds:
/// a descent over the relation's trees or stores (index reads, scanned
/// rows, and the candidates, dismissals and refine work of every query
/// form — range verification and a join's descents included) is charged
/// **per shard** when the relation has more than one store. Single-store
/// relations keep `shards_touched = 0` and an empty `per_shard`.
pub(crate) struct Ledger {
    /// The merged totals.
    pub(crate) stats: ExecStats,
    per_shard: Vec<ExecStats>,
    /// The relation's store count when it is sharded, else 0.
    shards: usize,
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
            shards: shards_touched as usize,
            widest: 1,
        }
    }

    /// Charges the descents one phase ran, one per worker (none for a
    /// scan of no rows): a sharded relation's breakdown holds one entry
    /// per store even then.
    pub(crate) fn search(&mut self, per_worker: &[ForestStats]) {
        self.widest = self.widest.max(per_worker.len());
        self.per_shard.resize(self.shards, ExecStats::default());
        for s in per_worker {
            self.stats.add_search(&s.merged);
            for (acc, s) in self.per_shard.iter_mut().zip(&s.per_shard) {
                acc.add_search(s);
            }
        }
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
    use simq_series::kernel::transformed_distance_sq;
    use simq_series::transform::SeriesTransform;

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
                let action = transform.action(n, n - 1).unwrap();
                let mut q_spec = spectrum(case * 7 % rows).clone();
                if case % 2 == 1 {
                    q_spec = action.apply_spectrum(&q_spec);
                }
                let lowered = action.lower(stored.scheme()).unwrap();
                let rank = KnnRank::new(stored, action.multipliers, q_spec);
                assert!(rank.floor.is_some(), "transformation {t} does not mirror");
                let ids = (0..1 + case % 12).map(|i| (case * 13 + i * (1 + case % 5)) % rows);
                let point = |id| Rect::point(&stored.row(id).unwrap().features.point);
                let node = ids.clone().map(point).reduce(|a, b| a.union(&b)).unwrap();
                let key = rank.subtree_bound(&lowered.apply_rect(&node));
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
