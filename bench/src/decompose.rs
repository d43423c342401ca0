//! Query execution rebuilt from the layers' public functions.
//!
//! `run_with_plan` is opaque from outside, so the traced run replays
//! each op's work piece by piece — the same rectangle, affine map,
//! filter probe and distance kernel the executor uses, called directly
//! with a span around each. The rebuilt answer must equal the
//! executor's; that equality is what makes the ledger's attribution
//! honest.

use simq_dsp::complex::Complex;
use simq_index::RTree;
use simq_query::{ast::QuerySource, Database, Hit, Query, StoredRelation};
use simq_series::kernel::transformed_distance_sq;
use simq_series::transform::SeriesTransform;
use simq_storage::{scan, FilterProbe, SeriesRelation};

use crate::trace::Tracer;

/// The executor's search-radius pad (`simq_query::exec::pad` is private):
/// one part in 10⁹ plus an absolute nudge, so exact-boundary matches
/// stay in the candidate set.
pub fn pad(radius: f64) -> f64 {
    radius * (1.0 + 1e-9) + 1e-9
}

/// The store and tree of an unsharded, indexed relation.
///
/// # Panics
/// Panics on any other shape — the query workloads build exactly this one.
pub fn single<'a>(db: &'a Database, relation: &str) -> (&'a SeriesRelation, &'a RTree) {
    match db.relation(relation) {
        Some(StoredRelation::Single {
            relation,
            index: Some(index),
        }) => (relation, index),
        _ => panic!("{relation} is not an unsharded indexed relation"),
    }
}

fn row_of(source: &QuerySource) -> u64 {
    match source {
        QuerySource::RowId(id) => *id,
        other => panic!("the workloads query by ROW id, got {other:?}"),
    }
}

/// The comparison spectrum (transformed under `ON BOTH`) and the query
/// row's statistics.
fn resolve(
    t: &mut Tracer,
    rel: &SeriesRelation,
    source: &QuerySource,
    transform: &SeriesTransform,
    on_both: bool,
) -> (Vec<Complex>, f64, f64) {
    t.leaf("exec.resolve", || {
        let row = rel.row(row_of(source)).expect("op lists name stored rows");
        let spectrum = if on_both {
            transform
                .apply_spectrum(&row.features.spectrum, rel.series_len())
                .expect("workload transformations are valid")
        } else {
            row.features.spectrum.clone()
        };
        (spectrum, row.features.mean, row.features.std_dev)
    })
}

fn materialise(
    t: &mut Tracer,
    rel: &SeriesRelation,
    found: Vec<(u64, f64)>,
    keep: usize,
) -> Vec<Hit> {
    t.leaf("exec.materialise", || {
        let mut hits: Vec<Hit> = found
            .into_iter()
            .map(|(id, distance)| Hit {
                id,
                name: rel.row(id).expect("found ids are stored").name.clone(),
                distance,
            })
            .collect();
        hits.sort_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .expect("finite distances")
                .then(a.id.cmp(&b.id))
        });
        hits.truncate(keep);
        hits
    })
}

/// Probes every candidate's signature, then verifies the survivors
/// exactly against `bound_sq`; returns `(id, squared distance)` of the
/// rows within the bound.
fn probe_and_verify(
    t: &mut Tracer,
    rel: &SeriesRelation,
    candidates: &[u64],
    q_spec: &[Complex],
    multipliers: &[Complex],
    bound_sq: f64,
) -> Vec<(u64, f64)> {
    let probe = t.leaf("sig.compile", || {
        FilterProbe::new(q_spec, multipliers, rel.signatures().coeffs())
    });
    let survivors: Vec<u64> = t.leaf_units("sig.probe", || {
        let kept = candidates
            .iter()
            .copied()
            .filter(|&id| {
                let sig = rel.signature(id).expect("candidate ids are stored");
                !probe.dismisses(sig, bound_sq)
            })
            .collect();
        (kept, candidates.len() as u64)
    });
    t.leaf_units("series.distance", || {
        let mut compared = 0u64;
        let within = survivors
            .iter()
            .filter_map(|&id| {
                let row = rel.row(id).expect("candidate ids are stored");
                let (d_sq, abandoned) = transformed_distance_sq(
                    &row.features.spectrum,
                    multipliers,
                    q_spec,
                    Some(bound_sq),
                    &mut compared,
                );
                (!abandoned).then_some((id, d_sq))
            })
            .collect();
        (within, compared)
    })
}

/// Algorithm 2, piece by piece: an indexed range query.
pub fn range(t: &mut Tracer, db: &Database, query: &Query) -> Vec<Hit> {
    let Query::Range {
        source,
        relation,
        transform,
        on_both,
        eps,
        ..
    } = query
    else {
        panic!("not a range query: {query:?}");
    };
    let (rel, tree) = single(db, relation);
    let n = rel.series_len();
    let scheme = rel.scheme();
    let (q_spec, mean, std_dev) = resolve(t, rel, source, transform, *on_both);
    let action = t.leaf("series.action", || {
        transform.action(n, n - 1).expect("valid transformation")
    });
    let rect = t.leaf("series.search_rect", || {
        let q_point = scheme
            .point_from_spectrum(mean, std_dev, &q_spec)
            .expect("spectrum holds the kept coefficients");
        scheme.search_rect(&q_point, pad(*eps))
    });
    let lowered = t.leaf("series.lower", || {
        transform.lower(scheme, n).expect("safe transformation")
    });
    let candidates = t.leaf_units("index.range", || {
        let (ids, _) = tree.range_transformed(&lowered, &rect);
        let n = ids.len() as u64;
        (ids, n)
    });
    let within = probe_and_verify(t, rel, &candidates, &q_spec, &action.multipliers, eps * eps);
    let found = within
        .into_iter()
        .map(|(id, d_sq)| (id, d_sq.sqrt()))
        .filter(|&(_, d)| d <= *eps)
        .collect();
    materialise(t, rel, found, usize::MAX)
}

/// The executor's two-step indexed kNN, piece by piece.
pub fn knn(t: &mut Tracer, db: &Database, query: &Query) -> Vec<Hit> {
    let Query::Knn {
        k,
        source,
        relation,
        transform,
        on_both,
        ..
    } = query
    else {
        panic!("not a kNN query: {query:?}");
    };
    let (rel, tree) = single(db, relation);
    let n = rel.series_len();
    let scheme = rel.scheme();
    let (q_spec, _, _) = resolve(t, rel, source, transform, *on_both);
    let lowered = t.leaf("series.lower", || {
        transform.lower(scheme, n).expect("safe transformation")
    });
    let action = t.leaf("series.action", || {
        transform.action(n, n - 1).expect("valid transformation")
    });
    let q_point = scheme
        .point_from_spectrum(0.0, 0.0, &q_spec)
        .expect("spectrum holds the kept coefficients");
    let q_coeffs = scheme.coefficients_of_point(&q_point);
    let step1 = t.leaf("index.knn", || {
        let bound =
            |rect: &simq_index::Rect| simq_series::spectral_mindist(scheme, &q_coeffs, rect);
        tree.nearest_by(&bound, Some(&lowered), *k).0
    });
    if step1.is_empty() {
        return Vec::new();
    }
    let radius_sq = t.leaf_units("series.distance", || {
        let mut compared = 0u64;
        let mut radius_sq = 0.0f64;
        for nb in &step1 {
            let row = rel.row(nb.id).expect("index ids are stored");
            let (d_sq, _) = transformed_distance_sq(
                &row.features.spectrum,
                &action.multipliers,
                &q_spec,
                None,
                &mut compared,
            );
            radius_sq = radius_sq.max(d_sq);
        }
        (radius_sq, compared)
    });
    let rect = t.leaf("series.search_rect", || {
        scheme.search_rect(&q_point, pad(radius_sq.sqrt()))
    });
    let candidates = t.leaf_units("index.range", || {
        let (ids, _) = tree.range_transformed(&lowered, &rect);
        let n = ids.len() as u64;
        (ids, n)
    });
    let within = probe_and_verify(t, rel, &candidates, &q_spec, &action.multipliers, radius_sq);
    let found = within
        .into_iter()
        .map(|(id, d_sq)| (id, d_sq.sqrt()))
        .collect();
    materialise(t, rel, found, *k)
}

/// A sequential-scan range query: resolve, one `scan_range`, materialise.
pub fn scan_range(t: &mut Tracer, db: &Database, query: &Query) -> Vec<Hit> {
    let Query::Range {
        source,
        relation,
        transform,
        on_both,
        eps,
        ..
    } = query
    else {
        panic!("not a range query: {query:?}");
    };
    let (rel, _) = single(db, relation);
    let (q_spec, _, _) = resolve(t, rel, source, transform, *on_both);
    let found = t.leaf_units("scan.range", || {
        let (hits, stats) =
            scan::scan_range(rel, transform, &q_spec, *eps, true).expect("valid transformation");
        let found: Vec<(u64, f64)> = hits.into_iter().map(|h| (h.id, h.distance)).collect();
        (found, stats.rows_scanned)
    });
    materialise(t, rel, found, usize::MAX)
}
