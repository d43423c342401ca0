//! The quantized filter tier's contract as executable properties.
//!
//! 1. **No false dismissals, end to end** lives on the configuration
//!    lattice (`tests/lattice.rs`): every planned-index statement — the
//!    paths that dismiss by signature — answers bitwise what its
//!    tier-free twin answers (`FORCE SCAN`, the scan joins,
//!    `scan::scan_knn`) and what the time-domain oracle defines, at every
//!    point of threads × shards × WAL × front end × storage. The engine
//!    has no switch to turn the tier off; the tier-free paths are the
//!    reference.
//! 2. **The tier actually engages**: on a dense corpus with a tight
//!    threshold candidates are dismissed (`filtered_out > 0`) at no
//!    spectrum coefficient each, and the kNN scan reads a fraction of the
//!    coefficients its rows hold — the filter is a work-saving layer, not
//!    a no-op.
//! 3. **Pointwise soundness**: for adversarial spectra (negatives,
//!    denormals, zeros, huge magnitudes, identical series) the quantized
//!    lower bound never exceeds the true verification distance whenever
//!    that distance is finite — the per-row inequality behind property 1.
//!    The same holds for the *mirrored* bound the engine compiles
//!    (`FilterProbe::mirrored` with the store's measured `mirror_slack`):
//!    on spectra of real series under every transformation the language
//!    has, `ON BOTH` and not, at lengths on both sides of the
//!    `n < 2·coeffs` and odd-`n` edges, scaled to 1e154 and into
//!    denormals.
//! 4. **Build-path independence**: signatures — and the measured
//!    `mirror_slack` and the roots-of-unity table — are bit-identical
//!    whether a relation was bulk loaded, incrementally inserted, batch
//!    inserted, saved and reopened (with or without a replayed log tail)
//!    or resharded, and a reopened database filters with the exact same
//!    dismissal counts as the database that saved it.

mod common;

use common::lattice::{world, Config, Storage};
use common::oracle::{decidable_k, threshold_near, Oracle};
use common::{assert_outputs_bitwise_equal, corpus, db_with};
use proptest::prelude::*;
use similarity_queries::prelude::*;
use similarity_queries::series::{distance_outcome, UnitRoots};
use similarity_queries::storage::{scan, FilterProbe, SignatureArray, SIG_COEFFS};

/// A database saved and reopened does the in-memory original's exact
/// work on every statement — `filtered_out` is part of the `ExecStats` the
/// lattice compares — because signatures are recomputed from the decoded
/// spectra and the tree layout round-trips exactly.
#[test]
fn snapshot_reload_preserves_filter_behaviour() {
    let reloaded = |shards| Config {
        shards,
        storage: Storage::Reopened,
        ..Config::BASE
    };
    world(61, 45, 32).check(&[reloaded(1), reloaded(4)], |_| true);
}

/// Exactly zero multipliers — `mavg(m)` at `f·m ≡ 0 (mod n)`, which the
/// closed form returns as a true 0 — take the signature probe's
/// row-independent term and lower to a zero magnitude scale at angle 0. At
/// n = 128, `mavg(32)`, `mavg(64)` and `mavg(128)` vanish at signature and
/// index frequencies: every range and 10-NN statement under them, alone and
/// `ON BOTH`, answers bitwise like its `FORCE SCAN` twin and like the
/// time-domain definition. `mavg(1)`, every multiplier exactly one, answers
/// bitwise like no transformation, with the same work.
#[test]
fn exact_zero_multipliers_answer_like_the_scan_and_the_definition() {
    let n = 128;
    let rows = corpus(57, 60, n);
    let (db, oracle) = (
        db_with(&rows, FeatureScheme::paper_default()),
        Oracle::new(&rows),
    );
    let run = |q: &str| execute(&db, q).unwrap_or_else(|e| panic!("{q}: {e}"));
    for (i, window) in [32, 64, 128].into_iter().enumerate() {
        let t = SeriesTransform::MovingAverage { window };
        for on_both in [false, true] {
            let row = 5 + 11 * i + on_both as usize;
            let both = if on_both { " ON BOTH" } else { "" };
            let using = format!("IN r USING mavg({window}){both}");
            let d = oracle.distances(&rows[row], &t, on_both);
            let eps = threshold_near(&d, 5);
            let range = format!("FIND SIMILAR TO ROW {row} {using} EPSILON {eps}");
            let knn = format!("FIND {} NEAREST TO ROW {row} {using}", decidable_k(&d, 10));
            for q in [range, knn] {
                let indexed = run(&q);
                assert_eq!(indexed.plan.access, AccessPath::IndexScan, "{q}");
                assert_outputs_bitwise_equal(&indexed, &run(&format!("{q} FORCE SCAN")), &q);
                if let Err(why) = oracle.check(&parse(&q).unwrap(), &indexed.output) {
                    panic!("{q}: {why}");
                }
            }
        }
    }
    let d = oracle.distances(&rows[3], &SeriesTransform::Identity, false);
    let range = format!(
        "FIND SIMILAR TO ROW 3 IN r EPSILON {}",
        threshold_near(&d, 8)
    );
    for q in [range.as_str(), "FIND 10 NEAREST TO ROW 3 IN r"] {
        for using in ["IN r USING mavg(1)", "IN r USING mavg(1) ON BOTH"] {
            let moved = q.replacen("IN r", using, 1);
            let (plain, one) = (run(q), run(&moved));
            assert_outputs_bitwise_equal(&plain, &one, &moved);
            assert_eq!(plain.stats, one.stats, "{moved}");
        }
    }
}

/// A value strategy biased toward the places floating-point goes wrong:
/// signed zeros, denormals, huge and tiny magnitudes, and plain values.
fn adversarial_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -100.0f64..100.0,
        -100.0f64..100.0,
        -100.0f64..100.0,
        Just(0.0f64),
        Just(-0.0f64),
        Just(1.0e-320f64),
        Just(-1.0e-320f64),
        Just(1.0e154f64),
        Just(-1.0e154f64),
        1.0e-45f64..1.0e-38,
        -1.0e-8f64..1.0e-8,
    ]
}

fn complex_vec(len: usize) -> impl Strategy<Value = Vec<Complex>> {
    prop::collection::vec(
        (adversarial_f64(), adversarial_f64()).prop_map(|(re, im)| Complex::new(re, im)),
        len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The pointwise invariant behind the whole tier: for any stored
    /// spectrum, query spectrum and multiplier vector, the quantized
    /// lower bound never exceeds the true squared verification distance
    /// (whenever that distance is finite).
    #[test]
    fn lower_bound_never_exceeds_true_distance(
        n in 1usize..12,
        seed_x in complex_vec(12),
        seed_q in complex_vec(12),
        seed_m in complex_vec(12),
    ) {
        let x = &seed_x[..n];
        let q = &seed_q[..n];
        let m = &seed_m[..n.saturating_sub(1).max(1)];
        let true_sq = distance_outcome(x, m, q, None).dist_sq;
        prop_assume!(true_sq.is_finite());
        let coeffs = n.min(SIG_COEFFS);
        let mut sigs = SignatureArray::new(coeffs);
        sigs.push(x);
        let probe = FilterProbe::new(q, m, coeffs);
        let lb = probe.lower_bound_sq(sigs.row(0).unwrap());
        prop_assert!(
            lb <= true_sq,
            "lower bound {lb:e} exceeds true distance {true_sq:e}"
        );
    }

    /// Identical series (the hardest case for a quantized bound: the true
    /// distance is exactly zero) always get a zero lower bound, for any
    /// multiplier vector applied to both sides symmetrically.
    #[test]
    fn identical_series_are_never_dismissed(
        n in 2usize..12,
        seed_x in complex_vec(12),
    ) {
        let x = &seed_x[..n];
        let m = vec![Complex::ONE; n - 1];
        let true_sq = distance_outcome(x, &m, x, None).dist_sq;
        prop_assume!(true_sq.is_finite());
        let coeffs = n.min(SIG_COEFFS);
        let mut sigs = SignatureArray::new(coeffs);
        sigs.push(x);
        let probe = FilterProbe::new(x, &m, coeffs);
        let lb = probe.lower_bound_sq(sigs.row(0).unwrap());
        prop_assert!(lb <= true_sq, "self-distance {true_sq:e} dismissed by bound {lb:e}");
    }
}

/// The transformations of the mirrored-bound properties: every kind the
/// language has, and two-step compositions.
fn transformations() -> Vec<SeriesTransform> {
    use SeriesTransform::*;
    vec![
        Identity,
        MovingAverage { window: 3 },
        Reverse,
        Shift(2.5),
        Scale(-3.0),
        Warp { m: 2 },
        Chain(vec![Reverse, MovingAverage { window: 4 }]),
        Chain(vec![Scale(2.0), Warp { m: 2 }]),
        Chain(vec![MovingAverage { window: 2 }, Shift(-1.0)]),
    ]
}

/// One case of the mirrored-bound property: three rows and a query cut
/// from seeded random walks of length `n`, their normal-form spectra
/// scaled by `magnitude`, probed the way the engine does — the mirrored
/// compile against the array's own measured slack. Returns every row's
/// `(bound, exact squared distance, a term mirrored)`, or `None` when the
/// transformation does not apply at this length.
fn mirrored_case(
    seed: u64,
    n: usize,
    transform: &SeriesTransform,
    on_both: bool,
    magnitude: f64,
) -> Option<Vec<(f64, f64, bool)>> {
    let scheme = FeatureScheme::paper_default();
    let action = transform.action(n, n - 1).ok()?;
    let spectra: Vec<Vec<Complex>> = corpus(seed, 4, n)
        .iter()
        .map(|s| {
            let spectrum = scheme.extract(s).expect("walks are not constant").spectrum;
            spectrum.iter().map(|c| c.scale(magnitude)).collect()
        })
        .collect();
    let (rows, query) = spectra.split_at(3);
    let q_spec = if on_both {
        transform.apply_spectrum(&query[0], n).ok()?
    } else {
        query[0].clone()
    };
    let mut sigs = SignatureArray::for_series_len(n);
    rows.iter().for_each(|x| sigs.push(x));
    let probe = FilterProbe::mirrored(
        &q_spec,
        &action.multipliers,
        sigs.coeffs(),
        sigs.mirror_slack(),
    );
    let single = FilterProbe::new(&q_spec, &action.multipliers, sigs.coeffs());
    Some(
        rows.iter()
            .enumerate()
            .map(|(pos, x)| {
                let sig = sigs.row(pos).unwrap();
                let bound = probe.lower_bound_sq(sig);
                let exact = distance_outcome(x, &action.multipliers, &q_spec, None).dist_sq;
                (bound, exact, bound > single.lower_bound_sq(sig))
            })
            .collect(),
    )
}

fn mirrored_case_inputs() -> impl Strategy<Value = (u64, usize, usize, bool, f64)> {
    (
        0u64..1_000_000,
        prop_oneof![
            Just(8usize),
            Just(15usize),
            Just(16usize),
            Just(17usize),
            Just(64usize),
            Just(128usize)
        ],
        0usize..transformations().len(),
        prop_oneof![Just(false), Just(true)],
        prop_oneof![
            Just(1.0f64),
            Just(1.0f64),
            Just(1.0e154f64),
            Just(1.0e-150f64),
            Just(1.0e-306f64),
            Just(1.0e-318f64)
        ],
    )
}

fn assert_mirrored_bound_is_sound(
    (seed, n, transform, on_both, magnitude): (u64, usize, usize, bool, f64),
) {
    let transform = &transformations()[transform];
    let Some(rows) = mirrored_case(seed, n, transform, on_both, magnitude) else {
        return;
    };
    for (bound, exact, _) in rows {
        assert!(
            !exact.is_finite() || bound <= exact,
            "{} (n {n}, ON BOTH {on_both}, × {magnitude:e}, seed {seed}): \
             bound {bound:e} exceeds the exact distance {exact:e}",
            transform.name()
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The mirrored bound the engine compiles never exceeds the exact
    /// squared distance over the full spectrum.
    #[test]
    fn mirrored_bound_never_exceeds_true_distance(case in mirrored_case_inputs()) {
        assert_mirrored_bound_is_sound(case);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8000))]

    /// Twenty times the cases, for the release-profile CI step.
    #[test]
    #[ignore = "long: run with --release -- --ignored"]
    fn mirrored_bound_never_exceeds_true_distance_long(case in mirrored_case_inputs()) {
        assert_mirrored_bound_is_sound(case);
    }
}

/// The property above is not vacuous: at every length that can mirror,
/// under every transformation whose multipliers are conjugate symmetric
/// over the series' own length (all but `warp`, whose are over the warped
/// length), rows get a strictly larger bound than the single-frequency
/// one — and at the lengths that cannot (`n < 2·coeffs`), none does.
#[test]
fn real_series_mirror_under_symmetric_transformations() {
    for (t, transform) in transformations().iter().enumerate() {
        if transform.name().contains("warp") {
            continue;
        }
        for on_both in [false, true] {
            for n in [8usize, 15, 16, 17, 64, 128] {
                let Some(rows) = mirrored_case(t as u64, n, transform, on_both, 1.0) else {
                    continue;
                };
                let mirrored = rows.iter().filter(|r| r.2).count();
                let what = format!("{} (n {n}, ON BOTH {on_both})", transform.name());
                if n < 2 * SIG_COEFFS {
                    assert_eq!(mirrored, 0, "{what}");
                } else {
                    assert_eq!(mirrored, rows.len(), "{what}");
                }
            }
        }
    }
}

/// Hand-built spectra with no symmetry at all: a seeded xorshift stream
/// over ±50 in both components.
fn pseudo(seed: u64, n: usize) -> Vec<Complex> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f64) / ((1u64 << 53) as f64) * 100.0 - 50.0
    };
    (0..n).map(|_| Complex::new(next(), next())).collect()
}

/// [`pseudo`] made conjugate symmetric over every mirrored pair.
fn symmetric(seed: u64, n: usize) -> Vec<Complex> {
    let mut x = pseudo(seed, n);
    for f in 1..n.div_ceil(2) {
        x[n - f] = x[f].conj();
    }
    x
}

fn one_row(x: &[Complex]) -> SignatureArray {
    let mut sigs = SignatureArray::new(SIG_COEFFS);
    sigs.push(x);
    sigs
}

#[test]
fn symmetric_terms_claim_both_frequencies_below_the_distance() {
    let n = 32;
    let (x, q) = (symmetric(1, n), symmetric(2, n));
    let m = vec![Complex::ONE; n - 1];
    let sigs = one_row(&x);
    assert_eq!(sigs.mirror_slack(), 0.0);
    let row = sigs.row(0).unwrap();
    let single = FilterProbe::new(&q, &m, SIG_COEFFS).lower_bound_sq(row);
    let mut probe = FilterProbe::mirrored(&q, &m, SIG_COEFFS, 0.0);
    let both = probe.lower_bound_sq(row);
    assert!(both <= distance_outcome(&x, &m, &q, None).dist_sq);
    let dc = (x[0] - q[0]).norm_sqr();
    assert!(both - dc > 1.99 * (single - dc), "{both} vs {single}");
    assert_eq!(probe.mirror_floor().map(|(rho_sq, _)| rho_sq), Some(1.0));
    // Recompiling in place is compiling afresh.
    let other = symmetric(3, n);
    probe.recompile(&other);
    let fresh = FilterProbe::mirrored(&other, &m, SIG_COEFFS, 0.0);
    assert_eq!(probe.lower_bound_sq(row), fresh.lower_bound_sq(row));
}

#[test]
fn asymmetry_anywhere_leaves_terms_single() {
    let n = 32;
    let ones = vec![Complex::ONE; n - 1];
    let same_as_single = |x: &[Complex], q: &[Complex], m: &[Complex], what: &str| {
        let sigs = one_row(x);
        let row = sigs.row(0).unwrap();
        let probe = FilterProbe::mirrored(q, m, SIG_COEFFS, sigs.mirror_slack());
        let single = FilterProbe::new(q, m, SIG_COEFFS);
        let (got, want) = (probe.lower_bound_sq(row), single.lower_bound_sq(row));
        assert_eq!(got.to_bits(), want.to_bits(), "{what}");
        assert_eq!(probe.mirror_floor(), None, "{what}");
    };
    // Stored rows far from symmetric: the measured slack forbids it.
    assert!(one_row(&pseudo(3, n)).mirror_slack() > 1.0);
    same_as_single(&pseudo(3, n), &symmetric(4, n), &ones, "rows");
    // Non-finite or short rows: infinite slack.
    let mut broken = symmetric(5, n);
    broken[n - 2].im = f64::NAN;
    assert_eq!(one_row(&broken).mirror_slack(), f64::INFINITY);
    assert_eq!(one_row(&symmetric(5, 15)).mirror_slack(), f64::INFINITY);
    // An asymmetric complex query against symmetric rows.
    same_as_single(&symmetric(6, n), &pseudo(7, n), &ones, "query");
    // Multipliers: zero, NaN or infinite at `n−f` but not at `f`, and
    // zero at `f` but not at `n−f` (the constant-energy path).
    for bad in [
        Complex::ZERO,
        Complex::real(f64::NAN),
        Complex::real(f64::INFINITY),
    ] {
        let mut m = ones.clone();
        m[n - SIG_COEFFS..].fill(bad);
        same_as_single(&symmetric(8, n), &symmetric(9, n), &m, "mirror side");
    }
    let mut m = ones.clone();
    m[..SIG_COEFFS - 1].fill(Complex::ZERO);
    same_as_single(&symmetric(8, n), &symmetric(9, n), &m, "own side");
    // A non-finite query coefficient at `n−f`.
    let mut q = symmetric(9, n);
    q[n - 1].re = f64::INFINITY;
    q[n - 2].im = f64::NAN;
    let sigs = one_row(&symmetric(8, n));
    let probe = FilterProbe::mirrored(&q, &ones, SIG_COEFFS, 0.0);
    assert_eq!(probe.mirror_floor(), None);
    assert!(probe.lower_bound_sq(sigs.row(0).unwrap()).is_finite());
}

/// On a dense corpus with tight thresholds the tier must actually fire:
/// candidates are dismissed, each at no spectrum coefficient at all (the
/// survivors' full spectra bound the work). The kNN scan probes each row
/// ahead of its spectrum read; its dismissals are rows abandoned at zero
/// coefficients, so they show as coefficients saved, not as
/// `filtered_out`.
#[test]
fn filter_engages_and_saves_work() {
    let (rows, n) = (250u64, 64u64);
    let mut db = db_with(
        &corpus(7, rows as usize, n as usize),
        FeatureScheme::paper_default(),
    );
    db.set_parallelism(Parallelism::Serial);
    let mut engaged = 0u64;
    for q in [
        "FIND SIMILAR TO ROW 0 IN r EPSILON 0.6",
        "FIND SIMILAR TO ROW 3 IN r USING mavg(5) ON BOTH EPSILON 0.8",
        "FIND PAIRS IN r EPSILON 0.5 METHOD d",
        "FIND 4 NEAREST TO ROW 1 IN r FORCE SCAN",
        "FIND 4 NEAREST TO ROW 1 IN r USING mavg(5) ON BOTH FORCE SCAN",
    ] {
        let stats = execute(&db, q).unwrap().stats;
        if q.contains("NEAREST") {
            assert_eq!(stats.rows_scanned, rows);
            assert!(
                stats.coefficients_compared < rows * n / 8,
                "{q}: the scan's probe saved too little: {} coefficients",
                stats.coefficients_compared,
            );
        } else if stats.filtered_out > 0 {
            engaged += 1;
            assert!(
                stats.coefficients_compared <= (stats.candidates - stats.filtered_out) * n,
                "{q}: dismissed {} of {} candidates but compared {} coefficients",
                stats.filtered_out,
                stats.candidates,
                stats.coefficients_compared,
            );
        }
    }
    assert!(
        engaged >= 2,
        "filter tier engaged on only {engaged} of 3 tight queries"
    );
}

/// Collects every row's signature bits from a stored relation, read at
/// each row's position in its store, in id order (ids `0..rows`).
fn signature_bits(db: &Database, rows: usize) -> Vec<Vec<u32>> {
    let rel = db.relation("r").expect("relation r exists");
    let mut by_id: Vec<(u64, Vec<u32>)> = Vec::new();
    for store in rel.stores() {
        for (pos, row) in store.row_slice().iter().enumerate() {
            let sig = store.signatures().row(pos);
            let sig = sig.unwrap_or_else(|| panic!("row {} has a signature", row.id));
            by_id.push((row.id, sig.iter().map(|f| f.to_bits()).collect()));
        }
    }
    by_id.sort_by_key(|(id, _)| *id);
    assert!(by_id.iter().map(|(id, _)| *id).eq(0..rows as u64));
    by_id.into_iter().map(|(_, bits)| bits).collect()
}

/// Whether every store of `db`'s relation, and the one a sharded relation
/// merges into, holds the roots table `UnitRoots::new(n)` bit for bit.
fn holds_the_roots_table(db: &Database, n: usize) -> bool {
    let bits = |roots: &UnitRoots| {
        let parts = roots.as_slice().iter().flat_map(|c| [c.re, c.im]);
        parts.map(f64::to_bits).collect::<Vec<_>>()
    };
    let want = bits(&UnitRoots::new(n));
    let rel = db.relation("r").expect("relation r exists");
    let merged = match rel {
        StoredRelation::Sharded { relation, .. } => Some(relation.to_single()),
        StoredRelation::Single { .. } => None,
    };
    let mut stores = rel.stores().iter().chain(&merged);
    bits(rel.roots()) == want
        && stores.all(|s| s.roots().series_len() == n && bits(s.roots()) == want)
}

/// Signatures and the roots table are derived data recomputed on every
/// build path; whichever way the same rows reach a relation — bulk load,
/// incremental insert, batch insert, a saved and reopened directory with a
/// replayed log tail or resharding, and a sharded relation merged back by
/// `to_single` — the stored signatures, the measured mirror slack and the
/// roots are bit-for-bit identical. (That every build then *answers*
/// identically is the lattice's storage axis.)
#[test]
fn every_build_path_produces_identical_signatures() {
    use Storage::*;
    let world = world(62, 50, 64);
    let rows = world.rows.len();
    let slack = |db: &Database| scan::mirror_slack(db.relation("r").unwrap().stores());
    let (bulk, _scratch) = world.database(Built, 1, false);
    assert!(
        slack(&bulk) > 0.0 && slack(&bulk) < 1e-9,
        "{}",
        slack(&bulk)
    );
    assert!(holds_the_roots_table(&bulk, 64));
    for storage in [Incremental, BatchInserted, Reopened, Resharded] {
        for shards in [1, 4] {
            let (db, _scratch) = world.database(storage, shards, true);
            let what = format!("{storage:?} on {shards} shard(s)");
            assert_eq!(
                signature_bits(&db, rows),
                signature_bits(&bulk, rows),
                "{what}: signatures diverge from bulk load"
            );
            assert_eq!(
                slack(&db).to_bits(),
                slack(&bulk).to_bits(),
                "{what}: mirror slack diverges from bulk load"
            );
            assert!(holds_the_roots_table(&db, 64), "{what}: roots table");
        }
    }
}
