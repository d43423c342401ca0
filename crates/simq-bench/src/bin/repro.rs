//! `repro` — regenerates every figure and table of the paper's evaluation
//! (Section 5) plus ablations of the design choices ARCHITECTURE.md
//! describes (indexed coefficients, representation, tree construction).
//!
//! ```sh
//! cargo run --release -p simq-bench --bin repro            # everything
//! cargo run --release -p simq-bench --bin repro -- fig8    # one experiment
//! cargo run --release -p simq-bench --bin repro -- quick   # reduced sizes
//! ```
//!
//! Absolute times are machine-specific; the *shapes* — who wins, by what
//! factor, where the crossover falls — are the reproduction targets, and
//! node-access counters provide the hardware-independent check.

use simq_bench::{header, indexed_db, ms, row, stock_relation, time_mean, walk_relation};
use simq_dsp::euclidean;
use simq_query::{execute, AccessPath, Database, QueryOutput};
use simq_series::features::{FeatureScheme, Representation};
use simq_series::{moving_average, normal_form};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "quick");
    let which: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "quick")
        .collect();
    let run = |name: &str| which.is_empty() || which.contains(&name) || which.contains(&"all");

    if run("fig8") {
        fig8(quick);
    }
    if run("fig9") {
        fig9(quick);
    }
    if run("fig10") {
        fig10(quick);
    }
    if run("fig11") {
        fig11(quick);
    }
    if run("fig12") {
        fig12(quick);
    }
    if run("table1") {
        table1(quick);
    }
    if run("warp") {
        warp_demo();
    }
    if run("ex2") {
        ex2();
    }
    if run("abl-k") {
        ablation_k(quick);
    }
    if run("abl-rep") {
        ablation_rep(quick);
    }
    if run("abl-tree") {
        ablation_tree(quick);
    }
    if run("frame") {
        framework();
    }
}

/// Mean per-query time and stats over the first `q` rows as queries.
fn run_queries(
    db: &Database,
    template: impl Fn(usize) -> String,
    q: usize,
    iters: usize,
) -> (Duration, u64, u64) {
    let queries: Vec<String> = (0..q).map(&template).collect();
    let (elapsed, (nodes, rows)) = time_mean(iters, || {
        let mut nodes = 0u64;
        let mut rows = 0u64;
        for text in &queries {
            let r = execute(db, text).expect("benchmark queries are valid");
            nodes += r.stats.nodes_visited;
            rows += r.stats.rows_scanned;
        }
        (nodes / q as u64, rows / q as u64)
    });
    (elapsed / q as u32, nodes, rows)
}

/// Figure 8: time per range query varying sequence length; identity
/// transformation; index traversal with vs without the transformation
/// machinery. The difference must be CPU-only (same node accesses).
fn fig8(quick: bool) {
    println!(
        "\n=== fig8: time per query vs sequence length (1,000 sequences, identity transform) ==="
    );
    let lengths: &[usize] = if quick {
        &[64, 128, 256]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    header(&[
        "length",
        "plain ms",
        "transform ms",
        "plain nodes",
        "t nodes",
    ]);
    for &len in lengths {
        let db = indexed_db(walk_relation("r", 1000, len));
        let (t_plain, n_plain, _) = run_queries(
            &db,
            |i| format!("FIND SIMILAR TO ROW {i} IN r EPSILON 1.0"),
            20,
            30,
        );
        let (t_id, n_id, _) = run_queries(
            &db,
            |i| format!("FIND SIMILAR TO ROW {i} IN r USING identity EPSILON 1.0"),
            20,
            30,
        );
        row(&[
            len.to_string(),
            ms(t_plain),
            ms(t_id),
            n_plain.to_string(),
            n_id.to_string(),
        ]);
        assert_eq!(
            n_plain, n_id,
            "identity transform must not change node accesses"
        );
    }
    println!("(expected shape: two nearly flat curves separated by a small CPU constant)");
}

/// Figure 9: the same comparison varying the number of sequences.
fn fig9(quick: bool) {
    println!(
        "\n=== fig9: time per query vs number of sequences (length 128, identity transform) ==="
    );
    let counts: &[usize] = if quick {
        &[500, 2000]
    } else {
        &[500, 2000, 4000, 8000, 12000]
    };
    header(&[
        "sequences",
        "plain ms",
        "transform ms",
        "plain nodes",
        "t nodes",
    ]);
    for &count in counts {
        let db = indexed_db(walk_relation("r", count, 128));
        let (t_plain, n_plain, _) = run_queries(
            &db,
            |i| format!("FIND SIMILAR TO ROW {i} IN r EPSILON 1.0"),
            20,
            30,
        );
        let (t_id, n_id, _) = run_queries(
            &db,
            |i| format!("FIND SIMILAR TO ROW {i} IN r USING identity EPSILON 1.0"),
            20,
            30,
        );
        row(&[
            count.to_string(),
            ms(t_plain),
            ms(t_id),
            n_plain.to_string(),
            n_id.to_string(),
        ]);
        assert_eq!(n_plain, n_id);
    }
    println!("(expected shape: same as fig8 — transformation cost is a constant, not I/O)");
}

/// Figure 10: transformed index queries vs sequential scanning, varying
/// sequence length (mavg(20) pushed into both).
fn fig10(quick: bool) {
    println!("\n=== fig10: index vs sequential scan, varying sequence length (1,000 sequences, mavg(20)) ===");
    let lengths: &[usize] = if quick {
        &[64, 128, 256]
    } else {
        &[64, 128, 256, 512, 1024]
    };
    header(&["length", "index ms", "scan ms", "index pages", "scan pages"]);
    for &len in lengths {
        let db = indexed_db(walk_relation("r", 1000, len));
        let (t_index, nodes, _) = run_queries(
            &db,
            |i| format!("FIND SIMILAR TO ROW {i} IN r USING mavg(20) ON BOTH EPSILON 1.0"),
            20,
            3,
        );
        let (t_scan, _, rows_read) = run_queries(
            &db,
            |i| {
                format!(
                    "FIND SIMILAR TO ROW {i} IN r USING mavg(20) ON BOTH EPSILON 1.0 FORCE SCAN"
                )
            },
            20,
            3,
        );
        row(&[
            len.to_string(),
            ms(t_index),
            ms(t_scan),
            nodes.to_string(),
            pages(rows_read, len).to_string(),
        ]);
    }
    println!("(expected shape: everything is in memory here, so wall-clock differences are small; the simulated page counts — one page per index node vs the whole frequency-domain relation — are the disk-era comparison and show the index reading orders of magnitude less, growing with length on the scan side only)");
}

/// Simulated page reads for a scan: the stored spectrum is 16 bytes per
/// coefficient; 4 KiB pages.
fn pages(rows: u64, len: usize) -> u64 {
    (rows * (len as u64) * 16).div_ceil(4096)
}

/// Figure 11: the same comparison varying the number of sequences.
fn fig11(quick: bool) {
    println!("\n=== fig11: index vs sequential scan, varying number of sequences (length 128, mavg(20)) ===");
    let counts: &[usize] = if quick {
        &[500, 2000]
    } else {
        &[500, 2000, 4000, 8000, 12000]
    };
    header(&[
        "sequences",
        "index ms",
        "scan ms",
        "index pages",
        "scan pages",
    ]);
    for &count in counts {
        let db = indexed_db(walk_relation("r", count, 128));
        let (t_index, nodes, _) = run_queries(
            &db,
            |i| format!("FIND SIMILAR TO ROW {i} IN r USING mavg(20) ON BOTH EPSILON 1.0"),
            20,
            3,
        );
        let (t_scan, _, rows_read) = run_queries(
            &db,
            |i| {
                format!(
                    "FIND SIMILAR TO ROW {i} IN r USING mavg(20) ON BOTH EPSILON 1.0 FORCE SCAN"
                )
            },
            20,
            3,
        );
        row(&[
            count.to_string(),
            ms(t_index),
            ms(t_scan),
            nodes.to_string(),
            pages(rows_read, 128).to_string(),
        ]);
    }
    println!("(expected shape: the scan touches the whole relation — page reads grow linearly with the corpus while the index's stay near-constant; in-memory wall-clock shows the same trend in miniature)");
}

/// Figure 12: time per query as the answer set grows (1,067 stock-like
/// series of length 128; ε varied). The index wins until the answer set
/// approaches a third of the relation.
fn fig12(quick: bool) {
    println!("\n=== fig12: time per query vs answer-set size (1,067 stocks × 128 days) ===");
    let stocks = if quick { 400 } else { 1067 };
    let db = indexed_db(stock_relation("stocks", stocks, 128));
    header(&[
        "answer size",
        "index ms",
        "scan ms",
        "index pages",
        "scan pages",
    ]);
    let eps_values = [0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 13.0, 16.0];
    for eps in eps_values {
        let probe = execute(
            &db,
            &format!("FIND SIMILAR TO ROW 0 IN stocks USING mavg(20) ON BOTH EPSILON {eps}"),
        )
        .unwrap();
        let QueryOutput::Hits(hits) = probe.output else {
            unreachable!()
        };
        let answer = hits.len();
        // Index I/O = node reads + one record fetch per candidate during
        // postprocessing (the cost source of the paper's crossover).
        let index_pages = probe.stats.nodes_visited + probe.stats.candidates;
        let (t_index, _, _) = run_queries(
            &db,
            |i| format!("FIND SIMILAR TO ROW {i} IN stocks USING mavg(20) ON BOTH EPSILON {eps}"),
            10,
            3,
        );
        let (t_scan, _, rows_read) = run_queries(
            &db,
            |i| {
                format!(
                    "FIND SIMILAR TO ROW {i} IN stocks USING mavg(20) ON BOTH EPSILON {eps} FORCE SCAN"
                )
            },
            10,
            3,
        );
        row(&[
            answer.to_string(),
            ms(t_index),
            ms(t_scan),
            index_pages.to_string(),
            pages(rows_read, 128).to_string(),
        ]);
    }
    println!("(expected shape: selective queries read few pages through the index; as ε grows the candidate record fetches approach — and eventually pass — the sequential scan's fixed cost, the paper's ~1/3-of-relation crossover. In-memory wall-clock shows near-parity because both paths are CPU-bound here)");
}

/// Table 1: the spatial self-join under Tmavg20 with methods a–d.
fn table1(quick: bool) {
    println!("\n=== table1: self-join under mavg(20), methods a-d (1,067 stocks × 128 days) ===");
    let stocks = if quick { 300 } else { 1067 };
    let db = indexed_db(stock_relation("stocks", stocks, 128));
    // Calibrate ε to a small answer set, like the paper's 12 pairs.
    let mut eps = 0.0005;
    loop {
        let r = execute(
            &db,
            &format!("FIND PAIRS IN stocks USING mavg(20) EPSILON {eps} METHOD b"),
        )
        .unwrap();
        let QueryOutput::Pairs(p) = r.output else {
            unreachable!()
        };
        if (10..=80).contains(&p.len()) || eps > 2.0 {
            break;
        }
        eps *= if p.len() < 10 { 1.4 } else { 0.7 };
    }
    println!("epsilon = {eps:.4}");
    header(&["method", "time", "answer size", "note"]);
    for (m, note) in [
        ('a', "naive scan join"),
        ('b', "scan join + early abandon"),
        ('c', "index join, no transform"),
        ('d', "index join + transform"),
    ] {
        let query = format!("FIND PAIRS IN stocks USING mavg(20) EPSILON {eps} METHOD {m}");
        let (elapsed, result) = time_mean(1, || execute(&db, &query).unwrap());
        let QueryOutput::Pairs(p) = result.output else {
            unreachable!()
        };
        // The paper counts method d's output as ordered pairs (×2).
        let size = if m == 'd' {
            format!("{} (= {}x2 ordered)", p.len(), p.len())
        } else {
            p.len().to_string()
        };
        row(&[m.to_string(), ms(elapsed), size, note.to_string()]);
    }
    println!("(expected shape: b >> a via early abandoning; c,d >> b via the index; d slightly slower than c; c answers a different — untransformed — question)");
}

/// Appendix A demonstration: warp coefficients reproduce warped spectra.
fn warp_demo() {
    println!("\n=== warp: Example 1.2 and Equation 19 ===");
    let p = [20.0, 21.0, 20.0, 23.0];
    let s = simq_series::warp(&p, 2).unwrap();
    println!("warp((20,21,20,23), 2) = {s:?}");
    println!(
        "D(warp(p,2), figure-2-series) = {}",
        euclidean(&s, &[20.0, 20.0, 21.0, 21.0, 20.0, 20.0, 23.0, 23.0])
    );
    let coeffs = simq_series::warp_coefficients(p.len(), 2, p.len()).unwrap();
    let p_spec = simq_dsp::forward_real(&p);
    let s_spec = simq_dsp::forward_real(&s);
    header(&["f", "a_f * P_f", "S'_f", "|diff|"]);
    for f in 0..p.len() {
        let lhs = coeffs[f] * p_spec[f];
        row(&[
            f.to_string(),
            format!("{lhs}"),
            format!("{}", s_spec[f]),
            format!("{:.2e}", (lhs - s_spec[f]).abs()),
        ]);
    }
}

/// Examples 2.1–2.3: the distance cascades on simulated stock data.
fn ex2() {
    println!("\n=== ex2: distance cascades (Examples 2.1-2.3 on simulated stocks) ===");
    let market = simq_data::StockMarket::generate(
        &simq_data::MarketConfig {
            stocks: 200,
            sectors: 4,
            mirrored_fraction: 0.1,
            ..Default::default()
        },
        simq_bench::SEED,
    );
    use simq_data::StockKind;
    // Same-sector pair (Example 2.1).
    let (a, b) = (0..market.stocks.len())
        .flat_map(|i| ((i + 1)..market.stocks.len()).map(move |j| (i, j)))
        .find(|&(i, j)| {
            matches!(
                (market.stocks[i].kind, market.stocks[j].kind),
                (StockKind::Sectoral { sector: x }, StockKind::Sectoral { sector: y }) if x == y
            )
        })
        .unwrap();
    let pa = &market.stocks[a].prices;
    let pb = &market.stocks[b].prices;
    let na = normal_form(pa).unwrap();
    let nb = normal_form(pb).unwrap();
    println!(
        "Example 2.1 (same sector: {} vs {}):",
        market.stocks[a].name, market.stocks[b].name
    );
    println!("  original        D = {:8.2}", euclidean(pa, pb));
    println!("  normal form     D = {:8.2}", euclidean(&na, &nb));
    println!(
        "  20-day mavg     D = {:8.2}",
        euclidean(
            &moving_average(&na, 20).unwrap(),
            &moving_average(&nb, 20).unwrap()
        )
    );

    // Anti-correlated pair (Example 2.2).
    let (orig, mirror) = market
        .stocks
        .iter()
        .enumerate()
        .find_map(|(i, s)| match s.kind {
            StockKind::Mirror { of } => Some((of, i)),
            _ => None,
        })
        .unwrap();
    let no = normal_form(&market.stocks[orig].prices).unwrap();
    let nm = normal_form(&market.stocks[mirror].prices).unwrap();
    let reversed: Vec<f64> = nm.iter().map(|v| -v).collect();
    println!(
        "Example 2.2 (anti-correlated: {} vs {}):",
        market.stocks[orig].name, market.stocks[mirror].name
    );
    println!(
        "  original        D = {:8.2}",
        euclidean(&market.stocks[orig].prices, &market.stocks[mirror].prices)
    );
    println!("  normal form     D = {:8.2}", euclidean(&no, &nm));
    println!("  reversed        D = {:8.2}", euclidean(&no, &reversed));
    println!(
        "  20-day mavg     D = {:8.2}",
        euclidean(
            &moving_average(&no, 20).unwrap(),
            &moving_average(&reversed, 20).unwrap()
        )
    );

    // Unrelated pair (Example 2.3).
    let (u, v) = (0..market.stocks.len())
        .flat_map(|i| ((i + 1)..market.stocks.len()).map(move |j| (i, j)))
        .find(|&(i, j)| {
            matches!(
                (market.stocks[i].kind, market.stocks[j].kind),
                (StockKind::Sectoral { sector: x }, StockKind::Sectoral { sector: y }) if x != y
            )
        })
        .unwrap();
    println!(
        "Example 2.3 (different sectors: {} vs {}):",
        market.stocks[u].name, market.stocks[v].name
    );
    {
        let nu = normal_form(&market.stocks[u].prices).unwrap();
        let nv = normal_form(&market.stocks[v].prices).unwrap();
        println!("  normal form     D = {:8.2}", euclidean(&nu, &nv));
    }
    let mut cu = normal_form(&market.stocks[u].prices).unwrap();
    let mut cv = normal_form(&market.stocks[v].prices).unwrap();
    for round in 1..=10 {
        cu = moving_average(&cu, 20).unwrap();
        cv = moving_average(&cv, 20).unwrap();
        if [1, 2, 3, 10].contains(&round) {
            println!("  {round:2}x 20-day mavg D = {:8.2}", euclidean(&cu, &cv));
        }
    }
    println!("(expected shape: related pairs collapse, the unrelated pair's distance decays slowly — smoothing cannot fake similarity)");
}

/// Ablation: number of indexed coefficients k — filter power vs index
/// width.
fn ablation_k(quick: bool) {
    println!("\n=== abl-k: candidates and time vs number of indexed coefficients ===");
    let rows = if quick { 400 } else { 1067 };
    let base = stock_relation("s", rows, 128);
    header(&["k", "dims", "candidates", "answers", "index ms"]);
    for k in 1..=6usize {
        let scheme = FeatureScheme::new(k, Representation::Polar, true);
        let mut rel = simq_storage::SeriesRelation::new("s", 128, scheme);
        for r in base.rows() {
            rel.insert(r.name.clone(), r.raw.clone()).unwrap();
        }
        let db = indexed_db(rel);
        let queries: Vec<String> = (0..10)
            .map(|i| format!("FIND SIMILAR TO ROW {i} IN s USING mavg(20) ON BOTH EPSILON 2.0"))
            .collect();
        let (elapsed, (cand, ans)) = time_mean(3, || {
            let mut cand = 0u64;
            let mut ans = 0u64;
            for q in &queries {
                let r = execute(&db, q).unwrap();
                cand += r.stats.candidates;
                ans += r.stats.verified;
            }
            (cand / 10, ans / 10)
        });
        row(&[
            k.to_string(),
            (2 * k + 2).to_string(),
            cand.to_string(),
            ans.to_string(),
            ms(elapsed / 10),
        ]);
    }
    println!("(expected shape: candidates fall sharply with k, then flatten — the paper's k=2..3 sweet spot)");
}

/// Ablation: polar vs rectangular representation under a transformation
/// safe in both (reverse) — candidate counts should be comparable; under
/// mavg only polar can use the index at all.
fn ablation_rep(quick: bool) {
    println!("\n=== abl-rep: polar vs rectangular representation ===");
    let rows = if quick { 300 } else { 1000 };
    header(&["scheme", "transform", "path", "candidates"]);
    for (rep, name) in [
        (Representation::Polar, "polar"),
        (Representation::Rectangular, "rect"),
    ] {
        let scheme = FeatureScheme::new(2, rep, true);
        let mut rel = simq_storage::SeriesRelation::new("r", 128, scheme);
        let base = walk_relation("r", rows, 128);
        for r in base.rows() {
            rel.insert(r.name.clone(), r.raw.clone()).unwrap();
        }
        let db = indexed_db(rel);
        for t in ["reverse", "mavg(20)"] {
            let r = execute(
                &db,
                &format!("FIND SIMILAR TO ROW 0 IN r USING {t} ON BOTH EPSILON 2.0"),
            )
            .unwrap();
            // A range query plans one of two paths.
            let path = if r.plan.access == AccessPath::IndexScan {
                "IndexScan"
            } else {
                "SeqScan"
            };
            row(&[
                name.to_string(),
                t.to_string(),
                path.to_string(),
                r.stats.candidates.to_string(),
            ]);
        }
    }
    println!("(expected shape: reverse is index-served in both; mavg(20) only in polar — Theorems 2 and 3)");
}

/// Ablation: R* forced reinsertion and bulk loading vs incremental build,
/// and which dimensions STR cuts. Each tree answers the same rectangle
/// unwindowed (the statistics dimensions unbounded, as a range without
/// `MEAN/STD WITHIN`) and under a tight GK95 mean/std window.
fn ablation_tree(quick: bool) {
    println!("\n=== abl-tree: index construction strategies ===");
    use simq_index::{RTree, RTreeConfig, Rect};
    let rows = if quick { 1000 } else { 4000 };
    let rel = walk_relation("r", rows, 128);
    let scheme = rel.scheme().clone();
    let q = rel.row(0).unwrap().features.point.clone();
    let rect = scheme.search_rect(&q, 2.0);
    let windowed = scheme.search_rect_with_stats(&q, 2.0, Some((2.0, 1.0)));

    header(&["build", "build ms", "height", "nodes/query", "windowed"]);
    type Builder<'a> = Box<dyn Fn() -> RTree + 'a>;
    let configs: [(&str, Builder); 4] = [
        (
            "STR, coeffs",
            Box::new(|| rel.build_index(RTreeConfig::default())),
        ),
        (
            "STR, all dims",
            Box::new(|| {
                let items = rel.rows().enumerate();
                let items = items.map(|(pos, r)| (Rect::point(&r.features.point), pos as u64));
                let (config, all) = (RTreeConfig::default(), 0..scheme.dims());
                RTree::bulk_load(scheme.space(), config, items.collect(), all)
            }),
        ),
        (
            "insert +reinsert",
            Box::new(|| rel.build_index_incremental(RTreeConfig::default())),
        ),
        (
            "insert -reinsert",
            Box::new(|| {
                rel.build_index_incremental(RTreeConfig {
                    forced_reinsert: false,
                    ..RTreeConfig::default()
                })
            }),
        ),
    ];
    for (name, build) in configs {
        let (build_time, tree) = time_mean(1, &*build);
        let nodes = |rect: &Rect| tree.range(rect).1.nodes_visited.to_string();
        row(&[
            name.to_string(),
            ms(build_time),
            tree.height().to_string(),
            nodes(&rect),
            nodes(&windowed),
        ]);
    }
    println!("(windowed: the same rectangle with MEAN WITHIN 2 STD WITHIN 1)");
    println!("(expected shape: STR builds fastest and packs best; STR over the coefficients reads the fewest nodes unwindowed, and trees that also split on the mean and standard deviation read fewer under a tight window; disabling forced reinsertion degrades query node counts)");
}

/// Framework benchmark: DP edit distance vs the generic rewrite search.
fn framework() {
    println!("\n=== frame: edit-distance DP vs generic rewrite search ===");
    use simq_strings::{
        rewrite_distance, weighted_edit_distance, EditCosts, RewriteBudget, RuleSet,
    };
    // The search must exhaust every state cheaper than the answer, which
    // grows exponentially in the distance — the DP's raison d'être. Keep
    // the pairs in the regime where both terminate.
    let rules = RuleSet::unit_edits("abcd");
    let costs = EditCosts::default();
    let pairs = [
        ("abc", "acb"),
        ("abcd", "abd"),
        ("aabb", "abab"),
        ("abcd", "dcba"),
    ];
    header(&["pair", "DP dist", "search dist", "DP us", "search us"]);
    for (a, b) in pairs {
        let (t_dp, d_dp) = time_mean(50, || weighted_edit_distance(a, b, &costs));
        let (t_s, r) = time_mean(1, || {
            rewrite_distance(a, b, &rules, &RewriteBudget::with_cost(d_dp + 0.5))
        });
        row(&[
            format!("{a}/{b}"),
            format!("{d_dp}"),
            format!("{:?}", r.cost.unwrap_or(f64::NAN)),
            format!("{:.1}", t_dp.as_secs_f64() * 1e6),
            format!("{:.1}", t_s.as_secs_f64() * 1e6),
        ]);
    }
    println!("(expected shape: identical distances; the DP is orders of magnitude faster — the value of domain-specialized evaluation, the paper's core systems point)");
}
