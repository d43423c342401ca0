//! The repo benchmark.
//!
//! ```text
//! simq-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! simq-ledger --smoke
//! ```
//!
//! One command runs one workload, checks its answers, prints every
//! metric by name and unit, and ends with the result object
//! `BENCHMARK.json` describes. `--trace 0` reports the end-to-end
//! metrics, `--trace 1` the per-layer ledger. See `README.md` beside
//! this package for what each workload and metric means, and `NOISE.md`
//! for why the run protocol looks the way it does.

mod affinity;
mod check;
mod decompose;
mod gen;
mod harness;
mod ingest;
mod layers;
mod queryops;
mod rank;
mod select;
mod served;
mod stats;
mod trace;

use std::process::ExitCode;

use harness::{Outcome, Sizes, Workload};

/// Every workload the command runs. All but `served_mixed` are listed
/// in `BENCHMARK.json`.
const WORKLOADS: [&str; 4] = [
    select::Select::NAME,
    rank::Rank::NAME,
    served::Served::NAME,
    ingest::Ingest::NAME,
];

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn usage() -> String {
    format!(
        "usage: simq-ledger --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n       simq-ledger --smoke [--seed <n>]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 15.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".into());
    }
    Ok(args)
}

fn run_one<W: Workload>(args: &Args, sizes: &Sizes, trace: bool) -> Outcome {
    if trace {
        // Smoke runs measure nothing worth keeping, so they leave no file.
        let file =
            (!args.smoke).then(|| harness::out_dir().join(format!("trace-{}.jsonl", W::NAME)));
        if let Some(dir) = file.as_ref().and_then(|f| f.parent()) {
            std::fs::create_dir_all(dir).ok();
        }
        harness::run_traced::<W>(args.seed, sizes, file.as_deref())
    } else {
        harness::run_untraced::<W>(args.seed, args.seconds, sizes)
    }
}

fn run_named(name: &str, args: &Args, sizes: &Sizes, trace: bool) -> Option<Outcome> {
    Some(match name {
        select::Select::NAME => run_one::<select::Select>(args, sizes, trace),
        rank::Rank::NAME => run_one::<rank::Rank>(args, sizes, trace),
        served::Served::NAME => run_one::<served::Served>(args, sizes, trace),
        ingest::Ingest::NAME => run_one::<ingest::Ingest>(args, sizes, trace),
        _ => return None,
    })
}

fn main() -> ExitCode {
    let code = run();
    // Leave nothing behind but a trace file: `bench/out` goes when empty.
    std::fs::remove_dir(harness::out_dir()).ok();
    code
}

fn run() -> ExitCode {
    let mut args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match affinity::pin_to_one_cpu() {
        Some(cpu) => println!("pinned to cpu {cpu}"),
        None => println!("not pinned to a cpu"),
    }
    if args.smoke {
        // Every workload, untraced then traced, on the tiny sizes.
        args.seconds = 0.0;
        let mut all_correct = true;
        for name in WORKLOADS {
            for trace in [false, true] {
                let o = run_named(name, &args, &Sizes::SMOKE, trace).expect("known workload");
                print!("{}", harness::report(&o));
                println!("{}", harness::result_line(&o));
                all_correct &= o.correct;
            }
        }
        return if all_correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let Some(name) = args.workload.clone() else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let Some(outcome) = run_named(&name, &args, &Sizes::FULL, args.trace) else {
        eprintln!("unknown workload {name}\n{}", usage());
        return ExitCode::from(2);
    };
    print!("{}", harness::report(&outcome));
    println!("{}", harness::result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Tracer;

    /// Warm-up, plain and traced passes of one workload must agree on
    /// every exact counter and every count-derived layer metric, and
    /// nothing may fail a check.
    fn counts_repeat<W: Workload>() {
        let scratch = harness::scratch_dir(&format!("test-{}", W::NAME));
        let inputs = W::generate(3, &Sizes::SMOKE);
        let (mut w, seconds) = W::setup(&inputs, &scratch);
        assert!(seconds > 0.0);
        let warm = w.pass(&inputs, true);
        let plain = w.pass(&inputs, false);
        let traced = w.trace_pass(&inputs, &mut Tracer::new());
        let again = w.trace_pass(&inputs, &mut Tracer::new());
        drop(w);
        std::fs::remove_dir_all(&scratch).ok();

        assert!(!warm.counts.is_empty(), "{} counts something", W::NAME);
        for (what, pass) in [
            ("plain", &plain),
            ("traced", &traced),
            ("traced again", &again),
        ] {
            assert_eq!(warm.counts, pass.counts, "{}: {what} pass", W::NAME);
            assert_eq!(warm.ops(), pass.ops(), "{}: {what} pass", W::NAME);
            assert_eq!(pass.failed, 0, "{}: {what} pass", W::NAME);
        }
        assert_eq!(warm.failed, 0, "{}", W::NAME);

        let is_count = |name: &str| {
            harness::PER_LAYER
                .iter()
                .any(|(n, unit)| *n == name && matches!(*unit, "count" | "share"))
        };
        let counts_of = |pass: &harness::Pass| -> Vec<(&'static str, f64)> {
            pass.layers
                .iter()
                .filter(|(n, _)| is_count(n))
                .copied()
                .collect()
        };
        assert!(
            !counts_of(&traced).is_empty(),
            "{} derives count metrics",
            W::NAME
        );
        assert_eq!(counts_of(&traced), counts_of(&again), "{}", W::NAME);
    }

    #[test]
    fn embedded_select_counts_repeat() {
        counts_repeat::<select::Select>();
    }

    #[test]
    fn embedded_rank_counts_repeat() {
        counts_repeat::<rank::Rank>();
    }

    #[test]
    fn served_mixed_counts_repeat() {
        counts_repeat::<served::Served>();
    }

    #[test]
    fn logged_ingest_counts_repeat() {
        counts_repeat::<ingest::Ingest>();
    }

    /// `BENCHMARK.json` lists the workloads whose end-to-end metrics
    /// hold its bounds; `served_mixed` runs from the same command but is
    /// not among them (README, *Workloads*).
    #[test]
    fn benchmark_json_lists_the_bounded_workloads() {
        let json = include_str!("../../BENCHMARK.json");
        for name in WORKLOADS {
            let listed = json.contains(&format!("{{\"name\": \"{name}\""));
            assert_eq!(listed, name != served::Served::NAME, "{name}");
        }
    }
}
