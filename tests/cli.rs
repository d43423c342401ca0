//! CLI-level tests: the `simq` binary is spawned for real (via
//! `CARGO_BIN_EXE_simq`) and driven over stdin/argv, pinning the shell
//! behaviors unit tests cannot see — `\threads` validation, `;`-separated
//! batch lines, `\batch` collect mode and the non-interactive `--exec`
//! script path.

use std::io::Write;
use std::process::{Command, Stdio};

/// Runs the binary with `args`, feeding `stdin`; returns (stdout, stderr,
/// exit code).
fn run_cli(args: &[&str], stdin: &str) -> (String, String, i32) {
    run_cli_with(args, stdin, &[])
}

/// [`run_cli`] with extra environment variables. The durability and
/// listen variables are always scrubbed first: the spawned binary must
/// not take a developer's `SIMQ_WAL` as *its* startup directory.
fn run_cli_with(args: &[&str], stdin: &str, env: &[(&str, &str)]) -> (String, String, i32) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_simq"));
    cmd.env_remove("SIMQ_WAL").env_remove("SIMQ_LISTEN");
    for (k, v) in env {
        cmd.env(k, v);
    }
    let mut child = cmd
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("simq binary spawns");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(stdin.as_bytes())
        .expect("write stdin");
    let out = child.wait_with_output().expect("simq exits");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.code().unwrap_or(-1),
    )
}

#[test]
fn threads_rejects_zero_and_garbage_with_an_error() {
    let (stdout, _, code) = run_cli(
        &[],
        "\\threads 0\n\\threads garbage\n\\threads -3\n\\threads 2\n\\threads\n\\quit\n",
    );
    assert_eq!(code, 0);
    assert!(
        stdout.contains("error: invalid thread count \"0\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("error: invalid thread setting \"garbage\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("error: invalid thread setting \"-3\""),
        "{stdout}"
    );
    // The valid setting still lands, and bare \threads reports it.
    assert!(stdout.contains("parallelism: 2 threads"), "{stdout}");
}

#[test]
fn invalid_simq_threads_env_is_reported_not_silently_ignored() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_simq"))
        .env("SIMQ_THREADS", "0")
        .env_remove("SIMQ_WAL")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("simq binary spawns");
    child
        .stdin
        .as_mut()
        .expect("piped stdin")
        .write_all(b"\\quit\n")
        .expect("write stdin");
    let out = child.wait_with_output().expect("simq exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("ignoring SIMQ_THREADS") && stderr.contains("\"0\""),
        "{stderr}"
    );
}

#[test]
fn semicolon_line_runs_as_one_batch() {
    let (stdout, _, code) = run_cli(
        &[],
        "FIND SIMILAR TO ROW 1 IN walks EPSILON 1.0; FIND SIMILAR TO ROW 2 IN walks EPSILON 1.0\n\\quit\n",
    );
    assert_eq!(code, 0);
    assert!(stdout.contains("batch: 2 queries; nodes="), "{stdout}");
}

#[test]
fn batch_collect_mode_queues_and_runs() {
    let (stdout, _, code) = run_cli(
        &[],
        "\\batch\nFIND SIMILAR TO ROW 3 IN walks EPSILON 1.5\nFIND SIMILAR TO ROW 4 IN walks EPSILON 1.5\n\\batch show\n\\batch explain\n\\batch run\n\\quit\n",
    );
    assert_eq!(code, 0);
    assert!(stdout.contains("queued (2 pending"), "{stdout}");
    assert!(stdout.contains("[1] FIND SIMILAR TO ROW 4"), "{stdout}");
    assert!(stdout.contains("batch: 2 statements"), "{stdout}");
    assert!(stdout.contains("#1 · IndexScan · "), "{stdout}");
    assert!(stdout.contains("batch: 2 queries"), "{stdout}");
}

#[test]
fn trailing_semicolon_is_not_a_lex_error() {
    let (stdout, _, code) = run_cli(&[], "FIND SIMILAR TO ROW 1 IN walks EPSILON 1.0;\n\\quit\n");
    assert_eq!(code, 0);
    assert!(!stdout.contains("lex error"), "{stdout}");
    assert!(stdout.contains("hits:"), "{stdout}");
    // A line of only separators is ignored, not an error.
    let (stdout, _, _) = run_cli(&[], ";;\n\\quit\n");
    assert!(!stdout.contains("error"), "{stdout}");
}

#[test]
fn batch_run_on_empty_buffer_stays_in_collect_mode() {
    let (stdout, _, code) = run_cli(
        &[],
        "\\batch\n\\batch run\nFIND SIMILAR TO ROW 1 IN walks EPSILON 1.0\n\\batch run\n\\quit\n",
    );
    assert_eq!(code, 0);
    assert!(stdout.contains("nothing queued yet"), "{stdout}");
    // The empty run did not discard collect mode: the query queued and
    // the second run executed it.
    assert!(stdout.contains("queued (1 pending"), "{stdout}");
    assert!(stdout.contains("batch: 1 queries"), "{stdout}");
}

#[test]
fn exec_runs_a_script_and_exits_zero() {
    let (stdout, _, code) = run_cli(
        &[
            "--exec",
            "FIND SIMILAR TO ROW 5 IN walks EPSILON 1.0; FIND 3 NEAREST TO ROW 0 IN walks",
        ],
        "",
    );
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains("-- [0] FIND SIMILAR TO ROW 5"), "{stdout}");
    assert!(
        stdout.contains("-- [1] FIND 3 NEAREST TO ROW 0"),
        "{stdout}"
    );
    assert!(stdout.contains("batch: 2 queries"), "{stdout}");
}

#[test]
fn exec_with_a_failing_query_exits_nonzero() {
    let (stdout, _, code) = run_cli(
        &[
            "--exec",
            "FIND SIMILAR TO ROW 5 IN walks EPSILON 1.0; FIND SIMILAR TO ROW 5 IN nope EPSILON 1.0",
        ],
        "",
    );
    assert_eq!(code, 1, "{stdout}");
    assert!(stdout.contains("unknown relation"), "{stdout}");
}

#[test]
fn exec_without_a_script_is_a_usage_error() {
    let (_, stderr, code) = run_cli(&["--exec"], "");
    assert_eq!(code, 2);
    assert!(stderr.contains("usage"), "{stderr}");
}

#[test]
fn prepare_exec_and_sessions_commands_work() {
    let (stdout, _, code) = run_cli(
        &[],
        "\\prepare rq FIND SIMILAR TO ROW ? IN walks EPSILON ?\n\
         \\exec rq 5 1.0\n\
         \\exec rq 7 1.5\n\
         \\prepare nq FIND $k NEAREST TO ROW $row IN walks\n\
         \\exec nq k=3 row=10\n\
         \\sessions\n\\quit\n",
    );
    assert_eq!(code, 0);
    assert!(
        stdout.contains(
            "prepared `rq` with 2 parameters: ?1: integer (ROW id), ?2: number (EPSILON)"
        ),
        "{stdout}"
    );
    assert!(
        stdout.contains("prepared `nq` with 2 parameters: $k: integer (k), $row: integer (ROW id)"),
        "{stdout}"
    );
    assert_eq!(stdout.matches("; plan IndexScan; ").count(), 3, "{stdout}");
    assert!(
        stdout.contains("session: 2 prepared statements, 3 executions"),
        "{stdout}"
    );
}

#[test]
fn exec_reports_bind_errors_and_unknown_statements() {
    let (stdout, _, code) = run_cli(
        &[],
        "\\exec nothere 1\n\
         \\prepare rq FIND SIMILAR TO ROW ? IN walks EPSILON ?\n\
         \\exec rq 5\n\
         \\exec rq [1, 2] 1.0\n\
         \\exec rq 5 oops\n\\quit\n",
    );
    assert_eq!(code, 0);
    assert!(
        stdout.contains("unknown prepared statement \"nothere\""),
        "{stdout}"
    );
    assert!(
        stdout.contains("statement takes 2 positional parameters, got 1"),
        "{stdout}"
    );
    assert!(
        stdout.contains("expects an integer, got a series"),
        "{stdout}"
    );
    assert!(stdout.contains("bad number \"oops\""), "{stdout}");
}

#[test]
fn exec_binds_series_parameters_with_spaces() {
    // A 128-value series parameter bound from a bracketed literal with
    // spaces; the prepared query must execute (identity on itself).
    let series: Vec<String> = (0..128).map(|t| format!("{}", (t % 7) as f64)).collect();
    let input = format!(
        "\\prepare sq FIND SIMILAR TO ? IN walks EPSILON ?\n\\exec sq [{}] 1000\n\\quit\n",
        series.join(", ")
    );
    let (stdout, _, code) = run_cli(&[], &input);
    assert_eq!(code, 0);
    assert!(stdout.contains("?1: series (query series)"), "{stdout}");
    assert!(stdout.contains("hits:"), "{stdout}");
    assert!(!stdout.contains("error"), "{stdout}");
}

#[test]
fn shard_command_partitions_lists_and_merges_back() {
    let (stdout, _, code) = run_cli(
        &[],
        "\\shard walks 4\n\
         \\relations\n\
         FIND 3 NEAREST TO ROW 0 IN walks\n\
         \\shard walks 1\n\
         \\relations\n\
         \\shard walks 0\n\
         \\shard nope 2\n\
         \\shard\n\
         \\quit\n",
    );
    assert_eq!(code, 0);
    assert!(stdout.contains("sharded `walks` into 4 shards"), "{stdout}");
    // The listing shows index kind, shard count and per-shard row counts.
    assert!(
        stdout
            .contains("index: 4 \u{d7} R*-tree (one per shard), shards: 4 (250/250/250/250 rows)"),
        "{stdout}"
    );
    // Queries over the sharded relation still answer (row 0 finds itself).
    assert!(stdout.contains("3 hits:"), "{stdout}");
    // Merging back restores the single-tree listing.
    assert!(stdout.contains("sharded `walks` into 1 shard "), "{stdout}");
    assert!(stdout.contains("index: R*-tree\n"), "{stdout}");
    // Invalid uses produce explicit errors, not silence.
    assert!(
        stdout.contains("error: shard count must be a positive integer"),
        "{stdout}"
    );
    assert!(
        stdout.contains("error: unknown relation \"nope\""),
        "{stdout}"
    );
    assert!(stdout.contains("usage: \\shard <relation> <n>"), "{stdout}");
}

/// A saved database is a directory: `\save` writes the sharded layout
/// there and `\open` replaces the session's database with it. Replace,
/// not merge: a row inserted after the save is gone after the open, and
/// so is a relation the saved database never held.
#[test]
fn sharded_snapshot_roundtrips_through_save_and_open() {
    let scratch = std::env::temp_dir().join(format!("simq-cli-save-{}", std::process::id()));
    std::fs::remove_dir_all(&scratch).ok();
    std::fs::create_dir_all(&scratch).expect("temp dir");
    let dir = scratch.join("db");
    let dir_str = dir.to_str().expect("utf-8 temp path");
    let series: Vec<String> = (0..128).map(|i| format!("{}", 30 + i % 7)).collect();
    let (stdout, _, code) = run_cli(
        &[],
        &format!(
            "\\shard walks 3\n\\save {dir_str}\n\\insert walks AFTER [{}]\n\\open {dir_str}\n\\relations\nFIND 1 NEAREST TO NAME AFTER IN walks\n\\quit\n",
            series.join(", ")
        ),
    );
    assert_eq!(code, 0);
    assert!(stdout.contains("saved database to"), "{stdout}");
    assert!(stdout.contains("inserted id=1000"), "{stdout}");
    assert!(stdout.contains("opened durable database"), "{stdout}");
    // The reopened relation is still sharded 3 ways, without the row.
    assert!(stdout.contains("walks: 1000 series"), "{stdout}");
    assert!(stdout.contains("shards: 3"), "{stdout}");
    assert!(stdout.contains("unknown row name \"AFTER\""), "{stdout}");

    // A relation the saved database never held is gone after `\open`.
    let text = scratch.join("extra.txt");
    std::fs::write(
        &text,
        "# simq-relation v2\n# name=extra len=8 k=2 rep=polar stats=0\n0,E0,1,2,3,5,8,13,21,34\n",
    )
    .expect("text relation written");
    let (stdout, _, code) = run_cli(
        &[text.to_str().expect("utf-8 temp path")],
        &format!("\\relations\n\\open {dir_str}\n\\relations\n\\quit\n"),
    );
    std::fs::remove_dir_all(&scratch).ok();
    assert_eq!(code, 0);
    let (before, after) = stdout
        .split_once("opened durable database")
        .unwrap_or_else(|| panic!("{stdout}"));
    assert!(before.contains("extra: 1 series"), "{stdout}");
    assert!(!after.contains("extra"), "{stdout}");
    assert!(after.contains("shards: 3"), "{stdout}");
}

/// A single-file snapshot of an older release is not a database
/// directory: `\open` says so and the shell keeps answering on the
/// database it had.
#[test]
fn open_of_an_old_snapshot_file_is_an_error() {
    use similarity_queries::prelude::*;
    use similarity_queries::storage::snapshot;
    let path = std::env::temp_dir().join(format!("simq-cli-old-{}.simq", std::process::id()));
    let mut rel = SeriesRelation::new("old", 16, FeatureScheme::paper_default());
    rel.insert("O0", WalkGenerator::new(5).series(16)).unwrap();
    // The one-relation catalog the single-file format wrote.
    std::fs::write(&path, snapshot::to_bytes(&rel, None)).expect("old file written");
    let path_str = path.to_str().expect("utf-8 temp path");
    let (stdout, _, code) = run_cli(
        &[],
        &format!("\\open {path_str}\nFIND 1 NEAREST TO ROW 3 IN walks\n\\quit\n"),
    );
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 0);
    assert!(
        stdout.contains(&format!("no durable database at {path_str}")),
        "{stdout}"
    );
    assert!(stdout.contains("W0003"), "{stdout}");
}

/// Every runnable example in docs/QUERY_LANGUAGE.md, executed verbatim
/// against the demo relation — the reference doc cannot drift from the
/// implementation while this passes. Keep in sync with the doc.
#[test]
fn query_language_doc_examples_run() {
    let examples = [
        // Range queries
        "FIND SIMILAR TO ROW 7 IN walks EPSILON 2.0",
        "FIND SIMILAR TO NAME W0042 IN walks USING mavg(20) ON BOTH EPSILON 1.5",
        "FIND SIMILAR TO ROW 7 IN walks USING reverse THEN mavg(5) EPSILON 3",
        "FIND SIMILAR TO ROW 7 IN walks EPSILON 2 MEAN WITHIN 5 STD WITHIN 1",
        "FIND SIMILAR TO ROW 7 IN walks EPSILON 2 FORCE SCAN",
        // kNN queries
        "FIND 5 NEAREST TO ROW 3 IN walks",
        "FIND 5 NEAREST TO ROW 3 IN walks USING mavg(8) ON BOTH",
        "FIND 3 NEAREST TO NAME W0007 IN walks FORCE SCAN",
        // All-pairs joins
        "FIND PAIRS IN walks USING mavg(8) EPSILON 1.5 METHOD d",
        "FIND PAIRS IN walks USING mavg(8) EPSILON 1.5 METHOD b",
        "FIND PAIRS IN walks MATCHING mavg(5) AGAINST reverse EPSILON 2",
        "FIND PAIRS IN walks USING mavg(20) ON ONE EPSILON 2",
        // EXPLAIN
        "EXPLAIN FIND SIMILAR TO ROW 7 IN walks USING warp(2) EPSILON 1",
        "EXPLAIN FIND SIMILAR TO ROW 7 IN walks EPSILON 1 FORCE SCAN",
        "EXPLAIN FIND 5 NEAREST TO ROW 3 IN walks",
        // EXPLAIN ANALYZE
        "EXPLAIN ANALYZE FIND SIMILAR TO ROW 7 IN walks EPSILON 2.0",
        "EXPLAIN ANALYZE FIND 5 NEAREST TO ROW 3 IN walks",
        "EXPLAIN ANALYZE FIND PAIRS IN walks USING mavg(8) EPSILON 1.5 METHOD b",
        // Batches (one `;`-separated line = one batch)
        "FIND SIMILAR TO ROW 1 IN walks EPSILON 2; FIND SIMILAR TO ROW 2 IN walks EPSILON 2; FIND 5 NEAREST TO ROW 3 IN walks",
    ];
    let mut input = examples.join("\n");
    // Placeholder examples go through \prepare / \exec.
    input.push_str(
        "\n\\prepare p1 FIND SIMILAR TO ROW ? IN walks EPSILON ?\
         \n\\exec p1 7 2\
         \n\\prepare p2 FIND $k NEAREST TO ROW $row IN walks\
         \n\\exec p2 k=5 row=3\
         \n\\quit\n",
    );
    let (stdout, _, code) = run_cli(&[], &input);
    assert_eq!(code, 0);
    assert!(
        !stdout.contains("error"),
        "a documented example failed:\n{stdout}"
    );
    // Spot checks: hits, pairs, a rendered plan and the prepared runs.
    assert!(stdout.contains("hits:"), "{stdout}");
    assert!(stdout.contains("pairs:"), "{stdout}");
    assert!(stdout.contains("access: SeqScan"), "{stdout}");
    assert!(stdout.contains("access: IndexScan"), "{stdout}");
    assert!(stdout.contains("operators:"), "{stdout}");
    assert!(stdout.contains("range.descend"), "{stdout}");
    assert!(
        stdout.contains("prepared `p2` with 2 parameters"),
        "{stdout}"
    );
}

#[test]
fn wal_lifecycle_insert_crash_replay_checkpoint() {
    let dir = std::env::temp_dir().join(format!("simq-cli-wal-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_str = dir.to_str().expect("utf-8 temp path");

    // First run: attach a fresh WAL directory, insert one row, exit
    // WITHOUT checkpointing — the row exists only in the WAL tail.
    let series: Vec<String> = (0..128).map(|i| format!("{}", 30 + i % 7)).collect();
    let insert = format!(
        "\\insert walks WNEW [{}]\n\\wal\n\\quit\n",
        series.join(", ")
    );
    let (stdout, _, code) = run_cli_with(&[], &insert, &[("SIMQ_WAL", dir_str)]);
    assert_eq!(code, 0);
    assert!(stdout.contains("attached WAL directory"), "{stdout}");
    assert!(
        stdout.contains("inserted id=1000 into `walks` shard 0"),
        "{stdout}"
    );
    assert!(stdout.contains("WAL record synced"), "{stdout}");
    assert!(stdout.contains("dirty shards: 1 of 1"), "{stdout}");

    // Second run: reopen the directory — replay must bring the row
    // back and a query must see it. A replayed shard starts *clean*
    // (its WAL is its durable home), so a fresh write is what makes
    // the subsequent bare `\save` checkpoint rewrite the shard and
    // absorb the log.
    let script = format!(
        "FIND 1 NEAREST TO NAME WNEW IN walks\n\\insert walks WNEW2 [{}]\n\\save\n\\wal\n\\quit\n",
        series.join(", ")
    );
    let (stdout, _, code) = run_cli_with(&[], &script, &[("SIMQ_WAL", dir_str)]);
    assert_eq!(code, 0);
    assert!(
        stdout.contains("replayed 1 WAL record"),
        "replay not reported:\n{stdout}"
    );
    assert!(
        stdout.contains("WNEW"),
        "replayed row not queryable:\n{stdout}"
    );
    assert!(stdout.contains("inserted id=1001"), "{stdout}");
    assert!(stdout.contains("checkpoint at epoch"), "{stdout}");
    assert!(stdout.contains("1 shard rewritten"), "{stdout}");

    // Third run: the checkpoint absorbed the log — nothing to replay,
    // but both inserted rows are in the snapshot.
    let (stdout, _, code) = run_cli_with(
        &[],
        "FIND 2 NEAREST TO NAME WNEW2 IN walks\n\\wal\n\\quit\n",
        &[("SIMQ_WAL", dir_str)],
    );
    assert_eq!(code, 0);
    assert!(stdout.contains("replayed 0 WAL records"), "{stdout}");
    assert!(stdout.contains("WNEW2"), "{stdout}");
    assert!(stdout.contains("dirty shards: 0 of 1"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn insert_validates_arguments_before_touching_anything() {
    let (stdout, _, code) = run_cli(
        &[],
        "\\insert\n\\insert walks\n\\insert walks X\n\\insert walks X [1, 2]\n\\insert nosuch X [1, 2]\n\\quit\n",
    );
    assert_eq!(code, 0);
    assert!(stdout.contains("usage: \\insert"), "{stdout}");
    assert!(stdout.contains("dimension mismatch"), "{stdout}");
    assert!(stdout.contains("unknown relation"), "{stdout}");
}

#[test]
fn non_finite_insert_is_refused_and_the_shell_keeps_answering() {
    let mut series: Vec<String> = (0..128).map(|i| format!("{}", 30 + i % 7)).collect();
    series[5] = "NaN".into();
    let script = format!(
        "\\insert walks BAD [{}]\nFIND 3 NEAREST TO ROW 0 IN walks\n\\quit\n",
        series.join(", ")
    );
    let (stdout, stderr, code) = run_cli(&[], &script);
    assert_eq!(code, 0, "{stderr}");
    assert!(stdout.contains("error: series is not finite"), "{stdout}");
    assert!(!stdout.contains("inserted"), "{stdout}");
    assert!(stdout.contains("3 hits:"), "{stdout}");
}

/// A warp factor is bounded by the series length (the demo's is 128):
/// `warp(10000000)` once built its coefficients for seconds while holding
/// the shell; now it and `warp(129)` are refused at once, `warp(128)`
/// runs, and the shell keeps answering.
#[test]
fn warp_factor_above_the_series_length_is_refused_and_the_shell_keeps_answering() {
    let (stdout, stderr, code) = run_cli(
        &[],
        "FIND SIMILAR TO ROW 0 IN walks USING warp(129) EPSILON 1\n\
         FIND 2 NEAREST TO ROW 0 IN walks USING warp(10000000)\n\
         FIND 2 NEAREST TO ROW 0 IN walks USING warp(128)\n\
         FIND 3 NEAREST TO ROW 0 IN walks\n\\quit\n",
    );
    assert_eq!(code, 0, "{stderr}");
    for m in [129, 10000000] {
        let refused = format!("error: warp factor {m} exceeds the series length 128");
        assert!(stdout.contains(&refused), "{stdout}");
    }
    assert!(stdout.contains("2 hits:"), "{stdout}");
    assert!(stdout.contains("3 hits:"), "{stdout}");
}

#[test]
fn moving_average_window_above_the_series_length_is_refused_and_the_next_statement_answers() {
    // The window is checked before its kernel is allocated: a window of
    // 10¹⁵ asked for 8 PB and aborted the process.
    let (stdout, stderr, code) = run_cli(
        &[
            "--exec",
            "FIND 2 NEAREST TO ROW 0 IN walks USING mavg(1000000000000000); \
             FIND 3 NEAREST TO ROW 0 IN walks",
        ],
        "",
    );
    assert_eq!(code, 1, "{stdout}{stderr}");
    let refused = "error: window 1000000000000000 invalid for series of length 128";
    assert!(stdout.contains(refused), "{stdout}");
    assert!(stdout.contains("3 hits:"), "{stdout}");
}

#[test]
fn semicolon_insert_runs_as_one_grouped_batch() {
    let row = |k: usize| {
        (0..128)
            .map(|i| format!("{}", 30 + (i + k) % 5))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let script = format!(
        "\\shard walks 2\n\\insert walks B0 [{}]; B1 [{}]; B2 [{}]\nFIND 1 NEAREST TO NAME B1 IN walks\n\\quit\n",
        row(0),
        row(1),
        row(2),
    );
    let (stdout, _, code) = run_cli(&[], &script);
    assert_eq!(code, 0);
    assert!(
        stdout.contains("batch inserted 3 rows into `walks` across 2 shards (ids 1000..=1002"),
        "{stdout}"
    );
    // No WAL attached: nothing logged, nothing synced — but the rows
    // are live and queryable immediately.
    assert!(stdout.contains("0 WAL syncs for 0 records"), "{stdout}");
    assert!(stdout.contains("B1"), "{stdout}");
    assert!(!stdout.contains("row 0 failed"), "{stdout}");
}

/// A `simq` process driven line by line: stdin stays open between sends,
/// and a reader thread accumulates stdout so tests can interleave shell
/// commands with *external* filesystem actions — something
/// [`run_cli_with`]'s write-everything-then-wait shape cannot do.
struct InteractiveCli {
    child: std::process::Child,
    stdin: std::process::ChildStdin,
    stdout: std::sync::Arc<std::sync::Mutex<String>>,
    stderr: std::sync::Arc<std::sync::Mutex<String>>,
    /// End of the last matched pattern: `expect` only searches new output,
    /// so repeated similar lines (two inserts, two checkpoints) cannot
    /// satisfy a later expectation with earlier output.
    cursor: usize,
}

impl InteractiveCli {
    fn spawn(env: &[(&str, &str)]) -> Self {
        Self::spawn_with_args(&[], env)
    }

    fn spawn_with_args(args: &[&str], env: &[(&str, &str)]) -> Self {
        use std::io::Read;
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_simq"));
        cmd.args(args);
        cmd.env_remove("SIMQ_WAL").env_remove("SIMQ_LISTEN");
        for (k, v) in env {
            cmd.env(k, v);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("simq binary spawns");
        let stdin = child.stdin.take().expect("piped stdin");
        let reader = |mut pipe: Box<dyn Read + Send>| {
            let buf = std::sync::Arc::new(std::sync::Mutex::new(String::new()));
            let shared = buf.clone();
            std::thread::spawn(move || {
                let mut bytes = [0u8; 4096];
                while let Ok(n) = pipe.read(&mut bytes) {
                    if n == 0 {
                        break;
                    }
                    shared
                        .lock()
                        .expect("pipe buffer lock")
                        .push_str(&String::from_utf8_lossy(&bytes[..n]));
                }
            });
            buf
        };
        let stdout = reader(Box::new(child.stdout.take().expect("piped stdout")));
        let stderr = reader(Box::new(child.stderr.take().expect("piped stderr")));
        Self {
            child,
            stdin,
            stdout,
            stderr,
            cursor: 0,
        }
    }

    /// Sends one shell line (newline appended).
    fn send(&mut self, line: &str) {
        self.stdin
            .write_all(format!("{line}\n").as_bytes())
            .expect("write stdin line");
        self.stdin.flush().expect("flush stdin");
    }

    /// Polls stdout until `pattern` appears after the previous match
    /// (panics with the full transcript after 30 s).
    fn expect(&mut self, pattern: &str) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        loop {
            {
                let out = self.stdout.lock().expect("stdout buffer lock");
                if let Some(at) = out[self.cursor.min(out.len())..].find(pattern) {
                    self.cursor = self.cursor.min(out.len()) + at + pattern.len();
                    return;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "timed out waiting for {pattern:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
                self.stdout.lock().expect("stdout buffer lock"),
                self.stderr.lock().expect("stderr buffer lock"),
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }
    }

    /// `\quit`s, waits for exit and returns (stdout, exit code).
    fn finish(mut self) -> (String, i32) {
        self.send("\\quit");
        drop(self.stdin);
        let status = self.child.wait().expect("simq exits");
        std::thread::sleep(std::time::Duration::from_millis(50));
        let out = self.stdout.lock().expect("stdout buffer lock").clone();
        (out, status.code().unwrap_or(-1))
    }
}

/// The poisoned-write-path lifecycle through the real binary: a DDL
/// auto-checkpoint fails (its snapshot rename target is blocked by a
/// directory), which must poison inserts with an actionable error — not
/// silently drop durability — until an explicit `\wal checkpoint`
/// succeeds and re-opens the write path.
#[test]
fn poisoned_write_path_recovers_via_manual_checkpoint() {
    let dir = std::env::temp_dir().join(format!("simq-cli-poison-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let dir_str = dir.to_str().expect("utf-8 temp path").to_string();

    let mut cli = InteractiveCli::spawn(&[("SIMQ_WAL", &dir_str)]);
    cli.expect("attached WAL directory");

    // The attach checkpointed the demo catalog at epoch 1 with densely
    // assigned file ids; re-sharding is a shape change, so its automatic
    // checkpoint writes shard 0 of the NEXT file id at the NEXT epoch.
    // Planting a directory at that exact path makes `write_atomic`'s
    // rename fail — the cheapest deterministic stand-in for a full disk.
    let (mut max_file_id, mut max_epoch) = (0u64, 1u64);
    for entry in std::fs::read_dir(&dir).expect("WAL dir listable") {
        let name = entry.expect("dir entry").file_name();
        let name = name.to_string_lossy();
        if let Some((id, rest)) = name.strip_prefix('r').and_then(|r| r.split_once(".s")) {
            if let Ok(id) = id.parse::<u64>() {
                max_file_id = max_file_id.max(id);
            }
            if let Some(epoch) = rest
                .split_once(".e")
                .and_then(|(_, e)| e.split_once('.'))
                .and_then(|(e, _)| e.parse::<u64>().ok())
            {
                max_epoch = max_epoch.max(epoch);
            }
        }
    }
    let blocker = dir.join(format!("r{}.s0.e{}.snap", max_file_id + 1, max_epoch + 1));
    std::fs::create_dir(&blocker).expect("blocker directory created");

    // The DDL itself succeeds in memory; the poison is deferred to the
    // write path, and `\wal` status must surface it loudly.
    cli.send("\\shard walks 2");
    cli.expect("sharded `walks` into 2 shards");
    cli.send("\\wal");
    cli.expect("WRITE PATH POISONED");

    let series: Vec<String> = (0..128).map(|i| format!("{}", 30 + i % 7)).collect();
    let insert = format!("\\insert walks PHOENIX [{}]", series.join(", "));
    cli.send(&insert);
    cli.expect("write path poisoned by a failed checkpoint");

    // Operator clears the blockage; an explicit checkpoint recovers
    // (same epoch the failed attempt targeted — nothing was committed).
    std::fs::remove_dir(&blocker).expect("blocker directory removed");
    cli.send("\\wal checkpoint");
    cli.expect("checkpoint at epoch 2");
    cli.send(&insert);
    cli.expect("inserted id=1000 into `walks` shard 0");

    let (stdout, code) = cli.finish();
    assert_eq!(code, 0, "{stdout}");

    // The recovered insert is durable: a fresh process replays it.
    let (stdout, _, code) = run_cli_with(
        &[],
        "FIND 1 NEAREST TO NAME PHOENIX IN walks\n\\quit\n",
        &[("SIMQ_WAL", &dir_str)],
    );
    assert_eq!(code, 0);
    assert!(stdout.contains("replayed 1 WAL record"), "{stdout}");
    assert!(stdout.contains("PHOENIX"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The network service through the real binary, end to end: one `simq
/// --serve` process and one interactive `simq` process that `\connect`s
/// to it. Queries, `\prepare`/`\exec`/`\prepared` run server-side with
/// the same printed shape as local execution; local-only commands hint
/// instead of silently touching the wrong database; `\disconnect`
/// returns to the local catalog; and `quit` on the server's stdin
/// drains and stops it cleanly.
#[test]
fn serve_and_connect_roundtrip_between_two_processes() {
    let mut server = InteractiveCli::spawn_with_args(&["--serve", "127.0.0.1:0"], &[]);
    server.expect("serving on 127.0.0.1:");
    // Port 0 picked a free port; parse the full address off the banner.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    let addr = loop {
        {
            let out = server.stdout.lock().expect("stdout buffer lock");
            if let Some(at) = out.find("serving on ") {
                let rest = &out[at + "serving on ".len()..];
                if let Some(eol) = rest.find('\n') {
                    break rest[..eol].trim().to_string();
                }
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "server banner line never completed"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    };

    let mut client = InteractiveCli::spawn(&[]);
    client.expect("type a query");
    client.send(&format!("\\connect {addr}"));
    client.expect("connected to simq-server/");
    // A remote query prints the same rows + stat line as local mode.
    client.send("FIND 3 NEAREST TO ROW 5 IN walks");
    client.expect("3 hits:");
    client.expect("id=5");
    client.expect("plan IndexScan");
    // Prepared statements live in the connection's server-side registry.
    client.send("\\prepare knn FIND ? NEAREST TO ROW $r IN walks");
    client.expect("prepared `knn` with 2 parameters");
    client.send("\\exec knn 2 r=7");
    client.expect("2 hits:");
    client.expect("; plan IndexScan; ");
    client.send("\\prepared");
    client.expect("knn: FIND ? NEAREST TO ROW $r IN walks");
    // Local-only commands hint rather than run against the wrong db.
    client.send("\\relations");
    client.expect("local-only");
    // Back to the local database: the remote registry is not ours.
    client.send("\\disconnect");
    client.expect("disconnected from");
    client.send("\\prepared");
    client.expect("no prepared statements");
    let (stdout, code) = client.finish();
    assert_eq!(code, 0, "{stdout}");

    // `quit` on the serving process's stdin stops it cleanly.
    server.send("quit");
    server.expect("server stopped");
    let status = server.child.wait().expect("server process exits");
    assert_eq!(status.code(), Some(0));
}

/// Starts `simq --serve 127.0.0.1:0` over the demo corpus and returns the
/// process with the address it bound.
fn serve_demo() -> (InteractiveCli, String) {
    let mut server = InteractiveCli::spawn_with_args(&["--serve", "127.0.0.1:0"], &[]);
    server.expect("EOF or `quit` stops the server");
    let out = server.stdout.lock().expect("stdout buffer lock").clone();
    let addr = out
        .lines()
        .find_map(|line| line.strip_prefix("serving on "))
        .expect("serve banner names the address")
        .trim()
        .to_string();
    (server, addr)
}

/// The lines a script printed after `marker`'s line, prompts removed and
/// each stat line's wall time masked (`(0.123 ms; …` → `(… ms; …`).
fn transcript(stdout: &str, marker: &str) -> Vec<String> {
    let at = stdout.find(marker).expect("marker line printed");
    let after = &stdout[at..];
    let after = &after[after.find('\n').map_or(after.len(), |eol| eol + 1)..];
    after
        .replace("simq remote> ", "")
        .replace("simq> ", "")
        .lines()
        .map(|line| match (line.strip_prefix('('), line.find(" ms;")) {
            (Some(_), Some(end)) => format!("(…{}", &line[end..]),
            _ => line.to_string(),
        })
        .collect()
}

/// One script, asked of the local database and of a `simq --serve` over
/// the same demo corpus after `\connect`: the printed lines are identical
/// once wall times are masked — queries, EXPLAIN, errors, prepared
/// statements, bind errors and the registry listing alike.
#[test]
fn local_and_remote_transcripts_are_identical() {
    let script = "FIND SIMILAR TO ROW 7 IN walks EPSILON 2.0\n\
                  FIND 5 NEAREST TO ROW 3 IN walks\n\
                  EXPLAIN FIND 5 NEAREST TO ROW 3 IN walks\n\
                  FIND SIMILAR TO ROW 5 IN nope EPSILON 1.0\n\
                  \\prepare rq FIND SIMILAR TO ROW ? IN walks EPSILON ?\n\
                  \\prepare nq FIND $k NEAREST TO ROW $row IN walks\n\
                  \\exec rq 7 2.0\n\
                  \\exec nq k=3 row=10\n\
                  \\exec rq 5\n\
                  \\prepared\n\
                  \\exec nothere 1\n\
                  \\quit\n";
    let (local, _, code) = run_cli(&[], script);
    assert_eq!(code, 0, "{local}");

    let (mut server, addr) = serve_demo();
    let (remote, _, code) = run_cli(&[], &format!("\\connect {addr}\n{script}"));
    assert_eq!(code, 0, "{remote}");
    server.send("quit");
    server.expect("server stopped");
    server.child.wait().expect("server process exits");

    assert!(remote.contains("simq remote> "), "{remote}");
    let local = transcript(&local, "type a query");
    assert_eq!(local, transcript(&remote, "connected to simq-server/"));
    let local = local.join("\n");
    for line in [
        "5 hits:",
        "access: IndexScan",
        "error: unknown relation",
        "prepared `nq` with 2 parameters: $k: integer (k), $row: integer (ROW id)",
        "error: statement takes 2 positional parameters, got 1",
        "  nq: FIND $k NEAREST TO ROW $row IN walks\n  rq: FIND SIMILAR TO ROW ? IN walks EPSILON ?",
        "error: unknown prepared statement \"nothere\"",
    ] {
        assert!(local.contains(line), "{line:?} missing from\n{local}");
    }
}

/// A slow-query threshold too large for a `Duration` is a bad setting,
/// not a panic: the shell reports it and keeps running, and the
/// environment variable is ignored with a warning.
#[test]
fn slowlog_threshold_that_overflows_is_an_error() {
    let (stdout, stderr, code) = run_cli(&[], "\\slowlog 1e300\n\\slowlog\n\\quit\n");
    assert_eq!(code, 0, "{stderr}");
    assert!(
        stdout.contains("error: invalid slow-query threshold \"1e300\""),
        "{stdout}"
    );
    assert!(stdout.contains("slow-query log: off"), "{stdout}");

    let (_, stderr, code) = run_cli_with(&[], "\\quit\n", &[("SIMQ_SLOWLOG", "1e300")]);
    assert_eq!(code, 0, "{stderr}");
    assert!(stderr.contains("ignoring SIMQ_SLOWLOG"), "{stderr}");
}

/// `\connect` while `\batch` collects would strand the queue, so it is
/// refused; the batch keeps collecting and runs locally.
#[test]
fn connect_is_refused_while_a_batch_collects() {
    let (stdout, _, code) = run_cli(
        &[],
        "\\batch\n\\connect 127.0.0.1:1\nFIND SIMILAR TO ROW 1 IN walks EPSILON 1.0\n\\batch run\n\\quit\n",
    );
    assert_eq!(code, 0);
    assert!(
        stdout.contains("a batch is collecting; \\batch run or \\batch cancel first"),
        "{stdout}"
    );
    assert!(!stdout.contains("connected to"), "{stdout}");
    assert!(stdout.contains("queued (1 pending"), "{stdout}");
    assert!(stdout.contains("batch: 1 queries"), "{stdout}");
}
