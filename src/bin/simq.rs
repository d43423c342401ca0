//! `simq` — an interactive shell for similarity queries.
//!
//! ```sh
//! cargo run --release --bin simq                     # demo corpus
//! cargo run --release --bin simq -- relation.txt …   # import text relations
//! SIMQ_DB=db.simq cargo run --release --bin simq     # open a snapshot
//! cargo run --release --bin simq -- --exec "q1; q2"  # non-interactive batch
//! ```
//!
//! Each line is a query in the language of `simq-query`
//! (`FIND SIMILAR TO … EPSILON …`, `FIND k NEAREST TO …`,
//! `FIND PAIRS … METHOD …`, `EXPLAIN …`) or one of the shell commands
//! `\relations`, `\rows <relation>`, `\shard <relation> <n>`,
//! `\save [file]`, `\open <file>`, `\export <relation> <path>`,
//! `\threads <n|auto|serial>`, `\batch [run|explain|show|cancel]`,
//! `\prepare <name> <query>`, `\exec <name> [args…]`, `\sessions`,
//! `\metrics [--json]`, `\trace on|off`, `\slowlog [<ms>|off]`,
//! `\help`, `\quit`. The full query grammar is documented in
//! `docs/QUERY_LANGUAGE.md` (whose examples run in `tests/cli.rs`).
//!
//! Observability: `EXPLAIN ANALYZE <query>` executes the query
//! instrumented and prints the operator tree with per-node wall time
//! (results bitwise identical to the uninstrumented run); `\trace on`
//! (or `SIMQ_TRACE=1`) prints a span tree after every query; `\metrics`
//! dumps the process-wide metrics registry (counters, gauges, latency
//! histograms with p50/p95/p99), `--json` for a stable machine-readable
//! schema; `\slowlog <ms>` (or `SIMQ_SLOWLOG=<ms>`) keeps the most
//! recent queries that ran over the threshold.
//!
//! The shell runs every query through one `Session`. `\prepare` names a
//! parameterized statement (`?` positional, `$name` named placeholders),
//! parsed once; `\exec` binds arguments — numbers, `[v1, v2, …]` series,
//! `name=value` pairs — and executes it; `\sessions` prints the
//! session's cumulative statistics.
//!
//! Batched execution: a line of `;`-separated queries runs as **one
//! batch** — parsed and planned together, answered from one catalog
//! generation, with the thread budget spent across the statements (see
//! `simq-query::batch`). `\batch` begins collect mode: subsequent query
//! lines are queued, `\batch run` executes them all as one batch,
//! `\batch explain` previews each statement's plan. Non-interactively, `--exec "<q1>; <q2>; …"` executes a batch
//! script and exits (exit code 1 when any query failed).
//!
//! Sharding: `\shard <relation> <n>` re-partitions a relation into `n`
//! shards (row id mod n), each with its own series store and R*-tree —
//! inserts touch one small tree and queries fan out one work unit per
//! shard, with results bitwise identical to the unsharded relation;
//! `\shard <relation> 1` merges back. `\relations` shows the layout.
//!
//! Persistence: `\save <file>` writes the whole database — every relation
//! with its precomputed spectra and its R*-tree structure — to a paged
//! binary snapshot; `\open <file>` loads one without re-extracting
//! features or re-bulk-loading indexes. The `SIMQ_DB` environment variable
//! names a default snapshot: it is opened on startup when it exists, and
//! `\save` with no argument writes back to it. `\export` keeps the v2 text
//! format as the human-readable interchange path.
//!
//! Durability: the `SIMQ_WAL` environment variable names a durable
//! directory. When it already holds a database (a `MANIFEST` file), it is
//! opened on startup — shard checkpoints load, WAL tails replay, torn
//! tails are repaired — and the shell reports what replay recovered.
//! Otherwise the directory is created and the loaded catalog checkpointed
//! into it. Either way every `\insert` is appended (and synced) to the
//! owning shard's write-ahead log *before* it is applied, so an
//! acknowledged insert survives a crash at any instant. `\wal` shows the
//! write-path status, `\wal <dir>` attaches mid-session, `\wal
//! checkpoint` (and `\save` with no argument while attached) commits a
//! checkpoint — rewriting only the shards that changed.
//!
//! The `SIMQ_THREADS` environment variable (`4`, `auto`, `serial`) sets
//! the initial execution parallelism.
//!
//! Network service: `simq --serve <addr>` (or `SIMQ_LISTEN=<addr>`)
//! binds the loaded database behind the wire protocol of `simq-server`
//! and serves concurrent clients until stdin closes (or `quit`);
//! `\connect <host:port>` flips the interactive shell into a remote
//! client of such a server — query lines, `\prepare`, `\exec`,
//! `\prepared` and `\insert` run server-side with the same printed
//! output (results travel as `f64` bit patterns, so they are bitwise
//! identical to local execution), and `\disconnect` returns to the
//! local database. `docs/WIRE_PROTOCOL.md` specifies the protocol.

use similarity_queries::data::WalkGenerator;
use similarity_queries::obs::{metrics, span};
use similarity_queries::prelude::*;
use similarity_queries::query::batch::{split_batch_script, BatchExecutor, BatchResult};
use similarity_queries::query::QueryOutput;
use similarity_queries::query::StoredRelation;
use similarity_queries::storage::persist;
use simq_client::{Client, ClientError};
use std::collections::HashMap;
use std::io::{self, BufRead, Write};

/// Parses a parallelism word: a thread count (≥ 1), `auto`, or `serial`.
///
/// # Errors
/// A human-readable description of why the word is not a valid setting —
/// zero, negative, fractional and non-numeric words are all rejected
/// explicitly rather than ignored.
fn parse_parallelism(word: &str) -> Result<Parallelism, String> {
    match word {
        "serial" | "1" => Ok(Parallelism::Serial),
        "auto" => Ok(Parallelism::Auto),
        n => match n.parse::<usize>() {
            Ok(0) => Err(format!(
                "invalid thread count {word:?}: must be at least 1 (or `serial`, `auto`)"
            )),
            Ok(count) => Ok(Parallelism::Fixed(count)),
            Err(_) => Err(format!(
                "invalid thread setting {word:?}: expected a count, `auto` or `serial`"
            )),
        },
    }
}

/// Parses the `SIMQ_SLOWLOG` setting: a threshold in milliseconds
/// (fractional allowed), or `off`/empty for disabled.
fn parse_slowlog(word: &str) -> Result<Option<std::time::Duration>, String> {
    match word.trim() {
        "" | "off" => Ok(None),
        ms => match ms.parse::<f64>() {
            Ok(v) if v >= 0.0 && v.is_finite() => {
                Ok(Some(std::time::Duration::from_secs_f64(v / 1e3)))
            }
            _ => Err(format!(
                "invalid slow-query threshold {word:?}: expected milliseconds or `off`"
            )),
        },
    }
}

fn main() {
    if std::env::var("SIMQ_TRACE").is_ok_and(|v| !v.is_empty() && v != "0") {
        span::set_tracing(true);
        println!("span tracing: on (from SIMQ_TRACE)");
    }
    let slowlog_threshold = match std::env::var("SIMQ_SLOWLOG") {
        Ok(setting) => match parse_slowlog(&setting) {
            Ok(t) => {
                if let Some(t) = t {
                    println!(
                        "slow-query log: threshold {:.3} ms (from SIMQ_SLOWLOG)",
                        t.as_secs_f64() * 1e3
                    );
                }
                t
            }
            Err(why) => {
                eprintln!("ignoring SIMQ_SLOWLOG: {why}");
                None
            }
        },
        Err(_) => None,
    };
    let mut db = Database::new();
    if let Ok(setting) = std::env::var("SIMQ_THREADS") {
        match parse_parallelism(setting.trim()) {
            Ok(p) => {
                db.set_parallelism(p);
                println!("parallelism: {p} (from SIMQ_THREADS)");
            }
            Err(why) => eprintln!("ignoring SIMQ_THREADS: {why}"),
        }
    }
    // A durable directory named by SIMQ_WAL that already holds a database
    // is opened first: its checkpoints + replayed WAL tails *are* the
    // catalog, so the demo corpus and SIMQ_DB are skipped.
    let wal_dir = std::env::var("SIMQ_WAL").ok().filter(|p| !p.is_empty());
    let mut opened_durable = false;
    if let Some(dir) = &wal_dir {
        if std::path::Path::new(dir).join("MANIFEST").exists() {
            match Database::open_durable(dir) {
                Ok((opened, replay)) => {
                    let parallelism = db.parallelism();
                    db = opened;
                    db.set_parallelism(parallelism);
                    println!(
                        "opened durable database {dir} ({} relations; replayed {} WAL record{}{})",
                        db.relation_names().len(),
                        replay.records_applied,
                        if replay.records_applied == 1 { "" } else { "s" },
                        if replay.records_dropped > 0 || replay.wal_files_repaired > 0 {
                            format!(
                                "; repaired {} torn log{}, {} record{} unrecoverable",
                                replay.wal_files_repaired,
                                if replay.wal_files_repaired == 1 {
                                    ""
                                } else {
                                    "s"
                                },
                                replay.records_dropped,
                                if replay.records_dropped == 1 { "" } else { "s" },
                            )
                        } else {
                            String::new()
                        },
                    );
                    opened_durable = true;
                }
                Err(e) => {
                    eprintln!("cannot open durable database {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    let default_snapshot = std::env::var("SIMQ_DB").ok().filter(|p| !p.is_empty());
    let mut opened_snapshot = opened_durable;
    if let Some(path) = default_snapshot.as_deref().filter(|_| !opened_durable) {
        if std::path::Path::new(path).exists() {
            match db.load_snapshot(path) {
                Ok(count) => {
                    println!("opened snapshot {path} ({count} relations, from SIMQ_DB)");
                    opened_snapshot = true;
                }
                Err(e) => {
                    eprintln!("cannot open snapshot {path}: {e}");
                    std::process::exit(1);
                }
            }
        } else {
            println!("SIMQ_DB={path} does not exist yet; \\save will create it");
        }
    }

    // Argument scan: `--exec <script>` runs a `;`-separated batch and
    // exits, `--serve <addr>` serves the loaded database over TCP;
    // every other argument is a text relation to import.
    let mut exec_script: Option<String> = None;
    let mut serve_addr = std::env::var("SIMQ_LISTEN").ok().filter(|a| !a.is_empty());
    let mut files: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--exec" || arg == "-e" {
            match args.next() {
                Some(script) => exec_script = Some(script),
                None => {
                    eprintln!("usage: simq --exec \"<query>[; <query>…]\"");
                    std::process::exit(2);
                }
            }
        } else if arg == "--serve" {
            match args.next() {
                Some(addr) => serve_addr = Some(addr),
                None => {
                    eprintln!("usage: simq --serve <host:port>   (port 0 picks a free port)");
                    std::process::exit(2);
                }
            }
        } else {
            files.push(arg);
        }
    }

    if files.is_empty() && !opened_snapshot {
        let mut gen = WalkGenerator::new(42);
        let mut rel = SeriesRelation::new("walks", 128, FeatureScheme::paper_default());
        for i in 0..1000 {
            rel.insert(format!("W{i:04}"), gen.series(128))
                .expect("random walks are never constant");
        }
        db.add_relation_indexed(rel);
        println!("loaded demo relation `walks` (1000 × 128, indexed)");
    } else {
        for path in &files {
            match persist::load(path) {
                Ok(rel) => {
                    println!(
                        "loaded `{}` ({} × {}, indexed) from {path}",
                        rel.name(),
                        rel.len(),
                        rel.series_len()
                    );
                    db.add_relation_indexed(rel);
                }
                Err(e) => {
                    eprintln!("cannot load {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    // A fresh SIMQ_WAL directory attaches *after* the catalog is loaded:
    // the attach checkpoints every relation so the directory starts
    // self-contained, and later inserts log to per-shard WAL tails.
    if let Some(dir) = &wal_dir {
        if !db.is_durable() {
            match db.attach_wal(dir) {
                Ok(report) => println!(
                    "attached WAL directory {dir} (checkpointed {} shard{} at epoch {})",
                    report.shards_written,
                    if report.shards_written == 1 { "" } else { "s" },
                    report.epoch,
                ),
                Err(e) => {
                    eprintln!("cannot attach WAL directory {dir}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }

    if let Some(addr) = serve_addr {
        // Serve mode: the database moves behind the wire protocol and
        // stdin becomes the shutdown control (EOF or `quit` drains
        // in-flight queries, closes connections, and exits cleanly).
        let server = match simq_server::Server::bind(&addr, db) {
            Ok(server) => server,
            Err(e) => {
                eprintln!("cannot serve on {addr}: {e}");
                std::process::exit(1);
            }
        };
        // Tests bind port 0 and parse the chosen port from this line.
        println!("serving on {}", server.local_addr());
        println!("EOF or `quit` stops the server");
        io::stdout().flush().ok();
        let stdin = io::stdin();
        let mut line = String::new();
        loop {
            line.clear();
            match stdin.lock().read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) if matches!(line.trim(), "quit" | "q" | "exit" | "\\quit" | "\\q") => break,
                Ok(_) => {}
            }
        }
        server.shutdown();
        println!("server stopped");
        std::process::exit(0);
    }

    if let Some(script) = exec_script {
        // Non-interactive batch execution: run, report, exit.
        let session = Session::new(&db);
        session.set_slow_query_threshold(slowlog_threshold);
        let ok = run_batch(&session, &split_batch_script(&script));
        std::process::exit(if ok { 0 } else { 1 });
    }
    println!("type a query, or \\help");

    // The shell session: owns the database and accumulates the
    // statistics `\sessions` reports.
    let mut session = Session::new(db);
    session.set_slow_query_threshold(slowlog_threshold);
    // Named prepared statements (`\prepare` / `\exec`).
    let mut statements: HashMap<String, Prepared> = HashMap::new();

    // `\batch` collect mode: when `Some`, query lines are queued instead
    // of executed, until `\batch run` / `\batch cancel`.
    let mut batch_buffer: Option<Vec<String>> = None;

    // `\connect` remote mode: when `Some`, query lines and the prepared-
    // statement commands run on the connected server instead of locally.
    let mut remote: Option<Client> = None;

    let stdin = io::stdin();
    loop {
        print!(
            "{}",
            match (&batch_buffer, &remote) {
                (Some(pending), _) => format!("simq batch[{}]> ", pending.len()),
                (None, Some(_)) => "simq remote> ".to_string(),
                (None, None) => "simq> ".to_string(),
            }
        );
        io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("read error: {e}");
                break;
            }
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(cmd) = line.strip_prefix('\\') {
            if !shell_command(
                &mut session,
                &mut statements,
                &mut remote,
                cmd,
                default_snapshot.as_deref(),
                &mut batch_buffer,
            ) {
                break;
            }
            continue;
        }
        if let Some(pending) = &mut batch_buffer {
            pending.extend(split_batch_script(line));
            println!("queued ({} pending; \\batch run to execute)", pending.len());
            continue;
        }
        // `;` separates batch queries — a single query with a trailing
        // `;` is still one query, not a lex error.
        let parts = split_batch_script(line);
        if let Some(client) = remote.as_mut() {
            // Remote mode: each query runs on the server (the server
            // groups writes, not read batches — queries go one by one).
            let mut lost = false;
            for query in &parts {
                if !run_remote_query(client, query) {
                    lost = true;
                    break;
                }
            }
            if lost {
                println!("connection lost; back to the local database");
                remote = None;
            }
            continue;
        }
        if parts.len() > 1 {
            run_batch(&session, &parts);
            continue;
        }
        let Some(query) = parts.into_iter().next() else {
            continue; // the line was only separators
        };
        let start = std::time::Instant::now();
        match session.execute_text(&query) {
            Ok(result) => {
                let elapsed = start.elapsed();
                print_output(&result.output);
                println!(
                    "({:.3} ms; plan {:?}; nodes={} rows={} candidates={} threads={})",
                    elapsed.as_secs_f64() * 1e3,
                    result.plan.access,
                    result.stats.nodes_visited,
                    result.stats.rows_scanned,
                    result.stats.candidates,
                    result.stats.threads_used,
                );
                print_trace_if_on();
            }
            Err(e) => println!("error: {e}"),
        }
    }
}

/// With `\trace on`, drains this thread's span records after a query and
/// prints the collected tree (EXPLAIN ANALYZE drains its own records, so
/// an analyzed query leaves nothing here).
fn print_trace_if_on() {
    if !span::tracing_enabled() {
        return;
    }
    let records = span::take_records();
    if records.is_empty() {
        return;
    }
    println!("  trace:");
    for line in span::render_tree(&records).lines() {
        println!("    {line}");
    }
}

/// Prints one query's result rows (shared by single and batch execution).
fn print_output(output: &QueryOutput) {
    match output {
        QueryOutput::Hits(hits) => {
            println!("{} hits:", hits.len());
            for h in hits.iter().take(20) {
                println!("  {:<12} id={:<6} distance={:.4}", h.name, h.id, h.distance);
            }
            if hits.len() > 20 {
                println!("  … {} more", hits.len() - 20);
            }
        }
        QueryOutput::Pairs(pairs) => {
            println!("{} pairs:", pairs.len());
            for p in pairs.iter().take(20) {
                println!("  ({}, {}) distance={:.4}", p.a, p.b, p.distance);
            }
            if pairs.len() > 20 {
                println!("  … {} more", pairs.len() - 20);
            }
        }
        QueryOutput::Plan(text) => println!("{text}"),
        // The ANALYZE report already embeds the plan tree and timings; the
        // inner result rows are summarized by the report's `stats:` line.
        QueryOutput::Analyzed { report, .. } => println!("{report}"),
    }
}

/// Executes a batch of query texts through the session (executions count
/// toward `\sessions`), printing per-query results and the summed work
/// counters. Returns true when every query succeeded.
fn run_batch<D: std::borrow::Borrow<Database>>(session: &Session<D>, queries: &[String]) -> bool {
    if queries.is_empty() {
        println!("batch is empty");
        return true;
    }
    let texts: Vec<&str> = queries.iter().map(String::as_str).collect();
    let start = std::time::Instant::now();
    let BatchResult { results, stats } = session.execute_batch_texts(&texts);
    let elapsed = start.elapsed();
    let mut ok = true;
    for (i, (text, result)) in queries.iter().zip(&results).enumerate() {
        println!("-- [{i}] {text}");
        match result {
            Ok(r) => print_output(&r.output),
            Err(e) => {
                ok = false;
                println!("error: {e}");
            }
        }
    }
    println!(
        "(batch: {} queries; nodes={} rows={} candidates={} verified={} threads={}; {:.3} ms)",
        queries.len(),
        stats.nodes_visited,
        stats.rows_scanned,
        stats.candidates,
        stats.verified,
        stats.threads_used,
        elapsed.as_secs_f64() * 1e3,
    );
    ok
}

/// Prints a remote query result exactly as the local path would: the
/// rows, then the stat line built from the server's plan/stat report
/// (the access string is the server's `Debug` rendering of the same
/// `AccessPath` the local stat line formats).
fn print_remote_result(result: &simq_server::RemoteResult, elapsed: std::time::Duration) {
    print_output(&result.output);
    println!(
        "({:.3} ms; plan {}; nodes={} rows={} candidates={} threads={})",
        elapsed.as_secs_f64() * 1e3,
        result.access,
        result.stats.nodes_visited,
        result.stats.rows_scanned,
        result.stats.candidates,
        result.stats.threads_used,
    );
}

/// Runs one query on the connected server, printing the same output as
/// local execution. Returns false when the connection itself failed
/// (the caller drops back to the local database); server-side query
/// errors print and return true, like local errors.
fn run_remote_query(client: &mut Client, query: &str) -> bool {
    let start = std::time::Instant::now();
    match client.query(query) {
        Ok(result) => {
            print_remote_result(&result, start.elapsed());
            true
        }
        Err(ClientError::Remote { message, .. }) => {
            println!("error: {message}");
            true
        }
        Err(e) => {
            println!("error: {e}");
            false
        }
    }
}

/// `\prepare` while connected: registers the statement on the server
/// and prints the signature the server reports (same format as local).
fn remote_prepare(client: &mut Client, cmd: &str) {
    let rest = cmd.strip_prefix("prepare").unwrap_or("").trim();
    let Some((name, text)) = rest.split_once(char::is_whitespace) else {
        println!("usage: \\prepare <name> <query with ? or $name placeholders>");
        return;
    };
    match client.prepare(name, text.trim()) {
        Ok(signature) => println!(
            "prepared `{name}` with {} parameter{}{}",
            signature.len(),
            if signature.len() == 1 { "" } else { "s" },
            if signature.is_empty() {
                String::new()
            } else {
                format!(": {}", signature.join(", "))
            }
        ),
        Err(ClientError::Remote { message, .. }) => println!("error: {message}"),
        Err(e) => println!("error: {e}"),
    }
}

/// `\exec` while connected: binds and executes on the server.
fn remote_exec(client: &mut Client, cmd: &str) {
    let rest = cmd.strip_prefix("exec").unwrap_or("").trim();
    let (name, args) = match rest.split_once(char::is_whitespace) {
        Some((name, args)) => (name, args),
        None if !rest.is_empty() => (rest, ""),
        _ => {
            println!("usage: \\exec <name> [arg…] (number, [series], or name=value)");
            return;
        }
    };
    let (positional, named) = match parse_exec_args(args) {
        Ok(parsed) => parsed,
        Err(why) => {
            println!("error: {why}");
            return;
        }
    };
    let start = std::time::Instant::now();
    match client.exec(name, positional, named) {
        Ok(result) => {
            print_output(&result.output);
            println!(
                "({:.3} ms; plan {}; nodes={} rows={})",
                start.elapsed().as_secs_f64() * 1e3,
                result.access,
                result.stats.nodes_visited,
                result.stats.rows_scanned,
            );
        }
        Err(ClientError::Remote { message, .. }) => println!("error: {message}"),
        Err(e) => println!("error: {e}"),
    }
}

/// `\insert` while connected: the rows travel to the server's
/// coalescing durable write path; the acknowledgment means applied
/// (and WAL-synced when the server is durable).
fn remote_insert(client: &mut Client, cmd: &str) {
    let usage = "usage: \\insert <relation> <name> [v1, v2, …][; <name> [v1, v2, …]]…";
    let rest = cmd.strip_prefix("insert").unwrap_or("").trim();
    let Some((relation, rest)) = rest.split_once(char::is_whitespace) else {
        println!("{usage}");
        return;
    };
    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    for part in rest.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let Some((name, series_text)) = part.split_once(char::is_whitespace) else {
            println!("{usage}");
            return;
        };
        match parse_exec_args(series_text.trim()) {
            Ok((positional, named)) => match (positional.as_slice(), named.is_empty()) {
                ([Value::Series(series)], true) => rows.push((name.to_string(), series.clone())),
                _ => {
                    println!("{usage}");
                    return;
                }
            },
            Err(why) => {
                println!("error: {why}");
                return;
            }
        }
    }
    if rows.is_empty() {
        println!("{usage}");
        return;
    }
    let start = std::time::Instant::now();
    match client.insert(relation, rows) {
        Ok(report) => {
            match (report.ids.iter().min(), report.ids.iter().max()) {
                (Some(lo), Some(hi)) => println!(
                    "inserted {} row{} into `{relation}` across {} shard{} (ids {lo}..={hi}; {} WAL record{}, {} group sync{}; {:.3} ms)",
                    report.ids.len(),
                    if report.ids.len() == 1 { "" } else { "s" },
                    report.shards_touched,
                    if report.shards_touched == 1 { "" } else { "s" },
                    report.wal_records,
                    if report.wal_records == 1 { "" } else { "s" },
                    report.wal_syncs,
                    if report.wal_syncs == 1 { "" } else { "s" },
                    start.elapsed().as_secs_f64() * 1e3,
                ),
                _ => println!("inserted 0 rows into `{relation}`"),
            }
            for (idx, why) in &report.failed {
                println!("  row {idx} failed: {why}");
            }
        }
        Err(ClientError::Remote { message, .. }) => println!("error: {message}"),
        Err(e) => println!("error: {e}"),
    }
}

/// Positional and named (`name=value`) arguments of one `\exec` line.
type ExecArgs = (Vec<Value>, Vec<(String, Value)>);

/// Parses `\exec` arguments: whitespace-separated values, each optionally
/// prefixed `name=` for named parameters. A value is a number or a
/// bracketed series `[v1, v2, …]` (spaces and/or commas separate the
/// elements; brackets may contain spaces).
fn parse_exec_args(rest: &str) -> Result<ExecArgs, String> {
    let bytes = rest.as_bytes();
    let mut positional = Vec::new();
    let mut named: Vec<(String, Value)> = Vec::new();
    let mut i = 0usize;
    while i < bytes.len() {
        while i < bytes.len() && bytes[i].is_ascii_whitespace() {
            i += 1;
        }
        if i >= bytes.len() {
            break;
        }
        // Optional `name=` prefix.
        let token_start = i;
        let mut name: Option<String> = None;
        if bytes[i].is_ascii_alphabetic() || bytes[i] == b'_' {
            let ns = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            if i < bytes.len() && bytes[i] == b'=' {
                name = Some(rest[ns..i].to_string());
                i += 1;
            } else {
                i = token_start;
            }
        }
        let value = if i < bytes.len() && bytes[i] == b'[' {
            let vs = i;
            while i < bytes.len() && bytes[i] != b']' {
                i += 1;
            }
            if i >= bytes.len() {
                return Err("unterminated series literal".into());
            }
            i += 1;
            let inner = &rest[vs + 1..i - 1];
            let mut values = Vec::new();
            for part in inner
                .split(|c: char| c == ',' || c.is_whitespace())
                .filter(|s| !s.is_empty())
            {
                values.push(
                    part.parse::<f64>()
                        .map_err(|_| format!("bad number {part:?} in series literal"))?,
                );
            }
            Value::Series(values)
        } else {
            let ts = i;
            while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
                i += 1;
            }
            let token = &rest[ts..i];
            Value::Number(
                token
                    .parse::<f64>()
                    .map_err(|_| format!("bad number {token:?} (series need [brackets])"))?,
            )
        };
        match name {
            Some(n) => named.push((n, value)),
            None => positional.push(value),
        }
    }
    Ok((positional, named))
}

/// Renders one signature slot for `\prepare` output.
fn describe_slot(i: usize, slot: &similarity_queries::query::Slot) -> String {
    match &slot.name {
        Some(name) => format!("${name}: {} ({})", slot.ty, slot.context),
        None => format!("?{}: {} ({})", i + 1, slot.ty, slot.context),
    }
}

/// Handles a backslash command; returns false to quit.
fn shell_command(
    session: &mut Session,
    statements: &mut HashMap<String, Prepared>,
    remote: &mut Option<Client>,
    cmd: &str,
    default_snapshot: Option<&str>,
    batch_buffer: &mut Option<Vec<String>>,
) -> bool {
    // Remote mode intercepts every command with a server-side
    // equivalent; commands that only make sense against the local
    // database print a hint instead of silently ignoring the server.
    if let Some(client) = remote.as_mut() {
        match cmd.split_whitespace().next().unwrap_or("") {
            // These read or set process-local state, not the database.
            "help" | "metrics" | "trace" | "slowlog" => {}
            "q" | "quit" | "exit" => {
                if let Some(client) = remote.take() {
                    client.goodbye().ok();
                }
                return false;
            }
            "connect" => {
                println!(
                    "already connected to {}; \\disconnect first",
                    client.server()
                );
                return true;
            }
            "disconnect" => {
                if let Some(client) = remote.take() {
                    let server = client.server().to_string();
                    match client.goodbye() {
                        Ok(()) => println!("disconnected from {server}"),
                        Err(e) => println!("disconnected from {server} (close failed: {e})"),
                    }
                }
                return true;
            }
            "prepared" => {
                match client.list_prepared() {
                    Ok(entries) if entries.is_empty() => {
                        println!(
                            "no prepared statements on this connection; \\prepare <name> <query>"
                        );
                    }
                    Ok(entries) => {
                        for (name, text) in entries {
                            println!("  {name}: {text}");
                        }
                    }
                    Err(e) => println!("error: {e}"),
                }
                return true;
            }
            "prepare" => {
                remote_prepare(client, cmd);
                return true;
            }
            "exec" => {
                remote_exec(client, cmd);
                return true;
            }
            "insert" => {
                remote_insert(client, cmd);
                return true;
            }
            other => {
                println!("\\{other} is local-only; \\disconnect to leave the remote session");
                return true;
            }
        }
    }

    // `\prepare` and `\exec` need the raw remainder of the line (query
    // text and series literals contain spaces), so they are handled
    // before the whitespace-split command dispatch.
    if let Some(rest) = cmd.strip_prefix("prepare") {
        if rest.is_empty() || rest.starts_with(char::is_whitespace) {
            let rest = rest.trim();
            let Some((name, text)) = rest.split_once(char::is_whitespace) else {
                println!("usage: \\prepare <name> <query with ? or $name placeholders>");
                return true;
            };
            match session.prepare(text.trim()) {
                Ok(p) => {
                    let slots: Vec<String> = p
                        .signature()
                        .iter()
                        .enumerate()
                        .map(|(i, s)| describe_slot(i, s))
                        .collect();
                    println!(
                        "prepared `{name}` with {} parameter{}{}",
                        p.signature().len(),
                        if p.signature().len() == 1 { "" } else { "s" },
                        if slots.is_empty() {
                            String::new()
                        } else {
                            format!(": {}", slots.join(", "))
                        }
                    );
                    statements.insert(name.to_string(), p);
                }
                Err(e) => println!("error: {e}"),
            }
            return true;
        }
    }
    if let Some(rest) = cmd.strip_prefix("exec") {
        if rest.is_empty() || rest.starts_with(char::is_whitespace) {
            let rest = rest.trim();
            let (name, args) = match rest.split_once(char::is_whitespace) {
                Some((name, args)) => (name, args),
                None if !rest.is_empty() => (rest, ""),
                _ => {
                    println!("usage: \\exec <name> [arg…] (number, [series], or name=value)");
                    return true;
                }
            };
            let Some(prepared) = statements.get(name) else {
                println!("unknown prepared statement {name:?}; \\prepare it first");
                return true;
            };
            let (positional, named) = match parse_exec_args(args) {
                Ok(parsed) => parsed,
                Err(why) => {
                    println!("error: {why}");
                    return true;
                }
            };
            let named_refs: Vec<(&str, Value)> =
                named.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
            let start = std::time::Instant::now();
            let outcome = prepared
                .bind_all(&positional, &named_refs)
                .and_then(|bound| session.execute(&bound));
            match outcome {
                Ok(result) => {
                    print_output(&result.output);
                    println!(
                        "({:.3} ms; plan {:?}; nodes={} rows={})",
                        start.elapsed().as_secs_f64() * 1e3,
                        result.plan.access,
                        result.stats.nodes_visited,
                        result.stats.rows_scanned,
                    );
                }
                Err(e) => println!("error: {e}"),
            }
            return true;
        }
    }

    // `\insert` also needs the raw remainder: its series literal
    // `[v1, v2, …]` contains spaces.
    if let Some(rest) = cmd.strip_prefix("insert") {
        if rest.is_empty() || rest.starts_with(char::is_whitespace) {
            let usage = "usage: \\insert <relation> <name> [v1, v2, …][; <name> [v1, v2, …]]…";
            let rest = rest.trim();
            let Some((relation, rest)) = rest.split_once(char::is_whitespace) else {
                println!("{usage}");
                return true;
            };
            // `;` separates rows: one row is the classic single insert,
            // several run as one grouped batch (one WAL sync per shard).
            let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
            for part in rest.split(';') {
                let part = part.trim();
                if part.is_empty() {
                    continue;
                }
                let Some((name, series_text)) = part.split_once(char::is_whitespace) else {
                    println!("{usage}");
                    return true;
                };
                match parse_exec_args(series_text.trim()) {
                    Ok((positional, named)) => match (positional.as_slice(), named.is_empty()) {
                        ([Value::Series(series)], true) => {
                            rows.push((name.to_string(), series.clone()));
                        }
                        _ => {
                            println!("{usage}");
                            return true;
                        }
                    },
                    Err(why) => {
                        println!("error: {why}");
                        return true;
                    }
                }
            }
            let start = std::time::Instant::now();
            match rows.len() {
                0 => println!("{usage}"),
                1 => {
                    let (name, series) = rows.pop().expect("one row");
                    match session.insert(relation, name, series) {
                        Ok((report, _stats)) => println!(
                            "inserted id={} into `{relation}` shard {} ({} tree node{} built, {}; {:.3} ms)",
                            report.id,
                            report.shard,
                            report.nodes_built,
                            if report.nodes_built == 1 { "" } else { "s" },
                            if report.wal_appended {
                                "WAL record synced"
                            } else {
                                "no WAL attached"
                            },
                            start.elapsed().as_secs_f64() * 1e3,
                        ),
                        Err(e) => println!("error: {e}"),
                    }
                }
                _ => match session.insert_batch(relation, rows) {
                    Ok((report, stats)) => {
                        let ids: Vec<u64> = report.acked.iter().map(|&(_, r)| r.id).collect();
                        println!(
                            "batch inserted {} row{} into `{relation}` across {} shard{} (ids {}..={}; {} WAL sync{} for {} record{}; {} tree node{} built; {:.3} ms)",
                            report.acked.len(),
                            if report.acked.len() == 1 { "" } else { "s" },
                            report.shards_touched,
                            if report.shards_touched == 1 { "" } else { "s" },
                            ids.iter().min().expect("acked is non-empty"),
                            ids.iter().max().expect("acked is non-empty"),
                            stats.wal_syncs,
                            if stats.wal_syncs == 1 { "" } else { "s" },
                            stats.wal_records,
                            if stats.wal_records == 1 { "" } else { "s" },
                            report.nodes_built,
                            if report.nodes_built == 1 { "" } else { "s" },
                            start.elapsed().as_secs_f64() * 1e3,
                        );
                        for (idx, why) in &report.failed {
                            println!("  row {idx} failed: {why}");
                        }
                    }
                    Err(e) => println!("error: {e}"),
                },
            }
            return true;
        }
    }

    let mut parts = cmd.split_whitespace();
    match parts.next() {
        Some("q" | "quit" | "exit") => return false,
        Some("connect") => match parts.next() {
            Some(addr) => match Client::connect(addr) {
                Ok(client) => {
                    println!(
                        "connected to {} at {addr} (catalog generation {})",
                        client.server(),
                        client.generation()
                    );
                    *remote = Some(client);
                }
                Err(e) => println!("cannot connect to {addr}: {e}"),
            },
            None => println!("usage: \\connect <host:port>"),
        },
        Some("disconnect") => println!("not connected; \\connect <host:port> first"),
        Some("prepared") => {
            if statements.is_empty() {
                println!("no prepared statements; \\prepare <name> <query>");
            } else {
                let mut names: Vec<&String> = statements.keys().collect();
                names.sort();
                for name in names {
                    println!("  {name}: {}", statements[name].text());
                }
            }
        }
        Some("help") => {
            println!(
                "queries:\n  FIND SIMILAR TO (ROW <id> | NAME <name> | [v1, v2, …]) IN <rel> \\\n      [USING <t> [THEN <t>]* [ON BOTH]] EPSILON <e> \\\n      [MEAN WITHIN <m>] [STD WITHIN <s>] [FORCE SCAN|INDEX]\n  FIND <k> NEAREST TO <source> IN <rel> [USING …]\n  FIND PAIRS IN <rel> [USING <t> [ON ONE] | MATCHING <t> AGAINST <t>] \\\n      EPSILON <e> [METHOD a|b|c|d]\n  EXPLAIN <query>\n  EXPLAIN ANALYZE <query>   (execute instrumented; per-operator timings)\ntransformations: identity, mavg(w), wmavg(w1, …), reverse, shift(c), scale(k), warp(m)\nshell: \\relations  \\rows <rel>  \\insert <rel> <name> [v1, v2, …][; …]\n       \\shard <rel> <n>  \\save [file]  \\open <file>\n       \\export <rel> <path>  \\threads <n|auto|serial>\n       \\batch [run|explain|show|cancel]  \\wal [dir|checkpoint]\n       \\prepare <name> <query>  \\exec <name> [args…]  \\prepared\n       \\connect <host:port>  \\disconnect  \\sessions\n       \\metrics [--json]  \\trace [on|off]  \\slowlog [<ms>|off]  \\quit\nprepared statements: queries may hold ? (positional) and $name (named)\n  placeholders in the source, EPSILON, k, ROW and MEAN/STD slots;\n  \\prepare parses once, \\exec binds arguments (numbers, [v1, v2, …]\n  series, name=value pairs), plans and executes; \\sessions counts the\n  shell session's statements, executions and slow queries\nbatches: a line of `;`-separated queries runs as one batch (one parse/plan\n  pass, one catalog generation, threads spent across statements);\n  \\batch collects queries line by line, \\batch run executes them,\n  \\batch explain previews each statement's plan\nsharding: \\shard <rel> <n> partitions a relation into n shards, each with\n  its own R*-tree — inserts touch one small tree, and queries fan out\n  one work unit per shard (results identical to unsharded; \\shard 1\n  merges back)\npersistence: \\save writes a binary snapshot of the whole database\n  (SIMQ_DB names the default file); \\open loads one without rebuilding\n  indexes; \\export writes one relation as v2 text\ndurability: \\wal <dir> attaches a write-ahead-logged directory (SIMQ_WAL\n  attaches or reopens one at startup); \\insert appends to the owning\n  shard's log *before* applying, so acknowledged inserts survive any\n  crash; \\wal shows status; \\wal checkpoint (or bare \\save) rewrites\n  only the dirty shards and absorbs their logs; a `;`-separated\n  \\insert batch group-commits — one WAL sync per touched shard, rows\n  to distinct shards applied by concurrent writers\nnetwork: simq --serve <addr> (or SIMQ_LISTEN) serves this database to\n  concurrent wire-protocol clients (docs/WIRE_PROTOCOL.md); \\connect\n  <host:port> turns this shell into a remote client — queries,\n  \\prepare/\\exec/\\prepared and \\insert run server-side with bitwise-\n  identical results; \\disconnect returns to the local database\nobservability: EXPLAIN ANALYZE prints the executed operator tree with\n  wall-clock timings (results bitwise identical to the plain query);\n  \\trace on prints a span tree after every query (SIMQ_TRACE=1 at\n  startup); \\metrics dumps the process-wide counter/histogram registry\n  (--json for machines); \\slowlog <ms> keeps the last slow queries\n  (SIMQ_SLOWLOG=<ms> at startup)"
            );
        }
        Some("sessions") => {
            let db = session.db();
            let names = db.relation_names();
            let total_rows: usize = names
                .iter()
                .filter_map(|n| db.relation(n))
                .map(StoredRelation::row_count)
                .sum();
            let total_shards: usize = names
                .iter()
                .filter_map(|n| db.relation(n))
                .map(StoredRelation::shard_count)
                .sum();
            println!(
                "database: {} relation{} ({} rows, {} shard{}), parallelism {}",
                names.len(),
                if names.len() == 1 { "" } else { "s" },
                total_rows,
                total_shards,
                if total_shards == 1 { "" } else { "s" },
                db.parallelism(),
            );
            let stats = session.stats();
            println!(
                "session: {} prepared statement{}, {} execution{}, {} cursor{}",
                stats.prepared_statements,
                if stats.prepared_statements == 1 {
                    ""
                } else {
                    "s"
                },
                stats.executions,
                if stats.executions == 1 { "" } else { "s" },
                stats.cursors_opened,
                if stats.cursors_opened == 1 { "" } else { "s" },
            );
            match session.slow_query_threshold() {
                Some(t) => println!(
                    "  slow queries: {} over the {:.3} ms threshold (\\slowlog lists them)",
                    stats.slow_queries,
                    t.as_secs_f64() * 1e3,
                ),
                None => println!("  slow queries: logging off (\\slowlog <ms> enables)"),
            }
            if stats.inserts > 0 || session.db().is_durable() {
                println!(
                    "  writes: {} insert{}, {} WAL record{} appended, {} replayed at open",
                    stats.inserts,
                    if stats.inserts == 1 { "" } else { "s" },
                    stats.wal_records,
                    if stats.wal_records == 1 { "" } else { "s" },
                    stats.wal_replayed,
                );
            }
            if statements.is_empty() {
                println!("  no prepared statements; \\prepare <name> <query>");
            } else {
                let mut names: Vec<&String> = statements.keys().collect();
                names.sort();
                for name in names {
                    println!("  {name}: {}", statements[name].text());
                }
            }
        }
        Some("metrics") => {
            let snapshot = metrics::registry().snapshot();
            match parts.next() {
                Some("--json") => println!("{}", snapshot.render_json()),
                None => print!("{}", snapshot.render_text()),
                Some(other) => println!("unknown \\metrics flag {other:?}; try \\metrics --json"),
            }
        }
        Some("trace") => match parts.next() {
            Some("on") => {
                span::set_tracing(true);
                println!("span tracing: on (trees print after each query)");
            }
            Some("off") => {
                span::set_tracing(false);
                let _ = span::take_records(); // drop anything half-collected
                println!("span tracing: off");
            }
            None => println!(
                "span tracing: {}",
                if span::tracing_enabled() { "on" } else { "off" }
            ),
            Some(other) => println!("unknown \\trace setting {other:?}; use on or off"),
        },
        Some("slowlog") => match parts.next() {
            None => {
                match session.slow_query_threshold() {
                    Some(t) => println!(
                        "slow-query log: threshold {:.3} ms, {} quer{} logged",
                        t.as_secs_f64() * 1e3,
                        session.stats().slow_queries,
                        if session.stats().slow_queries == 1 {
                            "y"
                        } else {
                            "ies"
                        },
                    ),
                    None => {
                        println!("slow-query log: off (\\slowlog <ms> sets a threshold)");
                        return true;
                    }
                }
                let entries = session.slow_queries();
                if entries.is_empty() {
                    println!("  no queries over the threshold yet");
                }
                for e in &entries {
                    println!("  {:>10.3} ms  {}", e.duration.as_secs_f64() * 1e3, e.label);
                }
            }
            Some(word) => match parse_slowlog(word) {
                Ok(t) => {
                    session.set_slow_query_threshold(t);
                    match t {
                        Some(t) => {
                            println!("slow-query log: threshold {:.3} ms", t.as_secs_f64() * 1e3)
                        }
                        None => println!("slow-query log: off"),
                    }
                }
                Err(why) => println!("error: {why}"),
            },
        },
        Some("threads") => match parts.next() {
            Some(word) => match parse_parallelism(word) {
                Ok(p) => {
                    session.db_mut().set_parallelism(p);
                    println!("parallelism: {p}");
                }
                Err(why) => println!("error: {why}"),
            },
            None => println!("parallelism: {}", session.db().parallelism()),
        },
        Some("batch") => match parts.next() {
            None | Some("begin") => {
                if batch_buffer.is_none() {
                    *batch_buffer = Some(Vec::new());
                    println!("batch mode: enter queries, then \\batch run");
                } else {
                    println!("already collecting a batch; \\batch run or \\batch cancel");
                }
            }
            Some("run") => match batch_buffer {
                // Running an empty buffer keeps collect mode active —
                // only a non-empty run (or \batch cancel) leaves it.
                Some(pending) if !pending.is_empty() => {
                    let pending = std::mem::take(pending);
                    *batch_buffer = None;
                    run_batch(session, &pending);
                }
                Some(_) => println!("nothing queued yet; enter queries or \\batch cancel"),
                None => println!("no batch in progress; \\batch begins collecting"),
            },
            Some("explain") => match batch_buffer {
                Some(pending) if !pending.is_empty() => {
                    let texts: Vec<&str> = pending.iter().map(String::as_str).collect();
                    println!("{}", BatchExecutor::new(session.db()).explain_texts(&texts));
                }
                _ => println!("no queries queued; \\batch begins collecting"),
            },
            Some("show") => match batch_buffer {
                Some(pending) if !pending.is_empty() => {
                    for (i, q) in pending.iter().enumerate() {
                        println!("  [{i}] {q}");
                    }
                }
                _ => println!("no queries queued"),
            },
            Some("cancel" | "clear") => {
                let had = batch_buffer.take().map_or(0, |b| b.len());
                println!("discarded {had} queued queries");
            }
            Some(other) => println!("unknown \\batch subcommand {other:?}; try \\help"),
        },
        Some("shard") => match (parts.next(), parts.next()) {
            (Some(name), Some(word)) => match word.parse::<usize>() {
                Ok(n) if n >= 1 => {
                    let start = std::time::Instant::now();
                    match session.db_mut().shard_relation(name, n) {
                        Ok(()) => {
                            let stored = session
                                .db()
                                .relation(name)
                                .expect("resharded relation exists");
                            let counts: Vec<String> = stored
                                .shard_row_counts()
                                .iter()
                                .map(usize::to_string)
                                .collect();
                            println!(
                                "sharded `{name}` into {n} shard{} ({} rows; {:.1} ms)",
                                if n == 1 { "" } else { "s" },
                                counts.join("/"),
                                start.elapsed().as_secs_f64() * 1e3,
                            );
                        }
                        Err(e) => println!("error: {e}"),
                    }
                }
                _ => println!("error: shard count must be a positive integer (1 unshards)"),
            },
            _ => println!("usage: \\shard <relation> <n>  (n ≥ 2 shards, 1 merges back)"),
        },
        Some("relations") => {
            let db = session.db();
            for name in db.relation_names() {
                let stored = db.relation(name).expect("listed relation exists");
                let index = match stored {
                    StoredRelation::Single { index: Some(_), .. } => "R*-tree".to_string(),
                    StoredRelation::Single { index: None, .. } => "none".to_string(),
                    StoredRelation::Sharded { relation, .. } => {
                        format!("{} × R*-tree (one per shard)", relation.shard_count())
                    }
                };
                let counts = stored.shard_row_counts();
                let shards = if counts.len() > 1 {
                    let rows: Vec<String> = counts.iter().map(usize::to_string).collect();
                    format!(", shards: {} ({} rows)", counts.len(), rows.join("/"))
                } else {
                    String::new()
                };
                println!(
                    "  {name}: {} series × {} days, index: {index}{shards}",
                    stored.row_count(),
                    stored.series_len(),
                );
            }
        }
        Some("rows") => match parts.next().and_then(|n| session.db().relation(n)) {
            Some(stored) => {
                for row in stored.rows().take(15) {
                    let head: Vec<String> =
                        row.raw.iter().take(6).map(|v| format!("{v:.2}")).collect();
                    println!(
                        "  id={:<5} {:<12} mean={:<8.3} std={:<8.3} [{}, …]",
                        row.id,
                        row.name,
                        row.features.mean,
                        row.features.std_dev,
                        head.join(", ")
                    );
                }
                if stored.row_count() > 15 {
                    println!("  … {} more", stored.row_count() - 15);
                }
            }
            None => println!("usage: \\rows <relation>"),
        },
        Some("save") => {
            // Two arguments keep the pre-snapshot behavior as an alias for
            // \export; one (or none, with SIMQ_DB) writes a full snapshot.
            match (parts.next(), parts.next()) {
                (Some(name), Some(path)) => export_relation(session.db(), name, path),
                (Some(path), None) => save_snapshot(session.db(), path),
                // With a WAL attached, a bare `\save` is a checkpoint:
                // dirty shards are rewritten and their logs absorbed.
                (None, None) if session.db().is_durable() => {
                    checkpoint_durable(session);
                    if let Some(path) = default_snapshot {
                        save_snapshot(session.db(), path);
                    }
                }
                (None, None) => match default_snapshot {
                    Some(path) => save_snapshot(session.db(), path),
                    None => println!("usage: \\save <file>  (or set SIMQ_DB, or attach a WAL)"),
                },
                (None, Some(_)) => unreachable!("second arg implies a first"),
            }
        }
        Some("wal") => match parts.next() {
            None => match session.db().wal_status() {
                Some(status) => {
                    println!(
                        "WAL directory {} (epoch {})",
                        status.dir.display(),
                        status.epoch,
                    );
                    println!(
                        "  appended: {} record{} this process; replayed at open: {} ({} already applied)",
                        status.wal_records,
                        if status.wal_records == 1 { "" } else { "s" },
                        status.replay.records_applied,
                        status.replay.records_already_applied,
                    );
                    if status.replay.wal_files_repaired > 0 || status.replay.records_dropped > 0 {
                        println!(
                            "  repaired {} torn log{} at open ({} record{} / {} bytes unrecoverable)",
                            status.replay.wal_files_repaired,
                            if status.replay.wal_files_repaired == 1 {
                                ""
                            } else {
                                "s"
                            },
                            status.replay.records_dropped,
                            if status.replay.records_dropped == 1 {
                                ""
                            } else {
                                "s"
                            },
                            status.replay.bytes_dropped,
                        );
                    }
                    println!(
                        "  dirty shards: {} of {} (\\wal checkpoint rewrites only those)",
                        status.dirty_shards, status.total_shards,
                    );
                    let m = metrics::registry();
                    let syncs = m.wal_syncs.load(std::sync::atomic::Ordering::Relaxed);
                    let appends = m.wal_appends.load(std::sync::atomic::Ordering::Relaxed);
                    let groups = m
                        .wal_group_commits
                        .load(std::sync::atomic::Ordering::Relaxed);
                    println!(
                        "  log flushes: {} group{} flushed; {} sync{} for {} append{}, {:.3} syncs/insert",
                        groups,
                        if groups == 1 { "" } else { "s" },
                        syncs,
                        if syncs == 1 { "" } else { "s" },
                        appends,
                        if appends == 1 { "" } else { "s" },
                        if appends > 0 {
                            syncs as f64 / appends as f64
                        } else {
                            0.0
                        },
                    );
                    let last_sync = m
                        .wal_last_sync_ns
                        .load(std::sync::atomic::Ordering::Relaxed);
                    let replay_drops = m
                        .wal_replay_dropped
                        .load(std::sync::atomic::Ordering::Relaxed);
                    if last_sync > 0 || replay_drops > 0 {
                        println!(
                            "  last append+sync: {}; replay drops this process: {}",
                            if last_sync > 0 {
                                span::fmt_ns(last_sync)
                            } else {
                                "none yet".to_string()
                            },
                            replay_drops,
                        );
                    }
                    if let Some(why) = &status.pending_error {
                        println!("  WRITE PATH POISONED: {why}; \\wal checkpoint to recover");
                    }
                }
                None => println!("no WAL attached; \\wal <dir> attaches one (or set SIMQ_WAL)"),
            },
            Some("checkpoint") => checkpoint_durable(session),
            Some(dir) => match session.db_mut().attach_wal(dir) {
                Ok(report) => println!(
                    "attached WAL directory {dir} (checkpointed {} shard{} at epoch {})",
                    report.shards_written,
                    if report.shards_written == 1 { "" } else { "s" },
                    report.epoch,
                ),
                Err(e) => println!("error: {e}"),
            },
        },
        Some("open") => match parts.next() {
            Some(path) => match session.db_mut().load_snapshot(path) {
                Ok(count) => println!("opened snapshot {path} ({count} relations)"),
                Err(e) => println!("open failed: {e}"),
            },
            None => println!("usage: \\open <file>"),
        },
        Some("export") => {
            let (Some(name), Some(path)) = (parts.next(), parts.next()) else {
                println!("usage: \\export <relation> <path>");
                return true;
            };
            export_relation(session.db(), name, path);
        }
        other => println!("unknown command {other:?}; try \\help"),
    }
    true
}

/// Commits a checkpoint of the attached durable directory and reports
/// what the incremental write path actually rewrote.
fn checkpoint_durable(session: &mut Session) {
    let start = std::time::Instant::now();
    match session.db_mut().checkpoint() {
        Ok(report) => println!(
            "checkpoint at epoch {}: {} shard{} rewritten, {} clean (kept as-is), {} stale file{} removed ({:.1} ms)",
            report.epoch,
            report.shards_written,
            if report.shards_written == 1 { "" } else { "s" },
            report.shards_clean,
            report.files_removed,
            if report.files_removed == 1 { "" } else { "s" },
            start.elapsed().as_secs_f64() * 1e3,
        ),
        Err(e) => println!("checkpoint failed: {e}"),
    }
}

/// Writes the whole database to a binary snapshot.
fn save_snapshot(db: &Database, path: &str) {
    match db.save_snapshot(path) {
        Ok(()) => println!("saved snapshot to {path}"),
        Err(e) => println!("save failed: {e}"),
    }
}

/// Writes one relation as v2 text.
fn export_relation(db: &Database, name: &str, path: &str) {
    match db.relation(name) {
        Some(StoredRelation::Single { relation, .. }) => match persist::save(relation, path) {
            Ok(()) => println!("exported {name} to {path}"),
            Err(e) => println!("export failed: {e}"),
        },
        // Text export is the unsharded interchange path: merge in id order.
        Some(StoredRelation::Sharded { relation, .. }) => {
            match persist::save(&relation.to_single(), path) {
                Ok(()) => println!("exported {name} to {path} (shards merged)"),
                Err(e) => println!("export failed: {e}"),
            }
        }
        None => println!("unknown relation {name:?}"),
    }
}
