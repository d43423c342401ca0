//! `simq` — an interactive shell for similarity queries.
//!
//! ```sh
//! cargo run --release --bin simq                     # demo corpus
//! cargo run --release --bin simq -- relation.txt …   # import text relations
//! SIMQ_WAL=db cargo run --release --bin simq         # open or create a database
//! cargo run --release --bin simq -- --exec "q1; q2"  # non-interactive batch
//! cargo run --release --bin simq -- --serve <addr>   # serve over TCP
//! ```
//!
//! Each line is a query in the language of `simq-query`
//! (`FIND SIMILAR TO … EPSILON …`, `FIND k NEAREST TO …`,
//! `FIND PAIRS … METHOD …`, `EXPLAIN …`; the grammar is documented in
//! `docs/QUERY_LANGUAGE.md`, whose examples run in `tests/cli.rs`), a
//! `;`-separated batch of them, or a backslash command. `\help` lists the
//! commands; they live in one table, [`COMMANDS`], which also says where
//! each one runs.
//!
//! Queries, `\prepare`, `\exec` and `\prepared` become one
//! `simq_server::proto::Request` each. The shell answers it through a
//! local `simq_server::Connection` — the same execution layer a server
//! connection runs — or, after `\connect <host:port>`, sends it to a
//! `simq --serve` process; one printer prints every reply, so local and
//! remote output are identical by construction. Commands marked
//! local-only in the table are refused while connected.
//!
//! Startup settings come from the environment: `SIMQ_THREADS`
//! (`4`, `auto`, `serial`), `SIMQ_WAL` (a database directory, opened and
//! replayed when it holds a database, created otherwise), `SIMQ_TRACE`,
//! `SIMQ_SLOWLOG=<ms>` and `SIMQ_LISTEN=<addr>` (as `--serve`).

use similarity_queries::data::WalkGenerator;
use similarity_queries::obs::{metrics, span};
use similarity_queries::prelude::*;
use similarity_queries::query::batch::{split_batch_script, BatchExecutor, BatchResult};
use similarity_queries::query::StoredRelation;
use similarity_queries::query::{QueryError, QueryOutput};
use similarity_queries::server::{Connection, Request, Response};
use similarity_queries::storage::persist;
use simq_client::{Client, ClientError};
use std::io::{self, BufRead, Write};
use std::sync::atomic::Ordering::Relaxed;

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

/// The plural suffix for a count of `n`.
fn plural<N: PartialEq + From<u8>>(n: N) -> &'static str {
    if n == N::from(1) {
        ""
    } else {
        "s"
    }
}

/// Parses the `SIMQ_SLOWLOG` setting: a threshold in milliseconds
/// (fractional allowed), or `off`/empty for disabled.
fn parse_slowlog(word: &str) -> Result<Option<std::time::Duration>, String> {
    match word.trim() {
        "" | "off" => Ok(None),
        ms => ms
            .parse::<f64>()
            .ok()
            .and_then(|v| std::time::Duration::try_from_secs_f64(v / 1e3).ok())
            .map(Some)
            .ok_or_else(|| {
                format!("invalid slow-query threshold {word:?}: expected milliseconds or `off`")
            }),
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
    // A directory named by SIMQ_WAL that already holds a database is
    // opened first: its checkpoints + replayed WAL tails *are* the
    // catalog, so the demo corpus is skipped.
    let wal_dir = std::env::var("SIMQ_WAL").ok().filter(|p| !p.is_empty());
    let mut opened_durable = false;
    if let Some(dir) = &wal_dir {
        if std::path::Path::new(dir).join("MANIFEST").exists() {
            match open_database(dir, db.parallelism()) {
                Ok(opened) => {
                    db = opened;
                    opened_durable = true;
                }
                Err(e) => {
                    eprintln!("cannot open durable database {dir}: {e}");
                    std::process::exit(1);
                }
            }
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

    if files.is_empty() && !opened_durable {
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
                    plural(report.shards_written),
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
    let session = Session::new(db);
    session.set_slow_query_threshold(slowlog_threshold);
    let mut shell = Shell {
        local: Connection::new(session),
        remote: None,
        batch: None,
    };

    let stdin = io::stdin();
    loop {
        print!("{}", shell.prompt());
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
        match line.strip_prefix('\\') {
            Some(cmd) if !shell.command(cmd) => break,
            Some(_) => {}
            None => shell.query_line(line),
        }
    }
}

/// Where a shell command runs.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Runs {
    /// At the endpoint in use: the local connection, or the server once
    /// `\connect`ed.
    Endpoint,
    /// In this process, whichever endpoint is in use.
    Process,
    /// Against the local database only; refused while connected.
    Local,
}

/// Every backslash command: its name, its arguments (the usage line and
/// `\help` print them) and where it runs.
const COMMANDS: &[(&str, &str, Runs)] = &[
    ("relations", "", Runs::Local),
    ("rows", "<relation>", Runs::Local),
    (
        "insert",
        "<relation> <name> [v1, v2, …][; <name> [v1, v2, …]]…",
        Runs::Endpoint,
    ),
    ("shard", "<relation> <n>", Runs::Local),
    ("save", "[dir]", Runs::Local),
    ("open", "<dir>", Runs::Local),
    ("export", "<relation> <path>", Runs::Local),
    ("threads", "[n|auto|serial]", Runs::Local),
    ("batch", "[run|explain|show|cancel]", Runs::Local),
    ("wal", "[dir|checkpoint]", Runs::Local),
    ("sessions", "", Runs::Local),
    (
        "prepare",
        "<name> <query with ? or $name placeholders>",
        Runs::Endpoint,
    ),
    (
        "exec",
        "<name> [arg…] (number, [series], or name=value)",
        Runs::Endpoint,
    ),
    ("prepared", "", Runs::Endpoint),
    ("connect", "<host:port>", Runs::Process),
    ("disconnect", "", Runs::Process),
    ("metrics", "[--json]", Runs::Process),
    ("trace", "[on|off]", Runs::Process),
    ("slowlog", "[<ms>|off]", Runs::Process),
    ("help", "", Runs::Process),
    ("quit", "", Runs::Process),
];

/// Prints a command's usage line from [`COMMANDS`].
fn usage(name: &str) {
    let args = COMMANDS.iter().find(|c| c.0 == name).map_or("", |c| c.1);
    println!("usage: \\{name} {args}");
}

/// The interactive shell's state: the local database behind a
/// [`Connection`], the server while `\connect`ed, and the `\batch`
/// queue.
struct Shell {
    local: Connection<Database>,
    remote: Option<Client>,
    /// When `Some`, query lines are queued instead of executed, until
    /// `\batch run` / `\batch cancel`.
    batch: Option<Vec<String>>,
}

impl Shell {
    fn prompt(&self) -> String {
        match (&self.batch, &self.remote) {
            (Some(pending), _) => format!("simq batch[{}]> ", pending.len()),
            (None, Some(_)) => "simq remote> ".to_string(),
            (None, None) => "simq> ".to_string(),
        }
    }

    /// Answers one request at the endpoint in use. `None` means the
    /// connection broke and the shell is back on the local database.
    fn answer(&mut self, req: Request) -> Option<Response> {
        let Some(client) = &mut self.remote else {
            return Some(self.local.respond(req));
        };
        match client.call(&req) {
            Ok(reply) => Some(reply),
            Err(ClientError::Remote { code, message }) => Some(Response::Error { code, message }),
            Err(e) => {
                println!("error: {e}");
                println!("connection lost; back to the local database");
                self.remote = None;
                None
            }
        }
    }

    /// Answers and prints one request; false when the connection broke.
    fn ask(&mut self, req: Request) -> bool {
        let start = std::time::Instant::now();
        let Some(reply) = self.answer(req) else {
            return false;
        };
        print_reply(&reply, start.elapsed());
        print_trace_if_on();
        true
    }

    /// A query line: queued while a batch collects; `;`-separated
    /// queries run locally as one batch, one by one on a server.
    fn query_line(&mut self, line: &str) {
        if let Some(pending) = &mut self.batch {
            pending.extend(split_batch_script(line));
            println!("queued ({} pending; \\batch run to execute)", pending.len());
            return;
        }
        // A single query with a trailing `;` is still one query.
        let parts = split_batch_script(line);
        if parts.len() > 1 && self.remote.is_none() {
            run_batch(&self.local.session, &parts);
            return;
        }
        for text in parts {
            if !self.ask(Request::Query { text }) {
                break;
            }
        }
    }

    /// Handles a backslash command; returns false to quit.
    fn command(&mut self, cmd: &str) -> bool {
        let (name, rest) = cmd.split_once(char::is_whitespace).unwrap_or((cmd, ""));
        let rest = rest.trim();
        let name = if matches!(name, "q" | "exit") {
            "quit"
        } else {
            name
        };
        let Some(&(_, _, runs)) = COMMANDS.iter().find(|c| c.0 == name) else {
            println!("unknown command {name:?}; try \\help");
            return true;
        };
        if runs == Runs::Local && self.remote.is_some() {
            println!("\\{name} is local-only; \\disconnect to leave the remote session");
            return true;
        }
        let mut parts = rest.split_whitespace();
        let session = &mut self.local.session;
        match name {
            "quit" => {
                if let Some(client) = self.remote.take() {
                    client.goodbye().ok();
                }
                return false;
            }
            "prepare" => match rest.split_once(char::is_whitespace) {
                Some((name, text)) => {
                    let (name, text) = (name.to_string(), text.trim().to_string());
                    self.ask(Request::Prepare { name, text });
                }
                None => usage("prepare"),
            },
            "exec" => {
                let (name, args) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
                if name.is_empty() {
                    usage("exec");
                    return true;
                }
                match parse_exec_args(args) {
                    Ok((positional, named)) => {
                        let name = name.to_string();
                        self.ask(Request::Exec {
                            name,
                            positional,
                            named,
                        });
                    }
                    Err(why) => println!("error: {why}"),
                }
            }
            "prepared" => {
                self.ask(Request::ListPrepared);
            }
            "insert" => self.insert(rest),
            "connect" => match (&self.remote, &self.batch, rest) {
                (Some(client), _, _) => {
                    println!(
                        "already connected to {}; \\disconnect first",
                        client.server()
                    );
                }
                (None, Some(_), _) => {
                    println!("a batch is collecting; \\batch run or \\batch cancel first");
                }
                (None, None, "") => usage("connect"),
                (None, None, addr) => match Client::connect(addr) {
                    Ok(client) => {
                        println!(
                            "connected to {} at {addr} (catalog generation {})",
                            client.server(),
                            client.generation()
                        );
                        self.remote = Some(client);
                    }
                    Err(e) => println!("cannot connect to {addr}: {e}"),
                },
            },
            "disconnect" => match self.remote.take() {
                Some(client) => {
                    let server = client.server().to_string();
                    match client.goodbye() {
                        Ok(()) => println!("disconnected from {server}"),
                        Err(e) => println!("disconnected from {server} (close failed: {e})"),
                    }
                }
                None => println!("not connected; \\connect <host:port> first"),
            },
            "help" => print_help(),
            "sessions" => {
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
                    plural(names.len()),
                    total_rows,
                    total_shards,
                    plural(total_shards),
                    db.parallelism(),
                );
                let stats = session.stats();
                println!(
                    "session: {} prepared statement{}, {} execution{}, {} cursor{}",
                    stats.prepared_statements,
                    plural(stats.prepared_statements),
                    stats.executions,
                    plural(stats.executions),
                    stats.cursors_opened,
                    plural(stats.cursors_opened),
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
                        plural(stats.inserts),
                        stats.wal_records,
                        plural(stats.wal_records),
                        stats.wal_replayed,
                    );
                }
                self.ask(Request::ListPrepared);
            }
            "metrics" => {
                let snapshot = metrics::registry().snapshot();
                match parts.next() {
                    Some("--json") => println!("{}", snapshot.render_json()),
                    None => print!("{}", snapshot.render_text()),
                    Some(other) => {
                        println!("unknown \\metrics flag {other:?}; try \\metrics --json")
                    }
                }
            }
            "trace" => match parts.next() {
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
            "slowlog" => match parts.next() {
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
                                println!(
                                    "slow-query log: threshold {:.3} ms",
                                    t.as_secs_f64() * 1e3
                                )
                            }
                            None => println!("slow-query log: off"),
                        }
                    }
                    Err(why) => println!("error: {why}"),
                },
            },
            "threads" => match parts.next() {
                Some(word) => match parse_parallelism(word) {
                    Ok(p) => {
                        session.db_mut().set_parallelism(p);
                        println!("parallelism: {p}");
                    }
                    Err(why) => println!("error: {why}"),
                },
                None => println!("parallelism: {}", session.db().parallelism()),
            },
            "batch" => match parts.next() {
                None | Some("begin") => {
                    if self.batch.is_none() {
                        self.batch = Some(Vec::new());
                        println!("batch mode: enter queries, then \\batch run");
                    } else {
                        println!("already collecting a batch; \\batch run or \\batch cancel");
                    }
                }
                Some("run") => match self.batch.take() {
                    // Running an empty buffer keeps collect mode active —
                    // only a non-empty run (or \batch cancel) leaves it.
                    Some(pending) if !pending.is_empty() => {
                        run_batch(session, &pending);
                    }
                    Some(empty) => {
                        self.batch = Some(empty);
                        println!("nothing queued yet; enter queries or \\batch cancel");
                    }
                    None => println!("no batch in progress; \\batch begins collecting"),
                },
                Some("explain") => match &self.batch {
                    Some(pending) if !pending.is_empty() => {
                        let texts: Vec<&str> = pending.iter().map(String::as_str).collect();
                        println!("{}", BatchExecutor::new(session.db()).explain_texts(&texts));
                    }
                    _ => println!("no queries queued; \\batch begins collecting"),
                },
                Some("show") => match &self.batch {
                    Some(pending) if !pending.is_empty() => {
                        for (i, q) in pending.iter().enumerate() {
                            println!("  [{i}] {q}");
                        }
                    }
                    _ => println!("no queries queued"),
                },
                Some("cancel" | "clear") => {
                    let had = self.batch.take().map_or(0, |b| b.len());
                    println!("discarded {had} queued queries");
                }
                Some(other) => println!("unknown \\batch subcommand {other:?}; try \\help"),
            },
            "shard" => match (parts.next(), parts.next()) {
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
                                    plural(n),
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
            "relations" => {
                let db = session.db();
                for name in db.relation_names() {
                    let stored = db.relation(name).expect("listed relation exists");
                    let index = match (stored.shard_count(), stored.has_index()) {
                        (1, true) => "R*-tree".to_string(),
                        (1, false) => "none".to_string(),
                        (n, _) => format!("{n} × R*-tree (one per shard)"),
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
            "rows" => match parts.next().and_then(|n| session.db().relation(n)) {
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
                None => usage("rows"),
            },
            // A bare `\save` checkpoints the attached directory: dirty
            // shards are rewritten and their logs absorbed.
            "save" => match parts.next() {
                Some(dir) => match session.db().save_snapshot(dir) {
                    Ok(report) => println!(
                        "saved database to {dir} ({} shard{} at epoch {})",
                        report.shards_written,
                        plural(report.shards_written),
                        report.epoch,
                    ),
                    Err(e) => println!("save failed: {e}"),
                },
                None if session.db().is_durable() => checkpoint_durable(session),
                None => usage("save"),
            },
            "wal" => match parts.next() {
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
                            plural(status.wal_records),
                            status.replay.records_applied,
                            status.replay.records_already_applied,
                        );
                        if status.replay.wal_files_repaired > 0 || status.replay.records_dropped > 0
                        {
                            println!(
                                "  repaired {} torn log{} at open ({} record{} / {} bytes unrecoverable)",
                                status.replay.wal_files_repaired,
                                plural(status.replay.wal_files_repaired),
                                status.replay.records_dropped,
                                plural(status.replay.records_dropped),
                                status.replay.bytes_dropped,
                            );
                        }
                        println!(
                            "  dirty shards: {} of {} (\\wal checkpoint rewrites only those)",
                            status.dirty_shards, status.total_shards,
                        );
                        let m = metrics::registry();
                        let syncs = m.wal_syncs.load(Relaxed);
                        let appends = m.wal_appends.load(Relaxed);
                        let groups = m.wal_group_commits.load(Relaxed);
                        println!(
                            "  log flushes: {} group{} flushed; {} sync{} for {} append{}, {:.3} syncs/insert",
                            groups,
                            plural(groups),
                            syncs,
                            plural(syncs),
                            appends,
                            plural(appends),
                            if appends > 0 {
                                syncs as f64 / appends as f64
                            } else {
                                0.0
                            },
                        );
                        let last_sync = m.wal_last_sync_ns.load(Relaxed);
                        let replay_drops = m.wal_replay_dropped.load(Relaxed);
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
                        plural(report.shards_written),
                        report.epoch,
                    ),
                    Err(e) => println!("error: {e}"),
                },
            },
            "open" => match parts.next() {
                Some(dir) => match open_database(dir, session.db().parallelism()) {
                    Ok(db) => *session.db_mut() = db,
                    Err(e) => println!("open failed: {e}"),
                },
                None => usage("open"),
            },
            "export" => {
                let (Some(name), Some(path)) = (parts.next(), parts.next()) else {
                    usage("export");
                    return true;
                };
                export_relation(session.db(), name, path);
            }
            _ => unreachable!("every command in COMMANDS has an arm"),
        }
        true
    }

    /// `\insert`: one row parser, two executors — the server's coalescing
    /// write path while connected, the local session otherwise (whose
    /// reply also names the shard and the tree nodes built).
    fn insert(&mut self, rest: &str) {
        let (relation, mut rows) = match parse_insert(rest) {
            Ok(parsed) => parsed,
            Err(Some(why)) => return println!("error: {why}"),
            Err(None) => return usage("insert"),
        };
        let start = std::time::Instant::now();
        if self.remote.is_some() {
            let req = Request::Insert {
                relation: relation.to_string(),
                rows,
            };
            match self.answer(req) {
                Some(Response::Inserted(report)) => {
                    match (report.ids.iter().min(), report.ids.iter().max()) {
                        (Some(lo), Some(hi)) => println!(
                            "inserted {} row{} into `{relation}` across {} shard{} (ids {lo}..={hi}; {} WAL record{}, {} group sync{}; {:.3} ms)",
                            report.ids.len(),
                            plural(report.ids.len()),
                            report.shards_touched,
                            plural(report.shards_touched),
                            report.wal_records,
                            plural(report.wal_records),
                            report.wal_syncs,
                            plural(report.wal_syncs),
                            start.elapsed().as_secs_f64() * 1e3,
                        ),
                        _ => println!("inserted 0 rows into `{relation}`"),
                    }
                    for (idx, why) in &report.failed {
                        println!("  row {idx} failed: {why}");
                    }
                }
                Some(other) => print_reply(&other, start.elapsed()),
                None => {}
            }
            return;
        }
        let session = &mut self.local.session;
        if rows.len() == 1 {
            let (name, series) = rows.pop().expect("one row");
            match session.insert(relation, name, series) {
                Ok((report, _stats)) => println!(
                    "inserted id={} into `{relation}` shard {} ({} tree node{} built, {}; {:.3} ms)",
                    report.id,
                    report.shard,
                    report.nodes_built,
                    plural(report.nodes_built),
                    if report.wal_appended {
                        "WAL record synced"
                    } else {
                        "no WAL attached"
                    },
                    start.elapsed().as_secs_f64() * 1e3,
                ),
                Err(e) => println!("error: {e}"),
            }
            return;
        }
        match session.insert_batch(relation, rows) {
            Ok((report, stats)) => {
                let ids: Vec<u64> = report.acked.iter().map(|&(_, r)| r.id).collect();
                println!(
                    "batch inserted {} row{} into `{relation}` across {} shard{} (ids {}..={}; {} WAL sync{} for {} record{}; {} tree node{} built; {:.3} ms)",
                    report.acked.len(),
                    plural(report.acked.len()),
                    report.shards_touched,
                    plural(report.shards_touched),
                    ids.iter().min().expect("acked is non-empty"),
                    ids.iter().max().expect("acked is non-empty"),
                    stats.wal_syncs,
                    plural(stats.wal_syncs),
                    stats.wal_records,
                    plural(stats.wal_records),
                    report.nodes_built,
                    plural(report.nodes_built),
                    start.elapsed().as_secs_f64() * 1e3,
                );
                for (idx, why) in &report.failed {
                    println!("  row {idx} failed: {why}");
                }
            }
            Err(e) => println!("error: {e}"),
        }
    }
}

/// Prints one reply — the same lines whichever endpoint answered.
fn print_reply(reply: &Response, elapsed: std::time::Duration) {
    match reply {
        Response::Result(result) => {
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
        Response::PreparedOk { name, signature } => println!(
            "prepared `{name}` with {} parameter{}{}",
            signature.len(),
            plural(signature.len()),
            if signature.is_empty() {
                String::new()
            } else {
                format!(": {}", signature.join(", "))
            }
        ),
        Response::PreparedList { entries } if entries.is_empty() => {
            println!("no prepared statements; \\prepare <name> <query>");
        }
        Response::PreparedList { entries } => {
            for (name, text) in entries {
                println!("  {name}: {text}");
            }
        }
        Response::Error { message, .. } => println!("error: {message}"),
        other => println!("error: unexpected {:?} reply", other.kind()),
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

/// `(name, series)` rows of one `\insert` line.
type Rows = Vec<(String, Vec<f64>)>;

/// Parses `\insert`'s `<relation> <name> [v1, v2, …][; <name> […]]…`:
/// `;` separates rows, one row is a single insert and several a grouped
/// batch. `Err(None)` asks for the usage line, `Err(Some(why))` names a
/// bad value.
fn parse_insert(rest: &str) -> Result<(&str, Rows), Option<String>> {
    let (relation, rest) = rest.split_once(char::is_whitespace).ok_or(None)?;
    let mut rows = Vec::new();
    for part in rest.split(';').map(str::trim).filter(|p| !p.is_empty()) {
        let (name, series) = part.split_once(char::is_whitespace).ok_or(None)?;
        let (positional, named) = parse_exec_args(series.trim()).map_err(Some)?;
        match (<[Value; 1]>::try_from(positional), named.is_empty()) {
            (Ok([Value::Series(series)]), true) => rows.push((name.to_string(), series)),
            _ => return Err(None),
        }
    }
    if rows.is_empty() {
        return Err(None);
    }
    Ok((relation, rows))
}

/// `\help`: the query grammar, the command table, and what the command
/// families do.
fn print_help() {
    println!(
        "queries:\n  FIND SIMILAR TO (ROW <id> | NAME <name> | [v1, v2, …]) IN <rel> \\\n      [USING <t> [THEN <t>]* [ON BOTH]] EPSILON <e> \\\n      [MEAN WITHIN <m>] [STD WITHIN <s>] [FORCE SCAN|INDEX]\n  FIND <k> NEAREST TO <source> IN <rel> [USING …]\n  FIND PAIRS IN <rel> [USING <t> [ON ONE] | MATCHING <t> AGAINST <t>] \\\n      EPSILON <e> [METHOD a|b|c|d]\n  EXPLAIN <query>\n  EXPLAIN ANALYZE <query>   (execute instrumented; per-operator timings)\ntransformations: identity, mavg(w), wmavg(w1, …), reverse, shift(c), scale(k), warp(m)\nshell commands (* = local database only, refused while \\connect-ed):"
    );
    for (name, args, runs) in COMMANDS {
        let local = if *runs == Runs::Local { '*' } else { ' ' };
        println!("{}", format!(" {local}\\{name} {args}").trim_end());
    }
    println!(
        "prepared statements: queries may hold ? (positional) and $name (named)\n  placeholders in the source, EPSILON, k, ROW and MEAN/STD slots;\n  \\prepare parses once, \\exec binds arguments (numbers, [v1, v2, …]\n  series, name=value pairs), plans and executes; \\sessions counts the\n  shell session's statements, executions and slow queries\nbatches: a line of `;`-separated queries runs as one batch (one parse/plan\n  pass, one catalog generation, threads spent across statements);\n  \\batch collects queries line by line, \\batch run executes them,\n  \\batch explain previews each statement's plan\nsharding: \\shard <rel> <n> partitions a relation into n shards, each with\n  its own R*-tree — inserts touch one small tree, and queries fan out\n  one work unit per shard (results identical to unsharded; \\shard 1\n  merges back)\npersistence: a database on disk is one directory of per-shard\n  checkpoints and WAL tails; \\save <dir> writes the whole database there\n  (replacing what it held), \\open <dir> replaces this session's database\n  with the one saved there, indexes decoded, not rebuilt; \\export writes\n  one relation as v2 text\ndurability: \\wal <dir> saves to a directory and stays attached (SIMQ_WAL\n  attaches or reopens one at startup); \\insert appends to the owning\n  shard's log *before* applying, so acknowledged inserts survive any\n  crash; \\wal shows status; \\wal checkpoint (or bare \\save) rewrites\n  only the dirty shards and absorbs their logs; a `;`-separated\n  \\insert batch group-commits — one WAL sync per touched shard, rows\n  to distinct shards applied by concurrent writers\nnetwork: simq --serve <addr> (or SIMQ_LISTEN) serves this database to\n  concurrent wire-protocol clients (docs/WIRE_PROTOCOL.md); \\connect\n  <host:port> turns this shell into a remote client — queries,\n  \\prepare/\\exec/\\prepared and \\insert run server-side and print what\n  they print locally; \\disconnect returns to the local database\nobservability: EXPLAIN ANALYZE prints the executed operator tree with\n  wall-clock timings (results bitwise identical to the plain query);\n  \\trace on prints a span tree after every query (SIMQ_TRACE=1 at\n  startup); \\metrics dumps the process-wide counter/histogram registry\n  (--json for machines); \\slowlog <ms> keeps the last slow queries\n  (SIMQ_SLOWLOG=<ms> at startup)"
    );
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
            plural(report.shards_written),
            report.shards_clean,
            report.files_removed,
            plural(report.files_removed),
            start.elapsed().as_secs_f64() * 1e3,
        ),
        Err(e) => println!("checkpoint failed: {e}"),
    }
}

/// Opens the database saved at `dir` under `parallelism` and prints what
/// replay recovered — the one report for `SIMQ_WAL` and `\open`.
fn open_database(dir: &str, parallelism: Parallelism) -> Result<Database, QueryError> {
    let (mut db, replay) = Database::open_durable(dir)?;
    db.set_parallelism(parallelism);
    println!(
        "opened durable database {dir} ({} relations; replayed {} WAL record{}{})",
        db.relation_names().len(),
        replay.records_applied,
        plural(replay.records_applied),
        if replay.records_dropped > 0 || replay.wal_files_repaired > 0 {
            format!(
                "; repaired {} torn log{}, {} record{} unrecoverable",
                replay.wal_files_repaired,
                plural(replay.wal_files_repaired),
                replay.records_dropped,
                plural(replay.records_dropped),
            )
        } else {
            String::new()
        },
    );
    Ok(db)
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
