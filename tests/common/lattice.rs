//! One configuration lattice, one statement corpus, one driver.
//!
//! A [`Config`] names *how* a statement is asked — threads, shards, WAL,
//! front end, and the way the rows reached the relation; the corpus
//! ([`World::stmts`]) names *what* is asked: every query form × every
//! transformation × `ON BOTH` × `MEAN`/`STD` windows × `FORCE` × join
//! methods a–d, plus the statements that must fail. The contract:
//!
//! * every lattice point ≡ the base point **bitwise** — ids, names, order,
//!   distance bits, and the same error for a failing statement; the whole
//!   `ExecStats` too (bar the fan-out it reports) wherever two runs must do
//!   identical work: at any thread count, on built storage or its saved
//!   and reopened directory, of the same shard count;
//! * at the base point, statements of one *group* — the same question put
//!   to different access paths: planned index / `FORCE SCAN` /
//!   `FORCE INDEX`, join methods a / b / d — answer bitwise alike, and a
//!   kNN answers exactly what the full-distance `scan::scan_knn` does.
//!   Range scans, scan joins and `scan_knn` never consult the signature
//!   tier, so this is the no-false-dismissal check (Lemma 1);
//! * the base point ≡ the time-domain oracle (`oracle.rs`) within its
//!   stated margin.
//!
//! A new axis value is one enum variant and one arm of
//! [`World::database`] / [`World::run`]; a new query form is one corpus
//! line.

use super::oracle::{decidable_k, threshold_near, Oracle};
use super::{assert_output_values_bitwise_equal, assert_outputs_bitwise_equal, relation_with};
use similarity_queries::prelude::*;
use similarity_queries::query::{ExecStats, Query, QueryError, QuerySource};
use similarity_queries::storage::scan;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// How a statement reaches the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontEnd {
    Text,
    Prepared,
    BatchSlot,
    CursorDrain,
    /// Prepared and executed by a wire-protocol client of a server that
    /// serves the point's own database on loopback.
    Remote,
}

/// How the rows reached the relation. Every variant holds the same rows
/// under the same ids; the trees differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Storage {
    Built,
    Incremental,
    BatchInserted,
    /// Saved with `save_snapshot` and its directory reopened. Without a
    /// WAL every row is saved; with one, only the bulk-loaded prefix is,
    /// the rest is inserted through the log and replayed after a drop.
    Reopened,
    Resharded,
}

/// One point of the lattice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    pub threads: usize,
    pub shards: usize,
    pub wal: bool,
    pub front_end: FrontEnd,
    pub storage: Storage,
}

impl Config {
    pub const BASE: Config = Config {
        threads: 1,
        shards: 1,
        wal: false,
        front_end: FrontEnd::Text,
        storage: Storage::Built,
    };

    /// Every point.
    pub fn all() -> Vec<Config> {
        use {FrontEnd::*, Storage::*};
        let mut points = Vec::new();
        for storage in [Built, Incremental, BatchInserted, Reopened, Resharded] {
            for (shards, wal) in [(1, false), (1, true), (4, false), (4, true)] {
                for threads in [1, 4] {
                    for front_end in [Text, Prepared, BatchSlot, CursorDrain, Remote] {
                        points.push(Config {
                            threads,
                            shards,
                            wal,
                            front_end,
                            storage,
                        });
                    }
                }
            }
        }
        points
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Range,
    Knn,
    Pairs,
    /// A statement every front end must refuse with the same error.
    Error,
}

/// One statement of the corpus.
#[derive(Debug)]
pub struct Stmt {
    pub kind: Kind,
    /// Statements of one group must answer bitwise alike.
    pub group: usize,
    /// The statement with its constants as `?` placeholders …
    pub template: String,
    /// … the constants …
    pub params: Vec<Value>,
    /// … and the two put together.
    pub text: String,
}

pub type Outcome = Result<QueryResult, QueryError>;

/// Statements that must fail — with a structured error, never a panic —
/// alike through every front end, the `Remote` one included (whose error
/// frame carries the local error's message): constants that overflow on their own or composed, a zero
/// scale factor (no normal form), and the three ways a slot can fail
/// before it runs.
pub fn error_statements(relation: &str) -> Vec<String> {
    [
        "FIND 2 NEAREST TO ROW 0 IN r USING shift(1e400)",
        "FIND 2 NEAREST TO ROW 0 IN r USING scale(1e308) THEN scale(1e308)",
        "FIND 2 NEAREST TO ROW 0 IN r USING shift(1e308) THEN scale(100)",
        "FIND SIMILAR TO ROW 0 IN r USING wmavg(1e308, 1e308) EPSILON 1",
        "FIND 2 NEAREST TO ROW 0 IN r USING wmavg(1e308, -1e308) FORCE SCAN",
        "FIND 3 NEAREST TO ROW 0 IN r USING scale(0)",
        "FIND SIMILAR TO ROW 0 IN r USING mavg(3) THEN scale(-0.0) ON BOTH EPSILON 1",
        "FIND SIMILAR TO ROW 0 IN r EPSILON 1e400",
        "FIND SIMILAR TO ROW 99999 IN r EPSILON 1",
        "FIND SIMILAR TO ROW 0 IN nope EPSILON 1",
        "THIS IS NOT A QUERY",
    ]
    .map(|q| q.replace(" IN r", &format!(" IN {relation}")))
    .to_vec()
}

const TRANSFORMS: [&str; 10] = [
    "",
    "mavg(5)",
    "wmavg(0.5, 0.3, 0.2)",
    "reverse",
    "shift(2.5)",
    "scale(-3)",
    "warp(2)",
    "reverse THEN mavg(4)",
    "scale(2) THEN warp(2)",
    "mavg(3) THEN shift(-1)",
];

/// The corpus under construction: constants come out of gaps in the
/// oracle's distance lists, so every statement is decidable.
struct Corpus<'a> {
    oracle: &'a Oracle,
    rows: &'a [Vec<f64>],
    stmts: Vec<Stmt>,
    groups: usize,
}

impl Corpus<'_> {
    fn push(&mut self, kind: Kind, template: String, params: &[Value]) {
        let mut text = String::new();
        let mut values = params.iter();
        for piece in template.split('?') {
            text.push_str(piece);
            match values.next() {
                Some(Value::Number(v)) => text.push_str(&v.to_string()),
                Some(Value::Series(s)) => text.push_str(&format!("{s:?}")),
                None => {}
            }
        }
        self.stmts.push(Stmt {
            kind,
            group: self.groups,
            template,
            params: params.to_vec(),
            text,
        });
    }

    /// The oracle's distances (and row statistics) for a `USING` clause
    /// and query series.
    fn measure(&self, using: &str, query: &[f64]) -> (Vec<f64>, Vec<(f64, f64)>) {
        let Ok(Query::Knn {
            transform, on_both, ..
        }) = parse(&format!("FIND 1 NEAREST TO ROW 0 IN r{using}"))
        else {
            panic!("corpus clause parses: {using}")
        };
        (
            self.oracle.distances(query, &transform, on_both),
            self.oracle.statistics(&transform),
        )
    }

    fn build(mut self, seed: u64) -> Vec<Stmt> {
        let rows = self.rows.len();
        let using = |t: &str, on_both: bool| match (t, on_both) {
            ("", _) => String::new(),
            (t, false) => format!(" USING {t}"),
            (t, true) => format!(" USING {t} ON BOTH"),
        };
        let forces = ["", " FORCE SCAN", " FORCE INDEX"];
        for (i, t) in TRANSFORMS.iter().enumerate() {
            for on_both in [false, true].into_iter().take(1 + !t.is_empty() as usize) {
                let (using, row) = (using(t, on_both), (7 * i + 3 * on_both as usize) % rows);
                let (d, _) = self.measure(&using, &self.rows[row]);
                // Range, planned and forced to scan.
                let eps = threshold_near(&d, 3 + i % 4);
                self.groups += 1;
                for force in &forces[..2] {
                    let q = format!("FIND SIMILAR TO ROW ? IN r{using} EPSILON ?{force}");
                    self.push(Kind::Range, q, &[row.into(), eps.into()]);
                }
                // kNN likewise, under every other clause.
                if (i + on_both as usize).is_multiple_of(2) {
                    let k = decidable_k(&d, 2 + i % 5);
                    self.groups += 1;
                    for force in &forces[..2] {
                        let q = format!("FIND ? NEAREST TO ROW ? IN r{using}{force}");
                        self.push(Kind::Knn, q, &[k.into(), row.into()]);
                    }
                }
            }
        }
        // More neighbours than rows; a query by name.
        self.groups += 1;
        self.push(
            Kind::Knn,
            "FIND ? NEAREST TO ROW 1 IN r".into(),
            &[(rows + 3).into()],
        );
        let (d, _) = self.measure(" USING reverse", &self.rows[5]);
        self.groups += 1;
        for force in &forces[..2] {
            let q = format!("FIND ? NEAREST TO NAME S5 IN r USING reverse{force}");
            self.push(Kind::Knn, q, &[decidable_k(&d, 4).into()]);
        }
        // A query series that is not a stored row.
        let literal = WalkGenerator::new(seed ^ 0x5EED).series(self.rows[0].len());
        let (d, _) = self.measure(" USING mavg(5)", &literal);
        self.groups += 1;
        for force in &forces[..2] {
            let q = format!("FIND SIMILAR TO ? IN r USING mavg(5) EPSILON ?{force}");
            self.push(
                Kind::Range,
                q,
                &[literal.clone().into(), threshold_near(&d, 5).into()],
            );
        }
        // GK95 windows, on every access path.
        for (i, (t, on_both, mean, std)) in [
            ("", false, true, false),
            ("mavg(5)", true, false, true),
            ("shift(2.5)", false, true, false),
            ("scale(-3)", false, true, true),
        ]
        .into_iter()
        .enumerate()
        {
            let (using, row) = (using(t, on_both), (2 + 5 * i) % rows);
            let query = &self.rows[row];
            let (d, stats) = self.measure(&using, query);
            let (q_mean, q_std) = self.oracle.statistics(&SeriesTransform::Identity)[row];
            let off_mean: Vec<f64> = stats.iter().map(|(m, _)| (m - q_mean).abs()).collect();
            let off_std: Vec<f64> = stats.iter().map(|(_, s)| (s - q_std).abs()).collect();
            let mut q = format!("FIND SIMILAR TO ROW ? IN r{using} EPSILON ?");
            let mut params: Vec<Value> = vec![row.into(), threshold_near(&d, rows / 2).into()];
            for (on, clause, offsets) in [
                (mean, " MEAN WITHIN ?", off_mean),
                (std, " STD WITHIN ?", off_std),
            ] {
                if on {
                    q.push_str(clause);
                    params.push(threshold_near(&offsets, rows / 2).into());
                }
            }
            self.groups += 1;
            for force in forces {
                self.push(Kind::Range, format!("{q}{force}"), &params);
            }
        }
        // Joins: each clause by the tier-free scan methods and by the
        // probe join. METHOD c ignores the transformation, so it belongs
        // to the identity's group whatever its clause says.
        for (clause, methods) in [
            ("", "abcd"),
            (" USING mavg(5)", "abd"),
            (" USING reverse THEN mavg(4)", "bd"),
            (" USING mavg(5) ON ONE", "bd"),
            (" MATCHING mavg(3) AGAINST reverse", "bd"),
            (" USING warp(2)", "bd"),
        ] {
            let Ok(Query::AllPairs { left, right, .. }) =
                parse(&format!("FIND PAIRS IN r{clause} EPSILON 1"))
            else {
                panic!("corpus clause parses: {clause}")
            };
            let d: Vec<f64> = self
                .oracle
                .pair_distances(&left, &right)
                .iter()
                .map(|p| p.1)
                .collect();
            let eps: Value = threshold_near(&d, rows / 2).into();
            self.groups += 1;
            for m in methods.chars() {
                self.push(
                    Kind::Pairs,
                    format!("FIND PAIRS IN r{clause} EPSILON ? METHOD {m}"),
                    std::slice::from_ref(&eps),
                );
            }
            if clause.is_empty() {
                self.push(
                    Kind::Pairs,
                    "FIND PAIRS IN r USING mavg(5) EPSILON ? METHOD c".into(),
                    &[eps],
                );
            }
        }
        for text in error_statements("r") {
            self.groups += 1;
            self.push(Kind::Error, text, &[]);
        }
        self.stmts
    }
}

/// A scratch directory for one database's checkpoint and log files,
/// removed when dropped.
pub struct Scratch(pub PathBuf);

impl Scratch {
    pub fn new() -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let unique = format!(
            "simq-lattice-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        );
        let dir = std::env::temp_dir().join(unique);
        std::fs::create_dir_all(&dir).expect("scratch directory");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// Upper bound on the nodes one insert materializes: one per level of a
/// split chain plus a root growth (trees here are ≤ 4 levels) — a rebuild
/// would materialize every node.
pub const MAX_NODES_PER_INSERT: u64 = 16;

/// One seeded relation `r` (rows `S0`, `S1`, …), its corpus, and what the
/// base point answers.
pub struct World {
    pub rows: Vec<Vec<f64>>,
    /// How many rows the incremental storages bulk-load before inserting
    /// the rest (at least one each way; where, the seed decides).
    split: usize,
    scheme: FeatureScheme,
    oracle: Oracle,
    pub stmts: Vec<Stmt>,
    /// Serial text answers over built storage, by shard count (1 and 4):
    /// the base point, and the work reference of the sharded points.
    reference: BTreeMap<usize, Vec<Outcome>>,
}

/// A world under the paper's default scheme. Every sweep names a world of
/// its own — a seed, row count and length no other uses, down to shards of
/// one or two rows — so a per-axis suite adds inputs to the cross product
/// (`tests/lattice.rs`) instead of repeating it.
pub fn world(seed: u64, rows: usize, len: usize) -> World {
    World::new(seed, rows, len, FeatureScheme::paper_default())
}

impl World {
    /// Builds the world and holds its base point to the tier-free paths
    /// and the definition ([`check_base`](Self::check_base)): no point is
    /// ever compared to a base that was not.
    pub fn new(seed: u64, rows: usize, len: usize, scheme: FeatureScheme) -> World {
        let rows = super::corpus(seed, rows, len);
        let oracle = Oracle::new(&rows);
        let stmts = Corpus {
            oracle: &oracle,
            rows: &rows,
            stmts: Vec::new(),
            groups: 0,
        }
        .build(seed);
        let mut world = World {
            split: 1 + seed as usize % (rows.len() - 1),
            rows,
            scheme,
            oracle,
            stmts,
            reference: BTreeMap::new(),
        };
        let all: Vec<usize> = (0..world.stmts.len()).collect();
        for shards in [1, 4] {
            let (db, _scratch) = world.database(Storage::Built, shards, false);
            let answers = world
                .run(&db, FrontEnd::Text, &all)
                .into_iter()
                .flatten()
                .collect();
            world.reference.insert(shards, answers);
            if shards == 1 {
                world.check_base(&db);
            }
        }
        world
    }

    /// The base point (`db` is its database) against the tier-free paths
    /// and the definition.
    fn check_base(&self, db: &Database) {
        let store = &db.relation("r").expect("relation r").stores()[0];
        // A scheme that cannot serve a clause makes the planner refuse it
        // (`tests/planner_fallback.rs`); the default scheme serves them all.
        let may_refuse = self.scheme != FeatureScheme::paper_default();
        let mut leaders: Vec<Option<&QueryResult>> = vec![None; self.stmts.len() + 1];
        for (stmt, outcome) in self.stmts.iter().zip(&self.reference[&1]) {
            let what = &stmt.text;
            let answer = match outcome {
                Err(_) if stmt.kind == Kind::Error => continue,
                Err(QueryError::IndexUnavailable(_)) if may_refuse => continue,
                Err(e) => panic!("{what}: {e}"),
                Ok(_) if stmt.kind == Kind::Error => panic!("{what}: must fail"),
                Ok(answer) => answer,
            };
            let query = parse(what).expect("corpus statements parse");
            if let Err(why) = self.oracle.check(&query, &answer.output) {
                panic!("{what}: the engine and the time-domain definition disagree: {why}");
            }
            match leaders[stmt.group] {
                None => leaders[stmt.group] = Some(answer),
                Some(leader) => {
                    assert_outputs_bitwise_equal(leader, answer, &format!("{what} vs its group"))
                }
            }
            // A kNN by row id against the full-distance scan (the executor's
            // own route from a query row to its comparison spectrum).
            let by_row = |q| match q {
                Query::Knn {
                    k,
                    source: QuerySource::RowId(id),
                    transform,
                    on_both,
                    ..
                } => Some((k, id, transform, on_both)),
                _ => None,
            };
            if let Some((k, id, transform, on_both)) = by_row(query) {
                let mut spectrum = store.row(id).expect("row").features.spectrum.clone();
                if on_both {
                    spectrum = transform
                        .apply_spectrum(&spectrum, spectrum.len())
                        .expect("clause applies");
                }
                let (full, _) =
                    scan::scan_knn(store, &transform, &spectrum, k).expect("clause applies");
                let QueryOutput::Hits(hits) = &answer.output else {
                    panic!("{what}: hits")
                };
                let got: Vec<_> = hits.iter().map(|h| (h.id, h.distance.to_bits())).collect();
                let want: Vec<_> = full.iter().map(|h| (h.id, h.distance.to_bits())).collect();
                assert_eq!(got, want, "{what} vs scan::scan_knn");
            }
        }
    }

    /// The relation, its rows having arrived the `storage` way.
    pub fn database(&self, storage: Storage, shards: usize, wal: bool) -> (Database, Scratch) {
        use Storage::*;
        let scratch = Scratch::new();
        let register = |rows: &[Vec<f64>], shards: usize| {
            super::sharded_db(relation_with(rows, self.scheme.clone()), shards)
        };
        let (bulk, rest) = self.rows.split_at(self.split);
        let named = (bulk.len()..)
            .zip(rest)
            .map(|(i, s)| (format!("S{i}"), s.clone()));
        let dir = scratch.0.join("wal");
        let mut db = match storage {
            Built => register(&self.rows, shards),
            Reopened if !wal => register(&self.rows, shards),
            Resharded => register(&self.rows, 3),
            Incremental | BatchInserted | Reopened => register(bulk, shards),
        };
        if storage == Reopened {
            db.save_snapshot(&dir).expect("database saves");
            db = Database::open_durable(&dir).expect("database reopens").0;
        } else if wal {
            db.attach_wal(&dir).expect("log attaches");
        }
        match storage {
            Built => {}
            Reopened if !wal => {}
            Resharded => db.shard_relation("r", shards).expect("reshards"),
            BatchInserted => drop(
                db.insert_batch("r", named.collect())
                    .expect("batch inserts"),
            ),
            Incremental | Reopened => {
                for (name, series) in named {
                    let report = db.insert_into("r", name, series).expect("row inserts");
                    let built = report.nodes_built;
                    assert!(
                        built <= MAX_NODES_PER_INSERT,
                        "one insert built {built} nodes: a rebuild, not maintenance"
                    );
                }
            }
        }
        if storage == Reopened && wal {
            drop(db); // the crash: the saved prefix + log are all that is left
            db = Database::open_durable(&dir).expect("log replays").0;
        }
        (db, scratch)
    }

    /// Statements `picked` through one in-process front end (`None` where
    /// the front end has no such form: cursors yield rows, joins yield
    /// pairs).
    pub fn run(
        &self,
        db: &Database,
        front_end: FrontEnd,
        picked: &[usize],
    ) -> Vec<Option<Outcome>> {
        let stmts = picked.iter().map(|&i| &self.stmts[i]);
        let session = Session::new(db);
        match front_end {
            FrontEnd::Text => stmts.map(|s| Some(execute(db, &s.text))).collect(),
            FrontEnd::Prepared => stmts
                .map(|s| {
                    let bound = session.prepare(&s.template).and_then(|p| p.bind(&s.params));
                    Some(bound.and_then(|b| session.execute(&b)))
                })
                .collect(),
            FrontEnd::BatchSlot => {
                let texts: Vec<&str> = stmts.map(|s| s.text.as_str()).collect();
                let batch = execute_batch(db, &texts);
                batch.results.into_iter().map(Some).collect()
            }
            FrontEnd::CursorDrain => stmts
                .map(|s| {
                    (s.kind != Kind::Pairs).then(|| {
                        let mut cursor = session.cursor_text(&s.text)?;
                        let output = QueryOutput::Hits(cursor.drain_sorted());
                        let (plan, stats) = (cursor.plan().clone(), cursor.stats());
                        let (per_thread, per_shard) = (Vec::new(), Vec::new());
                        Ok(QueryResult {
                            output,
                            plan,
                            stats,
                            per_thread,
                            per_shard,
                        })
                    })
                })
                .collect(),
            FrontEnd::Remote => unreachable!("a server takes the database by value: check_on"),
        }
    }

    /// Runs the statements `only` keeps at every one of `points` and
    /// asserts each answers like the base point.
    pub fn check(&self, points: &[Config], only: impl Fn(&Stmt) -> bool) {
        let mut todo = points.to_vec();
        while let Some(&Config {
            storage,
            shards,
            wal,
            ..
        }) = todo.first()
        {
            let same_db = |c: &Config| (c.storage, c.shards, c.wal) == (storage, shards, wal);
            let (mut db, _scratch) = self.database(storage, shards, wal);
            for point in todo.iter().filter(|c| same_db(c)) {
                self.check_on(&mut db, point, &only);
            }
            todo.retain(|c| !same_db(c));
        }
    }

    /// [`check`](Self::check) for one point over a database the caller
    /// brought: `point` says how to ask (threads, front end) and what `db`
    /// is — its storage and shard count decide whether it owes the
    /// reference's exact work as well as its answers.
    pub fn check_on(&self, db: &mut Database, point: &Config, only: impl Fn(&Stmt) -> bool) {
        let picked: Vec<usize> = (0..self.stmts.len())
            .filter(|&i| only(&self.stmts[i]))
            .collect();
        db.set_parallelism(Parallelism::Fixed(point.threads));
        if point.front_end == FrontEnd::Remote {
            return self.check_remote(db, point, &picked);
        }
        let answers = self.run(db, point.front_end, &picked);
        for (&i, got) in picked.iter().zip(&answers) {
            if let Some(got) = got {
                self.compare(i, point, got);
            }
        }
    }

    /// Two databases that have left the oracle's map the same way — each
    /// took the same further rows — held to each other instead: every
    /// statement, bitwise, at 1 and 4 threads.
    pub fn assert_agree(&self, a: &mut Database, b: &mut Database, what: &str) {
        let all: Vec<usize> = (0..self.stmts.len()).collect();
        for threads in [1, 4] {
            a.set_parallelism(Parallelism::Fixed(threads));
            b.set_parallelism(Parallelism::Fixed(threads));
            let (x, y) = (
                self.run(a, FrontEnd::Text, &all),
                self.run(b, FrontEnd::Text, &all),
            );
            for ((x, y), stmt) in x.iter().zip(&y).zip(&self.stmts) {
                let what = format!("{what}: {} @ {threads}", stmt.text);
                same_outcome(x.as_ref().unwrap(), y.as_ref().unwrap(), &what);
            }
        }
    }

    /// [`check_on`](Self::check_on)'s `Remote` leg: `db` is served on
    /// loopback and comes back with the server's shutdown. One client
    /// prepares each statement's template and executes it with the
    /// template's constants. An answer must match the reference's output
    /// bitwise, its access path and its work; a failing statement must
    /// come back with the reference error's message. The connection keeps
    /// serving after every error, and lists what it prepared in name order.
    fn check_remote(&self, db: &mut Database, point: &Config, picked: &[usize]) {
        let server = Server::bind("127.0.0.1:0", std::mem::take(db)).expect("server binds");
        let mut client = Client::connect(server.local_addr()).expect("client connects");
        let mut registered = BTreeMap::new();
        for &i in picked {
            let (stmt, what) = (
                &self.stmts[i],
                format!("{} at {point:?}", self.stmts[i].text),
            );
            let name = format!("s{i}");
            let got = client.prepare(&name, &stmt.template).and_then(|_| {
                registered.insert(name.clone(), stmt.template.clone());
                client.exec(&name, stmt.params.clone(), Vec::new())
            });
            match (got, &self.reference[&1][i]) {
                (Ok(got), Ok(want)) => {
                    assert_output_values_bitwise_equal(&got.output, &want.output, &what);
                    assert_eq!(got.access, format!("{:?}", want.plan.access), "{what}");
                    self.same_work(i, point, got.stats, &what);
                }
                (Err(ClientError::Remote { message, .. }), Err(want)) => {
                    assert_eq!(message, want.to_string(), "{what}");
                }
                (got, want) => panic!("{what}: outcomes differ: {got:?} vs {want:?}"),
            }
        }
        let listed = client.list_prepared().expect("the connection still serves");
        assert_eq!(listed, registered.into_iter().collect::<Vec<_>>());
        client.goodbye().expect("orderly close");
        *db = server.shutdown().expect("the database comes back");
    }

    fn compare(&self, i: usize, point: &Config, got: &Outcome) {
        let what = format!("{} at {point:?}", self.stmts[i].text);
        same_outcome(got, &self.reference[&1][i], &what);
        if let Ok(got) = got {
            self.same_work(i, point, got.stats, &what);
        }
    }

    /// The threads a statement reported, and — where the point's trees are
    /// the reference's — its exact work.
    fn same_work(&self, i: usize, point: &Config, stats: ExecStats, what: &str) {
        let used = stats.threads_used;
        assert!(
            (1..=point.threads as u64).contains(&used),
            "{what}: {used} threads"
        );
        // Identical trees do identical work at any thread count, whichever
        // front end asks — but for a scan cursor testing the window before
        // the distance, not after.
        let same_trees = match point.storage {
            Storage::Built => true,
            Storage::Reopened => !point.wal,
            _ => false,
        };
        let reference = self.reference.get(&point.shards).filter(|_| same_trees);
        if let Some(Ok(want)) = reference.map(|r| &r[i]) {
            let streamed = point.front_end == FrontEnd::CursorDrain;
            let comparable = |s: ExecStats| ExecStats {
                coefficients_compared: if streamed { 0 } else { s.coefficients_compared },
                threads_used: 0,
                ..s
            };
            let (work, want) = (comparable(stats), comparable(want.stats));
            assert_eq!(work, want, "{what}: work differs");
        }
    }
}

/// The same answer bitwise, or the same error.
fn same_outcome(got: &Outcome, want: &Outcome, what: &str) {
    match (got, want) {
        (Ok(got), Ok(want)) => assert_outputs_bitwise_equal(got, want, what),
        (Err(got), Err(want)) => assert_eq!(got, want, "{what}"),
        other => panic!("{what}: outcomes differ: {other:?}"),
    }
}
