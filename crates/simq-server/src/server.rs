//! The network service: a [`TcpListener`] accept loop over a bounded
//! pool of connection threads, each owning a wire session.
//!
//! ## Concurrency model
//!
//! * **Reads never block on writers.** The shared database sits behind
//!   an [`RwLock`], but connection threads hold the read lock only long
//!   enough to take a [`ReadView`] (a shallow, Arc-shared catalog
//!   clone) and then execute entirely off-lock against the frozen
//!   generation. Each connection keeps a `Session<ReadView>` (its
//!   prepared statements and counters run against that view) and swaps
//!   it for a fresh view whenever the live generation has moved on — so
//!   a query admitted after an acknowledged insert always sees it.
//! * **Writes coalesce.** Inserts enqueue onto a shared pending queue
//!   and then contend for the write lock; whichever thread gets it
//!   (the *leader*) drains the whole queue, groups rows by relation,
//!   and commits each group through [`Database::insert_batch`] — one
//!   WAL sync per touched shard for the entire group, no matter how
//!   many client connections contributed rows. Followers just wait on
//!   their tickets.
//! * **Cursors stream with backpressure.** An open cursor turns the
//!   connection into a half-duplex pump: the server pulls at most the
//!   granted window of rows from the lazy [`Cursor`](simq_query::Cursor)
//!   and suspends, so a client that stops fetching stops the index
//!   descent — partial consumption reads strictly fewer tree nodes,
//!   end-to-end.
//! * **Shutdown drains.** [`Server::shutdown`] stops the accept loop,
//!   lets every in-flight request complete, sends clients a structured
//!   `shutdown` error frame (including mid-cursor), and joins all
//!   threads.

use std::collections::{BTreeMap, VecDeque};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use simq_obs::metrics::registry;
use simq_query::session::Session;
use simq_query::{Database, ReadView};

use crate::connection::{query_error, Connection};
use crate::proto::{ErrorCode, RemoteInsertReport, Request, Response};
use crate::wire::{self, FrameKind, WireError};

/// How long a blocked read waits before re-checking the shutdown flag.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

/// Tuning knobs for [`Server::bind_with`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum live connection threads; further connects queue in the
    /// listener backlog until a slot frees up (the bounded accept pool).
    pub max_connections: usize,
    /// Hits per `Rows` frame when streaming cursor windows.
    pub chunk_rows: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            chunk_rows: 64,
        }
    }
}

/// State shared by the accept loop and every connection thread.
struct Shared {
    db: RwLock<Database>,
    writes: Mutex<VecDeque<PendingWrite>>,
    shutdown: AtomicBool,
    config: ServerConfig,
}

/// One client's enqueued insert, waiting for a group-commit leader.
struct PendingWrite {
    relation: String,
    rows: Vec<(String, Vec<f64>)>,
    ticket: Arc<Ticket>,
}

/// Completion slot a follower waits on while a leader commits its rows.
struct Ticket {
    done: Mutex<Option<Result<RemoteInsertReport, String>>>,
    cv: Condvar,
}

impl Ticket {
    fn new() -> Self {
        Ticket {
            done: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn complete(&self, result: Result<RemoteInsertReport, String>) {
        *self.done.lock().expect("ticket lock") = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<RemoteInsertReport, String> {
        let mut done = self.done.lock().expect("ticket lock");
        loop {
            if let Some(result) = done.take() {
                return result;
            }
            done = self.cv.wait(done).expect("ticket lock");
        }
    }
}

/// A running simq server. Dropping it **without** calling
/// [`Server::shutdown`] leaves the threads serving until process exit.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts
    /// serving `db` with the default [`ServerConfig`].
    ///
    /// # Errors
    /// Any socket-level failure from bind.
    pub fn bind(addr: impl ToSocketAddrs, db: Database) -> std::io::Result<Server> {
        Server::bind_with(addr, db, ServerConfig::default())
    }

    /// [`Server::bind`] with explicit tuning.
    ///
    /// # Errors
    /// Any socket-level failure from bind.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        db: Database,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            db: RwLock::new(db),
            writes: Mutex::new(VecDeque::new()),
            shutdown: AtomicBool::new(false),
            config,
        });
        let for_accept = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("simq-accept".into())
            .spawn(move || accept_loop(listener, for_accept))?;
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stop accepting, let in-flight requests finish,
    /// send connected clients a `shutdown` error frame, join every
    /// thread, and hand the database back (with its durable write path
    /// intact). Returns `None` only if some other clone of the shared
    /// state outlives the server, which does not happen once all
    /// threads are joined.
    pub fn shutdown(mut self) -> Option<Database> {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            handle.join().ok();
        }
        let shared = Arc::clone(&self.shared);
        drop(self);
        Arc::try_unwrap(shared)
            .ok()
            .map(|s| s.db.into_inner().expect("db lock poisoned"))
    }
}

/// Accepts connections, keeping at most `max_connections` live threads
/// (the bounded pool); at capacity it parks until a slot frees. On
/// shutdown it drops the listener (new connects are refused) and joins
/// every connection thread — that join is the drain.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Reap finished connection threads.
        let mut i = 0;
        while i < handles.len() {
            if handles[i].is_finished() {
                handles.swap_remove(i).join().ok();
            } else {
                i += 1;
            }
        }
        if handles.len() >= shared.config.max_connections {
            std::thread::sleep(Duration::from_millis(5));
            continue;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let m = registry();
                m.server_connections.fetch_add(1, Ordering::Relaxed);
                m.server_connections_active.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(&shared);
                let handle =
                    std::thread::Builder::new()
                        .name("simq-conn".into())
                        .spawn(move || {
                            serve_connection(stream, &shared);
                            registry()
                                .server_connections_active
                                .fetch_sub(1, Ordering::Relaxed);
                        });
                match handle {
                    Ok(h) => handles.push(h),
                    Err(_) => {
                        registry()
                            .server_connections_active
                            .fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
    drop(listener);
    for h in handles {
        h.join().ok();
    }
}

// ---------------------------------------------------------------------------
// Metered stream wrappers (feed the server.* byte counters)
// ---------------------------------------------------------------------------

struct MeteredReader<R: Read>(R);

impl<R: Read> Read for MeteredReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.read(buf)?;
        registry()
            .server_bytes_received
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

struct MeteredWriter<W: Write>(W);

impl<W: Write> Write for MeteredWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.0.write(buf)?;
        registry()
            .server_bytes_sent
            .fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

/// A reader that rides out socket read timeouts *mid-frame* (the
/// connection's poll interval) so `read_exact` survives a slow sender.
struct PatientReader<'a, R: Read> {
    inner: &'a mut R,
}

impl<R: Read> Read for PatientReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            match self.inner.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    continue
                }
                other => return other,
            }
        }
    }
}

/// Outcome of one shutdown-aware frame poll.
enum Polled {
    /// A complete frame arrived.
    Frame(FrameKind, Vec<u8>),
    /// The shutdown flag was raised while waiting.
    ShuttingDown,
}

/// Waits for the next frame, re-checking the shutdown flag every
/// [`POLL_INTERVAL`] while the connection is idle.
fn poll_frame<R: Read>(reader: &mut R, shared: &Shared) -> Result<Polled, WireError> {
    let mut first = [0u8; 1];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Ok(Polled::ShuttingDown);
        }
        match reader.read(&mut first) {
            Ok(0) => return Err(WireError::Closed),
            Ok(_) => {
                let mut patient = PatientReader { inner: reader };
                let (kind, payload) = wire::read_frame_after(first[0], &mut patient)?;
                registry()
                    .server_frames_received
                    .fetch_add(1, Ordering::Relaxed);
                return Ok(Polled::Frame(kind, payload));
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => return Err(e.into()),
        }
    }
}

/// Writes one response frame and flushes it out.
fn send<W: Write>(writer: &mut W, resp: &Response) -> Result<(), WireError> {
    wire::write_frame(writer, resp.kind(), &resp.encode())?;
    writer.flush()?;
    let m = registry();
    m.server_frames_sent.fetch_add(1, Ordering::Relaxed);
    if matches!(resp, Response::Error { .. }) {
        m.server_errors.fetch_add(1, Ordering::Relaxed);
    }
    Ok(())
}

/// Sends a protocol-violation error frame; the caller then closes the
/// connection.
fn refuse<W: Write>(writer: &mut W, message: impl ToString) {
    let (code, message) = (ErrorCode::Protocol, message.to_string());
    send(writer, &Response::Error { code, message }).ok();
}

fn shutdown_error() -> Response {
    Response::Error {
        code: ErrorCode::Shutdown,
        message: "server is shutting down".into(),
    }
}

/// Re-pins the connection's session to the current catalog generation.
/// Cheap when nothing changed (one read-lock acquisition and a
/// generation compare); on change the session is rebuilt around the
/// fresh view, and the prepared statements stay registered.
fn refresh(conn: &mut Connection<ReadView>, shared: &Shared) {
    let view = shared.db.read().expect("db lock poisoned").read_view();
    if view.generation() != conn.session.db().generation() {
        conn.session = Session::new(view);
    }
}

/// Drives one connection from handshake to close.
fn serve_connection(stream: TcpStream, shared: &Shared) {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(POLL_INTERVAL)).ok();
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(MeteredReader(read_half));
    let mut writer = BufWriter::new(MeteredWriter(stream));

    // Handshake: the first frame must be Hello.
    match poll_frame(&mut reader, shared) {
        Ok(Polled::Frame(kind, payload)) => match Request::decode(kind, &payload) {
            Ok(Request::Hello { client: _ }) => {
                let generation = shared
                    .db
                    .read()
                    .expect("db lock poisoned")
                    .read_view()
                    .generation();
                let hello = Response::HelloOk {
                    server: format!("simq-server/{}", env!("CARGO_PKG_VERSION")),
                    generation,
                };
                if send(&mut writer, &hello).is_err() {
                    return;
                }
            }
            Ok(_) => {
                refuse(&mut writer, "expected Hello as the first frame");
                return;
            }
            Err(e) => {
                refuse(&mut writer, e);
                return;
            }
        },
        Ok(Polled::ShuttingDown) => {
            send(&mut writer, &shutdown_error()).ok();
            return;
        }
        Err(WireError::Closed) => return,
        Err(e) => {
            // Malformed first frame: structured error, then close.
            refuse(&mut writer, e);
            return;
        }
    }

    let view = shared.db.read().expect("db lock poisoned").read_view();
    let mut state = Connection::new(Session::new(view));

    loop {
        let (kind, payload) = match poll_frame(&mut reader, shared) {
            Ok(Polled::Frame(kind, payload)) => (kind, payload),
            Ok(Polled::ShuttingDown) => {
                send(&mut writer, &shutdown_error()).ok();
                return;
            }
            Err(WireError::Closed) => return,
            Err(e) => {
                refuse(&mut writer, e);
                return;
            }
        };
        let m = registry();
        m.server_in_flight.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let keep_going = handle_frame(kind, &payload, shared, &mut state, &mut reader, &mut writer);
        m.server_frame_latency
            .record(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        m.server_in_flight.fetch_sub(1, Ordering::Relaxed);
        if !keep_going {
            return;
        }
    }
}

/// Dispatches one decoded top-level frame: what needs the socket or the
/// shared lock is served here, everything else by
/// [`Connection::respond`]. Returns false when the connection should
/// close.
fn handle_frame<R: Read, W: Write>(
    kind: FrameKind,
    payload: &[u8],
    shared: &Shared,
    state: &mut Connection<ReadView>,
    reader: &mut R,
    writer: &mut W,
) -> bool {
    let request = match Request::decode(kind, payload) {
        Ok(r) => r,
        Err(e) => {
            // A structurally invalid payload (or a response frame type
            // from a confused peer): structured error, clean close.
            refuse(writer, e);
            return false;
        }
    };
    match request {
        Request::Hello { .. } => {
            refuse(writer, "connection is already greeted");
            false
        }
        Request::OpenCursor { text, window } => {
            serve_cursor(shared, state, reader, writer, &text, window)
        }
        Request::Insert { relation, rows } => {
            let resp = match submit_insert(shared, relation, rows) {
                Ok(report) => Response::Inserted(report),
                Err(message) => Response::Error {
                    code: ErrorCode::Query,
                    message,
                },
            };
            send(writer, &resp).is_ok()
        }
        Request::Goodbye => {
            send(writer, &Response::Bye).ok();
            false
        }
        request => {
            refresh(state, shared);
            send(writer, &state.respond(request)).is_ok()
        }
    }
}

/// Streams one cursor with window-based backpressure. The connection is
/// half-duplex while the cursor lives: only `Fetch`, `CloseCursor` and
/// `Goodbye` are honored until the cursor ends. Returns false when the
/// connection should close.
fn serve_cursor<R: Read, W: Write>(
    shared: &Shared,
    state: &mut Connection<ReadView>,
    reader: &mut R,
    writer: &mut W,
    text: &str,
    window: u32,
) -> bool {
    refresh(state, shared);
    let mut cursor = match state.session.cursor_text(text) {
        Ok(c) => c,
        Err(e) => return send(writer, &query_error(&e)).is_ok(),
    };
    let chunk_rows = shared.config.chunk_rows.max(1);
    let mut budget = u64::from(window);
    loop {
        // Pull at most the granted window, a chunk at a time. The pull
        // is the backpressure: rows the client never granted are never
        // pulled, so the index descent they would cost never happens.
        let mut drained = false;
        while budget > 0 && !drained {
            let take = usize::try_from(budget.min(chunk_rows as u64)).expect("chunk fits usize");
            let mut chunk = Vec::with_capacity(take);
            while chunk.len() < take {
                match cursor.next() {
                    Some(hit) => chunk.push(hit),
                    None => {
                        drained = true;
                        break;
                    }
                }
            }
            budget -= chunk.len() as u64;
            if !chunk.is_empty() && send(writer, &Response::Rows { hits: chunk }).is_err() {
                return false;
            }
        }
        if drained {
            let stats = cursor.stats();
            return send(writer, &Response::CursorDone { stats }).is_ok();
        }
        // Window exhausted: suspend and wait for the next grant.
        if send(writer, &Response::CursorSuspended).is_err() {
            return false;
        }
        loop {
            match poll_frame(reader, shared) {
                Ok(Polled::Frame(kind, payload)) => match Request::decode(kind, &payload) {
                    Ok(Request::Fetch { window }) => {
                        budget += u64::from(window);
                        break;
                    }
                    Ok(Request::CloseCursor) => {
                        let stats = cursor.stats();
                        return send(writer, &Response::CursorDone { stats }).is_ok();
                    }
                    Ok(Request::Goodbye) => {
                        send(writer, &Response::Bye).ok();
                        return false;
                    }
                    Ok(_) => {
                        // Any other request while a cursor is open is a
                        // state error, but not fatal — the cursor stays.
                        if send(
                            writer,
                            &Response::Error {
                                code: ErrorCode::Unsupported,
                                message:
                                    "a cursor is open: only Fetch, CloseCursor or Goodbye are valid"
                                        .into(),
                            },
                        )
                        .is_err()
                        {
                            return false;
                        }
                    }
                    Err(e) => {
                        refuse(writer, e);
                        return false;
                    }
                },
                Ok(Polled::ShuttingDown) => {
                    // The mid-cursor client gets a clean, structured
                    // end-of-stream error — never a hang.
                    send(writer, &shutdown_error()).ok();
                    return false;
                }
                Err(WireError::Closed) => return false,
                Err(e) => {
                    refuse(writer, e);
                    return false;
                }
            }
        }
    }
}

/// The coalescing write path: enqueue, contend for the write lock, and
/// whoever wins commits the whole queue. Returns this request's slice
/// of the group report.
fn submit_insert(
    shared: &Shared,
    relation: String,
    rows: Vec<(String, Vec<f64>)>,
) -> Result<RemoteInsertReport, String> {
    let ticket = Arc::new(Ticket::new());
    shared
        .writes
        .lock()
        .expect("write queue lock")
        .push_back(PendingWrite {
            relation,
            rows,
            ticket: Arc::clone(&ticket),
        });
    {
        // Become the leader (or queue behind one). By the time this
        // thread holds the write lock, an earlier leader may already
        // have committed our rows — then the drained queue is simply
        // empty (or holds later arrivals, which we now lead).
        let mut db = shared.db.write().expect("db lock poisoned");
        let drained: Vec<PendingWrite> = shared
            .writes
            .lock()
            .expect("write queue lock")
            .drain(..)
            .collect();
        commit_group(&mut db, drained);
    }
    ticket.wait()
}

/// Commits one drained write group: rows grouped by relation (arrival
/// order preserved within a group), one [`Database::insert_batch`] per
/// relation — so the whole group pays one WAL sync per touched shard —
/// and every ticket completed with its own slice of the report.
fn commit_group(db: &mut Database, drained: Vec<PendingWrite>) {
    // Group indices by relation, preserving first-appearance order.
    let mut order: Vec<String> = Vec::new();
    let mut groups: BTreeMap<String, Vec<usize>> = BTreeMap::new();
    for (i, w) in drained.iter().enumerate() {
        if !groups.contains_key(&w.relation) {
            order.push(w.relation.clone());
        }
        groups.entry(w.relation.clone()).or_default().push(i);
    }
    for relation in order {
        let members = &groups[&relation];
        let mut all_rows: Vec<(String, Vec<f64>)> = Vec::new();
        let mut offsets: Vec<(usize, usize)> = Vec::new(); // (member, start)
        for &i in members {
            offsets.push((i, all_rows.len()));
            all_rows.extend(drained[i].rows.iter().cloned());
        }
        let group_rows = all_rows.len() as u64;
        match db.insert_batch(&relation, all_rows) {
            Ok(report) => {
                let logged = report.wal_records > 0;
                for &(i, start) in &offsets {
                    let end = start + drained[i].rows.len();
                    let ids: Vec<u64> = report
                        .acked
                        .iter()
                        .filter(|(idx, _)| *idx >= start && *idx < end)
                        .map(|(_, r)| r.id)
                        .collect();
                    let failed: Vec<(u64, String)> = report
                        .failed
                        .iter()
                        .filter(|(idx, _)| *idx >= start && *idx < end)
                        .map(|(idx, why)| ((idx - start) as u64, why.clone()))
                        .collect();
                    let slice = RemoteInsertReport {
                        wal_records: if logged { ids.len() as u64 } else { 0 },
                        ids,
                        failed,
                        shards_touched: report.shards_touched as u64,
                        // The group's syncs are shared: every member
                        // reports them, which is exactly the coalescing
                        // evidence (N members, one set of syncs).
                        wal_syncs: report.wal_syncs,
                        group_nodes_built: report.nodes_built,
                        group_rows,
                    };
                    drained[i].ticket.complete(Ok(slice));
                }
            }
            Err(e) => {
                let message = e.to_string();
                for &i in members {
                    drained[i].ticket.complete(Err(message.clone()));
                }
            }
        }
    }
}
