//! Blocking client for the simq wire protocol.
//!
//! [`Client`] speaks the frame protocol defined in `simq-server`'s
//! [`simq_server::wire`] and [`simq_server::proto`]
//! modules (one codec, both sides) over a `std::net::TcpStream`. Every
//! `f64` travels as its bit pattern, so the hits a client receives are
//! **bitwise identical** to what local execution on the server's
//! database returns — the property the configuration lattice's `Remote`
//! points pin (`tests/common/lattice.rs`).
//!
//! Streaming reads go through [`RemoteCursor`]: the client grants a
//! window of rows, the server pulls its lazy cursor no further than
//! the grant, and a partially consumed remote cursor therefore reads
//! strictly fewer index nodes than a full drain — the same
//! economy local cursors have, preserved end-to-end.

#![warn(missing_docs)]

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter};
use std::net::{TcpStream, ToSocketAddrs};

use simq_query::session::Value;
use simq_query::{ExecStats, Hit};
use simq_server::proto::{RemoteInsertReport, RemoteResult, Request, Response};
use simq_server::wire::{self, WireError};
use simq_server::ErrorCode;

/// Everything a client call can fail with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// A frame-layer failure (I/O, corruption, truncation, close).
    Wire(WireError),
    /// The server answered with a structured error frame.
    Remote {
        /// The server's failure class.
        code: ErrorCode,
        /// The server's message.
        message: String,
    },
    /// The server answered with a response the request cannot accept.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "{e}"),
            ClientError::Remote { code, message } => write!(f, "server error ({code}): {message}"),
            ClientError::Unexpected(what) => write!(f, "unexpected response: {what}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Wire(WireError::from(e))
    }
}

/// True when the error is the server's graceful-shutdown signal.
impl ClientError {
    /// Whether this error is the server's `shutdown` error frame — the
    /// clean end-of-stream a draining server sends, as opposed to a
    /// connection dropping mid-frame.
    pub fn is_shutdown(&self) -> bool {
        matches!(
            self,
            ClientError::Remote {
                code: ErrorCode::Shutdown,
                ..
            }
        )
    }
}

/// A connected wire-protocol client. All methods are blocking; a
/// client is single-threaded by construction (use one per thread).
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    server: String,
    generation: u64,
}

impl Client {
    /// Connects and performs the `Hello`/`HelloOk` handshake.
    ///
    /// # Errors
    /// Socket failures, or a server that answers the handshake with
    /// anything but `HelloOk`.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let read_half = stream.try_clone()?;
        let mut client = Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
            server: String::new(),
            generation: 0,
        };
        let hello = Request::Hello {
            client: format!("simq-client/{}", env!("CARGO_PKG_VERSION")),
        };
        match client.call(&hello)? {
            Response::HelloOk { server, generation } => {
                client.server = server;
                client.generation = generation;
                Ok(client)
            }
            other => Err(ClientError::Unexpected(format!(
                "handshake answered with {:?}",
                other.kind()
            ))),
        }
    }

    /// The server's self-identification from the handshake.
    pub fn server(&self) -> &str {
        &self.server
    }

    /// The server's catalog generation at handshake time.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn send(&mut self, req: &Request) -> Result<(), ClientError> {
        use std::io::Write as _;
        wire::write_frame(&mut self.writer, req.kind(), &req.encode())?;
        self.writer.flush()?;
        Ok(())
    }

    fn receive(&mut self) -> Result<Response, ClientError> {
        let (kind, payload) = wire::read_frame(&mut self.reader)?;
        Ok(Response::decode(kind, &payload)?)
    }

    /// Sends one request and reads its one response — the shape of every
    /// request but `OpenCursor`, whose replies [`Client::open_cursor`]
    /// streams.
    ///
    /// # Errors
    /// Wire failures; an error frame comes back as
    /// [`ClientError::Remote`].
    pub fn call(&mut self, req: &Request) -> Result<Response, ClientError> {
        self.send(req)?;
        match self.receive()? {
            Response::Error { code, message } => Err(ClientError::Remote { code, message }),
            resp => Ok(resp),
        }
    }

    /// Executes a query text, materialized on the server.
    ///
    /// # Errors
    /// [`ClientError::Remote`] carries the server-side query error.
    pub fn query(&mut self, text: &str) -> Result<RemoteResult, ClientError> {
        match self.call(&Request::Query { text: text.into() })? {
            Response::Result(result) => Ok(result),
            other => Err(ClientError::Unexpected(format!("{:?}", other.kind()))),
        }
    }

    /// Registers `text` as prepared statement `name` on the server,
    /// returning the printable signature (one line per slot).
    ///
    /// # Errors
    /// [`ClientError::Remote`] on parse/plan failure.
    pub fn prepare(&mut self, name: &str, text: &str) -> Result<Vec<String>, ClientError> {
        let req = Request::Prepare {
            name: name.into(),
            text: text.into(),
        };
        match self.call(&req)? {
            Response::PreparedOk { signature, .. } => Ok(signature),
            other => Err(ClientError::Unexpected(format!("{:?}", other.kind()))),
        }
    }

    /// Executes registered statement `name` with bound arguments.
    ///
    /// # Errors
    /// [`ClientError::Remote`] for unknown names, bind errors, and
    /// execution failures.
    pub fn exec(
        &mut self,
        name: &str,
        positional: Vec<Value>,
        named: Vec<(String, Value)>,
    ) -> Result<RemoteResult, ClientError> {
        let req = Request::Exec {
            name: name.into(),
            positional,
            named,
        };
        match self.call(&req)? {
            Response::Result(result) => Ok(result),
            other => Err(ClientError::Unexpected(format!("{:?}", other.kind()))),
        }
    }

    /// Lists the connection's registered statements, in name order.
    ///
    /// # Errors
    /// Wire failures only.
    pub fn list_prepared(&mut self) -> Result<Vec<(String, String)>, ClientError> {
        match self.call(&Request::ListPrepared)? {
            Response::PreparedList { entries } => Ok(entries),
            other => Err(ClientError::Unexpected(format!("{:?}", other.kind()))),
        }
    }

    /// Inserts rows through the server's coalescing durable write path.
    /// When the acknowledgment returns, the rows are applied (and WAL-
    /// synced when the server's database is durable): any query
    /// admitted afterwards — on any connection — sees them.
    ///
    /// # Errors
    /// [`ClientError::Remote`] when the whole batch was rejected.
    pub fn insert(
        &mut self,
        relation: &str,
        rows: Vec<(String, Vec<f64>)>,
    ) -> Result<RemoteInsertReport, ClientError> {
        let req = Request::Insert {
            relation: relation.into(),
            rows,
        };
        match self.call(&req)? {
            Response::Inserted(report) => Ok(report),
            other => Err(ClientError::Unexpected(format!("{:?}", other.kind()))),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    /// Wire failures only.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Ping)? {
            Response::Pong => Ok(()),
            other => Err(ClientError::Unexpected(format!("{:?}", other.kind()))),
        }
    }

    /// Orderly close: `Goodbye`, wait for `Bye`, drop the connection.
    ///
    /// # Errors
    /// Wire failures only.
    pub fn goodbye(mut self) -> Result<(), ClientError> {
        match self.call(&Request::Goodbye)? {
            Response::Bye => Ok(()),
            other => Err(ClientError::Unexpected(format!("{:?}", other.kind()))),
        }
    }

    /// Opens a streaming cursor with an initial window of `window`
    /// rows, consuming the server's first burst (rows up to the window,
    /// then a suspension or completion).
    ///
    /// While the cursor lives the connection is dedicated to it: drop
    /// it only after [`RemoteCursor::close`] or once
    /// [`RemoteCursor::is_done`].
    ///
    /// # Errors
    /// [`ClientError::Remote`] when the query cannot open a cursor.
    pub fn open_cursor(
        &mut self,
        text: &str,
        window: u32,
    ) -> Result<RemoteCursor<'_>, ClientError> {
        self.send(&Request::OpenCursor {
            text: text.into(),
            window,
        })?;
        let mut cursor = RemoteCursor {
            client: self,
            buffered: VecDeque::new(),
            stats: None,
        };
        cursor.pump()?;
        Ok(cursor)
    }
}

/// The client half of a streaming cursor: buffered rows plus the
/// window-grant control channel.
pub struct RemoteCursor<'a> {
    client: &'a mut Client,
    buffered: VecDeque<Hit>,
    stats: Option<ExecStats>,
}

impl RemoteCursor<'_> {
    /// Reads server frames until the current window suspends or the
    /// cursor completes.
    fn pump(&mut self) -> Result<(), ClientError> {
        loop {
            match self.client.receive()? {
                Response::Rows { hits } => self.buffered.extend(hits),
                Response::CursorSuspended => return Ok(()),
                Response::CursorDone { stats } => {
                    self.stats = Some(stats);
                    return Ok(());
                }
                Response::Error { code, message } => {
                    return Err(ClientError::Remote { code, message })
                }
                other => {
                    return Err(ClientError::Unexpected(format!("{:?}", other.kind())));
                }
            }
        }
    }

    /// Grants the server another `window` rows and consumes its burst.
    /// A no-op once the cursor is done.
    ///
    /// # Errors
    /// [`ClientError::Remote`] with `is_shutdown() == true` when the
    /// server drained this cursor during shutdown.
    pub fn fetch(&mut self, window: u32) -> Result<(), ClientError> {
        if self.stats.is_some() {
            return Ok(());
        }
        self.client.send(&Request::Fetch { window })?;
        self.pump()
    }

    /// Takes every row buffered so far (in cursor traversal order, as
    /// with local cursors — not `(distance, id)` order).
    pub fn take_hits(&mut self) -> Vec<Hit> {
        self.buffered.drain(..).collect()
    }

    /// True once the server reported the cursor complete.
    pub fn is_done(&self) -> bool {
        self.stats.is_some()
    }

    /// The cursor's final work counters, once done: for a partially
    /// consumed cursor these show strictly fewer `nodes_visited` than a
    /// full drain of the same query.
    pub fn stats(&self) -> Option<&ExecStats> {
        self.stats.as_ref()
    }

    /// Ends the cursor: if the server still holds it open, asks it to
    /// close and returns the final (partial-consumption) stats. Rows
    /// still buffered locally are discarded — [`RemoteCursor::take_hits`]
    /// first if they matter.
    ///
    /// # Errors
    /// Wire failures; a shutdown error frame surfaces as
    /// [`ClientError::Remote`].
    pub fn close(self) -> Result<ExecStats, ClientError> {
        if let Some(stats) = self.stats {
            return Ok(stats);
        }
        self.client.send(&Request::CloseCursor)?;
        loop {
            match self.client.receive()? {
                // A race is impossible (the server only sends between
                // our requests), but tolerate straggler row frames.
                Response::Rows { .. } => continue,
                Response::CursorDone { stats } => return Ok(stats),
                Response::Error { code, message } => {
                    return Err(ClientError::Remote { code, message })
                }
                other => return Err(ClientError::Unexpected(format!("{:?}", other.kind()))),
            }
        }
    }
}
