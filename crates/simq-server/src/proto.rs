//! Typed messages over the frame layer: every [`Request`] and
//! [`Response`] the protocol speaks, with payload encode/decode.
//!
//! Scalars travel little-endian and every `f64` travels as its
//! IEEE-754 bit pattern, so a [`Hit`] decoded on the client is bitwise
//! identical to the one the server pulled from its cursor — the wire
//! adds no rounding step, which is what lets `tests/server_equivalence.rs`
//! compare remote results to local execution with `to_bits()`.

use simq_query::session::Value;
use simq_query::{ExecStats, Hit, PairHit, QueryOutput};

use crate::wire::{FrameKind, PayloadReader, PayloadWriter, WireError};

/// A client → server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Handshake opener; must be the first frame on a connection.
    Hello {
        /// Free-form client identification (shown in server logs only).
        client: String,
    },
    /// Execute a query text, materialized.
    Query {
        /// The query text, exactly as the REPL would run it.
        text: String,
    },
    /// Register `text` under `name` in the connection's registry
    /// (re-preparing an existing name replaces it, as `\prepare` does).
    Prepare {
        /// Registry key.
        name: String,
        /// Statement text with `?` / `$name` placeholders.
        text: String,
    },
    /// Execute the registered statement `name` with bound arguments.
    Exec {
        /// Registry key from a prior [`Request::Prepare`].
        name: String,
        /// Positional arguments, in `?` order.
        positional: Vec<Value>,
        /// Named arguments (`$name`), in any order.
        named: Vec<(String, Value)>,
    },
    /// List the connection's registered statements.
    ListPrepared,
    /// Open a streaming cursor over `text` with an initial window of
    /// `window` rows. At most one cursor is open per connection.
    OpenCursor {
        /// The range/kNN query text.
        text: String,
        /// Rows the server may send before suspending.
        window: u32,
    },
    /// Grant the open cursor another `window` rows.
    Fetch {
        /// Additional rows the server may send.
        window: u32,
    },
    /// Close the open cursor before draining it.
    CloseCursor,
    /// Insert rows through the server's coalescing durable write path.
    Insert {
        /// Target relation.
        relation: String,
        /// `(name, series)` rows, in insertion order.
        rows: Vec<(String, Vec<f64>)>,
    },
    /// Liveness probe.
    Ping,
    /// Orderly close; the server answers [`Response::Bye`] and hangs up.
    Goodbye,
}

/// A server → client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// Server software identification.
        server: String,
        /// Catalog generation at accept time.
        generation: u64,
    },
    /// A materialized query result.
    Result(RemoteResult),
    /// Statement registered.
    PreparedOk {
        /// Registry key.
        name: String,
        /// Human-readable signature, one entry per slot
        /// (`"$eps: number (EPSILON)"`-style).
        signature: Vec<String>,
    },
    /// The registry listing, in name order.
    PreparedList {
        /// `(name, statement text)` pairs.
        entries: Vec<(String, String)>,
    },
    /// A chunk of cursor rows, in cursor traversal order.
    Rows {
        /// The hits; bitwise identical to the server's cursor output.
        hits: Vec<Hit>,
    },
    /// The granted window is exhausted; the cursor stays open and the
    /// server reads only `Fetch`/`CloseCursor` until drained.
    CursorSuspended,
    /// The cursor is drained or was closed; final incremental stats.
    CursorDone {
        /// The cursor's work counters at the moment it ended — for a
        /// partially consumed cursor, strictly less traversal than a
        /// full drain.
        stats: ExecStats,
    },
    /// Insert acknowledged and durable (WAL synced when attached).
    Inserted(RemoteInsertReport),
    /// `Ping` reply.
    Pong,
    /// `Goodbye` reply.
    Bye,
    /// Any failure.
    Error {
        /// Machine-readable failure class.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Failure classes for [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The frame or payload violated the protocol (also precedes a
    /// connection close).
    Protocol = 1,
    /// A well-formed request the server cannot honor in this state
    /// (e.g. a second cursor while one is open).
    Unsupported = 2,
    /// The query/statement failed (parse, bind, plan, execute).
    Query = 3,
    /// The server is shutting down; in-flight work was drained.
    Shutdown = 4,
}

impl ErrorCode {
    fn from_u8(b: u8) -> Result<ErrorCode, WireError> {
        Ok(match b {
            1 => ErrorCode::Protocol,
            2 => ErrorCode::Unsupported,
            3 => ErrorCode::Query,
            4 => ErrorCode::Shutdown,
            other => return Err(WireError::Malformed(format!("unknown error code {other}"))),
        })
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::Unsupported => "unsupported",
            ErrorCode::Query => "query",
            ErrorCode::Shutdown => "shutdown",
        })
    }
}

/// A query result as it travels the wire: the output rows plus what the
/// REPL needs to print its stat line identically to local execution.
#[derive(Debug, Clone, PartialEq)]
pub struct RemoteResult {
    /// The result rows, bitwise identical to local execution.
    pub output: QueryOutput,
    /// `Debug` rendering of the plan's access path (`IndexScan`, …).
    pub access: String,
    /// Merged work counters.
    pub stats: ExecStats,
    /// Always empty, like the `QueryResult::per_thread` it carries; the
    /// wire keeps its count-prefixed block (count 0) for protocol
    /// version 2 peers.
    pub per_thread: Vec<ExecStats>,
}

/// An insert acknowledgment: the write-side counters the REPL prints,
/// plus the coalescing evidence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteInsertReport {
    /// Ids assigned to acknowledged rows, in insertion order.
    pub ids: Vec<u64>,
    /// `(row index, reason)` for rows that failed validation.
    pub failed: Vec<(u64, String)>,
    /// Shards touched by this request's slice of the write group.
    pub shards_touched: u64,
    /// WAL records appended for this request.
    pub wal_records: u64,
    /// Physical WAL syncs the whole write group paid. Under concurrent
    /// writers this is shared across coalesced requests, so per-request
    /// it can be less than `wal_records` — the group-commit win.
    pub wal_syncs: u64,
    /// R*-tree nodes built maintaining indexes for the group.
    pub group_nodes_built: u64,
    /// Rows the whole coalesced write group committed together (≥ this
    /// request's row count when neighbors were drained into one batch).
    pub group_rows: u64,
}

// ---------------------------------------------------------------------------
// Field-level helpers
// ---------------------------------------------------------------------------

fn put_value(w: &mut PayloadWriter, v: &Value) {
    match v {
        Value::Number(n) => {
            w.put_u8(0);
            w.put_f64(*n);
        }
        Value::Series(s) => {
            w.put_u8(1);
            w.put_series(s);
        }
    }
}

fn get_value(r: &mut PayloadReader<'_>) -> Result<Value, WireError> {
    match r.get_u8()? {
        0 => Ok(Value::Number(r.get_f64()?)),
        1 => Ok(Value::Series(r.get_series()?)),
        t => Err(WireError::Malformed(format!("unknown value tag {t}"))),
    }
}

fn put_stats(w: &mut PayloadWriter, s: &ExecStats) {
    for v in [
        s.nodes_visited,
        s.leaves_visited,
        s.entries_tested,
        s.rows_scanned,
        s.coefficients_compared,
        s.candidates,
        s.filtered_out,
        s.verified,
        s.threads_used,
        s.shards_touched,
        s.nodes_built,
        s.wal_records,
        s.wal_syncs,
    ] {
        w.put_u64(v);
    }
}

fn get_stats(r: &mut PayloadReader<'_>) -> Result<ExecStats, WireError> {
    Ok(ExecStats {
        nodes_visited: r.get_u64()?,
        leaves_visited: r.get_u64()?,
        entries_tested: r.get_u64()?,
        rows_scanned: r.get_u64()?,
        coefficients_compared: r.get_u64()?,
        candidates: r.get_u64()?,
        filtered_out: r.get_u64()?,
        verified: r.get_u64()?,
        threads_used: r.get_u64()?,
        shards_touched: r.get_u64()?,
        nodes_built: r.get_u64()?,
        wal_records: r.get_u64()?,
        wal_syncs: r.get_u64()?,
    })
}

fn put_hits(w: &mut PayloadWriter, hits: &[Hit]) {
    w.put_u32(hits.len() as u32);
    for h in hits {
        w.put_u64(h.id);
        w.put_str(&h.name);
        w.put_f64(h.distance);
    }
}

fn get_hits(r: &mut PayloadReader<'_>) -> Result<Vec<Hit>, WireError> {
    let n = r.get_u32()? as usize;
    let mut hits = Vec::with_capacity(n.min(4096));
    for _ in 0..n {
        hits.push(Hit {
            id: r.get_u64()?,
            name: r.get_str()?,
            distance: r.get_f64()?,
        });
    }
    Ok(hits)
}

fn put_output(w: &mut PayloadWriter, output: &QueryOutput) {
    match output {
        QueryOutput::Hits(hits) => {
            w.put_u8(0);
            put_hits(w, hits);
        }
        QueryOutput::Pairs(pairs) => {
            w.put_u8(1);
            w.put_u32(pairs.len() as u32);
            for p in pairs {
                w.put_u64(p.a);
                w.put_u64(p.b);
                w.put_f64(p.distance);
            }
        }
        QueryOutput::Plan(text) => {
            w.put_u8(2);
            w.put_str(text);
        }
        QueryOutput::Analyzed { report, output } => {
            w.put_u8(3);
            w.put_str(report);
            put_output(w, output);
        }
    }
}

fn get_output(r: &mut PayloadReader<'_>) -> Result<QueryOutput, WireError> {
    get_output_depth(r, 0)
}

fn get_output_depth(r: &mut PayloadReader<'_>, depth: u8) -> Result<QueryOutput, WireError> {
    // EXPLAIN ANALYZE nests one level; anything deeper is hostile input.
    if depth > 4 {
        return Err(WireError::Malformed("output nests too deep".into()));
    }
    match r.get_u8()? {
        0 => Ok(QueryOutput::Hits(get_hits(r)?)),
        1 => {
            let n = r.get_u32()? as usize;
            let mut pairs = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                pairs.push(PairHit {
                    a: r.get_u64()?,
                    b: r.get_u64()?,
                    distance: r.get_f64()?,
                });
            }
            Ok(QueryOutput::Pairs(pairs))
        }
        2 => Ok(QueryOutput::Plan(r.get_str()?)),
        3 => {
            let report = r.get_str()?;
            let inner = get_output_depth(r, depth + 1)?;
            Ok(QueryOutput::Analyzed {
                report,
                output: Box::new(inner),
            })
        }
        t => Err(WireError::Malformed(format!("unknown output tag {t}"))),
    }
}

// ---------------------------------------------------------------------------
// Message encode/decode
// ---------------------------------------------------------------------------

impl Request {
    /// The frame type carrying this request.
    pub fn kind(&self) -> FrameKind {
        match self {
            Request::Hello { .. } => FrameKind::Hello,
            Request::Query { .. } => FrameKind::Query,
            Request::Prepare { .. } => FrameKind::Prepare,
            Request::Exec { .. } => FrameKind::Exec,
            Request::ListPrepared => FrameKind::ListPrepared,
            Request::OpenCursor { .. } => FrameKind::OpenCursor,
            Request::Fetch { .. } => FrameKind::Fetch,
            Request::CloseCursor => FrameKind::CloseCursor,
            Request::Insert { .. } => FrameKind::Insert,
            Request::Ping => FrameKind::Ping,
            Request::Goodbye => FrameKind::Goodbye,
        }
    }

    /// Encodes the payload bytes (the frame layer wraps them).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        match self {
            Request::Hello { client } => w.put_str(client),
            Request::Query { text } => w.put_str(text),
            Request::Prepare { name, text } => {
                w.put_str(name);
                w.put_str(text);
            }
            Request::Exec {
                name,
                positional,
                named,
            } => {
                w.put_str(name);
                w.put_u32(positional.len() as u32);
                for v in positional {
                    put_value(&mut w, v);
                }
                w.put_u32(named.len() as u32);
                for (n, v) in named {
                    w.put_str(n);
                    put_value(&mut w, v);
                }
            }
            Request::ListPrepared | Request::CloseCursor | Request::Ping | Request::Goodbye => {}
            Request::OpenCursor { text, window } => {
                w.put_str(text);
                w.put_u32(*window);
            }
            Request::Fetch { window } => w.put_u32(*window),
            Request::Insert { relation, rows } => {
                w.put_str(relation);
                w.put_u32(rows.len() as u32);
                for (name, series) in rows {
                    w.put_str(name);
                    w.put_series(series);
                }
            }
        }
        w.into_bytes()
    }

    /// Decodes a request from a frame's kind and payload.
    ///
    /// # Errors
    /// [`WireError::Malformed`] on structural violations (including a
    /// response frame type arriving where a request belongs).
    pub fn decode(kind: FrameKind, payload: &[u8]) -> Result<Request, WireError> {
        let mut r = PayloadReader::new(payload);
        let req = match kind {
            FrameKind::Hello => Request::Hello {
                client: r.get_str()?,
            },
            FrameKind::Query => Request::Query { text: r.get_str()? },
            FrameKind::Prepare => Request::Prepare {
                name: r.get_str()?,
                text: r.get_str()?,
            },
            FrameKind::Exec => {
                let name = r.get_str()?;
                let np = r.get_u32()? as usize;
                let mut positional = Vec::with_capacity(np.min(256));
                for _ in 0..np {
                    positional.push(get_value(&mut r)?);
                }
                let nn = r.get_u32()? as usize;
                let mut named = Vec::with_capacity(nn.min(256));
                for _ in 0..nn {
                    let n = r.get_str()?;
                    named.push((n, get_value(&mut r)?));
                }
                Request::Exec {
                    name,
                    positional,
                    named,
                }
            }
            FrameKind::ListPrepared => Request::ListPrepared,
            FrameKind::OpenCursor => Request::OpenCursor {
                text: r.get_str()?,
                window: r.get_u32()?,
            },
            FrameKind::Fetch => Request::Fetch {
                window: r.get_u32()?,
            },
            FrameKind::CloseCursor => Request::CloseCursor,
            FrameKind::Insert => {
                let relation = r.get_str()?;
                let n = r.get_u32()? as usize;
                let mut rows = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    let name = r.get_str()?;
                    rows.push((name, r.get_series()?));
                }
                Request::Insert { relation, rows }
            }
            FrameKind::Ping => Request::Ping,
            FrameKind::Goodbye => Request::Goodbye,
            other => {
                return Err(WireError::Malformed(format!(
                    "frame type {other:?} is not a request"
                )))
            }
        };
        if !r.is_empty() {
            return Err(WireError::Malformed("trailing bytes after request".into()));
        }
        Ok(req)
    }
}

impl Response {
    /// The frame type carrying this response.
    pub fn kind(&self) -> FrameKind {
        match self {
            Response::HelloOk { .. } => FrameKind::HelloOk,
            Response::Result(_) => FrameKind::Result,
            Response::PreparedOk { .. } => FrameKind::PreparedOk,
            Response::PreparedList { .. } => FrameKind::PreparedList,
            Response::Rows { .. } => FrameKind::Rows,
            Response::CursorSuspended => FrameKind::CursorSuspended,
            Response::CursorDone { .. } => FrameKind::CursorDone,
            Response::Inserted(_) => FrameKind::Inserted,
            Response::Pong => FrameKind::Pong,
            Response::Bye => FrameKind::Bye,
            Response::Error { .. } => FrameKind::Error,
        }
    }

    /// Encodes the payload bytes (the frame layer wraps them).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = PayloadWriter::new();
        match self {
            Response::HelloOk { server, generation } => {
                w.put_str(server);
                w.put_u64(*generation);
            }
            Response::Result(res) => {
                put_output(&mut w, &res.output);
                w.put_str(&res.access);
                put_stats(&mut w, &res.stats);
                w.put_u32(res.per_thread.len() as u32);
                for t in &res.per_thread {
                    put_stats(&mut w, t);
                }
            }
            Response::PreparedOk { name, signature } => {
                w.put_str(name);
                w.put_u32(signature.len() as u32);
                for s in signature {
                    w.put_str(s);
                }
            }
            Response::PreparedList { entries } => {
                w.put_u32(entries.len() as u32);
                for (name, text) in entries {
                    w.put_str(name);
                    w.put_str(text);
                }
            }
            Response::Rows { hits } => put_hits(&mut w, hits),
            Response::CursorSuspended | Response::Pong | Response::Bye => {}
            Response::CursorDone { stats } => put_stats(&mut w, stats),
            Response::Inserted(rep) => {
                w.put_u32(rep.ids.len() as u32);
                for id in &rep.ids {
                    w.put_u64(*id);
                }
                w.put_u32(rep.failed.len() as u32);
                for (idx, why) in &rep.failed {
                    w.put_u64(*idx);
                    w.put_str(why);
                }
                w.put_u64(rep.shards_touched);
                w.put_u64(rep.wal_records);
                w.put_u64(rep.wal_syncs);
                w.put_u64(rep.group_nodes_built);
                w.put_u64(rep.group_rows);
            }
            Response::Error { code, message } => {
                w.put_u8(*code as u8);
                w.put_str(message);
            }
        }
        w.into_bytes()
    }

    /// Decodes a response from a frame's kind and payload.
    ///
    /// # Errors
    /// [`WireError::Malformed`] on structural violations (including a
    /// request frame type arriving where a response belongs).
    pub fn decode(kind: FrameKind, payload: &[u8]) -> Result<Response, WireError> {
        let mut r = PayloadReader::new(payload);
        let resp = match kind {
            FrameKind::HelloOk => Response::HelloOk {
                server: r.get_str()?,
                generation: r.get_u64()?,
            },
            FrameKind::Result => {
                let output = get_output(&mut r)?;
                let access = r.get_str()?;
                let stats = get_stats(&mut r)?;
                let n = r.get_u32()? as usize;
                let mut per_thread = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    per_thread.push(get_stats(&mut r)?);
                }
                Response::Result(RemoteResult {
                    output,
                    access,
                    stats,
                    per_thread,
                })
            }
            FrameKind::PreparedOk => {
                let name = r.get_str()?;
                let n = r.get_u32()? as usize;
                let mut signature = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    signature.push(r.get_str()?);
                }
                Response::PreparedOk { name, signature }
            }
            FrameKind::PreparedList => {
                let n = r.get_u32()? as usize;
                let mut entries = Vec::with_capacity(n.min(256));
                for _ in 0..n {
                    let name = r.get_str()?;
                    entries.push((name, r.get_str()?));
                }
                Response::PreparedList { entries }
            }
            FrameKind::Rows => Response::Rows {
                hits: get_hits(&mut r)?,
            },
            FrameKind::CursorSuspended => Response::CursorSuspended,
            FrameKind::CursorDone => Response::CursorDone {
                stats: get_stats(&mut r)?,
            },
            FrameKind::Inserted => {
                let n = r.get_u32()? as usize;
                let mut ids = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    ids.push(r.get_u64()?);
                }
                let nf = r.get_u32()? as usize;
                let mut failed = Vec::with_capacity(nf.min(4096));
                for _ in 0..nf {
                    let idx = r.get_u64()?;
                    failed.push((idx, r.get_str()?));
                }
                Response::Inserted(RemoteInsertReport {
                    ids,
                    failed,
                    shards_touched: r.get_u64()?,
                    wal_records: r.get_u64()?,
                    wal_syncs: r.get_u64()?,
                    group_nodes_built: r.get_u64()?,
                    group_rows: r.get_u64()?,
                })
            }
            FrameKind::Pong => Response::Pong,
            FrameKind::Bye => Response::Bye,
            FrameKind::Error => Response::Error {
                code: ErrorCode::from_u8(r.get_u8()?)?,
                message: r.get_str()?,
            },
            other => {
                return Err(WireError::Malformed(format!(
                    "frame type {other:?} is not a response"
                )))
            }
        };
        if !r.is_empty() {
            return Err(WireError::Malformed("trailing bytes after response".into()));
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let payload = req.encode();
        let decoded = Request::decode(req.kind(), &payload).expect("request decodes");
        assert_eq!(decoded, req);
    }

    fn round_trip_response(resp: Response) {
        let payload = resp.encode();
        let decoded = Response::decode(resp.kind(), &payload).expect("response decodes");
        assert_eq!(decoded, resp);
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Hello {
            client: "simq-cli".into(),
        });
        round_trip_request(Request::Query {
            text: "FIND ALL IN stocks WITHIN 0.5 OF ROW 3".into(),
        });
        round_trip_request(Request::Prepare {
            name: "near".into(),
            text: "FIND ALL IN stocks WITHIN $eps OF ROW ?".into(),
        });
        round_trip_request(Request::Exec {
            name: "near".into(),
            positional: vec![Value::Number(3.0)],
            named: vec![("eps".into(), Value::Number(0.5))],
        });
        round_trip_request(Request::ListPrepared);
        round_trip_request(Request::OpenCursor {
            text: "FIND ALL IN stocks WITHIN 1.0 OF ROW 0".into(),
            window: 16,
        });
        round_trip_request(Request::Fetch { window: 8 });
        round_trip_request(Request::CloseCursor);
        round_trip_request(Request::Insert {
            relation: "stocks".into(),
            rows: vec![("S1".into(), vec![0.25, -1.5]), ("S2".into(), vec![])],
        });
        round_trip_request(Request::Ping);
        round_trip_request(Request::Goodbye);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::HelloOk {
            server: "simq-server".into(),
            generation: 42,
        });
        round_trip_response(Response::Result(RemoteResult {
            output: QueryOutput::Analyzed {
                report: "plan".into(),
                output: Box::new(QueryOutput::Hits(vec![Hit {
                    id: 7,
                    name: "S7".into(),
                    distance: 0.125,
                }])),
            },
            access: "IndexScan".into(),
            stats: ExecStats {
                nodes_visited: 12,
                threads_used: 4,
                ..ExecStats::default()
            },
            per_thread: vec![ExecStats::default(), ExecStats::default()],
        }));
        round_trip_response(Response::PreparedOk {
            name: "near".into(),
            signature: vec!["$eps: number (EPSILON)".into()],
        });
        round_trip_response(Response::PreparedList {
            entries: vec![("near".into(), "FIND …".into())],
        });
        round_trip_response(Response::Rows {
            hits: vec![Hit {
                id: 1,
                name: "S1".into(),
                distance: f64::from_bits(0x3FF0_0000_0000_0001),
            }],
        });
        round_trip_response(Response::CursorSuspended);
        round_trip_response(Response::CursorDone {
            stats: ExecStats::default(),
        });
        round_trip_response(Response::Inserted(RemoteInsertReport {
            ids: vec![10, 11],
            failed: vec![(2, "series length mismatch".into())],
            shards_touched: 1,
            wal_records: 2,
            wal_syncs: 1,
            group_nodes_built: 0,
            group_rows: 5,
        }));
        round_trip_response(Response::Pong);
        round_trip_response(Response::Bye);
        round_trip_response(Response::Error {
            code: ErrorCode::Query,
            message: "unknown relation".into(),
        });
    }

    /// docs/WIRE_PROTOCOL.md's **stats** layout: 13 `u64` counters.
    #[test]
    fn a_result_stats_block_is_thirteen_u64s() {
        let result = |per_thread: Vec<ExecStats>| {
            Response::Result(RemoteResult {
                output: QueryOutput::Hits(Vec::new()),
                access: String::new(),
                stats: ExecStats::default(),
                per_thread,
            })
            .encode()
            .len()
        };
        // output tag + hit count, access length, stats, per-thread count.
        assert_eq!(result(Vec::new()), 1 + 4 + 4 + 13 * 8 + 4);
        assert_eq!(
            result(vec![ExecStats::default()]) - result(Vec::new()),
            13 * 8
        );
    }

    #[test]
    fn distances_survive_bitwise() {
        let tricky = [
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            -0.0,
            f64::from_bits(0x0000_0000_0000_0001),
        ];
        for d in tricky {
            let resp = Response::Rows {
                hits: vec![Hit {
                    id: 0,
                    name: "x".into(),
                    distance: d,
                }],
            };
            let Response::Rows { hits } =
                Response::decode(FrameKind::Rows, &resp.encode()).unwrap()
            else {
                panic!("wrong kind");
            };
            assert_eq!(hits[0].distance.to_bits(), d.to_bits());
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut payload = Request::Ping.encode();
        payload.push(0);
        assert!(Request::decode(FrameKind::Ping, &payload).is_err());
    }
}
