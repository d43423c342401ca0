//! The execution layer: one client's session and prepared-statement
//! registry, answering the [`Request`]s that need neither a socket nor
//! the shared write lock.
//!
//! Both front ends run through it. The server keeps one
//! `Connection<ReadView>` per TCP connection, and the `simq` shell keeps
//! one `Connection<Database>` for its local database, so a query,
//! prepared statement or error is executed — and answered — one way
//! whichever side of the wire asks.

use std::borrow::Borrow;
use std::collections::BTreeMap;

use simq_query::session::{Prepared, Session, Value};
use simq_query::{Database, QueryError, QueryResult, Slot};

use crate::proto::{ErrorCode, RemoteResult, Request, Response};

/// A session plus the named statements prepared on it.
pub struct Connection<D: Borrow<Database>> {
    /// The session every request runs through. The server swaps it for a
    /// fresh one when the catalog generation moves; the shell reaches its
    /// database through it.
    pub session: Session<D>,
    registry: BTreeMap<String, Prepared>,
}

impl<D: Borrow<Database>> Connection<D> {
    /// A connection with an empty registry over `session`.
    pub fn new(session: Session<D>) -> Self {
        Connection {
            session,
            registry: BTreeMap::new(),
        }
    }

    /// Answers `Query`, `Prepare`, `Exec`, `ListPrepared` and `Ping`.
    /// `Fetch` and `CloseCursor` are answered with "no cursor is open";
    /// the requests that need the transport (`Hello`, `OpenCursor`,
    /// `Insert`, `Goodbye`) are refused as unsupported.
    pub fn respond(&mut self, req: Request) -> Response {
        match req {
            Request::Query { text } => result(self.session.execute_text(&text)),
            Request::Prepare { name, text } => match self.session.prepare(&text) {
                Ok(prepared) => {
                    let signature = prepared
                        .signature()
                        .iter()
                        .enumerate()
                        .map(|(i, s)| describe_slot(i, s))
                        .collect();
                    self.registry.insert(name.clone(), prepared);
                    Response::PreparedOk { name, signature }
                }
                Err(e) => query_error(&e),
            },
            Request::Exec {
                name,
                positional,
                named,
            } => {
                let Some(prepared) = self.registry.get(&name) else {
                    return Response::Error {
                        code: ErrorCode::Query,
                        message: format!("unknown prepared statement {name:?}; prepare it first"),
                    };
                };
                let named: Vec<(&str, Value)> =
                    named.iter().map(|(n, v)| (n.as_str(), v.clone())).collect();
                result(
                    prepared
                        .bind_all(&positional, &named)
                        .and_then(|bound| self.session.execute(&bound)),
                )
            }
            Request::ListPrepared => Response::PreparedList {
                entries: self
                    .registry
                    .iter()
                    .map(|(name, p)| (name.clone(), p.text().to_string()))
                    .collect(),
            },
            Request::Ping => Response::Pong,
            Request::Fetch { .. } | Request::CloseCursor => Response::Error {
                code: ErrorCode::Unsupported,
                message: "no cursor is open on this connection".into(),
            },
            other => Response::Error {
                code: ErrorCode::Unsupported,
                message: format!("{:?} needs a server connection", other.kind()),
            },
        }
    }
}

/// A query error as it travels the wire.
pub(crate) fn query_error(e: &QueryError) -> Response {
    Response::Error {
        code: ErrorCode::Query,
        message: e.to_string(),
    }
}

fn result(outcome: Result<QueryResult, QueryError>) -> Response {
    match outcome {
        Ok(result) => Response::Result(RemoteResult {
            access: format!("{:?}", result.plan.access),
            output: result.output,
            stats: result.stats,
            per_thread: result.per_thread,
        }),
        Err(e) => query_error(&e),
    }
}

/// Renders one signature slot the way `\prepare` lists them.
fn describe_slot(i: usize, slot: &Slot) -> String {
    match &slot.name {
        Some(name) => format!("${name}: {} ({})", slot.ty, slot.context),
        None => format!("?{}: {} ({})", i + 1, slot.ty, slot.context),
    }
}
