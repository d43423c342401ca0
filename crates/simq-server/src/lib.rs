//! The simq network service: a concurrent multi-client wire protocol
//! over the session API.
//!
//! Four layers, bottom up:
//!
//! * [`wire`] — length-prefixed binary frames
//!   (`MAGIC | version | frame-type | len | payload | checksum`),
//!   checksummed with the storage layer's page checksum. Decoding
//!   never panics on arbitrary bytes.
//! * [`proto`] — the typed [`Request`] /
//!   [`Response`] vocabulary, written and read with the byte codec the
//!   persistence formats share (`simq_index::serial::{ByteWriter,
//!   ByteReader}`). Every `f64` travels as its bit pattern, so remote
//!   results are bitwise identical to local execution.
//! * [`connection`] — the execution layer: a [`Connection`] holds one
//!   client's session and named prepared-statement registry, and
//!   [`Connection::respond`] answers `Query`, `Prepare`, `Exec`,
//!   `ListPrepared` and `Ping`. The server runs every such request
//!   through it, and so does the `simq` shell against its local
//!   database, so local and remote answers come from one code path.
//! * [`server`] — `std::net::TcpListener` + thread-per-connection over
//!   a bounded accept pool. Each connection owns a
//!   `Connection<ReadView>` pinned to a catalog generation (readers
//!   never block on writers) and serves what needs the socket or the
//!   shared lock itself: the handshake, cursor windows and inserts,
//!   which from all connections coalesce through one group-committed
//!   `insert_batch` per drain.
//!
//! The client half lives in the `simq-client` crate, which reuses
//! [`wire`] and [`proto`] from here so both sides share one codec.
//! `docs/WIRE_PROTOCOL.md` specifies the protocol; the CLI exposes the
//! server as `simq --serve <addr>` and the client as `\connect`.

#![warn(missing_docs)]

pub mod connection;
pub mod proto;
pub mod server;
pub mod wire;

pub use connection::Connection;
pub use proto::{ErrorCode, RemoteInsertReport, RemoteResult, Request, Response};
pub use server::{Server, ServerConfig};
pub use wire::{FrameKind, WireError, MAX_PAYLOAD, PROTOCOL_VERSION};
