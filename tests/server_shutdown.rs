//! Graceful shutdown of the network service: in-flight work drains,
//! connected clients get one structured `shutdown` error frame and a
//! clean close (never a hang, a torn frame, or a panic), new
//! connections are refused, and the database comes back out of
//! [`Server::shutdown`] with every acked write applied.

mod common;

use common::lattice::Scratch;
use common::*;
use similarity_queries::prelude::*;
use similarity_queries::query::QueryOutput;
use similarity_queries::server::proto::{Request, Response};
use similarity_queries::server::wire::{self, FrameKind};
use similarity_queries::server::ErrorCode;
use std::net::TcpStream;

fn walks() -> Database {
    indexed_db(walk_relation("walks", 11, 120, 32))
}

fn spawn_server() -> (Server, std::net::SocketAddr) {
    let server = Server::bind("127.0.0.1:0", walks()).expect("server binds");
    let addr = server.local_addr();
    (server, addr)
}

#[test]
fn shutdown_hands_back_the_database_with_acked_writes_applied() {
    let scratch = Scratch::new();
    let mut served = walks();
    served
        .attach_wal(scratch.0.join("wal"))
        .expect("log attaches");
    let server = Server::bind("127.0.0.1:0", served).expect("server binds");
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    let series = WalkGenerator::new(99).series(32);
    let report = client
        .insert("walks", vec![("LAST".into(), series.clone())])
        .expect("insert acked");
    assert_eq!((report.ids.len(), report.wal_records), (1, 1));
    client.goodbye().expect("orderly close");

    let db = server
        .shutdown()
        .expect("sole owner after every connection joined");
    // The acked write is in the returned database, and in its log.
    let literal: Vec<String> = series.iter().map(|v| format!("{v:?}")).collect();
    let nearest = format!("FIND 1 NEAREST TO [{}] IN walks", literal.join(", "));
    let holds_last = |db: &Database| {
        let result = execute(db, &nearest).expect("database answers queries");
        let QueryOutput::Hits(hits) = &result.output else {
            panic!("expected hits, got {:?}", result.output)
        };
        assert_eq!(hits[0].name, "LAST");
        assert_eq!(hits[0].distance.to_bits(), 0f64.to_bits());
    };
    holds_last(&db);
    drop(db);
    let (reopened, _) = Database::open_durable(scratch.0.join("wal")).expect("log replays");
    holds_last(&reopened);
}

#[test]
fn new_connections_are_refused_after_shutdown() {
    let (server, addr) = spawn_server();
    let mut client = Client::connect(addr).expect("client connects while serving");
    client.ping().expect("live server answers");
    client.goodbye().expect("orderly close");
    server.shutdown();
    assert!(
        Client::connect(addr).is_err(),
        "a drained server must refuse new connections"
    );
}

#[test]
fn mid_cursor_client_gets_shutdown_error_then_clean_eof() {
    let (server, addr) = spawn_server();
    let mut stream = TcpStream::connect(addr).expect("raw socket connects");
    let hello = Request::Hello {
        client: "shutdown-test".into(),
    };
    wire::write_frame(&mut stream, hello.kind(), &hello.encode()).expect("hello writes");
    let (kind, _) = wire::read_frame(&mut stream).expect("handshake answered");
    assert_eq!(kind, FrameKind::HelloOk);

    // Open a wide cursor with a tiny window, so the server suspends
    // holding the cursor open — the mid-stream state shutdown must
    // drain cleanly.
    let open = Request::OpenCursor {
        text: "FIND SIMILAR TO ROW 0 IN walks EPSILON 60.0".into(),
        window: 2,
    };
    wire::write_frame(&mut stream, open.kind(), &open.encode()).expect("open writes");
    let mut rows = 0usize;
    loop {
        let (kind, payload) = wire::read_frame(&mut stream).expect("cursor frames arrive");
        match Response::decode(kind, &payload).expect("cursor frames decode") {
            Response::Rows { hits } => rows += hits.len(),
            Response::CursorSuspended => break,
            other => panic!("expected rows/suspension, got {other:?}"),
        }
    }
    assert_eq!(rows, 2, "the window bounds the first burst");

    // Shut down while the cursor is suspended. The server owes this
    // connection exactly one shutdown error frame, then EOF.
    let joiner = std::thread::spawn(move || server.shutdown());
    let (kind, payload) = wire::read_frame(&mut stream).expect("the shutdown notice arrives");
    assert_eq!(kind, FrameKind::Error);
    match Response::decode(kind, &payload).expect("error frame decodes") {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::Shutdown),
        other => panic!("expected the shutdown error, got {other:?}"),
    }
    match wire::read_frame(&mut stream) {
        Err(wire::WireError::Closed) => {}
        other => panic!("expected a clean close after the notice, got {other:?}"),
    }
    let db = joiner.join().expect("shutdown thread joins");
    assert!(db.is_some(), "database comes back after the drain");
}

#[test]
fn idle_connection_is_notified_and_requests_fail_with_is_shutdown() {
    let (server, addr) = spawn_server();
    let mut client = Client::connect(addr).expect("client connects");
    client.ping().expect("live server answers");

    let joiner = std::thread::spawn(move || server.shutdown());
    // The server notices the flag within its poll interval, sends the
    // notice and closes; whichever request observes it first must fail
    // with the *clean* shutdown signal or a clean close — never a torn
    // frame, checksum error, or hang.
    let mut outcome = None;
    for _ in 0..200 {
        match client.ping() {
            Ok(()) => std::thread::sleep(std::time::Duration::from_millis(5)),
            Err(e) => {
                outcome = Some(e);
                break;
            }
        }
    }
    match outcome.expect("a draining server stops answering pings") {
        e if e.is_shutdown() => {}
        ClientError::Wire(wire::WireError::Closed) => {}
        // The Fetch written after the server's FIN can surface as a
        // send-side I/O error (EPIPE/RST) — still a clean outcome.
        ClientError::Wire(wire::WireError::Io(_)) => {}
        other => panic!("expected a clean shutdown signal, got {other:?}"),
    }
    joiner.join().expect("shutdown thread joins");
}
