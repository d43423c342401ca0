//! The network service's equivalence contract beyond one client's
//! requests: results served over the wire protocol are **bitwise
//! identical** to local execution on the same database for many
//! concurrent clients, streaming cursors and inserts, and reads racing
//! writes observe only complete acked generations. Every `f64` travels as
//! its bit pattern, so comparing with
//! [`common::assert_output_values_bitwise_equal`] is exact. One client's
//! queries, prepared statements and errors are the configuration
//! lattice's `Remote` points (`tests/common/lattice.rs`).

mod common;

use common::lattice::Scratch;
use common::*;
use similarity_queries::prelude::*;
use similarity_queries::query::QueryOutput;
use std::net::SocketAddr;

/// Two identically built databases over [`walks`]: the caller keeps the
/// local oracle, the server gets the twin — with a write-ahead log under
/// `wal` for the tests that write through it.
fn oracle_and_server(wal: Option<&Scratch>) -> (Database, Server, SocketAddr) {
    let oracle = indexed_db(walks());
    let mut served = indexed_db(walks());
    if let Some(scratch) = wal {
        served
            .attach_wal(scratch.0.join("wal"))
            .expect("log attaches");
    }
    let server = Server::bind("127.0.0.1:0", served).expect("server binds");
    let addr = server.local_addr();
    (oracle, server, addr)
}

fn walks() -> SeriesRelation {
    walk_relation("walks", 42, 300, 64)
}

/// The mixed read workload the concurrent clients draw from.
const QUERIES: &[&str] = &[
    "FIND SIMILAR TO ROW 0 IN walks EPSILON 2.0",
    "FIND SIMILAR TO ROW 17 IN walks USING mavg(8) ON BOTH EPSILON 1.5",
    "FIND 5 NEAREST TO ROW 3 IN walks",
    "FIND 3 NEAREST TO ROW 250 IN walks USING reverse",
    "FIND SIMILAR TO ROW 9 IN walks USING scale(2) EPSILON 4.0",
    "FIND PAIRS IN walks EPSILON 0.5 METHOD c",
    "EXPLAIN FIND 2 NEAREST TO ROW 1 IN walks",
    "FIND SIMILAR TO ROW 40 IN walks EPSILON 99.0 FORCE SCAN",
];

#[test]
fn concurrent_clients_all_get_oracle_results() {
    let (oracle, server, addr) = oracle_and_server(None);
    let handles: Vec<_> = (0..4)
        .map(|offset| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("client connects");
                // Each client walks the workload from its own offset, so
                // at any instant the server is running a mix of shapes.
                let mut outputs = Vec::new();
                for round in 0..3 {
                    for i in 0..QUERIES.len() {
                        let query = QUERIES[(i + offset + round) % QUERIES.len()];
                        let remote = client.query(query).expect("remote query runs");
                        outputs.push((query, remote.output));
                    }
                }
                client.goodbye().expect("orderly close");
                outputs
            })
        })
        .collect();
    for handle in handles {
        for (query, output) in handle.join().expect("client thread joins") {
            let local = execute(&oracle, query).expect("local query runs");
            assert_output_values_bitwise_equal(&local.output, &output, query);
        }
    }
    server.shutdown();
}

#[test]
fn acked_insert_is_visible_to_other_connections_and_matches_local() {
    let scratch = Scratch::new();
    let (mut oracle, server, addr) = oracle_and_server(Some(&scratch));
    let mut gen = WalkGenerator::new(777);
    let rows: Vec<(String, Vec<f64>)> = (0..6).map(|i| (format!("N{i}"), gen.series(64))).collect();

    let mut writer = Client::connect(addr).expect("writer connects");
    let report = writer.insert("walks", rows.clone()).expect("remote insert");
    assert_eq!(report.ids.len(), rows.len(), "every row acked");
    assert_eq!(report.wal_records, rows.len() as u64, "every row logged");
    assert!(report.failed.is_empty(), "{:?}", report.failed);

    // The oracle applies the identical batch locally.
    let local_report = oracle
        .insert_batch("walks", rows.clone())
        .expect("local insert");
    assert_eq!(
        report.ids,
        local_report
            .acked
            .iter()
            .map(|(_, r)| r.id)
            .collect::<Vec<_>>(),
        "same ids assigned"
    );

    // A *different* connection, opened after the ack, must see the rows
    // bitwise-identically to local execution.
    let mut reader = Client::connect(addr).expect("reader connects");
    for (name, series) in &rows {
        let literal: Vec<String> = series.iter().map(|v| format!("{v:?}")).collect();
        let query = format!("FIND 1 NEAREST TO [{}] IN walks", literal.join(", "));
        let local = execute(&oracle, &query).expect("local query runs");
        let remote = reader.query(&query).expect("remote query runs");
        assert_output_values_bitwise_equal(&local.output, &remote.output, &query);
        match &remote.output {
            QueryOutput::Hits(hits) => assert_eq!(&hits[0].name, name, "inserted row is nearest"),
            other => panic!("expected hits, got {other:?}"),
        }
    }
    writer.goodbye().expect("orderly close");
    reader.goodbye().expect("orderly close");
    server.shutdown();
}

#[test]
fn reads_racing_writes_observe_only_complete_prefixes() {
    let scratch = Scratch::new();
    let (mut oracle, server, addr) = oracle_and_server(Some(&scratch));
    // The writer inserts clones of one probe series, nudged by i/1000:
    // an epsilon ball around the probe catches exactly the inserted
    // rows, so what a racing reader sees *is* the visible write set.
    let probe = WalkGenerator::new(31).series(64);
    fn nudged(base: &[f64], i: usize) -> Vec<f64> {
        base.iter().map(|v| v + i as f64 * 1e-3).collect()
    }
    let literal: Vec<String> = probe.iter().map(|v| format!("{v:?}")).collect();
    let ball = format!(
        "FIND SIMILAR TO [{}] IN walks EPSILON 0.5",
        literal.join(", ")
    );

    let total = 24usize;
    let probe_for_writer = probe.clone();
    let writer = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("writer connects");
        for batch in 0..total / 2 {
            let rows = vec![
                (
                    format!("P{:02}", 2 * batch),
                    nudged(&probe_for_writer, 2 * batch),
                ),
                (
                    format!("P{:02}", 2 * batch + 1),
                    nudged(&probe_for_writer, 2 * batch + 1),
                ),
            ];
            let report = client.insert("walks", rows).expect("insert acked");
            assert_eq!((report.ids.len(), report.wal_records), (2, 2));
        }
        client.goodbye().expect("orderly close");
    });

    let mut reader = Client::connect(addr).expect("reader connects");
    let mut seen_max = 0usize;
    while seen_max < total {
        let remote = reader.query(&ball).expect("racing read runs");
        let QueryOutput::Hits(hits) = &remote.output else {
            panic!("expected hits");
        };
        let mut indices: Vec<usize> = hits
            .iter()
            .filter(|h| h.name.starts_with('P'))
            .map(|h| h.name[1..].parse().expect("P-names are P<index>"))
            .collect();
        indices.sort_unstable();
        // Only complete acked prefixes are visible: no gaps, no torn
        // batches, and visibility never goes backwards on one reader.
        assert_eq!(
            indices,
            (0..indices.len()).collect::<Vec<_>>(),
            "racing read saw a torn write set"
        );
        assert!(indices.len() >= seen_max, "visibility went backwards");
        seen_max = indices.len();
        if writer.is_finished() && seen_max < total {
            // The writer is done; everything it acked must be visible
            // on the very next read.
            let settled = reader.query(&ball).expect("settled read runs");
            let QueryOutput::Hits(hits) = &settled.output else {
                panic!("expected hits");
            };
            let visible = hits.iter().filter(|h| h.name.starts_with('P')).count();
            assert_eq!(visible, total, "acked writes missing after writer finished");
            seen_max = total;
        }
    }
    writer.join().expect("writer thread joins");

    // Settled state matches an oracle that applied the same writes.
    for batch in 0..total / 2 {
        oracle
            .insert_batch(
                "walks",
                vec![
                    (format!("P{:02}", 2 * batch), nudged(&probe, 2 * batch)),
                    (
                        format!("P{:02}", 2 * batch + 1),
                        nudged(&probe, 2 * batch + 1),
                    ),
                ],
            )
            .expect("local insert");
    }
    let local = execute(&oracle, &ball).expect("local query runs");
    let remote = reader.query(&ball).expect("settled read runs");
    assert_output_values_bitwise_equal(&local.output, &remote.output, &ball);
    reader.goodbye().expect("orderly close");
    server.shutdown();
}

#[test]
fn full_cursor_drain_matches_local_and_partial_reads_fewer_nodes() {
    let (oracle, server, addr) = oracle_and_server(None);
    let mut client = Client::connect(addr).expect("client connects");
    let queries = [
        "FIND SIMILAR TO ROW 0 IN walks EPSILON 60.0",
        "FIND 20 NEAREST TO ROW 0 IN walks",
    ];
    for query in queries {
        // Local oracle cursor: full drain, in the order it yields.
        let session = Session::new(&oracle);
        let mut local_hits = Vec::new();
        let mut cursor = session.cursor_text(query).expect("local cursor opens");
        for hit in cursor.by_ref() {
            local_hits.push(hit);
        }
        let local_stats = cursor.stats();
        assert!(
            local_hits.len() > 8,
            "{query}: need a multi-chunk result, got {}",
            local_hits.len()
        );

        // Remote full drain with a generous window per fetch.
        let mut remote = client.open_cursor(query, 7).expect("remote cursor opens");
        let mut remote_hits = remote.take_hits();
        while !remote.is_done() {
            remote.fetch(7).expect("window grant honored");
            remote_hits.extend(remote.take_hits());
        }
        assert_eq!(
            local_hits.len(),
            remote_hits.len(),
            "{query}: same row count"
        );
        for (l, r) in local_hits.iter().zip(&remote_hits) {
            assert_eq!(l.id, r.id, "{query}");
            assert_eq!(l.name, r.name, "{query}");
            assert_eq!(l.distance.to_bits(), r.distance.to_bits(), "{query}");
        }
        let full_stats = remote.close().expect("drained cursor closes");
        assert_eq!(
            full_stats.nodes_visited, local_stats.nodes_visited,
            "{query}: full drain does the same index work as the local cursor"
        );

        // Partial consumption: three rows, then close. The lazy pull must
        // have read strictly fewer tree nodes end-to-end, and returned the
        // full drain's first three rows.
        let mut partial = client.open_cursor(query, 3).expect("remote cursor opens");
        let first = partial.take_hits();
        assert_eq!(first.len(), 3, "{query}");
        for (l, r) in local_hits.iter().zip(&first) {
            assert_eq!(
                (l.id, l.distance.to_bits()),
                (r.id, r.distance.to_bits()),
                "{query}"
            );
        }
        assert!(!partial.is_done(), "{query}: a 3-row window must suspend");
        let partial_stats = partial.close().expect("suspended cursor closes");
        assert!(
            partial_stats.nodes_visited < full_stats.nodes_visited,
            "{query}: partial consumption ({} nodes) must read strictly fewer nodes than a \
             full drain ({})",
            partial_stats.nodes_visited,
            full_stats.nodes_visited
        );
    }
    client.goodbye().expect("orderly close");
    server.shutdown();
}
