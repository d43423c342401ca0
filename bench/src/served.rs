//! `served_mixed` — the clustered corpus behind `simq_server::Server`
//! on loopback, one `simq_client::Client`, closed loop.
//!
//! 100 of every 101 ops read: half of the read rows through the
//! prepared tight range (`Client::exec`, primary), half with the same
//! statement as text (`Client::query`, secondary), so their difference
//! is the server-side front end. The 101st op inserts one row,
//! non-durable (`Client::insert`). It is the only workload where the
//! wire, protocol, server and client layers run, and the only one that
//! writes beside its reads: each insert advances the catalog generation
//! under the connection's pinned `ReadView`, so the writer copies the
//! relation and the next read re-pins and re-plans.
//!
//! The insert has no latency metric of its own. It is 1–2 ms of
//! copying 2 000 rows — long and memory-bound, so on a shared host it
//! hardly ever runs undisturbed: ten runs of the same code spread
//! 10–17 % on its p50 where the 40 µs reads spread 3–9 % (NOISE.md). Its
//! time is a third of `ops_per_s`'s denominator, and the traced run
//! reports it as `client.insert_us`.
//!
//! The workload is not listed in `BENCHMARK.json`: a slow phase of the
//! host slows its thread hand-offs, system calls and execution all at
//! once, its reported p50 then reads a quarter above its floor for as
//! long as the phase lasts, and no bound of 10 % holds (NOISE.md §7).
//! It runs from the same command, with every check and the ledger.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use simq_client::Client;
use simq_query::session::Session;
use simq_query::{execute, Database};
use simq_server::proto::{RemoteResult, Request, Response};
use simq_server::wire::{decode_frame, encode_frame};
use simq_server::Server;

use crate::check::{hits_of, same_hits};
use crate::decompose;
use crate::gen::{self, NamedSeries, SplitMix64};
use crate::harness::{
    count, per_op_us, Agg, Pass, Sizes, SpanMetric, Workload, SERVED_INSERT_EVERY,
};
use crate::layers::{build_layers, insert_layers};
use crate::queryops::{exec_ratios, fold_exec, Kind, Op, Shape};
use crate::select::{build_db, CLAUSES, RELATION};
use crate::trace::Tracer;

/// Name the connection registers its statement under.
const STATEMENT: &str = "tight";

/// Every this-many-th read row is asked about in statement text, the
/// others through `exec`: as many of the one as of the other, so both
/// medians stand on as many ops.
const TEXT_READ_EVERY: usize = 2;

/// Root span of an insert, which is neither op kind.
const INSERT_ROOT: &str = "op.insert";

/// One entry of the op list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ServedOp {
    /// A read (primary as `exec`, secondary as text) around read row `item`.
    Read(Op),
    /// The insert of payload row `.0`: part of the pass and of
    /// `ops_per_s`, with no latency metric of its own.
    Insert(usize),
}

/// Seeded inputs of the workload.
pub struct Inputs {
    rows: Vec<NamedSeries>,
    /// Rows the inserts add, in op order.
    payload: Vec<NamedSeries>,
    series_len: usize,
    shape: Shape,
    /// Query rows of the reads; a read op's `item` indexes it.
    read_rows: Vec<u64>,
    ops: Vec<ServedOp>,
}

/// The workload instance: the database every pass's server starts from.
pub struct Served {
    base: Database,
}

fn start(base: &Database, shape: &Shape) -> (Server, Client) {
    // A shallow clone: the server's first write copies the relation,
    // exactly as it does whenever a reader pins the catalog.
    let server = Server::bind("127.0.0.1:0", base.clone()).expect("loopback port binds");
    let mut client = Client::connect(server.local_addr()).expect("client connects");
    client
        .prepare(STATEMENT, &shape.template(RELATION))
        .expect("statement prepares remotely");
    (server, client)
}

/// Bytes every server of this process has read and written so far.
/// Connection threads update the counters, so they are settled only
/// before a server exists and after it is joined.
fn server_bytes() -> u64 {
    use std::sync::atomic::Ordering::Relaxed;
    let m = simq_obs::metrics::registry();
    m.server_bytes_received.load(Relaxed) + m.server_bytes_sent.load(Relaxed)
}

fn stop(server: Server, client: Client) {
    client.goodbye().ok();
    black_box(server.shutdown());
}

impl Workload for Served {
    const NAME: &'static str = "served_mixed";
    const PASSES_PER_SECOND: f64 = 12.0;
    type Inputs = Inputs;

    fn generate(seed: u64, sizes: &Sizes) -> Inputs {
        let inserts = sizes.served_ops / SERVED_INSERT_EVERY;
        let rows = gen::stock_series(gen::CORPUS_SEED, sizes.rows, sizes.series_len);
        // The inserted rows are a small market of their own.
        let payload: Vec<NamedSeries> =
            gen::stock_series(gen::CORPUS_SEED + 1, inserts, sizes.series_len)
                .into_iter()
                .enumerate()
                .map(|(i, (_, series))| (format!("N{i:04}"), series))
                .collect();
        let db = build_db(&rows, sizes.series_len);
        let mut fixed = SplitMix64::new(gen::CORPUS_SEED, 3);
        let calibration = gen::sample_rows(&mut fixed, rows.len(), 32);
        let mut rng = SplitMix64::new(seed, 3);
        let shape = Shape {
            clause: CLAUSES[0],
            suffix: "",
            eps: gen::calibrate_eps(&db, RELATION, CLAUSES[0], &calibration, sizes.answer_rows()),
        };
        // Which rows are read and inserted is the corpus's; the order
        // of the reads and of the inserts is the seed's.
        let reads = sizes.served_ops - inserts;
        let read_rows = gen::sample_rows(&mut fixed, rows.len(), reads);
        let mut read_order = gen::shuffled(&mut rng, reads).into_iter();
        let mut insert_order = gen::shuffled(&mut rng, inserts).into_iter();
        let mut ops = Vec::with_capacity(sizes.served_ops);
        for i in 0..sizes.served_ops {
            if (i + 1) % SERVED_INSERT_EVERY == 0 {
                ops.push(ServedOp::Insert(
                    insert_order.next().expect("one per insert op"),
                ));
                continue;
            }
            // Which reads go as text is fixed with the rows, like the rest
            // of the request set the seed orders.
            let item = read_order.next().expect("one per read op");
            let kind = if (item + 1).is_multiple_of(TEXT_READ_EVERY) {
                Kind::Secondary
            } else {
                Kind::Primary
            };
            ops.push(ServedOp::Read(Op { kind, item }));
        }
        Inputs {
            rows,
            payload,
            series_len: sizes.series_len,
            shape,
            read_rows,
            ops,
        }
    }

    fn setup(inputs: &Inputs, _scratch: &Path) -> (Self, f64) {
        let started = Instant::now();
        let base = build_db(&inputs.rows, inputs.series_len);
        let (server, client) = start(&base, &inputs.shape);
        let seconds = started.elapsed().as_secs_f64();
        stop(server, client);
        (Served { base }, seconds)
    }

    fn pass(&mut self, inputs: &Inputs, check: bool) -> Pass {
        let bytes_before = server_bytes();
        let (server, mut client) = start(&self.base, &inputs.shape);
        // The warm-up pass keeps an identically built local twin.
        let mut twin = check.then(|| self.base.clone());
        let mut pass = Pass::default();
        let loop_started = Instant::now();
        for op in &inputs.ops {
            let op = match *op {
                ServedOp::Read(op) => op,
                ServedOp::Insert(item) => {
                    let (name, series) = inputs.payload[item].clone();
                    let rows = vec![(name.clone(), series.clone())];
                    let started = Instant::now();
                    let result = client.insert(RELATION, rows);
                    pass.other_us.push(started.elapsed().as_secs_f64() * 1e6);
                    match result {
                        Ok(report) if report.ids.len() == 1 && report.failed.is_empty() => {
                            count(&mut pass.counts, "insert.id_sum", report.ids[0]);
                            if let Some(twin) = &mut twin {
                                let local = twin.insert_into(RELATION, name, series);
                                if !local.is_ok_and(|l| l.id == report.ids[0]) {
                                    pass.failed += 1;
                                }
                            }
                        }
                        _ => pass.failed += 1,
                    }
                    continue;
                }
            };
            let row = inputs.read_rows[op.item];
            let text = inputs.shape.text(RELATION, row);
            let result = if op.kind == Kind::Primary {
                let values = inputs.shape.values(row);
                let started = Instant::now();
                let result = client.exec(STATEMENT, values, Vec::new());
                pass.primary_us.push(started.elapsed().as_secs_f64() * 1e6);
                result
            } else {
                let started = Instant::now();
                let result = client.query(&text);
                pass.secondary_us
                    .push(started.elapsed().as_secs_f64() * 1e6);
                result
            };
            let Ok(remote) = result else {
                pass.failed += 1;
                continue;
            };
            let hits = hits_of(&remote.output);
            fold_exec(&mut pass.counts, op.kind, &remote.stats, hits.len());
            if let Some(twin) = &twin {
                // Remote == local, and index == scan.
                let agree = [text.clone(), format!("{text} FORCE SCAN")]
                    .iter()
                    .all(|q| execute(twin, q).is_ok_and(|l| same_hits(hits_of(&l.output), hits)));
                if !agree {
                    pass.failed += 1;
                }
            }
        }
        pass.wall_s = loop_started.elapsed().as_secs_f64();
        stop(server, client);
        count(
            &mut pass.counts,
            "server.bytes",
            server_bytes() - bytes_before,
        );
        pass
    }

    fn trace_pass(&mut self, inputs: &Inputs, t: &mut Tracer) -> Pass {
        let bytes_before = server_bytes();
        let (server, mut client) = start(&self.base, &inputs.shape);
        // The local twin runs the same statements in-process, so the
        // remote path's extra cost has something to be measured against.
        let mut twin = Session::new(self.base.clone());
        let prepared = twin
            .prepare(&inputs.shape.template(RELATION))
            .expect("statement prepares locally");
        let mut pass = Pass::default();
        let mut frame_bytes = 0u64;
        // Frames the plain pass does not send (pings): taken off the
        // server's byte counter so the count still has to repeat.
        let mut extra_bytes = 0u64;
        let frame_len = |kind, payload: &[u8]| encode_frame(kind, payload).len() as u64;
        let ping_bytes = frame_len(Request::Ping.kind(), &Request::Ping.encode())
            + frame_len(Response::Pong.kind(), &Response::Pong.encode());
        let loop_started = Instant::now();
        for (i, op) in inputs.ops.iter().enumerate() {
            match *op {
                ServedOp::Read(op) if op.kind == Kind::Primary => {
                    let row = inputs.read_rows[op.item];
                    let values = inputs.shape.values(row);
                    let root = t.begin_op(op.kind.root(), i);
                    let remote = t.leaf("client.exec", || {
                        client.exec(STATEMENT, values.clone(), Vec::new())
                    });
                    let rebuilt = t.open("rebuilt");
                    let request = Request::Exec {
                        name: STATEMENT.into(),
                        positional: values.clone(),
                        named: Vec::new(),
                    };
                    let payload = t.leaf("proto.request_codec", || {
                        let payload = request.encode();
                        black_box(Request::decode(request.kind(), &payload)).ok();
                        payload
                    });
                    let frame = t.leaf("wire.encode_frame", || {
                        encode_frame(request.kind(), &payload)
                    });
                    black_box(t.leaf("wire.decode_frame", || decode_frame(&frame))).ok();
                    frame_bytes += frame.len() as u64;
                    t.leaf("client.ping", || client.ping()).ok();
                    extra_bytes += ping_bytes;
                    let bound = t
                        .leaf("session.bind", || prepared.bind(&values))
                        .expect("statement binds");
                    let run = t.open("session.execute");
                    let local = twin.execute(&bound);
                    t.adopt_program_spans();
                    t.close(run);
                    let Ok(local) = local else {
                        t.end_op(root);
                        pass.failed += 1;
                        pass.primary_us.push(0.0);
                        continue;
                    };
                    let local_hits = hits_of(&local.output).to_vec();
                    let payload = t.leaf("proto.response_codec", || {
                        let response = Response::Result(RemoteResult {
                            access: format!("{:?}", local.plan.access),
                            output: local.output,
                            stats: local.stats,
                            per_thread: local.per_thread,
                        });
                        let payload = response.encode();
                        black_box(Response::decode(response.kind(), &payload)).ok();
                        (response.kind(), payload)
                    });
                    let frame = t.leaf("wire.encode_frame", || encode_frame(payload.0, &payload.1));
                    black_box(t.leaf("wire.decode_frame", || decode_frame(&frame))).ok();
                    frame_bytes += frame.len() as u64;
                    t.close(rebuilt);
                    t.end_op(root);
                    match remote {
                        Ok(r) if same_hits(hits_of(&r.output), &local_hits) => {
                            fold_exec(&mut pass.counts, op.kind, &r.stats, local_hits.len());
                        }
                        _ => pass.failed += 1,
                    }
                    pass.primary_us.push(0.0);
                }
                ServedOp::Read(op) => {
                    let text = inputs.shape.text(RELATION, inputs.read_rows[op.item]);
                    let root = t.begin_op(op.kind.root(), i);
                    let remote = t.leaf("client.query", || client.query(&text));
                    t.end_op(root);
                    let local = execute(twin.db(), &text);
                    match (remote, local) {
                        (Ok(r), Ok(l)) if same_hits(hits_of(&r.output), hits_of(&l.output)) => {
                            fold_exec(
                                &mut pass.counts,
                                op.kind,
                                &r.stats,
                                hits_of(&l.output).len(),
                            );
                        }
                        _ => pass.failed += 1,
                    }
                    pass.secondary_us.push(0.0);
                }
                ServedOp::Insert(item) => {
                    let (name, series) = inputs.payload[item].clone();
                    let rows = vec![(name.clone(), series.clone())];
                    let root = t.begin_op(INSERT_ROOT, i);
                    let remote = t.leaf("client.insert", || client.insert(RELATION, rows));
                    let local = t.leaf("db.insert_into", || twin.insert(RELATION, name, series));
                    t.end_op(root);
                    match (remote, local) {
                        (Ok(report), Ok((l, _))) if report.ids == [l.id] => {
                            count(&mut pass.counts, "insert.id_sum", l.id);
                        }
                        _ => pass.failed += 1,
                    }
                    pass.other_us.push(0.0);
                }
            }
        }
        pass.wall_s = loop_started.elapsed().as_secs_f64();
        stop(server, client);
        let reads = pass.primary_us.len() as u64;
        pass.layers = exec_ratios(&pass.counts, reads, inputs.rows.len() as u64);
        pass.layers.push((
            "server.bytes_per_exec",
            frame_bytes as f64 / reads.max(1) as f64,
        ));
        count(
            &mut pass.counts,
            "server.bytes",
            (server_bytes() - bytes_before).saturating_sub(extra_bytes),
        );
        pass
    }

    fn layer_probes(&mut self, inputs: &Inputs, sizes: &Sizes) -> Vec<(&'static str, f64)> {
        let (rel, tree) = decompose::single(&self.base, RELATION);
        let mut out = build_layers(rel, sizes);
        out.extend(insert_layers(rel, tree, &inputs.payload));
        out
    }

    fn span_metrics() -> &'static [SpanMetric] {
        const M: &[SpanMetric] = &[
            per_op_us("wire.encode_frame_us", "wire.encode_frame"),
            per_op_us("wire.decode_frame_us", "wire.decode_frame"),
            per_op_us("proto.request_codec_us", "proto.request_codec"),
            per_op_us("proto.response_codec_us", "proto.response_codec"),
            per_op_us("client.ping_us", "client.ping"),
            per_op_us("client.exec_us", "client.exec"),
            per_op_us("client.query_us", "client.query"),
            per_op_us("client.insert_us", "client.insert"),
            per_op_us("session.bind_us", "session.bind"),
            per_op_us("session.execute_us", "session.execute"),
            SpanMetric {
                metric: "server.overhead_us",
                span: "client.exec",
                minus: Some("session.execute"),
                agg: Agg::OpMedianUs,
            },
        ];
        M
    }

    fn ledger_spans() -> &'static [&'static str] {
        &[
            "proto.request_codec",
            "wire.encode_frame",
            "wire.decode_frame",
            "client.ping",
            "session.bind",
            "session.execute",
            "proto.response_codec",
        ]
    }

    fn actual_spans() -> &'static [&'static str] {
        &["client.exec"]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_list_repeats_per_seed_and_differs_across_seeds() {
        let a = Served::generate(7, &Sizes::SMOKE);
        let b = Served::generate(7, &Sizes::SMOKE);
        let c = Served::generate(8, &Sizes::SMOKE);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.read_rows, b.read_rows);
        assert_eq!(a.payload, b.payload);
        assert_eq!(a.shape, b.shape);
        // Another seed reads and inserts the same rows in another order.
        assert_ne!(a.ops, c.ops);
        assert_eq!(a.read_rows, c.read_rows);
        assert_eq!(a.payload, c.payload);
    }

    #[test]
    fn every_101st_op_is_an_insert_and_half_of_the_reads_are_text() {
        let inputs = Served::generate(7, &Sizes::SMOKE);
        assert_eq!(inputs.ops.len(), 202);
        for (i, op) in inputs.ops.iter().enumerate() {
            let insert = (i + 1) % SERVED_INSERT_EVERY == 0;
            assert_eq!(matches!(op, ServedOp::Insert(_)), insert, "op {i}");
        }
        let reads: Vec<Op> = inputs
            .ops
            .iter()
            .filter_map(|op| match *op {
                ServedOp::Read(op) => Some(op),
                ServedOp::Insert(_) => None,
            })
            .collect();
        for op in &reads {
            let text = (op.item + 1) % TEXT_READ_EVERY == 0;
            assert_eq!(op.kind == Kind::Secondary, text, "read row {}", op.item);
        }
        // Each read row and each payload row is used exactly once.
        let mut read_items: Vec<usize> = reads.iter().map(|op| op.item).collect();
        read_items.sort_unstable();
        assert_eq!(read_items, (0..200).collect::<Vec<_>>());
        let mut inserted: Vec<usize> = inputs
            .ops
            .iter()
            .filter_map(|op| match *op {
                ServedOp::Insert(item) => Some(item),
                ServedOp::Read(_) => None,
            })
            .collect();
        inserted.sort_unstable();
        assert_eq!(inserted, [0, 1]);
    }
}
