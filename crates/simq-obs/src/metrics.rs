//! Process-wide metrics registry: counters, gauges, and log₂-bucketed
//! latency histograms.
//!
//! The registry is a fixed struct of named [`AtomicU64`]s — no maps, no
//! locks, no allocation on the update path. Every update is a relaxed
//! atomic add/store, so instrumented code pays a few nanoseconds per
//! event whether or not anyone is looking.
//!
//! Histograms bucket nanosecond values by their power of two: bucket
//! *i* covers `[2^i, 2^(i+1))` (64 buckets cover every `u64`). That
//! gives quantile estimates with ≤ 50% relative error — more than
//! enough to tell a 20µs sync from a 5ms one — at a fixed 64-word
//! footprint. Quantiles are read from the cumulative bucket counts and
//! reported at the bucket's geometric midpoint.
//!
//! [`Registry::snapshot`] captures a point-in-time view renderable as
//! aligned text (`\metrics`) or a stable JSON document
//! (`\metrics --json`, schema version 2).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// A log₂-bucketed nanosecond histogram with lock-free recording.
#[derive(Debug)]
pub struct Histogram {
    /// `buckets[i]` counts values `v` with `floor(log2(max(v,1))) == i`.
    buckets: [AtomicU64; 64],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one nanosecond observation.
    pub fn record(&self, value_ns: u64) {
        let bucket = 63 - (value_ns | 1).leading_zeros() as usize;
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value_ns, Ordering::Relaxed);
        self.max.fetch_max(value_ns, Ordering::Relaxed);
    }

    /// Captures a point-in-time view with estimated quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = buckets.iter().sum();
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            p50: quantile(&buckets, count, 0.50),
            p95: quantile(&buckets, count, 0.95),
            p99: quantile(&buckets, count, 0.99),
        }
    }
}

/// Returns the geometric midpoint of the bucket holding quantile `q`.
fn quantile(buckets: &[u64], count: u64, q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    // Rank of the target observation, 1-based, clamped to [1, count].
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cumulative = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        cumulative += n;
        if cumulative >= rank {
            // Bucket i covers [2^i, 2^(i+1)); report 1.5·2^i, except
            // bucket 0 which holds the values 0 and 1.
            return if i == 0 {
                1
            } else {
                (1u64 << i) + (1u64 << (i - 1))
            };
        }
    }
    0
}

/// Point-in-time view of one [`Histogram`]. All values are nanoseconds
/// except `count`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

/// The process-wide registry: every metric the engine emits, by name.
///
/// Counters only ever increase; gauges hold the most recent value.
/// Field names mirror the dotted metric names in snapshots (documented
/// in ARCHITECTURE.md § Observability).
#[derive(Debug, Default)]
pub struct Registry {
    /// `query.executions` — queries run through `exec::run_with_plan`.
    pub query_executions: AtomicU64,
    /// `query.latency_ns` — wall time of session query executions.
    pub query_latency: Histogram,
    /// `query.shard_work_units` — per-shard fan-out units dispatched.
    pub query_shard_work_units: AtomicU64,
    /// `filter.dismissed` — candidates dismissed by the quantized
    /// signature tier before full verification.
    pub filter_dismissed: AtomicU64,
    /// `session.prepared` — statements prepared.
    pub session_prepared: AtomicU64,
    /// `session.cursors` — streaming cursors opened.
    pub session_cursors: AtomicU64,
    /// `session.slow_queries` — executions over the slow-log threshold.
    pub session_slow_queries: AtomicU64,
    /// `batch.batches` — batches executed.
    pub batch_batches: AtomicU64,
    /// `batch.queries` — queries executed through batches.
    pub batch_queries: AtomicU64,
    /// `wal.appends` — acknowledged WAL record appends.
    pub wal_appends: AtomicU64,
    /// `wal.syncs` — physical `sync_data` calls on WAL files. One group
    /// commit syncs once for many appended records, so
    /// `wal.appends / wal.syncs` is the realized group size.
    pub wal_syncs: AtomicU64,
    /// `wal.group_commits` — flushed groups: grouped appends of ≥ 1
    /// record, one write + one sync each (a single insert is a group of
    /// one).
    pub wal_group_commits: AtomicU64,
    /// `wal.sync_latency_ns` — write+sync latency per WAL append.
    pub wal_sync_latency: Histogram,
    /// `wal.last_sync_ns` (gauge) — latency of the most recent append.
    pub wal_last_sync_ns: AtomicU64,
    /// `wal.replay.applied` — records applied during durable opens.
    pub wal_replay_applied: AtomicU64,
    /// `wal.replay.dropped` — unrecoverable records dropped at replay.
    pub wal_replay_dropped: AtomicU64,
    /// `checkpoint.count` — checkpoints committed.
    pub checkpoint_count: AtomicU64,
    /// `checkpoint.shards_written` — dirty shards rewritten.
    pub checkpoint_shards_written: AtomicU64,
    /// `checkpoint.bytes` — snapshot bytes written by checkpoints.
    pub checkpoint_bytes: AtomicU64,
    /// `insert.count` — rows inserted through the write path.
    pub insert_count: AtomicU64,
    /// `insert.nodes_built` — R*-tree nodes built by insert maintenance.
    pub insert_nodes_built: AtomicU64,
    /// `server.connections` — connections accepted by the network
    /// service.
    pub server_connections: AtomicU64,
    /// `server.connections_active` (gauge) — connections currently
    /// being served.
    pub server_connections_active: AtomicU64,
    /// `server.frames_received` — request frames decoded.
    pub server_frames_received: AtomicU64,
    /// `server.frames_sent` — response frames written (row chunks
    /// included).
    pub server_frames_sent: AtomicU64,
    /// `server.bytes_received` — wire bytes read (headers, payloads and
    /// checksums of decoded frames).
    pub server_bytes_received: AtomicU64,
    /// `server.bytes_sent` — wire bytes written.
    pub server_bytes_sent: AtomicU64,
    /// `server.errors` — error frames sent.
    pub server_errors: AtomicU64,
    /// `server.in_flight` (gauge) — request frames being handled right
    /// now, across all connections.
    pub server_in_flight: AtomicU64,
    /// `server.frame_latency_ns` — wall time from a request frame's
    /// arrival to its (final) response frame being written.
    pub server_frame_latency: Histogram,
}

impl Registry {
    /// Adds `n` to a counter.
    #[inline]
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Stores a gauge value.
    #[inline]
    pub fn set(gauge: &AtomicU64, value: u64) {
        gauge.store(value, Ordering::Relaxed);
    }

    /// Captures every metric at one point in time.
    pub fn snapshot(&self) -> Snapshot {
        let c = |a: &AtomicU64| a.load(Ordering::Relaxed);
        Snapshot {
            counters: vec![
                ("query.executions", c(&self.query_executions)),
                ("query.shard_work_units", c(&self.query_shard_work_units)),
                ("filter.dismissed", c(&self.filter_dismissed)),
                ("session.prepared", c(&self.session_prepared)),
                ("session.cursors", c(&self.session_cursors)),
                ("session.slow_queries", c(&self.session_slow_queries)),
                ("batch.batches", c(&self.batch_batches)),
                ("batch.queries", c(&self.batch_queries)),
                ("wal.appends", c(&self.wal_appends)),
                ("wal.syncs", c(&self.wal_syncs)),
                ("wal.group_commits", c(&self.wal_group_commits)),
                ("wal.replay.applied", c(&self.wal_replay_applied)),
                ("wal.replay.dropped", c(&self.wal_replay_dropped)),
                ("checkpoint.count", c(&self.checkpoint_count)),
                (
                    "checkpoint.shards_written",
                    c(&self.checkpoint_shards_written),
                ),
                ("checkpoint.bytes", c(&self.checkpoint_bytes)),
                ("insert.count", c(&self.insert_count)),
                ("insert.nodes_built", c(&self.insert_nodes_built)),
                ("server.connections", c(&self.server_connections)),
                ("server.frames_received", c(&self.server_frames_received)),
                ("server.frames_sent", c(&self.server_frames_sent)),
                ("server.bytes_received", c(&self.server_bytes_received)),
                ("server.bytes_sent", c(&self.server_bytes_sent)),
                ("server.errors", c(&self.server_errors)),
            ],
            gauges: vec![
                ("wal.last_sync_ns", c(&self.wal_last_sync_ns)),
                (
                    "server.connections_active",
                    c(&self.server_connections_active),
                ),
                ("server.in_flight", c(&self.server_in_flight)),
            ],
            histograms: vec![
                ("query.latency_ns", self.query_latency.snapshot()),
                ("wal.sync_latency_ns", self.wal_sync_latency.snapshot()),
                (
                    "server.frame_latency_ns",
                    self.server_frame_latency.snapshot(),
                ),
            ],
            derived: {
                let appends = c(&self.wal_appends);
                let syncs = c(&self.wal_syncs);
                let ratio = |num: u64, den: u64| {
                    if den == 0 {
                        0.0
                    } else {
                        num as f64 / den as f64
                    }
                };
                vec![
                    // Realized records-per-sync: → batch size under group
                    // commit, 1.0 on the record-at-a-time path.
                    ("wal.group_size", ratio(appends, syncs)),
                    // The cost the batching amortizes: → 1/batch under
                    // group commit, 1.0 without it.
                    ("wal.syncs_per_insert", ratio(syncs, appends)),
                ]
            },
        }
    }
}

/// The global registry (initialized on first use).
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// A point-in-time capture of the whole [`Registry`].
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Monotonic counters, in stable name order.
    pub counters: Vec<(&'static str, u64)>,
    /// Last-value gauges.
    pub gauges: Vec<(&'static str, u64)>,
    /// Latency histograms.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
    /// Ratios computed from counters at snapshot time (e.g.
    /// `wal.group_size` = appends/syncs). Zero when the denominator is.
    pub derived: Vec<(&'static str, f64)>,
}

impl Snapshot {
    /// Renders the snapshot as aligned human-readable text.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str("counters:\n");
        for (name, value) in &self.counters {
            let _ = writeln!(out, "  {name:<26} {value}");
        }
        out.push_str("gauges:\n");
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "  {name:<26} {value}");
        }
        out.push_str("histograms:\n");
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "  {name:<26} count={} p50={} p95={} p99={} max={}",
                h.count,
                crate::span::fmt_ns(h.p50),
                crate::span::fmt_ns(h.p95),
                crate::span::fmt_ns(h.p99),
                crate::span::fmt_ns(h.max),
            );
        }
        out.push_str("derived:\n");
        for (name, value) in &self.derived {
            let _ = writeln!(out, "  {name:<26} {value:.3}");
        }
        out
    }

    /// Renders the snapshot as one line of JSON with a stable schema:
    ///
    /// ```json
    /// {"schema":2,"counters":{…},"gauges":{…},
    ///  "histograms":{"name":{"count":…,"sum_ns":…,"p50_ns":…,
    ///                        "p95_ns":…,"p99_ns":…,"max_ns":…}},
    ///  "derived":{"wal.group_size":…,"wal.syncs_per_insert":…}}
    /// ```
    ///
    /// Every key is a fixed metric name and every value a number
    /// (unsigned integers except the derived ratios), so no string
    /// escaping is needed.
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\"schema\":2,\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
                h.count, h.sum, h.p50, h.p95, h.p99, h.max
            );
        }
        out.push_str("},\"derived\":{");
        for (i, (name, value)) in self.derived.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{value:.3}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_power_of_two() {
        let h = Histogram::default();
        for v in [0, 1, 2, 3, 1000, 1024, 1_000_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 2 + 3 + 1000 + 1024 + 1_000_000 + 1);
        assert_eq!(snap.max, 1_000_000);
        assert!(snap.p50 <= snap.p95 && snap.p95 <= snap.p99);
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let h = Histogram::default();
        // 99 fast observations (~16ns bucket), 1 slow (~1ms bucket).
        for _ in 0..99 {
            h.record(20);
        }
        h.record(1_000_000);
        let snap = h.snapshot();
        // p50 and p95 sit in the fast bucket [16,32): midpoint 24.
        assert_eq!(snap.p50, 24);
        assert_eq!(snap.p95, 24);
        // p99 is the 99th observation — still fast; max is the slow one.
        assert_eq!(snap.p99, 24);
        assert_eq!(snap.max, 1_000_000);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let snap = Histogram::default().snapshot();
        assert_eq!(
            snap,
            HistogramSnapshot {
                count: 0,
                sum: 0,
                max: 0,
                p50: 0,
                p95: 0,
                p99: 0
            }
        );
    }

    #[test]
    fn json_schema_is_stable_and_parseable_shape() {
        let snap = Registry::default().snapshot();
        let json = snap.render_json();
        assert!(json.starts_with("{\"schema\":2,\"counters\":{"));
        assert!(json.contains("\"query.executions\":0"));
        assert!(json.contains("\"wal.last_sync_ns\":0"));
        assert!(json.contains(
            "\"query.latency_ns\":{\"count\":0,\"sum_ns\":0,\"p50_ns\":0,\"p95_ns\":0,\"p99_ns\":0,\"max_ns\":0}"
        ));
        assert!(json.contains("\"derived\":{\"wal.group_size\":0.000"));
        assert!(json.contains("\"wal.syncs_per_insert\":0.000"));
        assert!(json.ends_with("}}"));
        // Balanced braces — the document is structurally sound.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn text_rendering_lists_every_section() {
        let text = Registry::default().snapshot().render_text();
        assert!(text.contains("counters:"));
        assert!(text.contains("gauges:"));
        assert!(text.contains("histograms:"));
        assert!(text.contains("derived:"));
        assert!(text.contains("session.prepared"));
        assert!(text.contains("wal.group_size"));
    }
}
