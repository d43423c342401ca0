//! The harness's span recorder — spans are taken *around* the calls the
//! harness makes into each layer, never inside the program.
//!
//! A span is `(name, start, end, parent, op)`. Spans of one operation
//! share its op id; the op's root span names the op kind. A span's self
//! time is its duration minus the part of that interval its children
//! cover. Spans stay in memory and are written as JSON lines when the
//! run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use simq_obs::span as obs;

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span was taken at (`index.range`, …).
    pub name: &'static str,
    /// Nanoseconds from the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's epoch.
    pub end_ns: u64,
    /// The span that caused this one (`None` for an op's root).
    pub parent: Option<SpanId>,
    /// The operation the span belongs to.
    pub op: u32,
    /// Work units the span covered (rows probed, coefficients compared,
    /// queries in a batch) — 0 when the span is not a per-unit one.
    pub units: u64,
    /// True for a span the program itself emitted (adopted from
    /// `simq_obs`); metrics read only the harness's own spans, so a
    /// program span may share a name with one of them.
    pub program: bool,
}

impl Span {
    /// Wall-clock duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    op: u32,
    /// Tracer-clock minus `simq_obs` collector-clock, for adopting the
    /// program's own span records onto this timeline.
    obs_offset_ns: i64,
}

impl Tracer {
    /// A recorder whose clock is aligned with this thread's `simq_obs`
    /// span collector.
    pub fn new() -> Self {
        let epoch = Instant::now();
        let _force = obs::force_collection();
        drop(obs::take_records());
        let here = epoch.elapsed().as_nanos() as i64;
        drop(obs::span("bench.sync"));
        let there = obs::take_records()
            .first()
            .map_or(here, |r| r.start_ns as i64);
        Tracer {
            epoch,
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            obs_offset_ns: here - there,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far, in open order (parents first).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            units: 0,
            program: false,
        });
        self.stack.push(id);
        id
    }

    /// Closes `id` (and anything still open inside it).
    pub fn close(&mut self, id: SpanId) {
        let now = self.now();
        while let Some(top) = self.stack.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Opens a root span of operation `op` (its index in the op list).
    /// An op may be visited more than once — the real call in one sweep
    /// over the list, the rebuilt pieces in another — and all its spans
    /// share the id.
    pub fn begin_op(&mut self, kind: &'static str, op: usize) -> SpanId {
        debug_assert!(self.stack.is_empty(), "ops do not nest");
        self.op = op as u32;
        self.open(kind)
    }

    /// Closes an operation's root span.
    pub fn end_op(&mut self, root: SpanId) {
        self.close(root);
    }

    /// Runs `f` inside a span.
    pub fn leaf<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Runs `f` inside a span and records the work units it reports.
    pub fn leaf_units<T>(&mut self, name: &'static str, f: impl FnOnce() -> (T, u64)) -> T {
        let id = self.open(name);
        let (out, units) = f();
        self.close(id);
        self.spans[id].units = units;
        out
    }

    /// Drains the spans the program itself emitted on this thread since
    /// the last drain and nests them under the innermost open span.
    pub fn adopt_program_spans(&mut self) {
        let records = obs::take_records();
        let Some(&anchor) = self.stack.last() else {
            return;
        };
        let mut at_depth: Vec<SpanId> = Vec::new();
        for r in records {
            let start = (r.start_ns as i64 + self.obs_offset_ns).max(0) as u64;
            at_depth.truncate(r.depth);
            let parent = at_depth.last().copied().unwrap_or(anchor);
            let id = self.spans.len();
            self.spans.push(Span {
                name: r.name,
                start_ns: start,
                end_ns: start + r.duration_ns,
                parent: Some(parent),
                op: self.op,
                units: 0,
                program: true,
            });
            at_depth.push(id);
        }
    }
}

/// Self time of every span: duration minus the union of the intervals
/// its children cover (clipped to the span, so overlapping or
/// overhanging children are never counted twice).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    self_times_ns_where(spans, |_| true)
}

/// [`self_times_ns`] counting only the children `counts` accepts — the
/// ledger counts harness spans only, so time under a program span stays
/// with the harness span that made the call.
pub fn self_times_ns_where(spans: &[Span], counts: impl Fn(&Span) -> bool) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans.iter().filter(|s| counts(s)) {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per operation, the summed duration (ns) and units of the harness
/// spans named `name`; ops without such a span are absent.
pub fn per_op(spans: &[Span], name: &str) -> BTreeMap<u32, (u64, u64)> {
    let mut out: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.name == name && !s.program) {
        let e = out.entry(s.op).or_default();
        e.0 += s.duration_ns();
        e.1 += s.units;
    }
    out
}

/// Writes the spans as JSON lines (one object per span, with self time).
///
/// # Errors
/// I/O errors from the filesystem.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times_ns(spans);
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, (s, self_ns)) in spans.iter().zip(selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{id},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"src\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"units\":{}}}",
            s.op,
            s.name,
            if s.program { "program" } else { "harness" },
            s.start_ns,
            s.end_ns,
            s.units
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
            units: 0,
            program: false,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 40, 80, Some(0)),
            span("c", 45, 50, Some(0)), // wholly inside a ∩ b
        ];
        // Children cover [10, 80): 70 of the root's 100.
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn overhanging_child_is_clipped_to_its_parent() {
        let spans = vec![
            span("root", 100, 200, None),
            span("late", 150, 260, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 110]);
        let spans = vec![
            span("root", 100, 200, None),
            span("outside", 300, 400, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 100);
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        let spans = vec![span("root", 0, 10, None), span("leaf", 2, 9, Some(0))];
        assert_eq!(self_times_ns(&spans)[1], 7);
    }

    #[test]
    fn tracer_nests_and_numbers_ops() {
        let mut t = Tracer::new();
        let root = t.begin_op("op.primary", 0);
        let inner = t.open("actual");
        t.leaf("index.range", || ());
        t.close(inner);
        t.leaf_units("sig.probe", || ((), 17));
        t.end_op(root);
        let root2 = t.begin_op("op.secondary", 1);
        t.end_op(root2);
        // A second sweep revisits op 0.
        let again = t.begin_op("op.primary", 0);
        t.leaf_units("sig.probe", || ((), 3));
        t.end_op(again);
        let s = t.spans();
        assert_eq!(s.len(), 7);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0));
        assert_eq!(s[3].units, 17);
        assert_eq!((s[0].op, s[3].op, s[4].op, s[6].op), (0, 0, 1, 0));
        assert_eq!(s[6].parent, Some(5));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert_eq!(per_op(s, "sig.probe")[&0].1, 20);
        assert!(!per_op(s, "sig.probe").contains_key(&1));
    }

    #[test]
    fn program_spans_are_adopted_under_the_open_span() {
        let mut t = Tracer::new();
        let _force = obs::force_collection();
        let root = t.begin_op("op.primary", 0);
        let run = t.open("exec.run");
        {
            let _outer = obs::span("range.verify");
            drop(obs::span("inner"));
        }
        t.adopt_program_spans();
        t.close(run);
        t.end_op(root);
        let s = t.spans();
        assert_eq!(s[2].name, "range.verify");
        assert_eq!(s[2].parent, Some(run));
        assert_eq!(s[3].name, "inner");
        assert_eq!(s[3].parent, Some(2));
        assert!(s[2].program && s[3].program && !s[run].program);
        assert!(per_op(s, "range.verify").is_empty());
        // For the ledger the program's spans are not children: the time
        // stays with the harness span that made the call.
        let ledger = self_times_ns_where(s, |x| !x.program);
        assert_eq!(ledger[run], s[run].duration_ns());
        assert!(self_times_ns(s)[run] <= ledger[run]);
        // Adopted spans land inside their parent on the tracer's clock
        // (the two clocks are aligned to well under a millisecond).
        assert!(s[2].start_ns + 1_000_000 >= s[run].start_ns);
        assert!(s[2].end_ns <= s[run].end_ns + 1_000_000);
    }
}
