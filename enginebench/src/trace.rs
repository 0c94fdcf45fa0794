//! In-memory spans around calls into the engine, their self times, and
//! their export as Chrome Trace Event JSON (opens in Perfetto).
//!
//! Spans are recorded from the benchmark's side of each public call, on
//! the calling thread only, so an op's spans nest without overlapping
//! and the self times of one op tree add up to the op's wall time.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use stencil_engine::{EngineError, RowSink, RowSource};

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to (0 outside any op).
    pub op: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

/// Records spans in memory; nothing is written until [`chrome_json`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    inner: RefCell<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Tags the spans recorded from now on with `op`.
    pub fn set_op(&self, op: u64) {
        self.inner.borrow_mut().op = op;
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&self, name: &'static str) -> usize {
        let start = self.now();
        let mut g = self.inner.borrow_mut();
        let span = Span {
            name,
            start,
            end: start,
            parent: g.open.last().copied(),
            op: g.op,
        };
        g.spans.push(span);
        let id = g.spans.len() - 1;
        g.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn end(&self, id: usize) {
        let end = self.now();
        let mut g = self.inner.borrow_mut();
        assert_eq!(g.open.pop(), Some(id), "spans must close innermost first");
        g.spans[id].end = end;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.inner.into_inner().spans
    }
}

/// Runs `f`, returning its result and wall time; records a span named
/// `name` when tracing.
pub fn timed<T>(tr: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
    let id = tr.map(|t| t.begin(name));
    let started = Instant::now();
    let out = f();
    let took = started.elapsed();
    if let (Some(t), Some(id)) = (tr, id) {
        t.end(id);
    }
    (out, took)
}

/// Self time per span name over every tree rooted at a span named
/// `root`: each span's duration minus what its children cover, in
/// nanoseconds. Also returns the summed duration of the roots.
pub fn self_times(spans: &[Span], root: &str) -> (BTreeMap<&'static str, u64>, u64) {
    let mut covered = vec![0u64; spans.len()];
    let mut in_tree = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // Parents are recorded before their children.
        in_tree[i] = s.name == root || s.parent.is_some_and(|p| in_tree[p]);
        if let Some(p) = s.parent {
            covered[p] += s.dur();
        }
    }
    let mut by_name = BTreeMap::new();
    let mut roots = 0u64;
    for (i, s) in spans.iter().enumerate().filter(|(i, _)| in_tree[*i]) {
        *by_name.entry(s.name).or_insert(0) += s.dur().saturating_sub(covered[i]);
        if s.parent.is_none() {
            roots += s.dur();
        }
    }
    (by_name, roots)
}

/// Chrome Trace Event JSON of the spans whose op is at most `max_op`
/// (op 0, outside any op, included): one complete ("X") event per
/// span, timestamps in microseconds.
pub fn chrome_json(spans: &[Span], max_op: u64) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.op <= max_op) {
        if !first {
            out.push(',');
        }
        first = false;
        let cat = s.name.split('.').next().unwrap_or(s.name);
        let parent = s.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            out,
            "\n{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
            s.name,
            s.start as f64 / 1e3,
            s.dur() as f64 / 1e3,
            s.op
        );
    }
    out.push_str("\n]}\n");
    out
}

/// A [`RowSource`] that records a span around every `fill_row` and
/// counts calls; used in traced runs only.
pub struct TimedSource<'t, S> {
    inner: S,
    tracer: &'t Tracer,
    pub calls: u64,
    pub busy: Duration,
}

impl<'t, S> TimedSource<'t, S> {
    pub fn new(inner: S, tracer: &'t Tracer) -> Self {
        Self {
            inner,
            tracer,
            calls: 0,
            busy: Duration::ZERO,
        }
    }
}

impl<S: RowSource> RowSource for TimedSource<'_, S> {
    fn fill_row(&mut self, len: usize, buf: &mut Vec<f64>) -> Result<(), EngineError> {
        let (r, took) = timed(Some(self.tracer), "stream.source", || {
            self.inner.fill_row(len, buf)
        });
        self.calls += 1;
        self.busy += took;
        r
    }

    fn mapped(&self) -> Option<stencil_engine::MappedGrid> {
        self.inner.mapped()
    }
}

/// A [`RowSink`] that records a span around every `push_row` and counts
/// calls; used in traced runs only.
pub struct TimedSink<'t, S> {
    pub inner: S,
    tracer: &'t Tracer,
    pub calls: u64,
    pub busy: Duration,
}

impl<'t, S> TimedSink<'t, S> {
    pub fn new(inner: S, tracer: &'t Tracer) -> Self {
        Self {
            inner,
            tracer,
            calls: 0,
            busy: Duration::ZERO,
        }
    }
}

impl<S: RowSink> RowSink for TimedSink<'_, S> {
    fn push_row(&mut self, row: &[f64]) -> Result<(), EngineError> {
        let (r, took) = timed(Some(self.tracer), "stream.sink", || {
            self.inner.push_row(row)
        });
        self.calls += 1;
        self.busy += took;
        r
    }

    fn finish(&mut self) -> Result<(), EngineError> {
        let (r, took) = timed(Some(self.tracer), "stream.sink", || self.inner.finish());
        self.busy += took;
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_times_subtract_children_and_sum_to_the_roots() {
        let spans = vec![
            span("op", 0, 100, None),
            span("session.run", 10, 80, Some(0)),
            span("stream.source", 20, 30, Some(1)),
            span("stream.source", 40, 45, Some(1)),
            span("telemetry.validate", 110, 120, None),
        ];
        let (by_name, roots) = self_times(&spans, "op");
        assert_eq!(by_name["op"], 30);
        assert_eq!(by_name["session.run"], 55);
        assert_eq!(by_name["stream.source"], 15);
        assert!(!by_name.contains_key("telemetry.validate"));
        assert_eq!(roots, 100);
        assert_eq!(by_name.values().sum::<u64>(), roots);
    }

    #[test]
    fn chrome_json_keeps_the_requested_ops() {
        let tr = Tracer::default();
        for op in 1..=3 {
            tr.set_op(op);
            let id = tr.begin("op");
            tr.end(id);
        }
        let json = chrome_json(&tr.into_spans(), 2);
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.starts_with("{\"displayTimeUnit\""));
    }
}
