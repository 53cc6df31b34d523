//! Timing from outside the program: an [`Application`] decorator that
//! times every `handle` call, and an in-memory span recorder for the
//! traced run.
//!
//! Handlers run eagerly, before the engine simulates their ops, so host
//! time inside `handle` is the application logic plus `RequestCtx` trace
//! compilation plus sqldb execution; everything else inside
//! `ExperimentSpec::run` is the engine and the workload driver.

use dynamid_core::{AppLockSpec, AppResult, Application, InteractionSpec, RequestCtx, SessionData};
use dynamid_sim::SimRng;
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Transparent decorator: forwards everything to the wrapped application
/// and records the host duration of each `handle` call (and an
/// `app.handle` span when a tracer is attached).
pub struct Timed<'a> {
    inner: &'a dyn Application,
    tracer: Option<&'a Tracer>,
    durations_ns: RefCell<Vec<u64>>,
}

impl<'a> Timed<'a> {
    /// Wraps `inner`; spans go to `tracer` when one is given.
    pub fn new(inner: &'a dyn Application, tracer: Option<&'a Tracer>) -> Self {
        Timed { inner, tracer, durations_ns: RefCell::new(Vec::new()) }
    }

    /// Host nanoseconds of every `handle` call so far, in call order.
    pub fn into_durations(self) -> Vec<u64> {
        self.durations_ns.into_inner()
    }
}

impl Application for Timed<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn interactions(&self) -> &[InteractionSpec] {
        self.inner.interactions()
    }

    fn app_locks(&self) -> Vec<AppLockSpec> {
        self.inner.app_locks()
    }

    fn handle(
        &self,
        id: usize,
        ctx: &mut RequestCtx<'_>,
        session: &mut SessionData,
        rng: &mut SimRng,
    ) -> AppResult<()> {
        let span = self.tracer.map(|t| t.open("app.handle"));
        let t0 = Instant::now();
        let out = self.inner.handle(id, ctx, session, rng);
        let ns = t0.elapsed().as_nanos() as u64;
        if let (Some(t), Some(s)) = (self.tracer, span) {
            t.close(s);
        }
        self.durations_ns.borrow_mut().push(ns);
        out
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer boundary, e.g. `workload.run`.
    pub name: &'static str,
    /// The sweep point the span belongs to (shared by all its spans).
    pub point: u32,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// In-memory span recorder. Spans nest: a new span's parent is the
/// innermost span still open.
pub struct Tracer {
    origin: Instant,
    point: Cell<u32>,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            point: Cell::new(0),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Sets the point id that new spans carry.
    pub fn set_point(&self, point: u32) {
        self.point.set(point);
    }

    /// Opens a span under the innermost open one; returns its index.
    pub fn open(&self, name: &'static str) -> usize {
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        let idx = spans.len();
        let now = self.now_ns();
        spans.push(Span {
            name,
            point: self.point.get(),
            parent: open.last().copied(),
            start_ns: now,
            end_ns: now,
        });
        open.push(idx);
        idx
    }

    /// Closes span `idx` and any span opened inside it that a panic left
    /// open.
    pub fn close(&self, idx: usize) {
        let now = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        let mut open = self.open.borrow_mut();
        while let Some(top) = open.pop() {
            spans[top].end_ns = now;
            if top == idx {
                break;
            }
        }
    }

    /// Drops every recorded span.
    pub fn clear(&self) {
        self.spans.borrow_mut().clear();
        self.open.borrow_mut().clear();
    }

    /// Number of spans recorded since the last [`clear`](Self::clear).
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Self time per span name, in seconds: each span's duration minus the
    /// durations of its children.
    pub fn self_seconds(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans.borrow();
        let dur = |s: &Span| s.end_ns.saturating_sub(s.start_ns);
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += dur(s);
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in spans.iter().zip(&child_ns) {
            *out.entry(s.name).or_insert(0.0) += dur(s).saturating_sub(*c) as f64 / 1e9;
        }
        out
    }

    /// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
    /// complete event per span, microsecond timestamps, the point as the
    /// thread id so each point gets its own row.
    pub fn chrome_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.point,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("\n]}\n");
        out
    }
}
