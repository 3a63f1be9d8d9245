//! In-memory spans for the traced run, plus the delegating timing wrappers
//! that record them from inside the library's policy hooks.
//!
//! A span has a name, start, end, parent and (for per-request calls) a
//! request id. Spans are kept in memory and written out as TSV when the
//! benchmark ends; a layer's self time is its span minus its children.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use zipserv_serve::fleet::ReplicaSnapshot;
use zipserv_serve::policy::{PreemptionMode, QueuedRequest, RunningRequest};
use zipserv_serve::{PrefixVictim, Request, RoutePolicy, SchedulePolicy};

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;
/// Request id of a span that belongs to no single request.
pub const NO_REQ: u64 = u64::MAX;

/// One recorded interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    /// Layer call the span covers, e.g. `policy.select`.
    pub name: &'static str,
    /// Start, in ns since the log was created.
    pub start_ns: u64,
    /// End, in ns since the log was created.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Request the call served, or [`NO_REQ`].
    pub req: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans in recording order, plus the stack of spans still open.
#[derive(Debug, Default)]
struct SpanLog {
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// A span log shared between the benchmark and the wrappers it installs.
#[derive(Debug, Clone)]
pub struct Tracer {
    origin: Instant,
    log: Arc<Mutex<SpanLog>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            log: Arc::default(),
        }
    }
}

impl Tracer {
    fn log(&self) -> MutexGuard<'_, SpanLog> {
        self.log
            .lock()
            .expect("span log poisoned: a traced call panicked")
    }

    /// Nanoseconds since the log was created.
    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one; close it with
    /// [`Tracer::close`].
    pub fn open(&self, name: &'static str, req: u64) -> u32 {
        let start_ns = self.now_ns();
        let mut log = self.log();
        let parent = log.open.last().copied().unwrap_or(ROOT);
        let id = log.spans.len() as u32;
        log.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        log.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&self, id: u32) {
        let end_ns = self.now_ns();
        let mut log = self.log();
        assert_eq!(log.open.pop(), Some(id), "spans must close innermost first");
        log.spans[id as usize].end_ns = end_ns;
    }

    /// Runs `f` inside a span and returns its result.
    pub fn span<T>(&self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, req);
        let out = f();
        self.close(id);
        out
    }

    /// Records a finished leaf span under the innermost open span.
    pub fn record(&self, name: &'static str, start_ns: u64, end_ns: u64, req: u64) {
        let mut log = self.log();
        let parent = log.open.last().copied().unwrap_or(ROOT);
        log.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
    }

    /// Σ duration and count of the spans named `name`.
    pub fn total(&self, name: &str) -> (f64, usize) {
        let log = self.log();
        let mut ns = 0u64;
        let mut n = 0;
        for s in log.spans.iter().filter(|s| s.name == name) {
            ns += s.dur_ns();
            n += 1;
        }
        (ns as f64 / 1e9, n)
    }

    /// Σ duration (s) and count of spans whose name starts with `prefix`
    /// and whose parent is a span named `parent`.
    pub fn under(&self, parent: &str, prefix: &str) -> (f64, usize) {
        let log = self.log();
        let mut ns = 0u64;
        let mut n = 0;
        for s in &log.spans {
            let p = s.parent;
            if p != ROOT && s.name.starts_with(prefix) && log.spans[p as usize].name == parent {
                ns += s.dur_ns();
                n += 1;
            }
        }
        (ns as f64 / 1e9, n)
    }

    /// Count of the direct children of span `id` whose name starts with
    /// `prefix`.
    pub fn children(&self, id: u32, prefix: &str) -> usize {
        self.log()
            .spans
            .iter()
            .filter(|s| s.parent == id && s.name.starts_with(prefix))
            .count()
    }

    /// Self time (span minus its direct children) summed by span name, in
    /// seconds.
    pub fn self_times(&self) -> HashMap<&'static str, f64> {
        let log = self.log();
        let mut child_ns = vec![0u64; log.spans.len()];
        for s in &log.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.dur_ns();
            }
        }
        let mut ns: HashMap<&'static str, u64> = HashMap::new();
        for (s, c) in log.spans.iter().zip(child_ns) {
            *ns.entry(s.name).or_default() += s.dur_ns().saturating_sub(c);
        }
        ns.into_iter()
            .map(|(name, ns)| (name, ns as f64 / 1e9))
            .collect()
    }

    /// The spans as TSV: index, name, start, end, parent, request.
    pub fn to_tsv(&self) -> String {
        let log = self.log();
        let mut out = String::from("idx\tname\tstart_ns\tend_ns\tparent\treq\n");
        for (i, s) in log.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let req = if s.req == NO_REQ {
                "-".to_string()
            } else {
                s.req.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{req}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

/// A [`SchedulePolicy`] that delegates every decision to `inner` and
/// records a span around each `select` and `victim` call.
#[derive(Debug, Clone)]
pub struct TimedPolicy {
    inner: Box<dyn SchedulePolicy>,
    tracer: Tracer,
}

impl TimedPolicy {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: Box<dyn SchedulePolicy>, tracer: Tracer) -> Self {
        TimedPolicy { inner, tracer }
    }
}

impl SchedulePolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn select(
        &self,
        queued: &[QueuedRequest],
        running: &[RunningRequest],
        now: f64,
    ) -> Option<usize> {
        let t0 = self.tracer.now_ns();
        let pick = self.inner.select(queued, running, now);
        let t1 = self.tracer.now_ns();
        let req = pick
            .and_then(|i| queued.get(i))
            .map_or(NO_REQ, |q| q.req.id);
        self.tracer.record("policy.select", t0, t1, req);
        pick
    }

    fn victim(
        &self,
        candidate: &QueuedRequest,
        running: &[RunningRequest],
        now: f64,
    ) -> Option<usize> {
        let t0 = self.tracer.now_ns();
        let pick = self.inner.victim(candidate, running, now);
        let t1 = self.tracer.now_ns();
        self.tracer
            .record("policy.victim", t0, t1, candidate.req.id);
        pick
    }

    fn preemption_mode(&self) -> PreemptionMode {
        self.inner.preemption_mode()
    }

    fn prefix_victim(&self) -> PrefixVictim {
        self.inner.prefix_victim()
    }

    fn clone_box(&self) -> Box<dyn SchedulePolicy> {
        Box::new(self.clone())
    }
}

/// A [`RoutePolicy`] that delegates to `inner`, records a span around each
/// `route` call, and remembers which replica each arrival went to.
#[derive(Debug)]
pub struct TimedRoute<R> {
    inner: R,
    tracer: Tracer,
    routed: Arc<Mutex<Vec<usize>>>,
}

impl<R: RoutePolicy> TimedRoute<R> {
    /// Wraps `inner`; the returned handle collects the replica index of
    /// every routed arrival, in arrival order.
    pub fn new(inner: R, tracer: Tracer) -> (Self, Arc<Mutex<Vec<usize>>>) {
        let routed = Arc::new(Mutex::new(Vec::new()));
        let wrapper = TimedRoute {
            inner,
            tracer,
            routed: Arc::clone(&routed),
        };
        (wrapper, routed)
    }
}

impl<R: RoutePolicy> RoutePolicy for TimedRoute<R> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn route(&mut self, req: &Request, replicas: &[ReplicaSnapshot]) -> usize {
        let t0 = self.tracer.now_ns();
        let idx = self.inner.route(req, replicas);
        let t1 = self.tracer.now_ns();
        self.tracer.record("fleet.route", t0, t1, req.id);
        self.routed
            .lock()
            .expect("routing log poisoned: a traced call panicked")
            .push(idx);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::default();
        let root = t.open("root", NO_REQ);
        t.record("leaf", 10, 30, 7);
        t.record("leaf", 40, 50, 8);
        t.close(root);
        let (root_s, n) = t.total("root");
        assert_eq!(n, 1);
        let (leaf_s, leaves) = t.under("root", "le");
        assert_eq!((leaf_s, leaves), (30e-9, 2));
        assert_eq!(t.children(root, "le"), 2);
        assert_eq!(t.children(root, "root"), 0);
        let selfs = t.self_times();
        assert!((selfs["root"] - (root_s - 30e-9)).abs() < 1e-12);
        assert_eq!(selfs["leaf"], 30e-9);
        assert!(t.to_tsv().contains("\tleaf\t10\t30\t0\t7"));
    }

    #[test]
    fn nested_spans_take_the_innermost_parent() {
        let t = Tracer::default();
        t.span("outer", NO_REQ, || {
            t.span("inner", 3, || {});
        });
        assert_eq!(t.under("outer", "inner").1, 1);
        assert_eq!(t.under("inner", "outer").1, 0);
    }
}
