//! Distributed-trace collection: span trees per request, a bounded
//! finished-trace ring with tail-sampling, and handles that are cheap to
//! pass across threads.
//!
//! A [`TraceStore`] owns two collections behind one mutex: the *active*
//! traces (roots that have not finished) and a ring of *finished* traces.
//! A [`TraceSpan`] is an RAII handle: [`TraceStore::start_root`] opens a
//! trace, [`TraceSpan::child`] opens children, and dropping (or
//! [`TraceSpan::finish`]-ing) a span appends its record to the trace.
//! Dropping the root finalizes the trace into the ring.
//!
//! **Tail-sampling policy.** The ring has a fixed capacity; when full, the
//! oldest *unprotected* trace is evicted. A trace is protected when its
//! root status is an error (>= 400, which covers 504 timeouts) or when its
//! duration is among the slowest `slow_protect` traces currently retained.
//! If every retained trace is protected, the oldest is evicted anyway so
//! the ring stays bounded.
//!
//! **Late spans.** A child span may legitimately outlive its root (e.g. a
//! worker still simulating after the request timed out with 504). Once the
//! root finalizes, the trace has moved to the ring; records arriving after
//! that are dropped silently. This keeps finished traces immutable.
//!
//! Like everything in this crate, the store observes wall time only —
//! never RNG streams — so seeded simulation output is byte-identical with
//! tracing on or off.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::trace::{
    emit_trace_event, next_span_id, next_trace_id, EventIds, SpanContext, SpanId, TraceId,
};

/// One finished span inside a trace.
#[derive(Clone, Debug)]
pub struct SpanRecord {
    /// The span's own id.
    pub span_id: SpanId,
    /// Parent span, `None` for the trace root (or a root whose parent
    /// lives in another process, in which case `remote_parent` is set).
    pub parent_id: Option<SpanId>,
    /// Span name, e.g. `queue_wait`.
    pub name: String,
    /// Start as unix microseconds.
    pub start_unix_us: u64,
    /// Wall-clock duration in microseconds.
    pub dur_us: u64,
    /// Free-form key/value annotations.
    pub tags: Vec<(String, String)>,
}

/// A finalized trace: the root plus every span that finished before it.
#[derive(Clone, Debug)]
pub struct FinishedTrace {
    /// Trace identity.
    pub trace_id: TraceId,
    /// Name of the root span.
    pub root_name: String,
    /// Root start as unix microseconds.
    pub start_unix_us: u64,
    /// Root duration in microseconds.
    pub dur_us: u64,
    /// Status the root reported (HTTP status for served traces; 0 when
    /// never set).
    pub status: u16,
    /// Parent span id in the *originating* process, when the root was
    /// started from a propagated [`SpanContext`].
    pub remote_parent: Option<SpanId>,
    /// All finished spans, in finish order; the root is last.
    pub spans: Vec<SpanRecord>,
}

struct ActiveTrace {
    /// The id the finished trace reports. Equal to the slot key unless
    /// this fragment had to be given a slot of its own (see `start_root`).
    trace_id: TraceId,
    root_name: String,
    start_unix_us: u64,
    status: u16,
    remote_parent: Option<SpanId>,
    spans: Vec<SpanRecord>,
}

struct State {
    active: HashMap<u128, ActiveTrace>,
    finished: Vec<FinishedTrace>,
}

struct Inner {
    state: Mutex<State>,
    capacity: usize,
    slow_protect: usize,
}

/// Bounded collection of traces; clones share the same store.
#[derive(Clone)]
pub struct TraceStore {
    inner: Arc<Inner>,
}

/// How many slowest traces stay eviction-protected by default.
pub const DEFAULT_SLOW_PROTECT: usize = 16;

fn unix_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

impl TraceStore {
    /// A store retaining at most `capacity` finished traces, protecting
    /// the [`DEFAULT_SLOW_PROTECT`] slowest from eviction.
    pub fn new(capacity: usize) -> TraceStore {
        TraceStore::with_slow_protect(capacity, DEFAULT_SLOW_PROTECT)
    }

    /// A store with an explicit slowest-N protection size.
    pub fn with_slow_protect(capacity: usize, slow_protect: usize) -> TraceStore {
        TraceStore {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    active: HashMap::new(),
                    finished: Vec::new(),
                }),
                capacity: capacity.max(1),
                slow_protect,
            }),
        }
    }

    /// Opens a new trace. With `parent: Some(ctx)` (a propagated
    /// `traceparent`), the trace adopts the caller's trace id and records
    /// the caller's span as its remote parent; otherwise a fresh trace id
    /// is minted.
    ///
    /// When a fragment of the adopted trace is still open in this store,
    /// the new fragment gets a freshly minted slot id, so the two trees
    /// never share spans; its spans' contexts carry that slot id, but the
    /// finished fragment still reports the adopted id. This is the normal
    /// case for a cluster hop: a peer's cache peek finalizes just after
    /// its response is written, so the forward that follows the peek can
    /// arrive while the peek's fragment is still open.
    pub fn start_root(&self, name: &str, parent: Option<SpanContext>) -> TraceSpan {
        let (trace_id, remote_parent) = match parent {
            Some(ctx) => (ctx.trace_id, Some(ctx.span_id)),
            None => (next_trace_id(), None),
        };
        let start_unix_us = unix_us();
        let mut state = self.inner.state.lock().unwrap();
        let slot = if state.active.contains_key(&trace_id.0) {
            next_trace_id()
        } else {
            trace_id
        };
        state.active.insert(
            slot.0,
            ActiveTrace {
                trace_id,
                root_name: name.to_owned(),
                start_unix_us,
                status: 0,
                remote_parent,
                spans: Vec::new(),
            },
        );
        drop(state);
        TraceSpan {
            store: self.clone(),
            ctx: SpanContext {
                trace_id: slot,
                span_id: next_span_id(),
            },
            parent_id: remote_parent,
            name: name.to_owned(),
            start: Instant::now(),
            start_unix_us,
            tags: Vec::new(),
            root: true,
            finished: false,
        }
    }

    /// Opens a span inside an existing active trace, parented to
    /// `parent.span_id`. Works from any thread — this is how workers join
    /// a request's trace across the queue boundary. The span is recorded
    /// only if the trace is still active when it finishes.
    pub fn span(&self, parent: SpanContext, name: &str) -> TraceSpan {
        TraceSpan {
            store: self.clone(),
            ctx: SpanContext {
                trace_id: parent.trace_id,
                span_id: next_span_id(),
            },
            parent_id: Some(parent.span_id),
            name: name.to_owned(),
            start: Instant::now(),
            start_unix_us: unix_us(),
            tags: Vec::new(),
            root: false,
            finished: false,
        }
    }

    /// Sets the status of an active trace (e.g. the HTTP status of the
    /// response). No-op once the trace has finalized.
    pub fn set_status(&self, trace_id: TraceId, status: u16) {
        let mut state = self.inner.state.lock().unwrap();
        if let Some(active) = state.active.get_mut(&trace_id.0) {
            active.status = status;
        }
    }

    /// Finished traces, most recently finalized last.
    pub fn finished(&self) -> Vec<FinishedTrace> {
        self.inner.state.lock().unwrap().finished.clone()
    }

    /// Looks up one finished trace by id.
    pub fn get(&self, trace_id: TraceId) -> Option<FinishedTrace> {
        self.inner
            .state
            .lock()
            .unwrap()
            .finished
            .iter()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    /// Every finished fragment carrying this trace id, oldest first. One
    /// node can legitimately hold several fragments of a distributed
    /// trace — e.g. the cache-peek exchange *and* the forwarded query
    /// that followed it — and cluster stitching needs them all.
    pub fn get_all(&self, trace_id: TraceId) -> Vec<FinishedTrace> {
        self.inner
            .state
            .lock()
            .unwrap()
            .finished
            .iter()
            .filter(|t| t.trace_id == trace_id)
            .cloned()
            .collect()
    }

    /// Number of finished traces currently retained.
    pub fn finished_len(&self) -> usize {
        self.inner.state.lock().unwrap().finished.len()
    }

    fn record_span(&self, span: &mut TraceSpan) {
        let dur_us = u64::try_from(span.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        emit_trace_event(
            &span.name,
            dur_us,
            Some(&EventIds {
                trace_id: span.ctx.trace_id,
                span_id: span.ctx.span_id,
                parent_id: span.parent_id,
            }),
        );
        let record = SpanRecord {
            span_id: span.ctx.span_id,
            parent_id: if span.root { None } else { span.parent_id },
            name: std::mem::take(&mut span.name),
            start_unix_us: span.start_unix_us,
            dur_us,
            tags: std::mem::take(&mut span.tags),
        };
        let mut state = self.inner.state.lock().unwrap();
        if span.root {
            let Some(active) = state.active.remove(&span.ctx.trace_id.0) else {
                return;
            };
            let mut spans = active.spans;
            spans.push(record);
            let finished = FinishedTrace {
                trace_id: active.trace_id,
                root_name: active.root_name,
                start_unix_us: active.start_unix_us,
                dur_us,
                status: active.status,
                remote_parent: active.remote_parent,
                spans,
            };
            if state.finished.len() >= self.inner.capacity {
                evict_one(&mut state.finished, self.inner.slow_protect);
            }
            state.finished.push(finished);
        } else if let Some(active) = state.active.get_mut(&span.ctx.trace_id.0) {
            active.spans.push(record);
        }
        // else: trace already finalized; late span dropped (see module docs).
    }
}

/// Evicts the oldest unprotected trace; oldest overall if all protected.
fn evict_one(finished: &mut Vec<FinishedTrace>, slow_protect: usize) {
    let slow_threshold = if slow_protect == 0 || finished.is_empty() {
        u64::MAX
    } else {
        let mut durs: Vec<u64> = finished.iter().map(|t| t.dur_us).collect();
        durs.sort_unstable_by(|a, b| b.cmp(a));
        durs[slow_protect.min(durs.len()) - 1]
    };
    let victim = finished
        .iter()
        .position(|t| t.status < 400 && t.dur_us < slow_threshold)
        .unwrap_or(0);
    finished.remove(victim);
}

/// RAII handle for one span of a distributed trace. `Send`, so it can ride
/// inside a queued job across the thread boundary. Finishes on drop.
pub struct TraceSpan {
    store: TraceStore,
    ctx: SpanContext,
    parent_id: Option<SpanId>,
    name: String,
    start: Instant,
    start_unix_us: u64,
    tags: Vec<(String, String)>,
    root: bool,
    finished: bool,
}

impl TraceSpan {
    /// The context to propagate: this span's trace id and its own span id
    /// (so spans started from the context become its children).
    pub fn ctx(&self) -> SpanContext {
        self.ctx
    }

    /// Opens a child span.
    pub fn child(&self, name: &str) -> TraceSpan {
        self.store.span(self.ctx, name)
    }

    /// Attaches a key/value annotation.
    pub fn tag(&mut self, key: &str, value: &str) {
        self.tags.push((key.to_owned(), value.to_owned()));
    }

    /// Sets the owning trace's status (meaningful on any span; applies to
    /// the whole trace).
    pub fn set_status(&self, status: u16) {
        self.store.set_status(self.ctx.trace_id, status);
    }

    /// Finishes the span now instead of at scope end.
    pub fn finish(mut self) {
        self.finish_inner();
    }

    fn finish_inner(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        self.store.clone().record_span(self);
    }
}

impl Drop for TraceSpan {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_and_children_form_one_tree() {
        let store = TraceStore::new(8);
        let root = store.start_root("request", None);
        let trace_id = root.ctx().trace_id;
        let child = root.child("cache_probe");
        let grandchild = child.child("disk_read");
        let child_id = child.ctx().span_id;
        grandchild.finish();
        child.finish();
        root.set_status(200);
        root.finish();

        let trace = store.get(trace_id).expect("finished");
        assert_eq!(trace.status, 200);
        assert_eq!(trace.spans.len(), 3);
        assert_eq!(trace.spans[2].name, "request");
        assert_eq!(trace.spans[2].parent_id, None, "root has no parent");
        let probe = trace
            .spans
            .iter()
            .find(|s| s.name == "cache_probe")
            .unwrap();
        let disk = trace.spans.iter().find(|s| s.name == "disk_read").unwrap();
        assert_eq!(disk.parent_id, Some(probe.span_id));
        assert_eq!(probe.span_id, child_id);
        // Every non-root parent link resolves within the trace.
        for span in &trace.spans {
            if let Some(parent) = span.parent_id {
                assert!(trace.spans.iter().any(|s| s.span_id == parent));
            }
        }
    }

    #[test]
    fn remote_parent_adopts_trace_id() {
        let store = TraceStore::new(8);
        let remote = SpanContext {
            trace_id: TraceId(0xFEED),
            span_id: SpanId(0xBEEF),
        };
        let root = store.start_root("request", Some(remote));
        assert_eq!(root.ctx().trace_id, TraceId(0xFEED));
        root.finish();
        let trace = store.get(TraceId(0xFEED)).expect("finished");
        assert_eq!(trace.remote_parent, Some(SpanId(0xBEEF)));
        assert_eq!(trace.spans[0].parent_id, None);
    }

    #[test]
    fn cross_thread_span_joins_trace() {
        let store = TraceStore::new(8);
        let root = store.start_root("request", None);
        let ctx = root.ctx();
        let worker_store = store.clone();
        std::thread::spawn(move || {
            let mut span = worker_store.span(ctx, "worker_exec");
            span.tag("worker", "3");
            span.finish();
        })
        .join()
        .unwrap();
        let trace_id = ctx.trace_id;
        root.finish();
        let trace = store.get(trace_id).expect("finished");
        let worker = trace
            .spans
            .iter()
            .find(|s| s.name == "worker_exec")
            .unwrap();
        assert_eq!(worker.parent_id, Some(ctx.span_id));
        assert_eq!(worker.tags, vec![("worker".to_owned(), "3".to_owned())]);
    }

    #[test]
    fn concurrent_fragments_of_one_trace_stay_apart_under_its_id() {
        let store = TraceStore::new(8);
        let remote = SpanContext {
            trace_id: TraceId(0xFEED),
            span_id: SpanId(0xBEEF),
        };
        let peek = store.start_root("request", Some(remote));
        let forward = store.start_root("request", Some(remote));
        let peek_probe = peek.child("cache_probe");
        let worker = store.span(forward.ctx(), "worker_exec");
        peek_probe.finish();
        worker.finish();
        peek.finish();
        forward.finish();
        let fragments = store.get_all(TraceId(0xFEED));
        assert_eq!(fragments.len(), 2, "both fragments report the adopted id");
        let names =
            |t: &FinishedTrace| -> Vec<String> { t.spans.iter().map(|s| s.name.clone()).collect() };
        assert_eq!(names(&fragments[0]), ["cache_probe", "request"]);
        assert_eq!(names(&fragments[1]), ["worker_exec", "request"]);
        assert!(fragments
            .iter()
            .all(|t| t.remote_parent == Some(SpanId(0xBEEF))));
    }

    #[test]
    fn late_spans_after_finalize_are_dropped() {
        let store = TraceStore::new(8);
        let root = store.start_root("request", None);
        let ctx = root.ctx();
        let trace_id = ctx.trace_id;
        let late = store.span(ctx, "worker_exec");
        root.finish();
        late.finish(); // trace already finalized
        let trace = store.get(trace_id).unwrap();
        assert_eq!(trace.spans.len(), 1, "only the root was captured");
    }

    #[test]
    fn ring_is_bounded_and_protects_errors_and_slowest() {
        let store = TraceStore::with_slow_protect(4, 1);
        // One error trace, one slow trace, then a stream of fast OK traces.
        let err = store.start_root("request", None);
        let err_id = err.ctx().trace_id;
        err.set_status(504);
        err.finish();

        let slow = store.start_root("request", None);
        let slow_id = slow.ctx().trace_id;
        slow.set_status(200);
        std::thread::sleep(std::time::Duration::from_millis(20));
        slow.finish();

        let mut fast_ids = Vec::new();
        for _ in 0..6 {
            let t = store.start_root("request", None);
            t.set_status(200);
            fast_ids.push(t.ctx().trace_id);
            t.finish();
        }
        assert_eq!(store.finished_len(), 4, "capacity respected");
        assert!(store.get(err_id).is_some(), "error trace survives");
        assert!(store.get(slow_id).is_some(), "slowest trace survives");
        assert!(
            fast_ids
                .iter()
                .filter(|id| store.get(**id).is_some())
                .count()
                == 2,
            "fast traces churn through the remaining slots"
        );
    }

    #[test]
    fn all_protected_still_evicts_oldest() {
        let store = TraceStore::with_slow_protect(2, 0);
        let mut ids = Vec::new();
        for _ in 0..3 {
            let t = store.start_root("request", None);
            t.set_status(500);
            ids.push(t.ctx().trace_id);
            t.finish();
        }
        assert_eq!(store.finished_len(), 2);
        assert!(
            store.get(ids[0]).is_none(),
            "oldest evicted despite error status"
        );
        assert!(store.get(ids[2]).is_some());
    }
}
