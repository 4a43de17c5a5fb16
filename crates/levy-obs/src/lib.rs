//! `levy-obs` — std-only observability for the Lévy-walk workspace.
//!
//! Everything here is dependency-free and allocation-light so the hot
//! layers (the jump sampler at ~5 ns/draw, the trial runner, the serving
//! path) can be instrumented without perturbing what they measure:
//!
//! - [`metrics`]: lock-free [`Counter`]/[`Gauge`]/[`Histogram`] handles.
//!   Histograms use base-2 log buckets and merge by bucket-wise addition —
//!   the same instrument backs both `/metrics` latency series and the
//!   hitting-time step distributions EXPERIMENTS.md studies.
//! - [`registry`]: a [`Registry`] interning families by name, plus a
//!   Prometheus text-format encoder ([`Registry::encode`]).
//! - [`exposition`]: the inverse — a text-exposition parser and the
//!   cross-node merger behind federated `/v1/cluster/metrics` views.
//! - [`events`]: a bounded, seq-cursored [`EventJournal`] of typed
//!   cluster events (peer flips, epoch bumps, handoff lifecycle, ...).
//! - [`trace`]: RAII [`Span`] guards recording wall time into histograms,
//!   trace/span identity ([`trace::TraceId`], [`trace::SpanContext`]) with
//!   `traceparent`-style propagation, and seq-numbered JSONL events behind
//!   the `LEVY_TRACE` env var.
//! - [`traces`]: a [`TraceStore`] collecting finished span trees into a
//!   bounded ring with tail-sampling (errors and slowest-N protected).
//! - [`sketch`]: the [`P2Quantile`] streaming quantile estimator.
//! - [`observe`]: the `LEVY_OBSERVE` master switch for walk-level
//!   observers ([`observers_enabled`]).
//! - [`history`]: registry [`Snapshot`]s and the snapshot differ shared by
//!   `levyc metrics --watch` and progress reporters.
//! - [`log`]: one structured stderr format (`ts level target msg k=v`)
//!   shared by every binary.
//!
//! Metric recording is strictly off the result path: no instrument touches
//! an RNG stream or simulation state, so seeded outputs stay byte-identical
//! whether or not anything is observing.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
pub mod exposition;
pub mod history;
pub mod log;
pub mod metrics;
pub mod observe;
pub mod registry;
pub mod sketch;
pub mod trace;
pub mod traces;

pub use events::{Event, EventJournal, EventKind};
pub use exposition::{merge_expositions, parse_exposition, ParsedFamily, SeriesValue};
pub use history::{diff, Snapshot};
pub use log::Level;
pub use metrics::{
    bucket_index, bucket_upper_bound, Counter, Gauge, Histogram, HistogramSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use observe::{observers_enabled, set_observers_enabled};
pub use registry::{register_process_metrics, Registry};
pub use sketch::P2Quantile;
pub use trace::{set_trace_enabled, trace_enabled, Span, SpanContext, SpanId, TraceId};
pub use traces::{FinishedTrace, SpanRecord, TraceSpan, TraceStore};
