//! Server instrumentation: the [`Stats`] block every server instance owns.
//!
//! Each server keeps its *own* [`Registry`] so absolute counter values
//! stay meaningful per instance — the dedup tests assert facts like
//! `simulations_started == 1` even when several servers share a process.
//! `GET /metrics` concatenates this per-server registry with
//! [`Registry::global`], which holds the process-wide sampler and runner
//! instruments (`levy_rng_*`, `levy_sim_*`) plus span histograms.

use std::time::Duration;

use levy_obs::{Counter, Gauge, Registry};
use levy_sim::Json;

/// Routes that get their own `path` label on per-endpoint series.
/// Anything else collapses into `other` so label cardinality stays
/// bounded even under scanner traffic.
const KNOWN_PATHS: &[&str] = &[
    "/healthz",
    "/metrics",
    "/v1/query",
    "/v1/stats",
    "/v1/shutdown",
    "/v1/traces",
    "/v1/peers",
    "/v1/cluster/metrics",
    "/v1/events",
];

/// Monotonic counters and gauges exposed at `/v1/stats` and `/metrics`
/// (and asserted on by the dedup integration tests: `simulations_started`
/// is the ground truth for "the simulation ran exactly once").
pub struct Stats {
    registry: Registry,
    /// HTTP requests accepted (any route).
    pub http_requests: Counter,
    /// `POST /v1/query` requests.
    pub queries: Counter,
    /// Queries answered from the cache (either tier).
    pub cache_hits: Counter,
    /// Queries coalesced onto an already-in-flight job.
    pub coalesced: Counter,
    /// Simulations actually started by workers.
    pub simulations_started: Counter,
    /// Simulations that ran to completion.
    pub simulations_completed: Counter,
    /// Simulations cancelled after every waiter abandoned them.
    pub simulations_cancelled: Counter,
    /// Queries refused because the queue was full (503).
    pub rejected_queue_full: Counter,
    /// Malformed or invalid requests (400).
    pub invalid_requests: Counter,
    /// Waits that hit their deadline (504).
    pub wait_timeouts: Counter,
    /// Connections whose request could not be read (socket error or
    /// malformed bytes; answered 400 when the socket still works).
    pub io_read_errors: Counter,
    /// Responses that could not be (fully) written back to the client.
    pub io_write_errors: Counter,
    /// Connections that idled past the read deadline (answered 408).
    pub slow_client_timeouts: Counter,
    /// Simulations that panicked inside a worker (answered 500).
    pub simulations_failed: Counter,
    /// Cross-node cache peeks answered 200 by the key's home node.
    pub cluster_peek_hits: Counter,
    /// Cross-node cache peeks answered 404 (home had no cached result).
    pub cluster_peek_misses: Counter,
    /// Queries forwarded to their home node after a peek miss.
    pub cluster_forwards: Counter,
    /// Forwards that failed on the wire or came back 5xx.
    pub cluster_forward_errors: Counter,
    /// Non-home queries simulated locally because the home node was
    /// down, partitioned, or erroring (degraded mode).
    pub cluster_local_fallbacks: Counter,
    /// Queries this node received with the forwarded marker (it is the
    /// key's home from some entry node's point of view).
    pub cluster_received_forwards: Counter,
    /// Async write-behind replica writes that landed on a holder.
    pub cluster_replica_writes: Counter,
    /// Replica writes that failed on the wire or were refused.
    pub cluster_replica_write_errors: Counter,
    /// Cached keys pushed to their (new) home by the handoff scanner.
    pub cluster_handoff_keys: Counter,
    /// Bytes of cached bodies pushed by the handoff scanner.
    pub cluster_handoff_bytes: Counter,
    /// Forwarded requests whose ring epoch differed from this node's
    /// (both sides still answer — bodies are a pure function of the
    /// query — but the skew marks an in-flight membership change).
    pub cluster_epoch_skew: Counter,
    /// Membership changes applied (`POST /v1/peers` admissions).
    pub cluster_membership_changes: Counter,
    /// Requests negotiated onto the binary wire format (a wire-encoded
    /// body, a wire `Accept`, or both).
    pub wire_requests: Counter,
    /// Streaming query responses started (chunked head written).
    pub streams_started: Counter,
    /// Streams abandoned mid-flight: the client disconnected before the
    /// terminal frame, detaching its waiter (the last one out cancels
    /// the job).
    pub streams_cancelled: Counter,
    /// Jobs currently in the bounded queue.
    pub queue_depth: Gauge,
    /// Configured queue capacity (constant per server; exported so
    /// depth can be read as a fraction).
    pub queue_capacity: Gauge,
    /// Workers currently executing a simulation.
    pub workers_busy: Gauge,
    /// Current membership ring epoch (1 at boot, bumped per change).
    pub ring_epoch: Gauge,
    /// Background replication work items queued (write-behind pushes
    /// and handoff scans awaiting the replicator thread).
    pub repl_backlog_depth: Gauge,
    /// Keys pushed so far by the in-flight handoff scan (0 when idle) —
    /// the live progress signal a rebalance governor watches.
    pub handoff_progress: Gauge,
    /// Connection threads alive, parked in `accept` or serving.
    pub connection_threads: Gauge,
}

impl Default for Stats {
    fn default() -> Self {
        Stats::new()
    }
}

impl Stats {
    /// Fresh stats backed by a fresh per-server registry.
    pub fn new() -> Stats {
        let registry = Registry::new();
        let http_requests = registry.counter(
            "levy_served_http_requests_total",
            "HTTP requests accepted, any route.",
        );
        let queries = registry.counter("levy_served_queries_total", "POST /v1/query requests.");
        let cache_hits = registry.counter(
            "levy_served_cache_hits_total",
            "Queries answered from the result cache (either tier).",
        );
        let coalesced = registry.counter(
            "levy_served_coalesced_total",
            "Queries coalesced onto an already-in-flight job.",
        );
        let simulations_started = registry.counter(
            "levy_served_simulations_started_total",
            "Simulations actually started by workers.",
        );
        let simulations_completed = registry.counter(
            "levy_served_simulations_completed_total",
            "Simulations that ran to completion.",
        );
        let simulations_cancelled = registry.counter(
            "levy_served_simulations_cancelled_total",
            "Simulations cancelled after every waiter abandoned them.",
        );
        let rejected_queue_full = registry.counter(
            "levy_served_rejected_queue_full_total",
            "Queries refused with 503 because the job queue was full.",
        );
        let invalid_requests = registry.counter(
            "levy_served_invalid_requests_total",
            "Malformed or invalid requests answered with 400.",
        );
        let wait_timeouts = registry.counter(
            "levy_served_wait_timeouts_total",
            "Waits that hit their deadline and were answered with 504.",
        );
        let io_read_errors = registry.counter(
            "levy_served_io_read_errors_total",
            "Connections whose request could not be read.",
        );
        let io_write_errors = registry.counter(
            "levy_served_io_write_errors_total",
            "Responses that could not be fully written to the client.",
        );
        let slow_client_timeouts = registry.counter(
            "levy_served_slow_client_timeouts_total",
            "Connections that idled past the read deadline (408).",
        );
        let simulations_failed = registry.counter(
            "levy_served_simulations_failed_total",
            "Simulations that panicked inside a worker (500).",
        );
        let cluster_peek_hits = registry.counter(
            "levy_served_cluster_peek_hits_total",
            "Cross-node cache peeks answered from the home node's cache.",
        );
        let cluster_peek_misses = registry.counter(
            "levy_served_cluster_peek_misses_total",
            "Cross-node cache peeks the home node answered 404.",
        );
        let cluster_forwards = registry.counter(
            "levy_served_cluster_forwards_total",
            "Queries forwarded to their home node after a peek miss.",
        );
        let cluster_forward_errors = registry.counter(
            "levy_served_cluster_forward_errors_total",
            "Forwards that failed on the wire or returned a server error.",
        );
        let cluster_local_fallbacks = registry.counter(
            "levy_served_cluster_local_fallbacks_total",
            "Non-home queries simulated locally because the home node was unreachable.",
        );
        let cluster_received_forwards = registry.counter(
            "levy_served_cluster_received_forwards_total",
            "Queries received with the forwarded marker from a cluster peer.",
        );
        let cluster_replica_writes = registry.counter(
            "levy_served_cluster_replica_writes_total",
            "Write-behind replica writes that landed on a holder.",
        );
        let cluster_replica_write_errors = registry.counter(
            "levy_served_cluster_replica_write_errors_total",
            "Replica writes that failed on the wire or were refused.",
        );
        let cluster_handoff_keys = registry.counter(
            "levy_served_cluster_handoff_keys_total",
            "Cached keys pushed to their holders by the handoff scanner.",
        );
        let cluster_handoff_bytes = registry.counter(
            "levy_served_cluster_handoff_bytes_total",
            "Bytes of cached bodies pushed by the handoff scanner.",
        );
        let cluster_epoch_skew = registry.counter(
            "levy_served_cluster_epoch_skew_total",
            "Forwarded requests whose ring epoch differed from this node's.",
        );
        let cluster_membership_changes = registry.counter(
            "levy_served_cluster_membership_changes_total",
            "Membership changes applied via POST /v1/peers.",
        );
        let wire_requests = registry.counter(
            "levy_served_wire_requests_total",
            "Requests negotiated onto the binary wire format.",
        );
        let streams_started = registry.counter(
            "levy_served_streams_started_total",
            "Streaming query responses started (chunked head written).",
        );
        let streams_cancelled = registry.counter(
            "levy_served_streams_cancelled_total",
            "Streams abandoned by a client disconnect before the terminal frame.",
        );
        let queue_depth = registry.gauge(
            "levy_served_queue_depth",
            "Jobs currently in the bounded queue.",
        );
        let queue_capacity = registry.gauge(
            "levy_served_queue_capacity",
            "Configured bound of the job queue.",
        );
        let workers_busy = registry.gauge(
            "levy_served_workers_busy",
            "Workers currently executing a simulation.",
        );
        let ring_epoch = registry.gauge(
            "levy_served_ring_epoch",
            "Current membership ring epoch (1 at boot).",
        );
        let repl_backlog_depth = registry.gauge(
            "levy_served_repl_backlog_depth",
            "Background replication work items awaiting the replicator thread.",
        );
        let handoff_progress = registry.gauge(
            "levy_served_handoff_progress",
            "Keys pushed so far by the in-flight handoff scan (0 when idle).",
        );
        let connection_threads = registry.gauge(
            "levy_served_connection_threads",
            "Connection threads alive, parked in accept or serving a connection.",
        );
        Stats {
            registry,
            http_requests,
            queries,
            cache_hits,
            coalesced,
            simulations_started,
            simulations_completed,
            simulations_cancelled,
            rejected_queue_full,
            invalid_requests,
            wait_timeouts,
            io_read_errors,
            io_write_errors,
            slow_client_timeouts,
            simulations_failed,
            cluster_peek_hits,
            cluster_peek_misses,
            cluster_forwards,
            cluster_forward_errors,
            cluster_local_fallbacks,
            cluster_received_forwards,
            cluster_replica_writes,
            cluster_replica_write_errors,
            cluster_handoff_keys,
            cluster_handoff_bytes,
            cluster_epoch_skew,
            cluster_membership_changes,
            wire_requests,
            streams_started,
            streams_cancelled,
            queue_depth,
            queue_capacity,
            workers_busy,
            ring_epoch,
            repl_backlog_depth,
            handoff_progress,
            connection_threads,
        }
    }

    /// The per-server registry (for adopting cache counters and tests).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Records one finished HTTP exchange on the per-endpoint series:
    /// `levy_served_http_responses_total{path,status}` and
    /// `levy_served_http_request_duration_us{path}`.
    pub fn record_response(&self, path: &str, status: u16, elapsed: Duration) {
        let path = if KNOWN_PATHS.contains(&path) {
            path
        } else {
            "other"
        };
        let status = status.to_string();
        self.registry
            .counter_with(
                "levy_served_http_responses_total",
                "HTTP responses by route and status code.",
                &[("path", path), ("status", &status)],
            )
            .inc();
        self.registry
            .histogram_with(
                "levy_served_http_request_duration_us",
                "Wall time from request read to response write, in microseconds.",
                &[("path", path)],
            )
            .record(u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX));
    }

    /// Prometheus text exposition: this server's registry followed by the
    /// process-global one (sampler, runner, spans).
    pub fn encode_prometheus(&self) -> String {
        let mut out = self.registry.encode();
        Registry::global().encode_into(&mut out);
        out
    }

    /// Snapshot as JSON (the `counters` object of `/v1/stats`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("http_requests", Json::from(self.http_requests.get())),
            ("queries", Json::from(self.queries.get())),
            ("cache_hits", Json::from(self.cache_hits.get())),
            ("coalesced", Json::from(self.coalesced.get())),
            (
                "simulations_started",
                Json::from(self.simulations_started.get()),
            ),
            (
                "simulations_completed",
                Json::from(self.simulations_completed.get()),
            ),
            (
                "simulations_cancelled",
                Json::from(self.simulations_cancelled.get()),
            ),
            (
                "rejected_queue_full",
                Json::from(self.rejected_queue_full.get()),
            ),
            ("invalid_requests", Json::from(self.invalid_requests.get())),
            ("wait_timeouts", Json::from(self.wait_timeouts.get())),
            ("io_read_errors", Json::from(self.io_read_errors.get())),
            ("io_write_errors", Json::from(self.io_write_errors.get())),
            (
                "slow_client_timeouts",
                Json::from(self.slow_client_timeouts.get()),
            ),
            (
                "simulations_failed",
                Json::from(self.simulations_failed.get()),
            ),
            (
                "cluster_peek_hits",
                Json::from(self.cluster_peek_hits.get()),
            ),
            (
                "cluster_peek_misses",
                Json::from(self.cluster_peek_misses.get()),
            ),
            ("cluster_forwards", Json::from(self.cluster_forwards.get())),
            (
                "cluster_forward_errors",
                Json::from(self.cluster_forward_errors.get()),
            ),
            (
                "cluster_local_fallbacks",
                Json::from(self.cluster_local_fallbacks.get()),
            ),
            (
                "cluster_received_forwards",
                Json::from(self.cluster_received_forwards.get()),
            ),
            (
                "cluster_replica_writes",
                Json::from(self.cluster_replica_writes.get()),
            ),
            (
                "cluster_replica_write_errors",
                Json::from(self.cluster_replica_write_errors.get()),
            ),
            (
                "cluster_handoff_keys",
                Json::from(self.cluster_handoff_keys.get()),
            ),
            (
                "cluster_handoff_bytes",
                Json::from(self.cluster_handoff_bytes.get()),
            ),
            (
                "cluster_epoch_skew",
                Json::from(self.cluster_epoch_skew.get()),
            ),
            (
                "cluster_membership_changes",
                Json::from(self.cluster_membership_changes.get()),
            ),
            ("ring_epoch", Json::from(self.ring_epoch.get() as u64)),
            (
                "repl_backlog_depth",
                Json::from(self.repl_backlog_depth.get() as u64),
            ),
            (
                "handoff_progress",
                Json::from(self.handoff_progress.get() as u64),
            ),
            ("wire_requests", Json::from(self.wire_requests.get())),
            ("streams_started", Json::from(self.streams_started.get())),
            (
                "streams_cancelled",
                Json::from(self.streams_cancelled.get()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_per_instance() {
        let a = Stats::new();
        let b = Stats::new();
        a.queries.inc();
        assert_eq!(a.queries.get(), 1);
        assert_eq!(b.queries.get(), 0, "instances must not share counters");
    }

    #[test]
    fn unknown_paths_collapse_into_other() {
        let stats = Stats::new();
        stats.record_response("/v1/query", 200, Duration::from_micros(150));
        stats.record_response("/../../etc/passwd", 404, Duration::from_micros(20));
        stats.record_response("/some/other/probe", 404, Duration::from_micros(20));
        let text = stats.encode_prometheus();
        assert!(
            text.contains("levy_served_http_responses_total{path=\"/v1/query\",status=\"200\"} 1")
        );
        assert!(text.contains("levy_served_http_responses_total{path=\"other\",status=\"404\"} 2"));
        assert!(!text.contains("passwd"), "unknown paths must not be labels");
    }

    #[test]
    fn exposition_includes_global_registry() {
        let stats = Stats::new();
        // Touch a global-registry instrument so the concatenation is visible.
        levy_sim::obs::record_trial_outcomes(&[Some(8)]);
        let text = stats.encode_prometheus();
        assert!(text.contains("levy_served_queries_total"));
        assert!(text.contains("levy_sim_trial_steps"));
    }

    #[test]
    fn json_snapshot_tracks_counters() {
        let stats = Stats::new();
        stats.queries.add(3);
        stats.cache_hits.inc();
        let json = stats.to_json();
        assert_eq!(json.get("queries").unwrap().as_u64(), Some(3));
        assert_eq!(json.get("cache_hits").unwrap().as_u64(), Some(1));
        assert_eq!(json.get("wait_timeouts").unwrap().as_u64(), Some(0));
    }
}
