//! The `levyd` server core: listener, bounded job queue, worker pool,
//! in-flight dedup, and graceful shutdown.
//!
//! Request lifecycle (`POST /v1/query`):
//!
//! 1. parse + validate the JSON body into a canonical [`Query`];
//! 2. cache lookup by content-addressed key → immediate 200 on a hit;
//! 3. dedup: if a job for the same key is already in flight, attach to
//!    it as a waiter (no new simulation); otherwise admit a new job into
//!    the bounded queue — or reply `503 + Retry-After` when it is full
//!    (backpressure);
//! 4. wait for the job with a deadline; on timeout the waiter detaches,
//!    and the *last* waiter to detach cancels the job cooperatively
//!    (`CancelToken`), so abandoned work stops burning cores;
//! 5. workers pop jobs, run the deterministic engine, store the body in
//!    the cache, and wake every waiter.
//!
//! Shutdown (`SIGTERM` via `signal`, or `POST /v1/shutdown`) wakes the
//! parked connection threads and closes the listener, lets workers
//! drain every queued job, and waits for open connections to finish —
//! in-flight work is answered, new work is refused with 503.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, BufReader, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

use levy_obs::{
    Event, EventJournal, EventKind, FinishedTrace, SpanContext, SpanRecord, TraceId, TraceSpan,
    TraceStore,
};
use levy_sim::{BatchProgress, CancelToken, Json};
use levy_wire::{ErrorFrame, FinalFrame, Frame};

use crate::cache::{CacheConfig, CacheTier, CachedBody, ResultCache};
use crate::cluster::{
    Cluster, ClusterConfig, RemoteRoute, RoutePlan, EPOCH_HEADER, FORWARDED_HEADER, TOKEN_HEADER,
};
use crate::engine;
use crate::fault::{FaultDisk, FaultPlan, FaultStream};
use crate::http::{
    finish_chunked, read_request, write_chunk, write_chunked_head, write_response, Request,
    Response,
};
use crate::metrics::Stats;
use crate::request::Query;
use crate::wirecodec;

/// Tuning knobs for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker threads executing simulations.
    pub workers: usize,
    /// Runner threads *per simulation* (`levy_sim` work-stealing pool).
    pub sim_threads: usize,
    /// Bounded job-queue capacity; beyond it, `503 Retry-After`.
    pub queue_capacity: usize,
    /// Result-cache sizing and placement.
    pub cache: CacheConfig,
    /// Default per-request wait deadline (overridable per request via
    /// `timeout_ms`).
    pub default_timeout_ms: u64,
    /// Socket read deadline: a client that has not delivered a full
    /// request within this window is answered `408` and disconnected
    /// (slow-loris defense).
    pub read_timeout_ms: u64,
    /// Deterministic fault schedule injected at the I/O seams; `None`
    /// (production) leaves every seam transparent.
    pub faults: Option<Arc<FaultPlan>>,
    /// Suppress structured request logs (tests, benchmarks).
    pub quiet: bool,
    /// Finished traces retained by the tail-sampling ring served at
    /// `GET /v1/traces` (errors and the slowest traces are protected
    /// from eviction; see `levy_obs::TraceStore`).
    pub trace_capacity: usize,
    /// Cluster membership (`levyd --cluster --peers ...`); `None` runs
    /// the classic single-node daemon.
    pub cluster: Option<ClusterConfig>,
    /// Structured events retained by the journal behind `GET /v1/events`
    /// (peer flips, epoch bumps, handoff lifecycle, replica write
    /// errors, backpressure onsets); `0` disables recording entirely.
    pub events_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            sim_threads: levy_sim::default_threads(),
            queue_capacity: 64,
            cache: CacheConfig::default(),
            default_timeout_ms: 30_000,
            read_timeout_ms: 10_000,
            faults: None,
            quiet: false,
            trace_capacity: 256,
            cluster: None,
            events_capacity: 256,
        }
    }
}

/// Terminal states of a job.
enum JobOutcome {
    /// Still queued or running.
    Pending,
    /// Completed; the cached body in both representations (shared, not
    /// copied per waiter).
    Done(Arc<CachedBody>),
    /// The engine panicked or failed.
    Failed(String),
    /// Cancelled after all waiters abandoned it (or at shutdown).
    Cancelled,
}

/// What a waiter tells its client when the deadline passes first.
const DEADLINE_MESSAGE: &str = "simulation did not finish within the deadline";

impl JobOutcome {
    /// A resolved job's answer: its body, or the status and message of
    /// its failure. `None` while the job is pending.
    fn terminal(&self) -> Option<Result<&CachedBody, (u16, &str)>> {
        match self {
            JobOutcome::Pending => None,
            JobOutcome::Done(body) => Some(Ok(body)),
            JobOutcome::Failed(message) => Some(Err((500, message))),
            JobOutcome::Cancelled => Some(Err((503, "job was cancelled, retry"))),
        }
    }
}

/// One deduplicated unit of simulation work.
struct Job {
    key: String,
    query: Query,
    cancel: CancelToken,
    outcome: Mutex<JobOutcome>,
    done: Condvar,
    /// Waiters currently blocked on this job; the last to detach on
    /// timeout cancels it.
    waiters: AtomicUsize,
    /// Adaptive-estimator batch progress published by the worker as the
    /// simulation runs; streaming waiters drain it into `Batch` frames.
    /// Appended monotonically, never truncated, so each waiter tracks
    /// its own cursor.
    progress: Mutex<Vec<BatchProgress>>,
    /// Root span context of the request that admitted the job; workers
    /// parent their `worker_exec` span to it across the queue boundary.
    trace_ctx: SpanContext,
    /// Open `queue_wait` span, finished by the worker that pops the job.
    /// If the owner's trace finalizes first (504), the late span is
    /// dropped by the store — that is the documented policy.
    queue_wait: Mutex<Option<TraceSpan>>,
}

impl Job {
    fn new(key: String, query: Query, trace_ctx: SpanContext, queue_wait: TraceSpan) -> Arc<Job> {
        Arc::new(Job {
            key,
            query,
            cancel: CancelToken::new(),
            outcome: Mutex::new(JobOutcome::Pending),
            done: Condvar::new(),
            waiters: AtomicUsize::new(0),
            progress: Mutex::new(Vec::new()),
            trace_ctx,
            queue_wait: Mutex::new(Some(queue_wait)),
        })
    }
}

/// One unit of background replication work, processed off the request
/// path by the replicator thread.
enum ReplWork {
    /// Push a freshly completed result to the key's other holders.
    WriteBehind { key: String, json: String },
    /// Walk the whole cache pushing keys to holders in `scope`.
    Handoff(HandoffScope),
}

/// Which holders a handoff scan owes copies to.
#[derive(Debug, Clone, Copy)]
enum HandoffScope {
    /// Holders that are new relative to the previous ring (membership
    /// change); closes the rebalance overlap window when done.
    Rehomed,
    /// One resurrected peer catching up on writes it missed while down.
    Peer(usize),
}

/// Replication queue shared between enqueuers and the replicator
/// thread. `busy` covers the item currently being processed so
/// `settle_replication` only returns on a truly quiet queue.
struct ReplState {
    queue: VecDeque<ReplWork>,
    busy: bool,
}

/// State shared by the connection threads and workers.
struct Inner {
    config: ServerConfig,
    cache: ResultCache,
    /// Cluster routing state (ring + peer health); `None` single-node.
    cluster: Option<Cluster>,
    stats: Stats,
    traces: TraceStore,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_changed: Condvar,
    inflight: Mutex<HashMap<String, Arc<Job>>>,
    /// Background replication work (write-behind, handoff scans).
    repl: Mutex<ReplState>,
    repl_changed: Condvar,
    /// Structured event journal behind `GET /v1/events`. Shared with the
    /// cluster (peer flips, membership) via `Cluster::set_event_journal`.
    events: Arc<EventJournal>,
    /// Whether the queue-full edge has already been journaled; cleared
    /// by the next successful admission so each backpressure *onset*
    /// records exactly one event instead of one per rejected request.
    backpressure: AtomicBool,
    /// Stop accepting, drain, exit.
    shutting_down: AtomicBool,
    /// Set by `POST /v1/shutdown`; the daemon's main loop polls it.
    shutdown_requested: AtomicBool,
    open_connections: AtomicUsize,
    /// Shared by every connection thread; taken out by `shutdown`.
    listener: RwLock<Option<TcpListener>>,
    /// Connection threads parked in (or about to enter) `accept`.
    parked_acceptors: AtomicUsize,
    started: Instant,
}

impl Inner {
    /// Routine request-path record (`target=levyd`); suppressed by
    /// `--quiet` so benchmarks and tests stay silent. Warnings and
    /// errors go straight through `levy_obs::log` ungated.
    fn log(&self, msg: &str, fields: &[(&str, String)]) {
        if self.config.quiet {
            return;
        }
        levy_obs::log::info("levyd", msg, fields);
    }

    /// Queues background replication work and wakes the replicator.
    fn enqueue_repl(&self, work: ReplWork) {
        let mut state = self.repl.lock().expect("repl lock");
        state.queue.push_back(work);
        self.stats
            .repl_backlog_depth
            .set(i64::try_from(state.queue.len()).unwrap_or(i64::MAX));
        self.repl_changed.notify_all();
    }

    /// The node name events and federated views report: the advertised
    /// cluster address when clustered, the configured bind otherwise.
    fn node_name(&self) -> String {
        match &self.cluster {
            Some(cluster) => cluster.config().self_addr.clone(),
            None => self.config.addr.clone(),
        }
    }

    /// Drains resurrection flags into catch-up handoffs: a peer that
    /// just came back may have missed replica writes while down.
    fn queue_resurrection_handoffs(&self) {
        if let Some(cluster) = &self.cluster {
            for index in cluster.take_resurrected() {
                self.enqueue_repl(ReplWork::Handoff(HandoffScope::Peer(index)));
            }
        }
    }
}

/// A running server; dropping it does *not* stop the daemon — call
/// [`shutdown`](Server::shutdown).
pub struct Server {
    inner: Arc<Inner>,
    addr: SocketAddr,
    worker_handles: Vec<std::thread::JoinHandle<()>>,
    prober_handle: Option<std::thread::JoinHandle<()>>,
    repl_handle: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the worker pool and connection threads, and returns.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let cache = match &config.faults {
            Some(plan) => ResultCache::with_store(
                config.cache.clone(),
                Arc::new(FaultDisk::new(Arc::clone(plan))),
            )?,
            None => ResultCache::new(config.cache.clone())?,
        };
        let workers = config.workers.max(1);
        let stats = Stats::new();
        stats
            .queue_capacity
            .set(i64::try_from(config.queue_capacity).unwrap_or(i64::MAX));
        cache.register_metrics(stats.registry());
        let traces = TraceStore::new(config.trace_capacity);
        let cluster = match config.cluster.clone() {
            Some(mut cluster_config) => {
                // An ephemeral bind (`:0`) resolves to the real port now;
                // peers must be configured with this node's advertised
                // spelling for the ring to agree across the cluster.
                if cluster_config.self_addr.is_empty() || cluster_config.self_addr.ends_with(":0") {
                    cluster_config.self_addr = addr.to_string();
                }
                Some(
                    Cluster::new(cluster_config, config.faults.clone())
                        .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?,
                )
            }
            None => None,
        };
        // One journal shared by the server (handoff lifecycle, replica
        // write errors, backpressure) and the cluster (peer flips,
        // membership) — every recorder sees one seq order.
        let events = Arc::new(EventJournal::new(config.events_capacity));
        if let Some(cluster) = &cluster {
            cluster.set_event_journal(Arc::clone(&events));
        }
        let inner = Arc::new(Inner {
            config,
            cache,
            cluster,
            stats,
            traces,
            queue: Mutex::new(VecDeque::new()),
            queue_changed: Condvar::new(),
            inflight: Mutex::new(HashMap::new()),
            repl: Mutex::new(ReplState {
                queue: VecDeque::new(),
                busy: false,
            }),
            repl_changed: Condvar::new(),
            events,
            backpressure: AtomicBool::new(false),
            shutting_down: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
            open_connections: AtomicUsize::new(0),
            listener: RwLock::new(Some(listener)),
            parked_acceptors: AtomicUsize::new(0),
            started: Instant::now(),
        });
        if let Some(cluster) = &inner.cluster {
            inner
                .stats
                .ring_epoch
                .set(i64::try_from(cluster.epoch()).unwrap_or(i64::MAX));
        }
        let repl_handle = match &inner.cluster {
            Some(_) => {
                let repl_inner = Arc::clone(&inner);
                Some(
                    std::thread::Builder::new()
                        .name("levyd-repl".into())
                        .spawn(move || replicator_loop(&repl_inner))
                        .expect("spawn replicator"),
                )
            }
            None => None,
        };
        let prober_handle = match inner.cluster.as_ref().map(|c| c.config().probe_interval_ms) {
            Some(ms) if ms > 0 => {
                let interval = Duration::from_millis(ms);
                let probe_inner = Arc::clone(&inner);
                Some(
                    std::thread::Builder::new()
                        .name("levyd-prober".into())
                        .spawn(move || prober_loop(&probe_inner, interval))
                        .expect("spawn peer prober"),
                )
            }
            _ => None,
        };

        let mut worker_handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let inner = Arc::clone(&inner);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("levyd-worker-{w}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn worker"),
            );
        }
        for _ in 0..ACCEPTORS {
            spawn_acceptor(&inner).expect("spawn connection thread");
        }

        Ok(Server {
            inner,
            addr,
            worker_handles,
            prober_handle,
            repl_handle,
        })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Counter snapshot (tests and the bench pipeline).
    pub fn stats(&self) -> &Stats {
        &self.inner.stats
    }

    /// Cache counter snapshot.
    pub fn cache_stats(&self) -> Json {
        self.inner.cache.stats_json()
    }

    /// The finished-trace store backing `GET /v1/traces` (tests).
    pub fn traces(&self) -> &TraceStore {
        &self.inner.traces
    }

    /// The structured event journal behind `GET /v1/events` (tests).
    pub fn events(&self) -> &EventJournal {
        &self.inner.events
    }

    /// The cluster state, when running in cluster mode (tests and the
    /// daemon's status output).
    pub fn cluster(&self) -> Option<&Cluster> {
        self.inner.cluster.as_ref()
    }

    /// Runs one full probe round synchronously and queues catch-up
    /// handoffs for any peer the round resurrected. The deterministic
    /// harness drives health transitions with this (probe interval 0
    /// disables the background prober) so tests control exactly when
    /// hysteresis observes the world.
    pub fn probe_peers_once(&self) {
        if let Some(cluster) = &self.inner.cluster {
            for index in 0..cluster.table().len() {
                cluster.probe(index, &self.inner.stats);
            }
            self.inner.queue_resurrection_handoffs();
        }
    }

    /// Queues a rebalance handoff scan (the one a membership change
    /// kicks automatically) — a deterministic re-trigger for tests.
    pub fn kick_handoff(&self) {
        if self.inner.cluster.is_some() {
            self.inner
                .enqueue_repl(ReplWork::Handoff(HandoffScope::Rehomed));
        }
    }

    /// Blocks until the background replication queue is empty and idle,
    /// or `timeout` passes. Returns whether it settled. Tests use this
    /// to assert on write-behind and handoff effects deterministically.
    pub fn settle_replication(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut state = self.inner.repl.lock().expect("repl lock");
        while !state.queue.is_empty() || state.busy {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return false;
            }
            state = self
                .inner
                .repl_changed
                .wait_timeout(state, remaining.min(Duration::from_millis(50)))
                .expect("repl lock")
                .0;
        }
        true
    }

    /// Whether a client asked the daemon to stop (`POST /v1/shutdown`).
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutdown_requested.load(Ordering::Acquire)
    }

    /// Graceful shutdown: stop accepting, drain the queue, join workers,
    /// wait (bounded) for open connections to finish writing.
    pub fn shutdown(mut self) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        self.inner.queue_changed.notify_all();
        self.inner.repl_changed.notify_all();
        // Dial the listener until every parked connection thread has
        // woken from `accept`, read the flag and exited, then close it
        // so a restart on the same address binds.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.inner.parked_acceptors.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            std::thread::sleep(Duration::from_millis(1));
        }
        // With none parked, no thread holds the listener; `try_write`
        // keeps a wake that never landed from hanging shutdown.
        if let Ok(mut listener) = self.inner.listener.try_write() {
            listener.take();
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        if let Some(handle) = self.prober_handle.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.repl_handle.take() {
            let _ = handle.join();
        }
        // Connection handlers only write out already-computed responses
        // at this point; give them a bounded grace period.
        let deadline = Instant::now() + Duration::from_secs(5);
        while self.inner.open_connections.load(Ordering::Acquire) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        self.inner.log(
            "shutdown complete",
            &[(
                "drained_jobs",
                self.inner.stats.simulations_completed.get().to_string(),
            )],
        );
    }
}

/// Peer prober: one `GET /healthz` round per interval, feeding the
/// peer table and the per-peer `levy_served_peer_*` gauges. The first
/// round runs immediately so `/v1/peers` and the gauges are live from
/// the first scrape; sleeps happen in short slices so shutdown stays
/// prompt.
fn prober_loop(inner: &Arc<Inner>, interval: Duration) {
    let Some(cluster) = &inner.cluster else {
        return;
    };
    loop {
        for index in 0..cluster.table().len() {
            if inner.shutting_down.load(Ordering::Acquire) {
                return;
            }
            cluster.probe(index, &inner.stats);
        }
        inner.queue_resurrection_handoffs();
        let mut slept = Duration::ZERO;
        while slept < interval {
            if inner.shutting_down.load(Ordering::Acquire) {
                return;
            }
            let slice = Duration::from_millis(50).min(interval - slept);
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// Replicator: pops background replication work (write-behind pushes,
/// handoff scans) and runs it off the request path. One thread — the
/// work is bandwidth-shaped by design (admission-controlled batches),
/// and ordering write-behind before a later handoff keeps pushes
/// roughly causal.
fn replicator_loop(inner: &Arc<Inner>) {
    loop {
        let work = {
            let mut state = inner.repl.lock().expect("repl lock");
            loop {
                if let Some(work) = state.queue.pop_front() {
                    state.busy = true;
                    inner
                        .stats
                        .repl_backlog_depth
                        .set(i64::try_from(state.queue.len()).unwrap_or(i64::MAX));
                    break work;
                }
                if inner.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                state = inner
                    .repl_changed
                    .wait_timeout(state, Duration::from_millis(100))
                    .expect("repl lock")
                    .0;
            }
        };
        match work {
            ReplWork::WriteBehind { key, json } => run_write_behind(inner, &key, &json),
            ReplWork::Handoff(scope) => run_handoff(inner, scope),
        }
        let mut state = inner.repl.lock().expect("repl lock");
        state.busy = false;
        inner.repl_changed.notify_all();
    }
}

/// Pushes one completed result to the key's other holders. A holder
/// already marked down is skipped (counted as a write error — it will
/// catch up through the resurrection handoff); a live holder that
/// fails the write is recorded against its health.
fn run_write_behind(inner: &Arc<Inner>, key: &str, json: &str) {
    let Some(cluster) = &inner.cluster else {
        return;
    };
    let write_error = |index: usize, addr: &str, reason: String| {
        inner.stats.cluster_replica_write_errors.inc();
        cluster.table().record_replica_error(index);
        inner.events.record(
            EventKind::ReplicaWriteError,
            vec![
                ("peer", addr.to_owned()),
                ("key", key.to_owned()),
                ("reason", reason),
            ],
        );
    };
    for (index, addr) in cluster.holders(key) {
        if !cluster.table().is_up(index) {
            write_error(index, &addr, "holder_down".into());
            continue;
        }
        match cluster.replica_write(index, &addr, key, json, "-") {
            Ok((response, call)) if response.status == 200 || response.status == 201 => {
                cluster.record_success(&call, &inner.stats);
                inner.stats.cluster_replica_writes.inc();
            }
            Ok((response, call)) => {
                cluster.record_success(&call, &inner.stats);
                write_error(index, &addr, format!("http_{}", response.status));
            }
            Err(e) => {
                cluster.record_failure(index, &inner.stats);
                write_error(index, &addr, format!("io: {e}"));
            }
        }
    }
}

/// Walks the local cache pushing keys to the holders named by `scope`,
/// pausing between batches (admission control: a membership change
/// must not flood the new member). Only 201s — keys the target did not
/// already hold — count toward `cluster_handoff_{keys,bytes}_total`.
/// A `Rehomed` scan closes the rebalance overlap window when it
/// finishes cleanly.
fn run_handoff(inner: &Arc<Inner>, scope: HandoffScope) {
    let Some(cluster) = &inner.cluster else {
        return;
    };
    let scope_label = match scope {
        HandoffScope::Rehomed => "rehomed".to_owned(),
        HandoffScope::Peer(index) => format!("peer_{index}"),
    };
    let batch = cluster.config().handoff_batch.max(1);
    let pause = Duration::from_millis(cluster.config().handoff_pause_ms);
    let mut pushed = 0usize;
    inner.events.record(
        EventKind::HandoffStart,
        vec![("scope", scope_label.clone())],
    );
    inner.stats.handoff_progress.set(0);
    for key in inner.cache.keys() {
        if inner.shutting_down.load(Ordering::Acquire) {
            inner.events.record(
                EventKind::HandoffAbort,
                vec![
                    ("scope", scope_label.clone()),
                    ("pushed", pushed.to_string()),
                    ("reason", "shutdown".into()),
                ],
            );
            inner.stats.handoff_progress.set(0);
            return; // aborted: keep the overlap window open
        }
        let targets = match scope {
            HandoffScope::Rehomed => cluster.rehomed_holders(&key),
            HandoffScope::Peer(peer) => cluster
                .holders(&key)
                .into_iter()
                .filter(|(index, _)| *index == peer)
                .collect(),
        };
        if targets.is_empty() {
            continue;
        }
        let Some((body, _tier)) = inner.cache.get(&key) else {
            continue;
        };
        for (index, addr) in targets {
            if !cluster.table().is_up(index) {
                continue;
            }
            match cluster.replica_write(index, &addr, &key, &body.json, "-") {
                Ok((response, call)) => {
                    cluster.record_success(&call, &inner.stats);
                    if response.status == 201 {
                        inner.stats.cluster_handoff_keys.inc();
                        inner
                            .stats
                            .cluster_handoff_bytes
                            .add(body.json.len() as u64);
                    }
                }
                Err(_) => cluster.record_failure(index, &inner.stats),
            }
            pushed += 1;
            inner
                .stats
                .handoff_progress
                .set(i64::try_from(pushed).unwrap_or(i64::MAX));
            if pushed.is_multiple_of(batch) {
                inner.events.record(
                    EventKind::HandoffProgress,
                    vec![
                        ("scope", scope_label.clone()),
                        ("pushed", pushed.to_string()),
                    ],
                );
                if !pause.is_zero() {
                    std::thread::sleep(pause);
                }
            }
        }
    }
    if matches!(scope, HandoffScope::Rehomed) {
        cluster.finish_rebalance();
    }
    inner.events.record(
        EventKind::HandoffFinish,
        vec![("scope", scope_label), ("pushed", pushed.to_string())],
    );
    inner.stats.handoff_progress.set(0);
}

/// Connection threads kept parked in `accept` (leader/followers): each
/// serves the connection it accepted itself, so a connection costs one
/// kernel wake-up and no hand-off. The thread that takes the last parked
/// slot spawns a replacement before serving, and a thread that finishes
/// parks again only while fewer than `ACCEPTORS` are parked: the parked
/// threads save spawn cost and never limit concurrency.
pub const ACCEPTORS: usize = 4;

/// Spawns one connection thread, counted as parked before it starts.
fn spawn_acceptor(inner: &Arc<Inner>) -> io::Result<()> {
    inner.parked_acceptors.fetch_add(1, Ordering::SeqCst);
    inner.stats.connection_threads.inc();
    let thread_inner = Arc::clone(inner);
    std::thread::Builder::new()
        .name("levyd-conn".into())
        .spawn(move || acceptor_loop(&thread_inner))
        .map(drop)
        .inspect_err(|_| {
            inner.parked_acceptors.fetch_sub(1, Ordering::SeqCst);
            inner.stats.connection_threads.dec();
        })
}

/// One connection thread. It is counted in `parked_acceptors` from the
/// top of the loop until `accept` returns, and reads the shutdown flag
/// after that count is raised, so `shutdown` either sees it parked (and
/// dials it awake) or it sees the flag. The flag is read again as soon as
/// `accept` returns, before the connection claims a fault index or a slot.
fn acceptor_loop(inner: &Arc<Inner>) {
    let parked = &inner.parked_acceptors;
    while !inner.shutting_down.load(Ordering::SeqCst) {
        let accepted = match inner.listener.read().as_deref() {
            Ok(Some(listener)) => listener.accept(),
            _ => Err(io::ErrorKind::NotConnected.into()),
        };
        if inner.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        // Real accept errors (EMFILE and the like): back off briefly.
        let Ok((stream, _peer)) = accepted else {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        if parked.fetch_sub(1, Ordering::SeqCst) == 1 {
            // On a failed spawn none is parked until this thread is.
            let _ = spawn_acceptor(inner);
        }
        let read_timeout = Duration::from_millis(inner.config.read_timeout_ms.max(1));
        let _ = stream.set_read_timeout(Some(read_timeout));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
        // Request/response exchanges are single coalesced writes; Nagle
        // only adds latency here.
        let _ = stream.set_nodelay(true);
        // Claimed by the accepting thread right after `accept`: accept
        // order for clients that connect one after another (DESIGN.md §9.1).
        let conn_faults = inner.config.faults.as_ref().map(|plan| plan.next_conn());
        inner.open_connections.fetch_add(1, Ordering::AcqRel);
        match conn_faults {
            Some(faults) => handle_connection(FaultStream::new(stream, faults), inner),
            None => handle_connection(stream, inner),
        }
        inner.open_connections.fetch_sub(1, Ordering::AcqRel);
        if parked.fetch_add(1, Ordering::SeqCst) >= ACCEPTORS {
            break;
        }
    }
    parked.fetch_sub(1, Ordering::SeqCst);
    inner.stats.connection_threads.dec();
}

/// Reads one request, routes it, writes one response, closes.
///
/// Generic over the stream so the fault harness can interpose
/// byte-exact socket failures; production passes the bare `TcpStream`.
fn handle_connection<S: Read + Write>(stream: S, inner: &Arc<Inner>) {
    let started = Instant::now();
    let mut reader = BufReader::new(stream);
    let request = match read_request(&mut reader) {
        Ok(r) => r,
        Err(e) => {
            let timed_out = matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            );
            let response = if timed_out {
                inner.stats.slow_client_timeouts.inc();
                Response::error(408, "request was not received before the read deadline")
            } else {
                inner.stats.io_read_errors.inc();
                Response::error(400, "malformed HTTP request")
            };
            let mut stream = reader.into_inner();
            if write_response(&mut stream, &response).is_err() {
                inner.stats.io_write_errors.inc();
            }
            inner
                .stats
                .record_response("-", response.status, started.elapsed());
            return;
        }
    };
    inner.stats.http_requests.inc();
    // Every request opens a trace; a client-supplied `traceparent`
    // header joins this trace to the caller's (levyc mints one per
    // query). Trace identity travels in headers only — bodies stay a
    // pure function of the query.
    let parent = request
        .header("traceparent")
        .and_then(SpanContext::parse_traceparent);
    let mut root = inner.traces.start_root("request", parent);
    root.tag("method", &request.method);
    root.tag("path", &request.path);
    // Streaming queries write their own chunked response; everything
    // else goes through the buffered `route` → `write_response` path.
    if request.method == "POST"
        && request.path == "/v1/query"
        && request.header("x-levy-stream").is_some_and(|v| v != "0")
    {
        root.tag("stream", "1");
        let mut stream = reader.into_inner();
        let status = handle_query_streaming(&request, inner, &root, &mut stream);
        root.set_status(status);
        root.finish();
        let elapsed = started.elapsed();
        inner
            .stats
            .record_response(split_query(&request.path).0, status, elapsed);
        inner.log(
            "request",
            &[
                ("method", request.method.clone()),
                ("path", request.path.clone()),
                ("status", status.to_string()),
                ("stream", "1".into()),
                ("dur_ms", format!("{:.3}", elapsed.as_secs_f64() * 1e3)),
                ("queue_depth", inner.stats.queue_depth.get().to_string()),
            ],
        );
        return;
    }
    let response = route(&request, inner, &root)
        .with_header("X-Levy-Trace-Id", &root.ctx().trace_id.to_string());
    root.set_status(response.status);
    let cache_disposition = response.header("X-Levy-Cache").unwrap_or("-").to_owned();
    let mut stream = reader.into_inner();
    let encode_span = root.child("response_encode");
    if write_response(&mut stream, &response).is_err() {
        inner.stats.io_write_errors.inc();
    }
    encode_span.finish();
    root.finish();
    let elapsed = started.elapsed();
    inner
        .stats
        .record_response(split_query(&request.path).0, response.status, elapsed);
    inner.log(
        "request",
        &[
            ("method", request.method.clone()),
            ("path", request.path.clone()),
            ("status", response.status.to_string()),
            ("cache", cache_disposition),
            ("dur_ms", format!("{:.3}", elapsed.as_secs_f64() * 1e3)),
            ("queue_depth", inner.stats.queue_depth.get().to_string()),
        ],
    );
}

/// Splits a request target into its path and optional raw query string
/// (`/v1/events?since=3` → `("/v1/events", Some("since=3"))`).
fn split_query(target: &str) -> (&str, Option<&str>) {
    match target.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (target, None),
    }
}

/// The value of `name` in a raw query string (`a=1&b=2`). No percent
/// decoding: every parameter this server defines is plain ASCII.
fn query_param<'a>(query: Option<&'a str>, name: &str) -> Option<&'a str> {
    query?
        .split('&')
        .map(|pair| pair.split_once('=').unwrap_or((pair, "")))
        .find(|(key, _)| *key == name)
        .map(|(_, value)| value)
}

fn route(request: &Request, inner: &Arc<Inner>, root: &TraceSpan) -> Response {
    // `Request.path` keeps the raw target; dispatch on the path alone so
    // parameterized endpoints (`?scope=cluster`, `?since=N`) route.
    let (path, query) = split_query(&request.path);
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => Response::json(
            200,
            &Json::obj([
                ("status", Json::from("ok")),
                (
                    "uptime_secs",
                    Json::from(inner.started.elapsed().as_secs_f64()),
                ),
            ]),
        ),
        ("GET", "/metrics") => {
            let body = inner.stats.encode_prometheus();
            Response {
                status: 200,
                headers: vec![(
                    "Content-Type".into(),
                    "text/plain; version=0.0.4; charset=utf-8".into(),
                )],
                body: body.into_bytes(),
            }
        }
        ("GET", "/v1/stats") => {
            let queue_depth = inner.queue.lock().expect("queue lock").len();
            let inflight = inner.inflight.lock().expect("inflight lock").len();
            Response::json(
                200,
                &Json::obj([
                    ("schema", Json::from("levy-served/stats-v1")),
                    ("queue_depth", Json::from(queue_depth)),
                    ("inflight", Json::from(inflight)),
                    ("counters", inner.stats.to_json()),
                    ("cache", inner.cache.stats_json()),
                    (
                        "config",
                        Json::obj([
                            ("workers", Json::from(inner.config.workers)),
                            ("sim_threads", Json::from(inner.config.sim_threads)),
                            ("queue_capacity", Json::from(inner.config.queue_capacity)),
                            (
                                "default_timeout_ms",
                                Json::from(inner.config.default_timeout_ms),
                            ),
                        ]),
                    ),
                ]),
            )
        }
        ("GET", "/v1/traces") => {
            let traces = inner.traces.finished();
            Response::json(
                200,
                &Json::obj([
                    ("schema", Json::from("levy-served/traces-v1")),
                    ("count", Json::from(traces.len())),
                    (
                        "traces",
                        // Newest first: the trace a client just finished is
                        // the one it is about to look up.
                        Json::arr(traces.iter().rev().map(trace_summary_json)),
                    ),
                ]),
            )
        }
        ("GET", "/v1/peers") => match &inner.cluster {
            Some(cluster) => Response::json(200, &cluster.peers_json()),
            None => Response::error(404, "not in cluster mode (start levyd with --cluster)"),
        },
        ("GET", "/v1/cluster/metrics") => handle_cluster_metrics(inner, query),
        ("GET", "/v1/events") => handle_events(inner, query),
        ("POST", "/v1/peers") => handle_peers_change(request, inner),
        ("PUT", path) if path.starts_with("/v1/cache/") => {
            let key = path["/v1/cache/".len()..].to_owned();
            handle_replica_put(request, inner, &key)
        }
        ("GET", path) if path.starts_with("/v1/cache/") => {
            // Cache peek: do we already hold this key? Never simulates.
            // Peers use it before forwarding; it also works as a debug
            // probe in single-node mode.
            let key = &path["/v1/cache/".len()..];
            if levy_cluster::key_from_hex(key).is_none() {
                return Response::error(400, "cache keys are 32 hex digits");
            }
            let wire = match wants_wire(request) {
                Ok(wire) => wire,
                Err(response) => return response,
            };
            if wire {
                inner.stats.wire_requests.inc();
            }
            match inner.cache.get(key) {
                Some((cached, tier)) => body_response(&cached, wire)
                    .with_header("X-Levy-Cache", "hit")
                    .with_header("X-Levy-Cache-Tier", tier.as_str())
                    .with_header("X-Levy-Key", key),
                None => Response::error(404, "no cached result for that key"),
            }
        }
        ("GET", path) if path.starts_with("/v1/traces/") => {
            let id = &path["/v1/traces/".len()..];
            if query_param(query, "scope") == Some("cluster") {
                return handle_cluster_trace(inner, id);
            }
            if query_param(query, "fragments") == Some("1") {
                return handle_trace_fragments(inner, id);
            }
            match TraceId::from_hex(id).and_then(|id| inner.traces.get(id)) {
                Some(trace) => Response::json(200, &trace_json(&trace)),
                None => Response::error(
                    404,
                    "no finished trace with that id (still running, evicted, or never seen)",
                ),
            }
        }
        ("POST", "/v1/shutdown") => {
            inner.shutdown_requested.store(true, Ordering::Release);
            Response::json(202, &Json::obj([("status", Json::from("shutting down"))]))
        }
        ("POST", "/v1/query") => handle_query(request, inner, root),
        ("POST" | "GET", _) => Response::error(404, "no such route"),
        _ => Response::error(405, "method not allowed"),
    }
}

/// One span of a finished trace as JSON (`parent_id` omitted for roots).
fn span_json(span: &SpanRecord) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        ("span_id".into(), Json::from(span.span_id.to_string())),
        ("name".into(), Json::from(span.name.clone())),
        ("start_unix_us".into(), Json::from(span.start_unix_us)),
        ("dur_us".into(), Json::from(span.dur_us)),
    ];
    if let Some(parent) = span.parent_id {
        fields.insert(1, ("parent_id".into(), Json::from(parent.to_string())));
    }
    if !span.tags.is_empty() {
        fields.push((
            "tags".into(),
            Json::obj(
                span.tags
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(v.clone()))),
            ),
        ));
    }
    Json::obj(fields)
}

/// Full trace body for `GET /v1/traces/<id>`.
fn trace_json(trace: &FinishedTrace) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        ("schema".into(), Json::from("levy-served/trace-v1")),
        ("trace_id".into(), Json::from(trace.trace_id.to_string())),
        ("root".into(), Json::from(trace.root_name.clone())),
        ("start_unix_us".into(), Json::from(trace.start_unix_us)),
        ("dur_us".into(), Json::from(trace.dur_us)),
        ("status".into(), Json::from(u64::from(trace.status))),
    ];
    if let Some(remote) = trace.remote_parent {
        fields.push(("remote_parent".into(), Json::from(remote.to_string())));
    }
    fields.push(("spans".into(), Json::arr(trace.spans.iter().map(span_json))));
    Json::obj(fields)
}

/// One-line trace summary for the `GET /v1/traces` listing.
fn trace_summary_json(trace: &FinishedTrace) -> Json {
    Json::obj([
        ("trace_id", Json::from(trace.trace_id.to_string())),
        ("root", Json::from(trace.root_name.clone())),
        ("start_unix_us", Json::from(trace.start_unix_us)),
        ("dur_us", Json::from(trace.dur_us)),
        ("status", Json::from(u64::from(trace.status))),
        ("spans", Json::from(trace.spans.len())),
    ])
}

/// One journal entry as JSON for `GET /v1/events`.
fn event_json(event: &Event) -> Json {
    Json::obj([
        ("seq", Json::from(event.seq)),
        ("unix_us", Json::from(event.unix_us)),
        ("kind", Json::from(event.kind.as_str())),
        (
            "fields",
            Json::obj(
                event
                    .fields
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), Json::from(v.clone()))),
            ),
        ),
    ])
}

/// `GET /v1/events`: the structured event journal, oldest-first, with a
/// since-seq cursor (`?since=N` returns events with seq > N, `?max=M`
/// bounds the page). `last_seq` lets a follower poll without re-reading:
/// pass it back as the next `since`.
fn handle_events(inner: &Arc<Inner>, query: Option<&str>) -> Response {
    let since = match query_param(query, "since") {
        Some(raw) => match raw.parse::<u64>() {
            Ok(n) => n,
            Err(_) => return Response::error(400, "since must be a non-negative integer"),
        },
        None => 0,
    };
    let max = match query_param(query, "max") {
        Some(raw) => match raw.parse::<usize>() {
            Ok(n) => n.min(4096),
            Err(_) => return Response::error(400, "max must be a non-negative integer"),
        },
        None => 1024,
    };
    let events = inner.events.since(since, max);
    Response::json(
        200,
        &Json::obj([
            ("schema", Json::from("levy-served/events-v1")),
            ("node", Json::from(inner.node_name())),
            ("enabled", Json::from(inner.events.enabled())),
            ("last_seq", Json::from(inner.events.last_seq())),
            ("count", Json::from(events.len())),
            ("events", Json::arr(events.iter().map(event_json))),
        ]),
    )
}

/// `GET /v1/cluster/metrics`: the federated view — this node's own
/// exposition merged with a live `/metrics` scrape of every peer
/// (counters and gauges summed per family, histograms pooled
/// bucket-wise; `?by=node` keeps per-node series under a `node` label
/// instead). Peer reachability reuses the prober's gating and peek
/// timeout. A dead peer *degrades* the view — its series are simply
/// absent, flagged by `levy_cluster_scrape_up{node=...} 0` and a
/// trailing comment — it never turns the scrape into an error.
fn handle_cluster_metrics(inner: &Arc<Inner>, query: Option<&str>) -> Response {
    let by_node = query_param(query, "by") == Some("node");
    let self_name = inner.node_name();
    let mut sources = vec![(
        self_name.clone(),
        levy_obs::parse_exposition(&inner.stats.encode_prometheus()),
    )];
    // (node, merged?, note) per scrape target, self included.
    let mut scrapes: Vec<(String, bool, String)> = vec![(self_name, true, String::new())];
    if let Some(cluster) = &inner.cluster {
        for (index, addr) in cluster.fanout_targets() {
            match cluster.peer_get(index, &addr, "/metrics") {
                Ok((response, call)) if response.status == 200 => {
                    cluster.record_success(&call, &inner.stats);
                    sources.push((
                        addr.clone(),
                        levy_obs::parse_exposition(&response.body_string()),
                    ));
                    scrapes.push((addr, true, String::new()));
                }
                Ok((response, call)) => {
                    cluster.record_success(&call, &inner.stats);
                    scrapes.push((addr, false, format!("answered http {}", response.status)));
                }
                Err(e) => {
                    cluster.record_failure(index, &inner.stats);
                    scrapes.push((addr, false, format!("unreachable: {e}")));
                }
            }
        }
    }
    let mut body = levy_obs::merge_expositions(&sources, by_node);
    body.push_str(
        "# HELP levy_cluster_scrape_up Whether each node answered this federated scrape (0 = its series are missing from the view).\n# TYPE levy_cluster_scrape_up gauge\n",
    );
    for (node, merged, _) in &scrapes {
        body.push_str(&format!(
            "levy_cluster_scrape_up{{node=\"{node}\"}} {}\n",
            u8::from(*merged)
        ));
    }
    for (node, merged, note) in &scrapes {
        if !merged {
            body.push_str(&format!("# levy-cluster: node {node} {note}\n"));
        }
    }
    Response {
        status: 200,
        headers: vec![(
            "Content-Type".into(),
            "text/plain; version=0.0.4; charset=utf-8".into(),
        )],
        body: body.into_bytes(),
    }
}

/// One span in a cluster-stitched trace, pooled from the entry node's
/// own store and its peers' `/v1/traces/<id>` answers.
struct ClusterSpan {
    span_id: String,
    parent_id: Option<String>,
    name: String,
    start_unix_us: u64,
    dur_us: u64,
    tags: Vec<(String, String)>,
    node: String,
}

/// One node's finished view of a trace, before stitching.
struct TraceSource {
    node: String,
    /// The span on *another* node this trace's roots hang under (set on
    /// a home node by the entry node's forwarded `traceparent`).
    remote_parent: Option<String>,
    status: u16,
    spans: Vec<ClusterSpan>,
}

fn local_trace_source(trace: &FinishedTrace, node: &str) -> TraceSource {
    TraceSource {
        node: node.to_owned(),
        remote_parent: trace.remote_parent.map(|id| id.to_string()),
        status: trace.status,
        spans: trace
            .spans
            .iter()
            .map(|span| ClusterSpan {
                span_id: span.span_id.to_string(),
                parent_id: span.parent_id.map(|id| id.to_string()),
                name: span.name.clone(),
                start_unix_us: span.start_unix_us,
                dur_us: span.dur_us,
                tags: span.tags.clone(),
                node: node.to_owned(),
            })
            .collect(),
    }
}

/// `GET /v1/traces/<id>?fragments=1`: every finished fragment this node
/// holds for the trace, oldest first — the per-node half of cluster
/// stitching, where one node can hold several fragments of the same
/// distributed trace (a cache-peek exchange and the forwarded query).
fn handle_trace_fragments(inner: &Arc<Inner>, id: &str) -> Response {
    let Some(trace_id) = TraceId::from_hex(id) else {
        return Response::error(404, "trace ids are 32 hex digits");
    };
    let fragments = inner.traces.get_all(trace_id);
    if fragments.is_empty() {
        return Response::error(
            404,
            "no finished trace with that id (still running, evicted, or never seen)",
        );
    }
    Response::json(
        200,
        &Json::obj([
            ("schema", Json::from("levy-served/trace-fragments-v1")),
            ("trace_id", Json::from(id)),
            ("count", Json::from(fragments.len())),
            ("fragments", Json::arr(fragments.iter().map(trace_json))),
        ]),
    )
}

/// Parses a peer's trace answer — either a `trace-fragments-v1` listing
/// or a bare `trace-v1` body — into [`TraceSource`]s. Empty on anything
/// malformed: a bad peer degrades the stitched view, never breaks it.
fn peer_trace_sources(body: &str, node: &str) -> Vec<TraceSource> {
    let Some(parsed) = Json::parse(body).ok() else {
        return Vec::new();
    };
    match parsed.get("fragments").and_then(Json::as_array) {
        Some(fragments) => fragments
            .iter()
            .filter_map(|fragment| fragment_trace_source(fragment, node))
            .collect(),
        None => fragment_trace_source(&parsed, node).into_iter().collect(),
    }
}

/// One `trace-v1` JSON fragment as a [`TraceSource`].
fn fragment_trace_source(parsed: &Json, node: &str) -> Option<TraceSource> {
    let spans = parsed
        .get("spans")?
        .as_array()?
        .iter()
        .filter_map(|span| {
            Some(ClusterSpan {
                span_id: span.get("span_id")?.as_str()?.to_owned(),
                parent_id: span
                    .get("parent_id")
                    .and_then(|p| p.as_str())
                    .map(str::to_owned),
                name: span.get("name")?.as_str()?.to_owned(),
                start_unix_us: span.get("start_unix_us").and_then(|v| v.as_u64())?,
                dur_us: span.get("dur_us").and_then(|v| v.as_u64())?,
                tags: span
                    .get("tags")
                    .and_then(|t| t.as_object())
                    .map(|pairs| {
                        pairs
                            .iter()
                            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_owned())))
                            .collect()
                    })
                    .unwrap_or_default(),
                node: node.to_owned(),
            })
        })
        .collect();
    Some(TraceSource {
        node: node.to_owned(),
        remote_parent: parsed
            .get("remote_parent")
            .and_then(|v| v.as_str())
            .map(str::to_owned),
        status: parsed.get("status").and_then(|v| v.as_u64()).unwrap_or(0) as u16,
        spans,
    })
}

/// Stitches per-node trace fragments into one tree:
///
/// 1. pool spans, deduped by span id;
/// 2. re-parent each fragment's roots under its `remote_parent` when
///    that span is in the pool (this is how a home node's tree hangs
///    off the entry node's `peer_forward` span);
/// 3. the earliest span still parentless is the primary root; any other
///    orphan (parentless, or parented to a span no node reported) goes
///    under a synthetic `remote` span so the result is always one tree.
fn stitch_cluster_trace(trace_id: &str, sources: Vec<TraceSource>) -> Json {
    let mut pool: Vec<ClusterSpan> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    let mut nodes: Vec<String> = Vec::new();
    for source in &sources {
        if !nodes.contains(&source.node) {
            nodes.push(source.node.clone());
        }
        for span in &source.spans {
            if seen.insert(span.span_id.clone()) {
                pool.push(ClusterSpan {
                    span_id: span.span_id.clone(),
                    parent_id: span.parent_id.clone(),
                    name: span.name.clone(),
                    start_unix_us: span.start_unix_us,
                    dur_us: span.dur_us,
                    tags: span.tags.clone(),
                    node: span.node.clone(),
                });
            }
        }
    }
    for source in &sources {
        let Some(remote_parent) = &source.remote_parent else {
            continue;
        };
        if !seen.contains(remote_parent) {
            continue; // the naming node's fragment is missing: stays an orphan
        }
        // Only this source's own roots re-parent: a node can contribute
        // several fragments with different remote parents.
        for root in source.spans.iter().filter(|s| s.parent_id.is_none()) {
            if let Some(pooled) = pool.iter_mut().find(|p| p.span_id == root.span_id) {
                if pooled.parent_id.is_none() {
                    pooled.parent_id = Some(remote_parent.clone());
                }
            }
        }
    }
    let orphans: Vec<String> = pool
        .iter()
        .filter(|s| s.parent_id.as_ref().is_none_or(|p| !seen.contains(p)))
        .map(|s| s.span_id.clone())
        .collect();
    let primary_id = pool
        .iter()
        .filter(|s| orphans.contains(&s.span_id))
        .min_by(|a, b| (a.start_unix_us, &a.span_id).cmp(&(b.start_unix_us, &b.span_id)))
        .map(|s| s.span_id.clone())
        .unwrap_or_default();
    let stragglers: Vec<String> = orphans.into_iter().filter(|id| *id != primary_id).collect();
    if !stragglers.is_empty() {
        let start = pool
            .iter()
            .filter(|s| stragglers.contains(&s.span_id))
            .map(|s| s.start_unix_us)
            .min()
            .unwrap_or(0);
        let end = pool
            .iter()
            .filter(|s| stragglers.contains(&s.span_id))
            .map(|s| s.start_unix_us + s.dur_us)
            .max()
            .unwrap_or(start);
        for span in &mut pool {
            if stragglers.contains(&span.span_id) {
                span.parent_id = Some("remote".into());
            }
        }
        pool.push(ClusterSpan {
            span_id: "remote".into(),
            parent_id: Some(primary_id.clone()),
            name: "remote".into(),
            start_unix_us: start,
            dur_us: end.saturating_sub(start),
            tags: vec![("synthetic".into(), "1".into())],
            node: "remote".into(),
        });
    }
    // Primary roots can only clear their parent once everything hangs
    // together; the pool is sorted for a deterministic body.
    pool.sort_by(|a, b| (a.start_unix_us, &a.span_id).cmp(&(b.start_unix_us, &b.span_id)));
    let root_name = pool
        .iter()
        .find(|s| s.span_id == primary_id)
        .map(|s| s.name.clone())
        .unwrap_or_default();
    let status = sources
        .iter()
        .find(|source| source.spans.iter().any(|s| s.span_id == primary_id))
        .map(|source| source.status)
        .unwrap_or(0);
    let start = pool.iter().map(|s| s.start_unix_us).min().unwrap_or(0);
    let end = pool
        .iter()
        .map(|s| s.start_unix_us + s.dur_us)
        .max()
        .unwrap_or(start);
    let spans = Json::arr(pool.iter().map(|span| {
        let mut fields: Vec<(String, Json)> = vec![
            ("span_id".into(), Json::from(span.span_id.clone())),
            ("name".into(), Json::from(span.name.clone())),
            ("node".into(), Json::from(span.node.clone())),
            ("start_unix_us".into(), Json::from(span.start_unix_us)),
            ("dur_us".into(), Json::from(span.dur_us)),
        ];
        if let Some(parent) = &span.parent_id {
            fields.insert(1, ("parent_id".into(), Json::from(parent.clone())));
        }
        if !span.tags.is_empty() {
            fields.push((
                "tags".into(),
                Json::obj(
                    span.tags
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::from(v.clone()))),
                ),
            ));
        }
        Json::obj(fields)
    }));
    Json::obj([
        ("schema", Json::from("levy-served/trace-cluster-v1")),
        ("trace_id", Json::from(trace_id)),
        ("scope", Json::from("cluster")),
        ("root", Json::from(root_name)),
        ("start_unix_us", Json::from(start)),
        ("dur_us", Json::from(end.saturating_sub(start))),
        ("status", Json::from(u64::from(status))),
        (
            "nodes",
            Json::arr(nodes.iter().map(|n| Json::from(n.clone()))),
        ),
        ("spans", spans),
    ])
}

/// `GET /v1/traces/<id>?scope=cluster`: fan out to every peer for its
/// fragment of the trace and stitch one tree. Only peers are asked for
/// their *local* view, so a stitch never recurses.
fn handle_cluster_trace(inner: &Arc<Inner>, id: &str) -> Response {
    let Some(trace_id) = TraceId::from_hex(id) else {
        return Response::error(404, "trace ids are 32 hex digits");
    };
    let mut sources = Vec::new();
    let node = inner.node_name();
    for trace in inner.traces.get_all(trace_id) {
        sources.push(local_trace_source(&trace, &node));
    }
    if let Some(cluster) = &inner.cluster {
        let path = format!("/v1/traces/{id}?fragments=1");
        for (index, addr) in cluster.fanout_targets() {
            match cluster.peer_get(index, &addr, &path) {
                Ok((response, call)) => {
                    cluster.record_success(&call, &inner.stats);
                    if response.status == 200 {
                        sources.extend(peer_trace_sources(&response.body_string(), &addr));
                    }
                }
                Err(_) => cluster.record_failure(index, &inner.stats),
            }
        }
    }
    if sources.is_empty() {
        return Response::error(
            404,
            "no node holds a finished trace with that id (still running, evicted, or never seen)",
        );
    }
    Response::json(200, &stitch_cluster_trace(id, sources))
}

/// Counts ring-epoch disagreement on a node-to-node call. Skew is
/// expected during a membership change (both sides still answer —
/// bodies are a pure function of the query); the counter makes the
/// window observable.
fn note_epoch_skew(request: &Request, cluster: &Cluster, inner: &Arc<Inner>) {
    if let Some(sent) = request
        .header(EPOCH_HEADER)
        .and_then(|v| v.trim().parse::<u64>().ok())
    {
        if sent != cluster.epoch() {
            inner.stats.cluster_epoch_skew.inc();
        }
    }
}

/// `POST /v1/peers`: applies a membership change (token-gated when the
/// cluster was started with one) and kicks the rebalance handoff. The
/// body is strict `{"add": [...], "remove": [...], "epoch": N}` — every
/// field optional, anything else 400s without touching the ring.
fn handle_peers_change(request: &Request, inner: &Arc<Inner>) -> Response {
    let Some(cluster) = &inner.cluster else {
        return Response::error(404, "not in cluster mode (start levyd with --cluster)");
    };
    if !cluster.authorized(request.header(TOKEN_HEADER)) {
        return Response::error(403, "missing or invalid cluster token");
    }
    let reject = |inner: &Arc<Inner>, message: &str| {
        inner.stats.invalid_requests.inc();
        Response::error(400, message)
    };
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return reject(inner, "membership change body must be UTF-8 JSON");
    };
    let Ok(parsed) = Json::parse(body) else {
        return reject(inner, "membership change body must be valid JSON");
    };
    let Some(fields) = parsed.as_object() else {
        return reject(inner, "membership change body must be a JSON object");
    };
    let mut add: Vec<String> = Vec::new();
    let mut remove: Vec<String> = Vec::new();
    let mut epoch: Option<u64> = None;
    for (name, value) in fields {
        match name.as_str() {
            "add" | "remove" => {
                let Some(items) = value.as_array() else {
                    return reject(inner, &format!("{name} must be an array of addresses"));
                };
                let out = if name == "add" { &mut add } else { &mut remove };
                for item in items {
                    match item.as_str() {
                        Some(addr) => out.push(addr.to_owned()),
                        None => {
                            return reject(inner, &format!("{name} entries must be strings"));
                        }
                    }
                }
            }
            "epoch" => match value.as_u64() {
                Some(e) => epoch = Some(e),
                None => return reject(inner, "epoch must be a non-negative integer"),
            },
            other => return reject(inner, &format!("unknown membership field {other:?}")),
        }
    }
    match cluster.apply_membership(&add, &remove, epoch) {
        Ok(new_epoch) => {
            inner.stats.cluster_membership_changes.inc();
            inner
                .stats
                .ring_epoch
                .set(i64::try_from(new_epoch).unwrap_or(i64::MAX));
            inner.enqueue_repl(ReplWork::Handoff(HandoffScope::Rehomed));
            inner.log(
                "membership change",
                &[
                    ("add", format!("{add:?}")),
                    ("remove", format!("{remove:?}")),
                    ("epoch", new_epoch.to_string()),
                ],
            );
            Response::json(200, &cluster.peers_json())
        }
        Err(e) => reject(inner, &e),
    }
}

/// `PUT /v1/cache/<key>`: a replica write from a peer (write-behind or
/// handoff). The body must be the intact `result-v1` envelope for
/// `key` — the same validation disk reads get — so a bad peer can
/// never poison the cache. 201 = stored fresh, 200 = already held
/// (the idempotence signal handoff counting relies on).
fn handle_replica_put(request: &Request, inner: &Arc<Inner>, key: &str) -> Response {
    let Some(cluster) = &inner.cluster else {
        return Response::error(404, "not in cluster mode (start levyd with --cluster)");
    };
    if !cluster.authorized(request.header(TOKEN_HEADER)) {
        return Response::error(403, "missing or invalid cluster token");
    }
    note_epoch_skew(request, cluster, inner);
    if levy_cluster::key_from_hex(key).is_none() {
        inner.stats.invalid_requests.inc();
        return Response::error(400, "cache keys are 32 hex digits");
    }
    let Ok(body) = std::str::from_utf8(&request.body) else {
        inner.stats.invalid_requests.inc();
        return Response::error(400, "replica writes carry a UTF-8 JSON result body");
    };
    if !crate::cache::disk_body_is_valid(key, body) {
        inner.stats.invalid_requests.inc();
        return Response::error(400, "body is not the intact result envelope for that key");
    }
    if inner.cache.contains(key) {
        return Response::json(200, &Json::obj([("status", Json::from("already_cached"))]))
            .with_header("X-Levy-Key", key);
    }
    inner.cache.put(key, body);
    Response::json(201, &Json::obj([("status", Json::from("stored"))]))
        .with_header("X-Levy-Key", key)
}

/// Whether the request's `Accept` header asks for the binary wire
/// format. `Err` is the `406` for a wire version this node does not
/// speak (`application/x-levy-wire;v=N`, N ≠ 1).
fn wants_wire(request: &Request) -> Result<bool, Response> {
    let Some(accept) = request.header("accept") else {
        return Ok(false);
    };
    for entry in accept.split(',') {
        let mut parts = entry.trim().split(';');
        let media = parts.next().unwrap_or("").trim();
        if !media.eq_ignore_ascii_case(levy_wire::MEDIA_TYPE) {
            continue;
        }
        for param in parts {
            if let Some(version) = param.trim().strip_prefix("v=") {
                if version.trim() != "1" {
                    return Err(Response::error(
                        406,
                        &format!(
                            "unsupported wire version {}; this node speaks {};v=1",
                            version.trim(),
                            levy_wire::MEDIA_TYPE
                        ),
                    ));
                }
            }
        }
        return Ok(true);
    }
    Ok(false)
}

/// Whether a `Content-Type` names the binary wire format (parameters
/// ignored; the version travels in the frame header itself).
fn is_wire_media(content_type: &str) -> bool {
    content_type
        .split(';')
        .next()
        .unwrap_or("")
        .trim()
        .eq_ignore_ascii_case(levy_wire::MEDIA_TYPE)
}

/// Parses and validates the query body — JSON by default, binary wire
/// when `Content-Type: application/x-levy-wire`. Returns the query and,
/// for wire bodies, the already-verified canonical key (saving the
/// caller a second canonicalise-and-hash); `Err` is the ready-made
/// `400`.
fn parse_query(request: &Request, inner: &Arc<Inner>) -> Result<(Query, Option<String>), Response> {
    let content_type = request.header("content-type").unwrap_or("");
    if is_wire_media(content_type) {
        return match wirecodec::decode_query_with_key(&request.body) {
            Ok((query, key)) => Ok((query, Some(key))),
            Err(e) => {
                inner.stats.invalid_requests.inc();
                Err(Response::error(400, &e))
            }
        };
    }
    let body = match std::str::from_utf8(&request.body) {
        Ok(s) => s,
        Err(_) => {
            inner.stats.invalid_requests.inc();
            return Err(Response::error(400, "request body must be UTF-8 JSON"));
        }
    };
    let parsed = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => {
            inner.stats.invalid_requests.inc();
            return Err(Response::error(400, &format!("invalid JSON: {e}")));
        }
    };
    match Query::from_json(&parsed) {
        Ok(query) => Ok((query, None)),
        Err(e) => {
            inner.stats.invalid_requests.inc();
            Err(Response::error(400, &e.0))
        }
    }
}

/// A 200 carrying the requested representation of a cached result. Wire
/// replays serve the stored encoding byte-for-byte; a body with no wire
/// form (never the case for engine-produced envelopes) falls back to
/// JSON rather than failing.
fn body_response(cached: &CachedBody, wire: bool) -> Response {
    match (&cached.wire, wire) {
        (Some(bytes), true) => Response::bytes(200, levy_wire::MEDIA_TYPE, bytes.clone()),
        _ => Response {
            status: 200,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: cached.json.clone().into_bytes(),
        },
    }
}

/// Coalesces onto an in-flight job for `key` or admits a new one into
/// the bounded queue, returning the job and the `X-Levy-Cache`
/// disposition of an answer served from it (`coalesced` onto existing
/// work, `miss` for the request that admitted it). `Err` is the
/// ready-made backpressure/shutdown 503.
fn admit_job(
    inner: &Arc<Inner>,
    key: &str,
    query: Query,
    root: &TraceSpan,
) -> Result<(Arc<Job>, &'static str), Response> {
    let mut inflight = inner.inflight.lock().expect("inflight lock");
    if let Some(job) = inflight.get(key) {
        inner.stats.coalesced.inc();
        return Ok((Arc::clone(job), "coalesced"));
    }
    if inner.shutting_down.load(Ordering::Acquire) {
        return Err(Response::error(503, "daemon is shutting down").with_header("Retry-After", "1"));
    }
    let mut queue = inner.queue.lock().expect("queue lock");
    if queue.len() >= inner.config.queue_capacity {
        inner.stats.rejected_queue_full.inc();
        // Journal the *onset* only: under sustained overload the ring
        // must not fill with one event per rejected request.
        if !inner.backpressure.swap(true, Ordering::AcqRel) {
            inner.events.record(
                EventKind::Backpressure,
                vec![
                    ("queue_depth", queue.len().to_string()),
                    ("queue_capacity", inner.config.queue_capacity.to_string()),
                ],
            );
        }
        return Err(Response::error(503, "job queue is full, retry shortly")
            .with_header("Retry-After", "1")
            .with_header("X-Levy-Queue-Depth", &queue.len().to_string()));
    }
    inner.backpressure.store(false, Ordering::Release);
    let mut queue_wait = root.child("queue_wait");
    queue_wait.tag("key", key);
    let job = Job::new(key.to_owned(), query, root.ctx(), queue_wait);
    queue.push_back(Arc::clone(&job));
    inner.stats.queue_depth.inc();
    inner.queue_changed.notify_one();
    drop(queue);
    inflight.insert(key.to_owned(), Arc::clone(&job));
    Ok((job, "miss"))
}

/// The front half both query handlers share, resolved.
struct QueryFront {
    /// The client negotiated the binary wire format for the answer.
    wire: bool,
    query: Query,
    key: String,
    /// How long a waiter blocks on the job before answering 504.
    timeout: Duration,
    /// The cached answer, when the probe hit.
    hit: Option<(CachedBody, CacheTier)>,
}

/// Negotiates the answer's format, parses and keys the query, and probes
/// the result cache under a `cache_probe` span. `Err` is the ready-made
/// 4xx.
fn query_front(
    request: &Request,
    inner: &Arc<Inner>,
    root: &TraceSpan,
) -> Result<QueryFront, Response> {
    inner.stats.queries.inc();
    let wire = wants_wire(request)?;
    let (query, wire_key) = parse_query(request, inner)?;
    if wire || wire_key.is_some() {
        inner.stats.wire_requests.inc();
    }
    let key = wire_key.unwrap_or_else(|| query.cache_key());

    let mut probe_span = root.child("cache_probe");
    probe_span.tag("key", &key);
    let hit = inner.cache.get(&key);
    probe_span.tag("outcome", if hit.is_some() { "hit" } else { "miss" });
    probe_span.finish();
    if hit.is_some() {
        inner.stats.cache_hits.inc();
    }

    let timeout = Duration::from_millis(
        query
            .timeout_ms
            .unwrap_or(inner.config.default_timeout_ms)
            .max(1),
    );
    Ok(QueryFront {
        wire,
        query,
        key,
        timeout,
        hit,
    })
}

fn handle_query(request: &Request, inner: &Arc<Inner>, root: &TraceSpan) -> Response {
    let QueryFront {
        wire,
        query,
        key,
        timeout,
        hit,
    } = match query_front(request, inner, root) {
        Ok(front) => front,
        Err(response) => return response,
    };

    // Tier 1: completed results.
    if let Some((cached, tier)) = hit {
        return body_response(&cached, wire)
            .with_header("X-Levy-Cache", "hit")
            .with_header("X-Levy-Cache-Tier", tier.as_str())
            .with_header("X-Levy-Key", &key);
    }

    // Cluster hop: a cold key held elsewhere is answered by its
    // holders (cache peeks in preference order, then a full forward to
    // the first live holder) when possible. Forwarded-in requests
    // always run locally — one hop, never a loop — and only when every
    // holder is unreachable does the entry node degrade to local
    // simulation below. Node-to-node traffic is binary regardless of
    // what the client negotiated; `relay` transcodes for JSON clients.
    if let Some(cluster) = &inner.cluster {
        if request.header(FORWARDED_HEADER).is_some() {
            inner.stats.cluster_received_forwards.inc();
            note_epoch_skew(request, cluster, inner);
        } else if let RoutePlan::Remote(remote) = cluster.route(&key) {
            match remote_answer(inner, cluster, &remote, &key, &query, timeout, root, wire) {
                Some(response) => return response,
                None => inner.stats.cluster_local_fallbacks.inc(),
            }
        }
    }

    // Tier 2: coalesce onto in-flight work, or admit a new job.
    let (job, disposition) = match admit_job(inner, &key, query, root) {
        Ok(admitted) => admitted,
        Err(response) => return response,
    };

    wait_for_job(&job, disposition, timeout, inner, wire)
}

/// Tries to answer a non-holder query from the key's holders: cache
/// peeks in preference order first (`GET /v1/cache/<key>` — a hit
/// costs no queue slot anywhere; during a rebalance the previous
/// ring's holders are peeked too), then a full forward (`POST
/// /v1/query` with the forwarded marker) to the first live holder.
/// Every call carries a `traceparent` minted from this request's
/// trace, so the holders' spans join the entry node's tree.
///
/// `None` means "simulate locally": every holder was marked down,
/// failed on the wire, or answered 5xx. The caller counts the fallback
/// — degraded mode costs a duplicated simulation, never an error.
#[allow(clippy::too_many_arguments)]
fn remote_answer(
    inner: &Arc<Inner>,
    cluster: &Cluster,
    remote: &RemoteRoute,
    key: &str,
    query: &Query,
    timeout: Duration,
    root: &TraceSpan,
    client_wire: bool,
) -> Option<Response> {
    let mut route_span = root.child("cluster_route");
    route_span.tag("key", key);
    route_span.tag("home", &remote.holders[0].1);

    // Peek pass: any holder with the body answers without consuming a
    // queue slot anywhere. A peek I/O error marks the holder's health
    // but moves on — a replica may still have the bytes.
    for (index, addr) in remote.holders.iter().chain(&remote.peek_extras) {
        if !cluster.table().is_up(*index) {
            continue;
        }
        let mut peek_span = route_span.child("peer_peek");
        peek_span.tag("peer", addr);
        match cluster.peek(*index, addr, key, &peek_span.ctx().to_traceparent()) {
            Ok((response, call)) if response.status == 200 => {
                cluster.record_success(&call, &inner.stats);
                inner.stats.cluster_peek_hits.inc();
                peek_span.tag("outcome", "hit");
                peek_span.finish();
                if let Some(relayed) = relay(&response, key, addr, "remote", client_wire) {
                    route_span.tag("outcome", "remote_cache_hit");
                    route_span.finish();
                    return Some(relayed);
                }
            }
            Ok((response, call)) => {
                // 404 is the expected miss; anything else is the holder
                // being alive but unhelpful — either way, keep walking.
                cluster.record_success(&call, &inner.stats);
                inner.stats.cluster_peek_misses.inc();
                peek_span.tag(
                    "outcome",
                    if response.status == 404 {
                        "miss".into()
                    } else {
                        format!("http_{}", response.status)
                    }
                    .as_str(),
                );
                peek_span.finish();
            }
            Err(e) => {
                cluster.record_failure(*index, &inner.stats);
                peek_span.tag("outcome", "io_error");
                peek_span.tag("error", &e.to_string());
                peek_span.finish();
            }
        }
    }

    // Forward pass: the first live holder simulates (or coalesces) and
    // replicates. A holder that fails mid-forward is recorded and the
    // next one is tried; only a fully unreachable replica set falls
    // back to local simulation.
    for (index, addr) in &remote.holders {
        if !cluster.table().is_up(*index) {
            continue;
        }
        inner.stats.cluster_forwards.inc();
        let mut forward_span = route_span.child("peer_forward");
        forward_span.tag("peer", addr);
        let forwarded = cluster.forward(
            *index,
            addr,
            &wirecodec::encode_query(query),
            timeout,
            &forward_span.ctx().to_traceparent(),
        );
        match forwarded {
            Ok((response, call)) => {
                cluster.record_success(&call, &inner.stats);
                if response.status >= 500 {
                    // The holder is overloaded (503) or timed out (504):
                    // trying the next one (or simulating here) spreads
                    // the load instead of bouncing the client.
                    inner.stats.cluster_forward_errors.inc();
                    forward_span.tag("outcome", &format!("http_{}", response.status));
                    forward_span.finish();
                    continue;
                }
                forward_span.tag("outcome", "ok");
                forward_span.finish();
                if let Some(relayed) = relay(&response, key, addr, "forwarded", client_wire) {
                    route_span.tag("outcome", "forwarded");
                    route_span.finish();
                    return Some(relayed);
                }
            }
            Err(e) => {
                cluster.record_failure(*index, &inner.stats);
                inner.stats.cluster_forward_errors.inc();
                forward_span.tag("outcome", "io_error");
                forward_span.tag("error", &e.to_string());
                forward_span.finish();
            }
        }
    }
    route_span.tag("outcome", "holders_unreachable");
    route_span.finish();
    None
}

/// Re-wraps a home node's response for the entry node's client: same
/// result (responses are a pure function of the query, so relayed and
/// local bodies are byte-identical), fresh headers naming the home and
/// how the answer was obtained. The home's own cache disposition is
/// preserved as `X-Levy-Home-Cache`.
///
/// Node-to-node hops carry the binary wire format; when the entry
/// client negotiated JSON, the wire body is transcoded back (the codec
/// reconstructs the engine's exact pretty-printed envelope, so the
/// relayed JSON matches a local answer byte-for-byte). `None` means the
/// upstream body could not be represented as asked — the caller falls
/// back to local simulation, never relays garbage.
fn relay(
    upstream: &Response,
    key: &str,
    home: &str,
    disposition: &str,
    client_wire: bool,
) -> Option<Response> {
    let upstream_wire = upstream.header("content-type").is_some_and(is_wire_media);
    let mut response = match (upstream_wire, client_wire) {
        (true, true) => Response::bytes(
            upstream.status,
            levy_wire::MEDIA_TYPE,
            upstream.body.clone(),
        ),
        (true, false) => {
            let json = wirecodec::decode_result_to_json(&upstream.body).ok()?;
            Response {
                status: upstream.status,
                headers: vec![("Content-Type".into(), "application/json".into())],
                body: json.to_string_pretty().into_bytes(),
            }
        }
        (false, client_wire) => {
            // A JSON upstream body (error responses stay JSON even on
            // binary hops). Result envelopes are re-encoded for wire
            // clients; anything else is relayed as the JSON it is.
            let encoded = client_wire
                .then(|| {
                    std::str::from_utf8(&upstream.body)
                        .ok()
                        .and_then(|s| Json::parse(s).ok())
                        .and_then(|j| wirecodec::encode_result(&j).ok())
                })
                .flatten();
            match encoded {
                Some(bytes) => Response::bytes(upstream.status, levy_wire::MEDIA_TYPE, bytes),
                None => Response {
                    status: upstream.status,
                    headers: vec![("Content-Type".into(), "application/json".into())],
                    body: upstream.body.clone(),
                },
            }
        }
    };
    if let Some(home_cache) = upstream.header("X-Levy-Cache") {
        response = response.with_header("X-Levy-Home-Cache", home_cache);
    }
    Some(
        response
            .with_header("X-Levy-Cache", disposition)
            .with_header("X-Levy-Key", key)
            .with_header("X-Levy-Home", home),
    )
}

/// Blocks on a job until it resolves or `timeout` elapses.
fn wait_for_job(
    job: &Arc<Job>,
    disposition: &str,
    timeout: Duration,
    inner: &Arc<Inner>,
    wire: bool,
) -> Response {
    job.waiters.fetch_add(1, Ordering::AcqRel);
    let deadline = Instant::now() + timeout;
    let mut outcome = job.outcome.lock().expect("job lock");
    while matches!(*outcome, JobOutcome::Pending) {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            break;
        }
        let (next, _timed_out) = job.done.wait_timeout(outcome, remaining).expect("job lock");
        outcome = next;
    }
    let response = match outcome.terminal() {
        Some(Ok(body)) => body_response(body, wire)
            .with_header("X-Levy-Cache", disposition)
            .with_header("X-Levy-Key", &job.key),
        // A cancelled job (503) can be retried at once.
        Some(Err((503, message))) => Response::error(503, message).with_header("Retry-After", "0"),
        Some(Err((status, message))) => Response::error(status, message),
        None => {
            // Deadline hit: detach; the last waiter out cancels the job.
            drop(outcome);
            inner.stats.wait_timeouts.inc();
            detach_waiter(job, inner);
            return Response::error(504, DEADLINE_MESSAGE).with_header("X-Levy-Key", &job.key);
        }
    };
    job.waiters.fetch_sub(1, Ordering::AcqRel);
    response
}

/// Detaches one waiter from `job`; the last one out of a still-pending
/// job cancels it so abandoned work stops burning cores.
fn detach_waiter(job: &Arc<Job>, inner: &Arc<Inner>) {
    if job.waiters.fetch_sub(1, Ordering::AcqRel) == 1 {
        let outcome = job.outcome.lock().expect("job lock");
        if matches!(*outcome, JobOutcome::Pending) {
            job.cancel.cancel();
            // Wake the queue in case the job is still unstarted: a
            // worker will observe the cancelled token and retire it.
            inner.queue_changed.notify_all();
        }
    }
}

/// Writes a buffered (non-chunked) response on the streaming path —
/// used for every failure that happens before the chunked head goes
/// out. Returns the status for request logging.
fn write_buffered<S: Write>(stream: &mut S, inner: &Arc<Inner>, response: &Response) -> u16 {
    if write_response(stream, response).is_err() {
        inner.stats.io_write_errors.inc();
    }
    response.status
}

/// `POST /v1/query` with `X-Levy-Stream: 1`: a chunked response whose
/// chunks are wire frames — `Batch` frames as the adaptive estimator
/// completes batches, then one terminal frame:
///
/// - `Final`, carrying byte-for-byte the body the non-streaming path
///   would have returned for the same `Accept`;
/// - or `Error` (500/503/504) when the job fails, is cancelled, or the
///   deadline passes mid-stream.
///
/// Failures *before* the head is written (bad query, 406, queue full)
/// are ordinary buffered responses. A chunk-write failure means the
/// client is gone: the waiter detaches, and — as on the buffered
/// timeout path — the last waiter out cancels the job. Streaming always
/// answers locally (no cluster hop): partial results need the simulation
/// on this node.
fn handle_query_streaming<S: Read + Write>(
    request: &Request,
    inner: &Arc<Inner>,
    root: &TraceSpan,
    stream: &mut S,
) -> u16 {
    let front = match query_front(request, inner, root) {
        Ok(front) => front,
        Err(response) => return write_buffered(stream, inner, &response),
    };
    let (wire, key) = (front.wire, &front.key);
    let trace_id = root.ctx().trace_id.to_string();

    // Cache hit: the whole stream is one terminal Final frame.
    if let Some((cached, tier)) = &front.hit {
        inner.stats.streams_started.inc();
        let frame = Frame::Final(FinalFrame {
            body: body_response(cached, wire).body,
        });
        let written = write_chunked_head(
            stream,
            200,
            &[
                ("Content-Type", levy_wire::STREAM_MEDIA_TYPE),
                ("X-Levy-Cache", "hit"),
                ("X-Levy-Cache-Tier", tier.as_str()),
                ("X-Levy-Key", key),
                ("X-Levy-Trace-Id", &trace_id),
            ],
        )
        .and_then(|()| write_chunk(stream, &frame.encode()))
        .and_then(|()| finish_chunked(stream));
        if written.is_err() {
            inner.stats.io_write_errors.inc();
        }
        return 200;
    }

    let (job, disposition) = match admit_job(inner, key, front.query, root) {
        Ok(admitted) => admitted,
        Err(response) => return write_buffered(stream, inner, &response),
    };

    job.waiters.fetch_add(1, Ordering::AcqRel);
    inner.stats.streams_started.inc();
    if write_chunked_head(
        stream,
        200,
        &[
            ("Content-Type", levy_wire::STREAM_MEDIA_TYPE),
            ("X-Levy-Cache", disposition),
            ("X-Levy-Key", key),
            ("X-Levy-Trace-Id", &trace_id),
        ],
    )
    .is_err()
    {
        inner.stats.io_write_errors.inc();
        inner.stats.streams_cancelled.inc();
        detach_waiter(&job, inner);
        return 200;
    }

    let deadline = Instant::now() + front.timeout;
    let mut sent = 0usize;
    let mut last: Option<BatchProgress> = None;
    let mut outcome = job.outcome.lock().expect("job lock");
    loop {
        // Drain progress published since the last pass. Chunks are
        // written with the outcome lock released so a slow client never
        // blocks the worker publishing this job's completion.
        let fresh: Vec<BatchProgress> = {
            let progress = job.progress.lock().expect("progress lock");
            progress[sent..].to_vec()
        };
        if !fresh.is_empty() {
            drop(outcome);
            for event in &fresh {
                let frame = wirecodec::batch_frame(event, last.as_ref());
                sent += 1;
                last = Some(*event);
                if write_chunk(stream, &frame.encode()).is_err() {
                    // Client disconnected mid-stream.
                    inner.stats.io_write_errors.inc();
                    inner.stats.streams_cancelled.inc();
                    detach_waiter(&job, inner);
                    return 200;
                }
            }
            outcome = job.outcome.lock().expect("job lock");
            continue;
        }
        let terminal = outcome.terminal().map(|answer| match answer {
            Ok(body) => (
                200,
                Frame::Final(FinalFrame {
                    body: body_response(body, wire).body,
                }),
            ),
            Err((status, message)) => (
                status,
                Frame::Error(ErrorFrame {
                    status,
                    message: message.to_owned(),
                }),
            ),
        });
        if let Some((status, frame)) = terminal {
            drop(outcome);
            job.waiters.fetch_sub(1, Ordering::AcqRel);
            if write_chunk(stream, &frame.encode())
                .and_then(|()| finish_chunked(stream))
                .is_err()
            {
                inner.stats.io_write_errors.inc();
            }
            return status;
        }
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            // Deadline mid-stream: a terminal Error frame, not a dead
            // socket. Detaching may cancel the job (last waiter out).
            drop(outcome);
            inner.stats.wait_timeouts.inc();
            detach_waiter(&job, inner);
            let frame = Frame::Error(ErrorFrame {
                status: 504,
                message: DEADLINE_MESSAGE.into(),
            });
            if write_chunk(stream, &frame.encode())
                .and_then(|()| finish_chunked(stream))
                .is_err()
            {
                inner.stats.io_write_errors.inc();
            }
            return 504;
        }
        // A bounded slice, not `remaining`: progress notifications can
        // race the wait, and the cap turns a missed wakeup into at most
        // 100 ms of added latency on one batch frame.
        let (next, _timed_out) = job
            .done
            .wait_timeout(outcome, remaining.min(Duration::from_millis(100)))
            .expect("job lock");
        outcome = next;
    }
}

/// Worker: pop a job, run the engine, publish the outcome, repeat.
/// Exits when shutdown is flagged *and* the queue is drained.
fn worker_loop(inner: &Arc<Inner>) {
    loop {
        let job = {
            let mut queue = inner.queue.lock().expect("queue lock");
            loop {
                if let Some(job) = queue.pop_front() {
                    inner.stats.queue_depth.dec();
                    break job;
                }
                if inner.shutting_down.load(Ordering::Acquire) {
                    return;
                }
                queue = inner
                    .queue_changed
                    .wait_timeout(queue, Duration::from_millis(100))
                    .expect("queue lock")
                    .0;
            }
        };
        // The queue_wait span opened at admission ends now, on pop; its
        // duration *is* the time the job sat in the queue.
        drop(job.queue_wait.lock().expect("trace lock").take());
        if job.cancel.is_cancelled() {
            inner.stats.simulations_cancelled.inc();
            finish(inner, &job, JobOutcome::Cancelled);
            continue;
        }
        inner.stats.simulations_started.inc();
        inner.stats.workers_busy.inc();
        let sim_threads = inner.config.sim_threads;
        let mut exec_span = inner.traces.span(job.trace_ctx, "worker_exec");
        exec_span.tag("key", &job.key);
        // Execution indices are claimed at start, inside the unwind
        // guard's shadow, so an injected panic exercises exactly the
        // path a real engine panic would take.
        let inject_panic = inner
            .config
            .faults
            .as_ref()
            .is_some_and(|plan| plan.next_exec_panics());
        let exec_ctx = exec_span.ctx();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if inject_panic {
                panic!("injected worker panic");
            }
            // Adaptive batch progress is published as it happens so
            // streaming waiters can emit partial results; the observer
            // never touches the RNG, so the body stays bit-identical to
            // an unobserved run.
            let progress_job = Arc::clone(&job);
            let mut observer = move |progress: BatchProgress| {
                progress_job
                    .progress
                    .lock()
                    .expect("progress lock")
                    .push(progress);
                progress_job.done.notify_all();
            };
            engine::execute_observed(
                &job.query,
                sim_threads,
                &job.cancel,
                Some((&inner.traces, exec_ctx)),
                &mut observer,
            )
        }));
        inner.stats.workers_busy.dec();
        let outcome = match outcome {
            Ok(Some(body)) => {
                exec_span.tag("outcome", "completed");
                let cached = Arc::new(CachedBody::from_json(&body.to_string_pretty()));
                inner.cache.put_body(&job.key, &cached);
                inner.stats.simulations_completed.inc();
                // Write-behind replication: the other holders get a
                // copy off the request path, so any one of them can
                // answer peeks if this node dies a moment later.
                if inner.cluster.is_some() {
                    inner.enqueue_repl(ReplWork::WriteBehind {
                        key: job.key.clone(),
                        json: cached.json.clone(),
                    });
                }
                JobOutcome::Done(cached)
            }
            Ok(None) => {
                exec_span.tag("outcome", "cancelled");
                inner.stats.simulations_cancelled.inc();
                JobOutcome::Cancelled
            }
            Err(panic) => {
                exec_span.tag("outcome", "panicked");
                inner.stats.simulations_failed.inc();
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "simulation panicked".into());
                JobOutcome::Failed(format!("simulation failed: {message}"))
            }
        };
        exec_span.finish();
        finish(inner, &job, outcome);
    }
}

/// Publishes a terminal outcome: removes the job from the dedup table,
/// stores the outcome, and wakes every waiter.
fn finish(inner: &Arc<Inner>, job: &Arc<Job>, outcome: JobOutcome) {
    inner
        .inflight
        .lock()
        .expect("inflight lock")
        .remove(&job.key);
    *job.outcome.lock().expect("job lock") = outcome;
    job.done.notify_all();
}
