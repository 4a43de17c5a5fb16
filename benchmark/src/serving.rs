//! The serving workloads: `cold_mix`, `warm_zipf` and `cluster_mix`.
//!
//! Servers are started in process through `Server::start`, configured the
//! way the multi-node test harness configures them, and driven over
//! loopback HTTP by two sender threads (two connections at a time). Each
//! run sets up three times (reporting the median set-up time), and each
//! set-up serves its slice of an open-loop phase, timed from each
//! request's due time, and of a closed-loop capacity phase. A traced run
//! replays the start of the open-loop schedule with the same seed twice,
//! untraced and then with a `traceparent` on every request, and splits
//! the traced requests' latency into per-layer self times.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use levy_cluster::HashRing;
use levy_obs::trace::{next_span_id, next_trace_id};
use levy_obs::SpanContext;
use levy_rng::SeedStream;
use levy_served::http::Response;
use levy_served::server::{Server, ServerConfig};
use levy_served::{engine, wirecodec, CacheConfig, Client, ClusterConfig, Query};
use levy_sim::{CancelToken, Json};
use rand::rngs::SmallRng;
use rand::Rng;

use crate::loadgen::{closed_loop, open_loop_senders, permutation, poisson_schedule, Timing, Zipf};
use crate::report::{rss_peak_mb, Outcome, RunConfig};
use crate::spans::{self, Route, Span};
use crate::stats::{interquartile_mean, median, percentile, sorted};

/// Sender threads, and so concurrent connections, in every phase.
const SENDERS: usize = 2;
/// Share of the run's seconds spent in the open-loop phase; the rest is
/// the closed-loop capacity phase.
const OPEN_SHARE: f64 = 0.6;
/// Share of the run's seconds each replay of a traced run covers (the
/// schedule's first part, untraced then traced), so that both replays,
/// their set-ups and the layer calls take about as long as an untraced
/// run.
const REPLAY_SHARE: f64 = 0.4;
/// Set-ups per untraced run; the median is reported as `setup_s`.
const SETUPS: u64 = 3;
/// Trace-store capacity for traced runs: larger than any run's request
/// count, so no finished trace is evicted before the harvest.
const TRACE_CAPACITY: usize = 1 << 20;
/// Window over which closed-loop successes are counted; the capacity is
/// the interquartile mean of the windows' rates.
const CAPACITY_WINDOW: f64 = 0.5;
/// Seeded share of cold bodies recomputed after timing.
const RECOMPUTE_SHARE: f64 = 0.05;

/// A validated query with both request encodings and, once the workload
/// has warmed it, the bytes every later answer must repeat.
struct Prepared {
    json: String,
    wire: Vec<u8>,
    key: String,
    query: Query,
    expected: OnceLock<Expected>,
}

/// The bytes a warmed key must be answered with, per representation.
struct Expected {
    json: Vec<u8>,
    wire: Vec<u8>,
}

impl Prepared {
    fn new(json: String) -> Arc<Prepared> {
        let query = Query::from_json(&Json::parse(&json).expect("benchmark query is JSON"))
            .expect("benchmark query is valid");
        Arc::new(Prepared {
            wire: wirecodec::encode_query(&query),
            key: query.cache_key(),
            json,
            query,
            expected: OnceLock::new(),
        })
    }

    /// Records `body` as this key's answer. A key warmed again (a later
    /// set-up) must get the same bytes; a wire body that does not
    /// transcode back to the JSON bytes is wrong too.
    fn expect(&self, body: &[u8]) -> Result<(), String> {
        if let Some(expected) = self.expected.get() {
            if expected.json != body {
                return Err(format!(
                    "key {} answered different bytes on re-warm",
                    self.key
                ));
            }
            return Ok(());
        }
        let text = std::str::from_utf8(body)
            .map_err(|_| format!("key {}: body is not UTF-8", self.key))?;
        let envelope = Json::parse(text).map_err(|e| format!("key {}: {e}", self.key))?;
        let wire = wirecodec::encode_result(&envelope)?;
        let transcoded = wirecodec::decode_result_to_json(&wire)?.to_string_pretty();
        if transcoded.as_bytes() != body {
            return Err(format!(
                "key {}: wire body does not transcode to the JSON bytes",
                self.key
            ));
        }
        let _ = self.expected.set(Expected {
            json: body.to_vec(),
            wire,
        });
        Ok(())
    }
}

/// One request: which node it enters at, what it asks, and how.
#[derive(Clone)]
struct Call {
    node: usize,
    prepared: Arc<Prepared>,
    /// LW1 body and `Accept: application/x-levy-wire` instead of JSON.
    wire: bool,
    /// Keep the body and recompute it after timing.
    recompute: bool,
    /// Shape label for per-shape notes.
    label: &'static str,
}

/// The nodes of one set-up and a client for each.
struct Fleet {
    servers: Vec<Server>,
    clients: Vec<Client>,
    dir: Option<PathBuf>,
}

fn node_config(addr: &str, cache: CacheConfig, trace_capacity: usize) -> ServerConfig {
    ServerConfig {
        addr: addr.to_owned(),
        workers: 2,
        sim_threads: 1,
        queue_capacity: 64,
        cache,
        default_timeout_ms: 60_000,
        quiet: true,
        trace_capacity,
        ..ServerConfig::default()
    }
}

fn memory_cache(mem_capacity: usize) -> CacheConfig {
    CacheConfig {
        mem_capacity,
        disk_capacity: 0,
        dir: None,
    }
}

impl Fleet {
    fn single(cache: CacheConfig, trace_capacity: usize) -> Fleet {
        let dir = cache.dir.clone();
        let server = Server::start(node_config("127.0.0.1:0", cache, trace_capacity))
            .expect("benchmark node starts");
        Fleet::new(vec![server], dir)
    }

    /// `n` nodes in one ring: R = 1, 64 vnodes, no background prober.
    fn cluster(n: usize, cache: CacheConfig, trace_capacity: usize) -> Fleet {
        let listeners: Vec<std::net::TcpListener> = (0..n)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("reserve a loopback port"))
            .collect();
        let addrs: Vec<String> = listeners
            .iter()
            .map(|l| l.local_addr().expect("bound address").to_string())
            .collect();
        drop(listeners);
        let servers = addrs
            .iter()
            .map(|addr| {
                let peers = addrs.iter().filter(|a| *a != addr).cloned().collect();
                Server::start(ServerConfig {
                    cluster: Some(ClusterConfig {
                        self_addr: addr.clone(),
                        peers,
                        vnodes: 64,
                        replication: 1,
                        probe_interval_ms: 0,
                        peek_timeout_ms: 1_000,
                        ..ClusterConfig::default()
                    }),
                    ..node_config(addr, cache.clone(), trace_capacity)
                })
                .expect("cluster node starts")
            })
            .collect();
        Fleet::new(servers, None)
    }

    fn new(servers: Vec<Server>, dir: Option<PathBuf>) -> Fleet {
        let clients = servers
            .iter()
            .map(|s| {
                Client::new(&s.addr().to_string()).with_timeout(std::time::Duration::from_secs(60))
            })
            .collect();
        Fleet {
            servers,
            clients,
            dir,
        }
    }

    fn addrs(&self) -> Vec<String> {
        self.servers.iter().map(|s| s.addr().to_string()).collect()
    }

    fn shutdown(self) {
        for server in self.servers {
            server.shutdown();
        }
        if let Some(dir) = self.dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// Memory hits, disk hits and misses, summed over every node.
    fn cache_counters(&self) -> [f64; 3] {
        ["mem_hits", "disk_hits", "misses"].map(|name| {
            self.servers
                .iter()
                .filter_map(|s| s.cache_stats().get(name).and_then(Json::as_f64))
                .sum()
        })
    }

    /// Every finished span on every node, one harvest per node.
    fn spans(&self) -> Vec<Span> {
        self.servers
            .iter()
            .enumerate()
            .flat_map(|(i, s)| spans::from_fragments(&s.traces().finished(), &format!("node{i}")))
            .collect()
    }

    /// Sends `call`, optionally under a freshly minted trace whose
    /// client-side span is returned with the response.
    fn send(&self, call: &Call, traced: bool) -> (std::io::Result<Response>, Option<Span>) {
        let ctx = traced.then(|| SpanContext {
            trace_id: next_trace_id(),
            span_id: next_span_id(),
        });
        let traceparent = ctx.map(|c| c.to_traceparent());
        let mut headers: Vec<(&str, &str)> = Vec::new();
        if let Some(tp) = &traceparent {
            headers.push(("traceparent", tp));
        }
        let start_us = unix_us();
        let start = Instant::now();
        let client = &self.clients[call.node];
        let response = if call.wire {
            headers.push(("accept", levy_wire::MEDIA_TYPE));
            client.request_full(
                "POST",
                "/v1/query",
                levy_wire::MEDIA_TYPE,
                &headers,
                &call.prepared.wire,
            )
        } else {
            client.request_full(
                "POST",
                "/v1/query",
                "application/json",
                &headers,
                call.prepared.json.as_bytes(),
            )
        };
        let dur_us = start.elapsed().as_micros() as u64;
        let span = ctx.map(|c| Span {
            trace: c.trace_id.0,
            id: c.span_id.0,
            parent: None,
            name: "client_request".into(),
            node: "client".into(),
            start_us,
            dur_us,
        });
        (response, span)
    }
}

fn unix_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

/// Whether `body` is the right answer to `call`: byte-equal to the
/// warmed bytes when the key was warmed, otherwise a JSON envelope for
/// the right key (recomputed later when the call is in the seeded
/// sample). Only warmed keys are ever asked for in wire form.
fn body_is_right(call: &Call, body: &[u8]) -> bool {
    if let Some(expected) = call.prepared.expected.get() {
        let want = if call.wire {
            &expected.wire
        } else {
            &expected.json
        };
        return body == want;
    }
    std::str::from_utf8(body)
        .ok()
        .and_then(|s| Json::parse(s).ok())
        .and_then(|j| {
            j.get("key")
                .and_then(Json::as_str)
                .map(|k| k == call.prepared.key)
        })
        .unwrap_or(false)
}

/// A query seed: 53 bits, so it survives the JSON integer path.
fn fresh_seed(rng: &mut SmallRng) -> u64 {
    rng.gen::<u64>() >> 11
}

/// A serving workload: its inputs, its nodes, its traffic, its checks.
trait Workload: Sized + Sync {
    /// Open-loop arrival rate, requests per second.
    const RATE: f64;

    /// The workload's inputs (key universes, permutations), generated
    /// once per run from `seeds` and not timed.
    fn new(seeds: SeedStream) -> Self;
    /// Boots the nodes and warms what the workload needs; timed as
    /// set-up. Warm-up failures are recorded in `out`.
    fn setup(&self, attempt: u64, dir: PathBuf, trace_capacity: usize, out: &mut Outcome) -> Fleet;
    /// Call number `i` of a stream drawn from `rng`.
    fn call(&self, rng: &mut SmallRng, i: usize) -> Call;
    /// Checks that only hold over the whole run (counters).
    fn verify(&self, _fleet: &Fleet, _out: &mut Outcome) {}
}

/// Sends `calls` in parallel across the senders (used for warm-ups),
/// recording each 200 body as the key's expected answer.
fn warm(fleet: &Fleet, calls: &[Call], out: &mut Outcome) {
    let errors = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for sender in 0..SENDERS {
            let errors = &errors;
            scope.spawn(move || {
                for call in calls.iter().skip(sender).step_by(SENDERS) {
                    let result = match fleet.send(call, false).0 {
                        Ok(r) if r.status == 200 => call.prepared.expect(&r.body),
                        Ok(r) => Err(format!(
                            "warm-up {} answered {}",
                            call.prepared.key, r.status
                        )),
                        Err(e) => Err(format!("warm-up {}: {e}", call.prepared.key)),
                    };
                    if let Err(e) = result {
                        errors.lock().expect("error list").push(e);
                    }
                }
            });
        }
    });
    out.attempted += calls.len() as u64;
    for error in errors.into_inner().expect("error list") {
        out.fail(error);
    }
}

/// What the senders keep about a request: only traced, sampled or
/// failed ones, so the benchmark's own memory does not grow with the
/// request rate it measures.
struct Sent {
    call: Call,
    ok: bool,
    body: Option<Vec<u8>>,
    span: Option<Span>,
    /// `X-Levy-Cache`, `X-Levy-Home-Cache` and `X-Levy-Cache-Tier`.
    cache: Option<String>,
    home_cache: Option<String>,
    tier: Option<String>,
}

impl Sent {
    /// Which fragments the response says its trace must hold.
    fn route(&self) -> Route {
        Route::from_headers(
            format!("node{}", self.call.node),
            self.cache.as_deref(),
            self.home_cache.as_deref(),
        )
    }
}

/// The senders' shared record of a phase.
#[derive(Default)]
struct Log(Mutex<Vec<Sent>>);

impl Log {
    fn take(&self) -> Vec<Sent> {
        std::mem::take(&mut *self.0.lock().expect("send log"))
    }
}

/// Sends one call and records it; the returned flag is the operation's
/// success (200 with the right bytes).
fn exchange(fleet: &Fleet, call: &Call, traced: bool, log: &Log) -> bool {
    let (response, span) = fleet.send(call, traced);
    let mut sent = Sent {
        call: call.clone(),
        ok: false,
        body: None,
        span,
        cache: None,
        home_cache: None,
        tier: None,
    };
    if let Ok(r) = response {
        let header = |name| r.header(name).map(str::to_owned);
        (sent.cache, sent.home_cache, sent.tier) = (
            header("x-levy-cache"),
            header("x-levy-home-cache"),
            header("x-levy-cache-tier"),
        );
        sent.ok = r.status == 200 && body_is_right(call, &r.body);
        if call.recompute || !sent.ok {
            sent.body = Some(r.body);
        }
    }
    let ok = sent.ok;
    if traced || call.recompute || !ok {
        log.0.lock().expect("send log").push(sent);
    }
    ok
}

/// Runs workload `W` under `config`.
fn run<W: Workload>(config: &RunConfig, out: &mut Outcome) {
    let seeds = SeedStream::new(config.seed).child(workload_tag(&config.workload));
    let dir = |attempt: u64| {
        config.out_dir.join("tmp").join(format!(
            "{}-{}-{attempt}",
            config.workload,
            std::process::id()
        ))
    };
    let open_secs = config.seconds * OPEN_SHARE;
    let schedule = poisson_schedule(W::RATE, open_secs, &mut seeds.child(1).rng());
    let workload = W::new(seeds);
    let mut call_rng = seeds.child(2).rng();
    let calls: Vec<Call> = (0..schedule.len())
        .map(|i| workload.call(&mut call_rng, i))
        .collect();
    let default_capacity = ServerConfig::default().trace_capacity;

    if config.trace {
        // The untraced replay gives the baseline for the tracing
        // overhead; the traced replay of the same schedule and calls
        // gives the spans.
        let n = schedule.partition_point(|&due| due < config.seconds * REPLAY_SHARE);
        let replay = |fleet: &Fleet, traced: bool, out: &mut Outcome| {
            let (timings, sent) = open_phase(fleet, &schedule[..n], &calls[..n], traced, out);
            note_open_loop(&timings, W::RATE, traced, out);
            (timings, sent)
        };
        let fleet = workload.setup(0, dir(0), default_capacity, out);
        let (untraced, sent) = replay(&fleet, false, out);
        check_sent(&sent, out);
        workload.verify(&fleet, out);
        fleet.shutdown();

        let fleet = workload.setup(1, dir(1), TRACE_CAPACITY, out);
        let before = fleet.cache_counters();
        let (traced, sent) = replay(&fleet, true, out);
        let after = fleet.cache_counters();
        let cache = std::array::from_fn(|i| after[i] - before[i]);
        layers(config, &fleet, &sent, cache, out);
        let p50 = |t: &[Timing]| median(&t.iter().map(|t| t.latency).collect::<Vec<_>>());
        out.note(format!(
            "layer levy_obs.trace_overhead_pct {:.2} % (open-loop p50, traced over untraced replay)",
            (p50(&traced) / p50(&untraced) - 1.0) * 100.0
        ));
        check_sent(&sent, out);
        workload.verify(&fleet, out);
        fleet.shutdown();
        return;
    }

    // Every set-up is timed, then measured: it serves its own slice of
    // the open-loop schedule and of the capacity phase, so one fleet's
    // luck (thread placement, accept-loop timing) is pooled with the
    // others' instead of deciding the run.
    let slice_secs = open_secs / SETUPS as f64;
    let capacity_secs = (config.seconds - open_secs) / SETUPS as f64;
    let (mut times, mut timings, mut sent) = (Vec::new(), Vec::new(), Vec::new());
    let mut windows = Vec::new();
    let (mut ok, mut failed, mut closed_secs) = (0, 0, 0.0);
    for attempt in 0..SETUPS {
        let start = Instant::now();
        let fleet = workload.setup(attempt, dir(attempt), default_capacity, out);
        times.push(start.elapsed().as_secs_f64());

        let from = attempt as f64 * slice_secs;
        let lo = schedule.partition_point(|&due| due < from);
        let hi = schedule.partition_point(|&due| due < from + slice_secs);
        let slice: Vec<f64> = schedule[lo..hi].iter().map(|due| due - from).collect();
        let (t, s) = open_phase(&fleet, &slice, &calls[lo..hi], false, out);
        timings.extend(t);
        sent.extend(s);

        let log = Log::default();
        let cap_seeds = seeds.child(3).child(attempt);
        let capacity = closed_loop(SENDERS, capacity_secs, CAPACITY_WINDOW, |sender, n| {
            let mut rng = cap_seeds.child(sender as u64).child(n).rng();
            exchange(&fleet, &workload.call(&mut rng, n as usize), false, &log)
        });
        ok += capacity.ok;
        failed += capacity.failed;
        closed_secs += capacity.seconds;
        windows.extend(capacity.window_rates);
        sent.extend(log.take());
        workload.verify(&fleet, out);
        fleet.shutdown();
    }
    out.metric("setup_s", median(&times));
    out.metric("rss_peak_mb", rss_peak_mb());
    note_open_loop(&timings, W::RATE, false, out);
    let latency = sorted(&timings.iter().map(|t| t.latency * 1e3).collect::<Vec<_>>());
    for (name, p) in [("p50_ms", 0.5), ("p90_ms", 0.9)] {
        if let Some(ms) = percentile(&latency, p) {
            out.metric(name, ms);
        }
    }
    out.attempted += ok + failed;
    let capacity = interquartile_mean(&windows);
    out.metric("capacity_rps", capacity);
    out.note(format!(
        "closed loop {SENDERS} connections x {closed_secs:.1} s over {SETUPS} set-ups: {ok} ok, {failed} failed, {:.1} ok/s overall, interquartile mean of {} windows {capacity:.1}/s",
        ok as f64 / closed_secs,
        windows.len(),
    ));
    check_sent(&sent, out);
}

/// Sends `calls` open loop on `schedule` (every request under a minted
/// trace when `traced`) and returns the timings with what the senders
/// kept.
fn open_phase(
    fleet: &Fleet,
    schedule: &[f64],
    calls: &[Call],
    traced: bool,
    out: &mut Outcome,
) -> (Vec<Timing>, Vec<Sent>) {
    let log = Log::default();
    let timings = open_loop_senders(schedule, SENDERS, |i| {
        exchange(fleet, &calls[i], traced, &log);
    });
    out.attempted += timings.len() as u64;
    (timings, log.take())
}

/// Notes an open-loop phase's latency and the generator's lateness.
fn note_open_loop(timings: &[Timing], rate: f64, traced: bool, out: &mut Outcome) {
    let latency = sorted(&timings.iter().map(|t| t.latency * 1e3).collect::<Vec<_>>());
    let late = sorted(&timings.iter().map(|t| t.late * 1e3).collect::<Vec<_>>());
    let fmt = |v: Option<f64>| v.map_or("n/a".to_owned(), |v| format!("{v:.3}"));
    out.note(format!(
        "open loop{} {rate:.0} req/s: {} samples, p50 {} ms, p90 {} ms, p99 {} ms, loadgen.late_ms p50 {} p90 {}",
        if traced { " (traced)" } else { "" },
        latency.len(),
        fmt(percentile(&latency, 0.5)),
        fmt(percentile(&latency, 0.9)),
        fmt(percentile(&latency, 0.99)),
        fmt(percentile(&late, 0.5)),
        fmt(percentile(&late, 0.9)),
    ));
}

/// Per-request failures, then the seeded recompute sample: each sampled
/// body must equal a fresh `engine::execute` of its query byte for byte.
fn check_sent(sent: &[Sent], out: &mut Outcome) {
    let mut recomputed = 0;
    for s in sent {
        if !s.ok {
            let detail = s.body.as_ref().map_or("no response".to_owned(), |b| {
                String::from_utf8_lossy(&b[..b.len().min(120)]).into_owned()
            });
            out.fail(format!(
                "{} {}: {detail}",
                s.call.label, s.call.prepared.key
            ));
            continue;
        }
        if let (true, Some(body)) = (s.call.recompute, &s.body) {
            recomputed += 1;
            let fresh = engine::execute(&s.call.prepared.query, 1, &CancelToken::new())
                .expect("uncancelled recompute completes")
                .to_string_pretty();
            if body.as_slice() != fresh.as_bytes() {
                out.fail(format!(
                    "{} {}: served bytes differ from a fresh execute",
                    s.call.label, s.call.prepared.key
                ));
            }
        }
    }
    if recomputed > 0 {
        out.note(format!(
            "{recomputed} sampled bodies recomputed with engine::execute and compared byte for byte"
        ));
    }
}

/// Per-layer numbers and the ranked table from the traced replay (spans
/// go to `spans-<workload>.jsonl`), and the checks on the joined trees.
/// These are report lines, printed only where the workload enters the
/// layer; the metrics of a traced run are the outside-timed calls.
fn layers(config: &RunConfig, fleet: &Fleet, sent: &[Sent], cache: [f64; 3], out: &mut Outcome) {
    let by_trace: HashMap<u128, &Sent> = sent
        .iter()
        .filter_map(|s| s.span.as_ref().map(|span| (span.trace, s)))
        .collect();
    let mut all: Vec<Span> = fleet.spans();
    all.extend(sent.iter().filter_map(|s| s.span.clone()));
    let requests = spans::join(all);
    let _ = std::fs::create_dir_all(&config.out_dir);
    let path = config
        .out_dir
        .join(format!("spans-{}.jsonl", config.workload));
    if let Err(e) = std::fs::write(&path, spans::jsonl(&requests)) {
        out.note(format!("could not write {}: {e}", path.display()));
    }

    // Every fragment the response headers imply must be in the tree: a
    // lost one would be absorbed into its parent's self time unseen.
    for request in &requests {
        let s = by_trace[&request.trace];
        if let Some(missing) = request.missing(&s.route()) {
            out.fail(format!(
                "{} {}: trace lacks {missing} (X-Levy-Cache {})",
                s.call.label,
                s.call.prepared.key,
                s.cache.as_deref().unwrap_or("-")
            ));
        }
    }
    // Residual invariant: transport plus server self times account for
    // the client latency within max(5%, 50 µs) on ≥ 95% of requests.
    let within = requests
        .iter()
        .filter(|r| r.residual_us().unsigned_abs() as f64 <= (0.05 * r.latency_us as f64).max(50.0))
        .count();
    let ok_ratio = within as f64 / requests.len().max(1) as f64;
    out.note(format!(
        "check trace.residual_ok_ratio {ok_ratio:.4}: {within} of {} traced requests within max(5%, 50 us)",
        requests.len()
    ));
    if ok_ratio < 0.95 {
        out.fail(format!(
            "trace residual invariant: {:.1}% of traced requests within max(5%, 50 us)",
            ok_ratio * 100.0
        ));
    }
    let rekeyed = requests
        .iter()
        .flat_map(|r| r.spans.iter().filter(move |t| t.span.trace != r.trace))
        .filter(|t| t.span.name == "request")
        .count();
    if rekeyed > 0 {
        out.note(format!(
            "check {rekeyed} server fragments were recorded under a fresh trace id (the trace id was still open on that node) and joined by their parent span"
        ));
    }

    // Absolute span times: p50/p90 of each span's duration and of its
    // self time (µs, as the spans record them).
    let fmt = |values: &[f64], p: f64| {
        percentile(&sorted(values), p).map_or("n/a".to_owned(), |v| format!("{v:.0}"))
    };
    for (name, _) in SPANS {
        let timed: Vec<&spans::Timed> = requests.iter().flat_map(|r| r.named(name)).collect();
        if timed.is_empty() {
            continue;
        }
        let dur: Vec<f64> = timed.iter().map(|t| t.span.dur_us as f64).collect();
        let own: Vec<f64> = timed.iter().map(|t| t.self_us as f64).collect();
        out.note(format!(
            "span {name}: {} spans, dur p50 {} p90 {} us, self p50 {} p90 {} us",
            timed.len(),
            fmt(&dur, 0.5),
            fmt(&dur, 0.9),
            fmt(&own, 0.5),
            fmt(&own, 0.9)
        ));
    }
    let disk_probe: Vec<f64> = requests
        .iter()
        .filter(|r| by_trace[&r.trace].tier.as_deref() == Some("disk"))
        .flat_map(|r| r.named("cache_probe").map(|t| t.span.dur_us as f64))
        .collect();
    if !disk_probe.is_empty() {
        out.note(format!(
            "span cache_probe on disk-tier hits: {} spans, dur p50 {} p90 {} us",
            disk_probe.len(),
            fmt(&disk_probe, 0.5),
            fmt(&disk_probe, 0.9)
        ));
    }
    let mut shapes: HashMap<&'static str, Vec<f64>> = HashMap::new();
    for request in &requests {
        let label = by_trace[&request.trace].call.label;
        shapes.entry(label).or_default().extend(
            request
                .named("simulate")
                .map(|t| t.span.dur_us as f64 / 1e3),
        );
    }
    let mut shapes: Vec<_> = shapes.into_iter().filter(|(_, v)| !v.is_empty()).collect();
    shapes.sort_by(|a, b| a.0.cmp(b.0));
    for (label, ms) in shapes {
        out.note(format!(
            "layer levy_served.engine.simulate_ms {label}: {} spans, p50 {:.3} p90 {} ms",
            ms.len(),
            median(&ms),
            percentile(&sorted(&ms), 0.9).map_or("n/a".to_owned(), |v| format!("{v:.3}"))
        ));
    }

    let [mem, disk, miss] = cache;
    let lookups = mem + disk + miss;
    if lookups > 0.0 {
        out.note(format!(
            "layer levy_served.cache: {lookups} lookups, mem_hit_ratio {:.4}, disk_hit_ratio {:.4}",
            mem / lookups,
            disk / lookups
        ));
    }
    let routed: Vec<&str> = sent
        .iter()
        .filter_map(|s| s.cache.as_deref())
        .filter(|c| matches!(*c, "remote" | "forwarded"))
        .collect();
    if !routed.is_empty() {
        let remote = routed.iter().filter(|c| **c == "remote").count();
        out.note(format!(
            "layer levy_served.cluster: {} requests answered off the entry node, remote_hit_ratio {:.4}",
            routed.len(),
            remote as f64 / routed.len() as f64
        ));
    }

    // Where the time goes: each layer's share of total client latency.
    let total: f64 = requests
        .iter()
        .map(|r| r.latency_us as f64)
        .sum::<f64>()
        .max(1.0);
    let mut rows: HashMap<&'static str, f64> = HashMap::new();
    for timed in requests.iter().flat_map(|r| &r.spans) {
        let label = SPANS
            .iter()
            .find(|(name, _)| *name == timed.span.name)
            .map_or("other spans", |(_, label)| label);
        *rows.entry(label).or_default() += timed.self_us as f64 / total;
    }
    out.rank(
        &format!(
            "{} traced requests, share of client latency",
            requests.len()
        ),
        rows.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
    );
}

/// Span name and the ranked-table row its self time adds to.
const SPANS: [(&str, &str); 10] = [
    (
        "client_request",
        "levy_served.http (transport: connect, accept wait, read, write tail)",
    ),
    (
        "request",
        "levy_served.server (request self: parse, route, headers)",
    ),
    (
        "worker_exec",
        "levy_served.server (worker self: body render, cache put)",
    ),
    ("response_encode", "levy_served.server (response write)"),
    ("queue_wait", "levy_served.server (queue wait)"),
    ("cache_probe", "levy_served.cache (probe)"),
    ("simulate", "levy_served.engine (simulate)"),
    ("cluster_route", "levy_served.cluster (route self)"),
    ("peer_peek", "levy_served.cluster (peek hop)"),
    ("peer_forward", "levy_served.cluster (forward hop)"),
];

fn workload_tag(name: &str) -> u64 {
    levy_cluster::fnv1a_128(name.as_bytes()) as u64
}

/// `cold_mix`: one node; every query a fresh seed over four shapes.
struct ColdMix {
    seeds: SeedStream,
}

/// The four `cold_mix` shapes: E1 single walk, E6 optimal-exponent
/// parallel, E8 mixture search, E7 uniform-exponent parallel. Trial
/// counts give each shape about the same cost (~12 ms on one 2-core
/// host), so the latency distribution is one mode and its median does
/// not sit on the boundary between two shapes' costs.
pub const COLD_SHAPES: [(&str, &str); 4] = [
    (
        "e1_single_walk",
        r#""kind":"single_walk","alpha":2.5,"ell":32,"budget":800,"trials":800"#,
    ),
    (
        "e6_parallel_optimal",
        r#""kind":"parallel","strategy":"optimal","k":8,"ell":16,"budget":4000,"trials":40"#,
    ),
    (
        "e8_search_mixture",
        r#""kind":"search","strategy":"mixture:4","k":8,"ell":16,"budget":2000,"trials":55"#,
    ),
    (
        "e7_parallel_uniform",
        r#""kind":"parallel","strategy":"uniform","k":8,"ell":16,"budget":2000,"trials":30"#,
    ),
];

fn cold_call(shape: usize, rng: &mut SmallRng) -> Call {
    let (label, fields) = COLD_SHAPES[shape];
    Call {
        node: 0,
        prepared: Prepared::new(format!("{{{fields},\"seed\":{}}}", fresh_seed(rng))),
        wire: false,
        recompute: rng.gen_bool(RECOMPUTE_SHARE),
        label,
    }
}

impl Workload for ColdMix {
    const RATE: f64 = 40.0;

    fn new(seeds: SeedStream) -> ColdMix {
        ColdMix { seeds }
    }

    fn setup(
        &self,
        attempt: u64,
        _dir: PathBuf,
        trace_capacity: usize,
        out: &mut Outcome,
    ) -> Fleet {
        let fleet = Fleet::single(memory_cache(4096), trace_capacity);
        // Two of each shape before the first due time: jump tables,
        // thread pools and allocator arenas are warm when timing starts.
        let mut rng = self.seeds.child(5).child(attempt).rng();
        let calls: Vec<Call> = (0..8).map(|i| cold_call(i % 4, &mut rng)).collect();
        warm(&fleet, &calls, out);
        fleet
    }

    /// Shapes come in seeded-shuffled blocks of four, so every run sends
    /// the same mix and only the order varies with the seed.
    fn call(&self, rng: &mut SmallRng, i: usize) -> Call {
        let block = self.seeds.child(7).child((i / 4) as u64);
        cold_call(permutation(4, &mut block.rng())[i % 4], rng)
    }
}

const CHEAP: &str = r#""kind":"single_walk","alpha":2.5,"ell":8,"budget":200,"trials":20"#;

/// `n` distinct cheap keys and a seeded popularity order over them.
struct Keys {
    keys: Vec<Arc<Prepared>>,
    by_rank: Vec<usize>,
    zipf: Zipf,
}

impl Keys {
    fn new(seeds: SeedStream, n: usize) -> Keys {
        let mut rng = seeds.child(4).rng();
        Keys {
            keys: (0..n)
                .map(|_| Prepared::new(format!("{{{CHEAP},\"seed\":{}}}", fresh_seed(&mut rng))))
                .collect(),
            by_rank: permutation(n, &mut seeds.child(6).rng()),
            zipf: Zipf::new(n, 1.0),
        }
    }

    /// A key drawn by Zipf(1) popularity.
    fn draw(&self, rng: &mut SmallRng) -> &Arc<Prepared> {
        &self.keys[self.by_rank[self.zipf.sample(rng)]]
    }
}

/// `warm_zipf`: one node, a memory tier 8× smaller than the key universe
/// over a disk tier holding all of it; Zipf replays, half JSON, half
/// LW1 wire.
struct WarmZipf {
    keys: Keys,
}

const WARM_KEYS: usize = 1024;
const WARM_MEM: usize = 128;

impl Workload for WarmZipf {
    const RATE: f64 = 2000.0;

    fn new(seeds: SeedStream) -> WarmZipf {
        WarmZipf {
            keys: Keys::new(seeds, WARM_KEYS),
        }
    }

    fn setup(
        &self,
        _attempt: u64,
        dir: PathBuf,
        trace_capacity: usize,
        out: &mut Outcome,
    ) -> Fleet {
        let _ = std::fs::remove_dir_all(&dir);
        let fleet = Fleet::single(
            CacheConfig {
                mem_capacity: WARM_MEM,
                disk_capacity: WARM_KEYS,
                dir: Some(dir),
            },
            trace_capacity,
        );
        // Least popular first, so the memory tier ends holding the head
        // of the distribution, as it would in steady state.
        let calls: Vec<Call> = self
            .keys
            .by_rank
            .iter()
            .rev()
            .map(|&k| Call {
                node: 0,
                prepared: Arc::clone(&self.keys.keys[k]),
                wire: false,
                recompute: false,
                label: "warm_replay",
            })
            .collect();
        warm(&fleet, &calls, out);
        fleet
    }

    fn call(&self, rng: &mut SmallRng, _i: usize) -> Call {
        Call {
            node: 0,
            prepared: Arc::clone(self.keys.draw(rng)),
            wire: rng.gen_bool(0.5),
            recompute: false,
            label: "warm_replay",
        }
    }
}

/// `cluster_mix`: three nodes in one ring; Zipf replays of keys warmed at
/// their homes plus fresh cold keys, each entering at a seeded node.
struct ClusterMix {
    pool: Keys,
}

const NODES: usize = 3;
const POOL_KEYS: usize = 1024;
const COLD_SHARE: f64 = 0.2;
const CLUSTER_COLD: &str = r#""kind":"single_walk","alpha":2.5,"ell":32,"budget":800,"trials":50"#;

impl Workload for ClusterMix {
    const RATE: f64 = 200.0;

    fn new(seeds: SeedStream) -> ClusterMix {
        ClusterMix {
            pool: Keys::new(seeds, POOL_KEYS),
        }
    }

    fn setup(
        &self,
        _attempt: u64,
        _dir: PathBuf,
        trace_capacity: usize,
        out: &mut Outcome,
    ) -> Fleet {
        let fleet = Fleet::cluster(NODES, memory_cache(4096), trace_capacity);
        let addrs = fleet.addrs();
        let ring = HashRing::new(&addrs, 64).expect("benchmark ring");
        let calls: Vec<Call> = self
            .pool
            .keys
            .iter()
            .map(|p| {
                let home = ring.home(levy_cluster::key_from_hex(&p.key).expect("hex key"));
                Call {
                    node: addrs
                        .iter()
                        .position(|a| a == home)
                        .expect("home is a member"),
                    prepared: Arc::clone(p),
                    wire: false,
                    recompute: false,
                    label: "pool_warm",
                }
            })
            .collect();
        warm(&fleet, &calls, out);
        fleet
    }

    fn call(&self, rng: &mut SmallRng, _i: usize) -> Call {
        let node = rng.gen_range(0..NODES);
        if rng.gen_bool(COLD_SHARE) {
            return Call {
                node,
                prepared: Prepared::new(format!("{{{CLUSTER_COLD},\"seed\":{}}}", fresh_seed(rng))),
                wire: false,
                recompute: rng.gen_bool(RECOMPUTE_SHARE),
                label: "cold",
            };
        }
        Call {
            node,
            prepared: Arc::clone(self.pool.draw(rng)),
            wire: false,
            recompute: false,
            label: "pool_replay",
        }
    }

    /// No query may fall back to local simulation: every holder is up.
    fn verify(&self, fleet: &Fleet, out: &mut Outcome) {
        let fallbacks: u64 = fleet
            .servers
            .iter()
            .map(|s| s.stats().cluster_local_fallbacks.get())
            .sum();
        if fallbacks > 0 {
            out.fail(format!("cluster_local_fallbacks = {fallbacks}, expected 0"));
        }
    }
}

/// Runs the serving workload named in `config`.
pub fn run_named(config: &RunConfig, out: &mut Outcome) {
    match config.workload.as_str() {
        "cold_mix" => run::<ColdMix>(config, out),
        "warm_zipf" => run::<WarmZipf>(config, out),
        "cluster_mix" => run::<ClusterMix>(config, out),
        other => unreachable!("not a serving workload: {other}"),
    }
}
