//! End-to-end tests: a real `Server` on an ephemeral port, exercised
//! through the real `Client` over TCP.
//!
//! These pin the acceptance criteria for the service: an E6-style query
//! answered over HTTP, byte-identical cache replays, N concurrent
//! identical cold queries costing exactly one simulation, determinism
//! across worker/thread configurations and cache tiers, backpressure,
//! deadline behaviour, and the connection threads: blocking accept,
//! growth past the parked set, and prompt shutdown.

use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use levy_served::server::{Server, ServerConfig, ACCEPTORS};
use levy_served::{CacheConfig, Client, FaultPlan};
use levy_sim::Json;

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        sim_threads: 2,
        queue_capacity: 32,
        cache: CacheConfig {
            mem_capacity: 64,
            disk_capacity: 0,
            dir: None,
        },
        default_timeout_ms: 60_000,
        quiet: true,
        ..ServerConfig::default()
    }
}

fn start(config: ServerConfig) -> (Server, Client) {
    let server = Server::start(config).expect("server starts");
    let client = Client::new(&server.addr().to_string()).with_timeout(Duration::from_secs(120));
    (server, client)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("levy-served-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// An E6-style query: k parallel walkers, optimal mixed exponent
/// strategy, hit probability within budget Θ(ℓ² log ℓ / k).
const E6_QUERY: &str = r#"{"kind":"parallel","strategy":"optimal","k":8,"ell":16,
    "budget":4000,"trials":300,"seed":42}"#;

/// Heavy enough that concurrent clients attach while it is in flight.
const SLOW_QUERY: &str = r#"{"kind":"single_walk","alpha":2.0,"ell":1000000,
    "budget":20000,"trials":2000,"seed":7}"#;

#[test]
fn serves_an_e6_style_query_over_http() {
    let (server, client) = start(test_config());
    let response = client.post("/v1/query", E6_QUERY).expect("request ok");
    assert_eq!(response.status, 200, "body: {}", response.body_string());
    assert_eq!(response.header("x-levy-cache"), Some("miss"));
    let body = Json::parse(&response.body_string()).expect("JSON body");
    assert_eq!(
        body.get("schema").unwrap().as_str(),
        Some("levy-served/result-v1")
    );
    let result = body.get("result").expect("result");
    assert_eq!(result.get("mode").unwrap().as_str(), Some("summary"));
    assert_eq!(result.get("trials").unwrap().as_u64(), Some(300));
    let rate = result.get("hit_rate").unwrap().as_f64().unwrap();
    assert!((0.0..=1.0).contains(&rate));
    // The canonical query is echoed, with the strategy normalized.
    let echoed = body.get("query").unwrap();
    assert_eq!(echoed.get("strategy").unwrap().as_str(), Some("optimal"));
    server.shutdown();
}

#[test]
fn repeated_query_replays_identical_bytes_from_cache() {
    let (server, client) = start(test_config());
    let cold = client.post("/v1/query", E6_QUERY).expect("cold ok");
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-levy-cache"), Some("miss"));
    let cached = client.post("/v1/query", E6_QUERY).expect("cached ok");
    assert_eq!(cached.status, 200);
    assert_eq!(cached.header("x-levy-cache"), Some("hit"));
    assert_eq!(cached.header("x-levy-cache-tier"), Some("memory"));
    assert_eq!(cold.body, cached.body, "cache must replay exact bytes");
    assert_eq!(
        server.stats().simulations_started.get(),
        1,
        "the cached reply must not re-simulate"
    );
    // Reordered fields and explicit defaults canonicalize to the same key.
    let reordered = r#"{"seed":42,"trials":300,"ell":16,"k":8,
        "strategy":"optimal","budget":4000,"kind":"parallel","placement":"random"}"#;
    let same = client.post("/v1/query", reordered).expect("reordered ok");
    assert_eq!(same.header("x-levy-cache"), Some("hit"));
    assert_eq!(same.body, cold.body);
    server.shutdown();
}

#[test]
fn concurrent_identical_cold_queries_simulate_once() {
    let (server, client) = start(test_config());
    let n = 8;
    let barrier = Arc::new(Barrier::new(n));
    let handles: Vec<_> = (0..n)
        .map(|_| {
            let client = client.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                client.post("/v1/query", SLOW_QUERY).expect("request ok")
            })
        })
        .collect();
    let responses: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let first = &responses[0];
    assert_eq!(first.status, 200, "body: {}", first.body_string());
    for response in &responses {
        assert_eq!(response.status, 200);
        assert_eq!(response.body, first.body, "all waiters share one result");
    }
    assert_eq!(
        server.stats().simulations_started.get(),
        1,
        "N identical cold queries must run the simulation exactly once"
    );
    let coalesced = server.stats().coalesced.get();
    let hits = server.stats().cache_hits.get();
    assert_eq!(
        coalesced + hits,
        (n as u64) - 1,
        "everyone but the owner coalesced or hit the cache"
    );
    server.shutdown();
}

#[test]
fn bodies_identical_across_thread_counts_and_cache_tiers() {
    let dir = temp_dir("tiers");
    let disk_cache = CacheConfig {
        mem_capacity: 16,
        disk_capacity: 64,
        dir: Some(dir.clone()),
    };

    // Cold, 1 simulation thread.
    let (one, client) = start(ServerConfig {
        sim_threads: 1,
        cache: disk_cache.clone(),
        ..test_config()
    });
    let body_one = client.post("/v1/query", E6_QUERY).expect("ok");
    assert_eq!(body_one.header("x-levy-cache"), Some("miss"));
    one.shutdown();

    // Cold in memory, warm on disk, 4 simulation threads: the disk tier
    // written by the 1-thread server must satisfy this query.
    let (four, client) = start(ServerConfig {
        sim_threads: 4,
        cache: disk_cache,
        ..test_config()
    });
    let body_four = client.post("/v1/query", E6_QUERY).expect("ok");
    assert_eq!(body_four.header("x-levy-cache"), Some("hit"));
    assert_eq!(body_four.header("x-levy-cache-tier"), Some("disk"));
    assert_eq!(
        body_one.body, body_four.body,
        "disk replay equals a 1-thread cold run"
    );
    // And a genuinely cold 4-thread run (cache disabled) agrees too.
    let (cold4, client) = start(ServerConfig {
        sim_threads: 4,
        cache: CacheConfig {
            mem_capacity: 0,
            disk_capacity: 0,
            dir: None,
        },
        ..test_config()
    });
    let body_cold4 = client.post("/v1/query", E6_QUERY).expect("ok");
    assert_eq!(body_cold4.header("x-levy-cache"), Some("miss"));
    assert_eq!(
        body_one.body, body_cold4.body,
        "simulation is deterministic across sim thread counts"
    );
    cold4.shutdown();
    four.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn adaptive_queries_report_trials_used_over_http() {
    let (server, client) = start(test_config());
    let query = r#"{"kind":"single_walk","alpha":2.2,"ell":4,"budget":400,
        "precision":{"absolute":0.05,"relative":0.5,"max_trials":4096},"seed":5}"#;
    let response = client.post("/v1/query", query).expect("ok");
    assert_eq!(response.status, 200, "body: {}", response.body_string());
    let body = Json::parse(&response.body_string()).unwrap();
    let result = body.get("result").unwrap();
    assert_eq!(result.get("mode").unwrap().as_str(), Some("adaptive"));
    assert!(result.get("trials_used").unwrap().as_u64().unwrap() >= 256);
    assert!(result.get("batches").unwrap().as_u64().unwrap() >= 1);
    server.shutdown();
}

#[test]
fn full_queue_rejects_with_retry_after() {
    let (server, client) = start(ServerConfig {
        queue_capacity: 0,
        ..test_config()
    });
    let response = client.post("/v1/query", E6_QUERY).expect("request ok");
    assert_eq!(response.status, 503);
    assert_eq!(response.header("retry-after"), Some("1"));
    assert_eq!(server.stats().rejected_queue_full.get(), 1);
    server.shutdown();
}

#[test]
fn deadline_expiry_returns_504_and_cancels_the_job() {
    let (server, client) = start(test_config());
    let query = r#"{"kind":"single_walk","alpha":2.0,"ell":1000000,
        "budget":50000,"trials":50000,"seed":9,"timeout_ms":1}"#;
    let response = client.post("/v1/query", query).expect("request ok");
    assert_eq!(response.status, 504);
    assert_eq!(server.stats().wait_timeouts.get(), 1);
    // The abandoned job is cancelled (either before or mid-run); wait
    // for the worker to retire it.
    for _ in 0..400 {
        if server.stats().simulations_cancelled.get() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(
        server.stats().simulations_cancelled.get(),
        1,
        "abandoned work must be cancelled, not run to completion"
    );
    server.shutdown();
}

#[test]
fn invalid_requests_are_rejected_cleanly() {
    let (server, client) = start(test_config());
    for (body, expect) in [
        ("not json", 400),
        (r#"{"kind":"parallel"}"#, 400),
        (
            r#"{"kind":"parallel","alpha":2.5,"k":4,"ell":8,"budget":100,"trials":10,"bogus":1}"#,
            400,
        ),
        (
            r#"{"kind":"parallel","alpha":0.5,"k":4,"ell":8,"budget":100,"trials":10}"#,
            400,
        ),
    ] {
        let response = client.post("/v1/query", body).expect("request ok");
        assert_eq!(response.status, expect, "body: {body}");
        let parsed = Json::parse(&response.body_string()).unwrap();
        assert!(parsed.get("error").is_some());
    }
    let response = client.get("/nope").expect("ok");
    assert_eq!(response.status, 404);
    server.shutdown();
}

/// Scrapes `/metrics` once `query_responses` `POST /v1/query` 200s are
/// recorded. A handler records its response only after writing it, so a
/// client that has just read a response can scrape ahead of that record:
/// poll briefly.
fn scrape_once_recorded(client: &Client, query_responses: u64) -> String {
    let series = r#"levy_served_http_responses_total{path="/v1/query",status="200"}"#;
    let mut text = String::new();
    for _ in 0..250 {
        text = client.get("/metrics").expect("metrics ok").body_string();
        if sample(&text, series) >= Some(query_responses) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    text
}

/// Pulls the value of an unlabeled counter/gauge sample out of a
/// Prometheus exposition body.
fn sample(text: &str, name: &str) -> Option<u64> {
    text.lines().find_map(|line| {
        let (sample_name, value) = line.split_once(' ')?;
        (sample_name == name).then(|| value.parse().ok())?
    })
}

#[test]
fn metrics_exposition_covers_every_layer_and_tracks_the_cache() {
    let (server, client) = start(test_config());

    // Cold miss, then a cache hit for the identical query.
    let cold = client.post("/v1/query", E6_QUERY).expect("cold ok");
    assert_eq!(cold.header("x-levy-cache"), Some("miss"));
    let scrape = client.get("/metrics").expect("metrics ok");
    assert_eq!(scrape.status, 200);
    assert!(scrape
        .header("content-type")
        .is_some_and(|t| t.starts_with("text/plain")));
    let before = scrape.body_string();

    let warm = client.post("/v1/query", E6_QUERY).expect("warm ok");
    assert_eq!(warm.header("x-levy-cache"), Some("hit"));
    let after = scrape_once_recorded(&client, 2);

    // Exposition shape: every non-comment line is `name[{labels}] value`,
    // every comment is HELP or TYPE.
    let mut families = std::collections::HashSet::new();
    for line in after.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            families.insert(rest.split(' ').next().unwrap().to_owned());
        } else if !line.starts_with('#') {
            let (_, value) = line.rsplit_once(' ').expect("sample line");
            assert!(
                value.parse::<i64>().is_ok() || value.parse::<f64>().is_ok(),
                "unparseable sample: {line}"
            );
        }
    }
    assert!(
        families.len() >= 12,
        "want >= 12 metric families, got {}: {families:?}",
        families.len()
    );
    // Families span every instrumented layer: HTTP serving, queue,
    // result cache, runner, and jump sampler.
    for name in [
        "levy_served_http_requests_total",
        "levy_served_http_request_duration_us",
        "levy_served_queue_depth",
        "levy_served_workers_busy",
        "levy_served_cache_mem_hits_total",
        "levy_served_engine_execute_duration_us",
        "levy_sim_trials_started_total",
        "levy_sim_trial_steps",
        "levy_rng_table_draws_total",
    ] {
        assert!(families.contains(name), "missing family {name}");
    }

    // Counters move across the cold-miss → cache-hit pair.
    let hits_before = sample(&before, "levy_served_cache_hits_total").unwrap();
    let hits_after = sample(&after, "levy_served_cache_hits_total").unwrap();
    assert_eq!(hits_before, 0);
    assert_eq!(hits_after, 1, "the warm request was a cache hit");
    assert_eq!(
        sample(&after, "levy_served_simulations_completed_total"),
        Some(1),
        "one simulation serves both requests"
    );
    let requests = sample(&after, "levy_served_http_requests_total").unwrap();
    assert!(requests >= 3, "cold + scrape + warm, got {requests}");
    assert!(
        sample(&after, "levy_sim_trials_completed_total").unwrap()
            >= sample(&before, "levy_sim_trials_completed_total").unwrap(),
        "runner counters are monotone"
    );
    // Labeled per-endpoint series exist for the query route.
    assert!(after.contains("levy_served_http_responses_total{path=\"/v1/query\",status=\"200\"}"));
    server.shutdown();
}

#[test]
fn health_stats_and_shutdown_endpoints_work() {
    let (server, client) = start(test_config());
    let health = client.get("/healthz").expect("ok");
    assert_eq!(health.status, 200);
    let _ = client.post("/v1/query", E6_QUERY).expect("ok");
    let stats = client.get("/v1/stats").expect("ok");
    assert_eq!(stats.status, 200);
    let body = Json::parse(&stats.body_string()).unwrap();
    assert_eq!(
        body.get("counters")
            .unwrap()
            .get("simulations_completed")
            .unwrap()
            .as_u64(),
        Some(1)
    );
    assert!(body.get("cache").is_some());
    let shutdown = client.post("/v1/shutdown", "").expect("ok");
    assert_eq!(shutdown.status, 202);
    assert!(server.shutdown_requested());
    server.shutdown();
}

/// Runs `server.shutdown()` on its own thread and fails the test if it
/// has not returned within `limit`, so a missed wake-up is a failure
/// rather than a hung test.
fn shutdown_within(server: Server, limit: Duration) {
    let (done_tx, done_rx) = mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown();
        let _ = done_tx.send(());
    });
    done_rx
        .recv_timeout(limit)
        .unwrap_or_else(|_| panic!("shutdown did not return within {limit:?}"));
}

#[test]
fn idle_shutdown_is_prompt_on_every_bind_form() {
    // `0.0.0.0` exercises the unspecified-to-loopback mapping of the
    // shutdown wake connection.
    for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
        let server = Server::start(ServerConfig {
            addr: bind.into(),
            ..test_config()
        })
        .expect("server starts");
        let addr = server.addr();
        // Idle well past any accept spin budget: every connection thread
        // is parked in a blocking `accept`.
        std::thread::sleep(Duration::from_millis(100));
        shutdown_within(server, Duration::from_secs(2));
        // Every parked thread was woken and the listener closed: the
        // same address binds again at once.
        TcpListener::bind(addr)
            .unwrap_or_else(|e| panic!("{bind}: {addr} still bound after shutdown: {e}"));
    }
}

#[test]
fn shutdown_releases_the_address_while_a_connection_is_still_open() {
    // The silent client outlives shutdown's 5 s grace for open
    // connections, so its thread still runs when `shutdown` returns;
    // the listener must be closed all the same.
    let server = Server::start(ServerConfig {
        read_timeout_ms: 30_000,
        ..test_config()
    })
    .expect("server starts");
    let addr = server.addr();
    let silent = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(100));
    shutdown_within(server, Duration::from_secs(8));
    TcpListener::bind(addr).unwrap_or_else(|e| panic!("{addr} still bound after shutdown: {e}"));
    drop(silent);
}

#[test]
fn silent_connections_beyond_the_parked_threads_do_not_block_service() {
    let server = Server::start(ServerConfig {
        read_timeout_ms: 500,
        ..test_config()
    })
    .expect("server starts");
    assert_eq!(server.stats().connection_threads.get(), ACCEPTORS as i64);
    // More silent clients than parked connection threads: each one ties
    // up a thread until its read deadline.
    let silent: Vec<TcpStream> = (0..ACCEPTORS + 2)
        .map(|_| {
            let stream = TcpStream::connect(server.addr()).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("client read timeout");
            stream
        })
        .collect();
    let client = Client::new(&server.addr().to_string()).with_timeout(Duration::from_secs(1));
    let asked = Instant::now();
    let health = client.get("/healthz").expect("healthz answered");
    assert_eq!(health.status, 200);
    // Answered well before the silent clients' read deadline, so a
    // connection thread was spawned for it rather than freed by a 408.
    let waited = asked.elapsed();
    assert!(
        waited < Duration::from_millis(400),
        "healthz took {waited:?}"
    );
    for mut stream in silent {
        let mut reply = String::new();
        let _ = stream.read_to_string(&mut reply);
        assert!(reply.starts_with("HTTP/1.1 408"), "reply: {reply:?}");
    }
    // Idle again: the threads beyond the parked set exit.
    let deadline = Instant::now() + Duration::from_secs(2);
    while server.stats().connection_threads.get() != ACCEPTORS as i64 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().connection_threads.get(), ACCEPTORS as i64);
    shutdown_within(server, Duration::from_secs(2));
}

#[test]
fn shutdown_with_a_silent_client_still_connected_is_prompt() {
    let server = Server::start(ServerConfig {
        read_timeout_ms: 300,
        ..test_config()
    })
    .expect("server starts");
    let mut silent = TcpStream::connect(server.addr()).expect("connect");
    silent
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("client read timeout");
    // Let a connection thread accept it.
    std::thread::sleep(Duration::from_millis(200));
    shutdown_within(server, Duration::from_secs(2));
    // The connection accepted before shutdown is still answered: its
    // handler hits the read deadline and replies 408.
    let mut reply = String::new();
    let _ = silent.read_to_string(&mut reply);
    assert!(reply.starts_with("HTTP/1.1 408"), "reply: {reply:?}");
}

#[test]
fn shutdown_wake_connection_claims_no_fault_index() {
    // Connection 0 loses its socket after 16 request bytes. The node is
    // shut down with no client ever connecting, then restarted on the
    // same address and the same plan (the harness's kill/restart): if
    // the shutdown wake had been counted, connection 0 would be spent.
    let plan = Arc::new(FaultPlan::parse("socket_read_error@conn=0,after=16").expect("plan"));
    let first = Server::start(ServerConfig {
        faults: Some(Arc::clone(&plan)),
        ..test_config()
    })
    .expect("server starts");
    let addr = first.addr().to_string();
    shutdown_within(first, Duration::from_secs(2));

    let (server, client) = start(ServerConfig {
        addr,
        faults: Some(plan),
        ..test_config()
    });
    let torn = client
        .post("/v1/query", E6_QUERY)
        .expect("response still sent");
    assert_eq!(
        torn.status, 400,
        "the first real connection is connection 0"
    );
    assert_eq!(server.stats().io_read_errors.get(), 1);
    let clean = client.post("/v1/query", E6_QUERY).expect("clean ok");
    assert_eq!(clean.status, 200, "body: {}", clean.body_string());
    shutdown_within(server, Duration::from_secs(10));
}
