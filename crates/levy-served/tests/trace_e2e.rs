//! End-to-end distributed tracing: a real `Server` on an ephemeral port,
//! queried over TCP with a client-minted `traceparent`, then inspected
//! through `GET /v1/traces/<id>`.
//!
//! Pins the PR's acceptance criteria:
//!
//! - a cold query yields **one connected span tree** containing at least
//!   `queue_wait`, `worker_exec`, `cache_probe`, `simulate`, and
//!   `response_encode`, with parent links and microsecond durations;
//! - the trace adopts the client's trace id and records its span as the
//!   remote parent;
//! - seeded response bodies are **byte-identical** with tracing fully
//!   off, fully on (`LEVY_TRACE` events), and with walk observers
//!   enabled — observability never touches an RNG stream.

use std::time::Duration;

use levy_obs::trace::{next_span_id, next_trace_id};
use levy_obs::SpanContext;
use levy_served::server::{Server, ServerConfig};
use levy_served::{CacheConfig, Client};
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

const QUERY: &str = r#"{"kind":"parallel","strategy":"optimal","k":8,"ell":16,
    "budget":4000,"trials":200,"seed":42}"#;

/// The root span finalizes *after* the response bytes hit the wire, so a
/// client that just received its response may be a few microseconds ahead
/// of the trace store: poll briefly.
fn fetch_trace(client: &Client, trace_id: &str) -> Json {
    for _ in 0..250 {
        let response = client
            .get(&format!("/v1/traces/{trace_id}"))
            .expect("trace endpoint reachable");
        if response.status == 200 {
            return Json::parse(&response.body_string()).expect("trace body is JSON");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("trace {trace_id} never appeared in /v1/traces");
}

fn span_names(trace: &Json) -> Vec<String> {
    trace
        .get("spans")
        .and_then(Json::as_array)
        .expect("spans array")
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap().to_owned())
        .collect()
}

fn find_span<'a>(trace: &'a Json, name: &str) -> &'a Json {
    trace
        .get("spans")
        .and_then(Json::as_array)
        .expect("spans array")
        .iter()
        .find(|s| s.get("name").unwrap().as_str() == Some(name))
        .unwrap_or_else(|| panic!("span {name} missing"))
}

#[test]
fn cold_query_yields_connected_span_tree() {
    let (server, client) = start(test_config());
    let ctx = SpanContext {
        trace_id: next_trace_id(),
        span_id: next_span_id(),
    };
    let traceparent = ctx.to_traceparent();
    let response = client
        .request_with_headers(
            "POST",
            "/v1/query",
            &[("traceparent", traceparent.as_str())],
            QUERY.as_bytes(),
        )
        .expect("request ok");
    assert_eq!(response.status, 200, "body: {}", response.body_string());
    assert_eq!(response.header("x-levy-cache"), Some("miss"));
    // The daemon adopted the client's trace id and echoes it.
    let echoed = response
        .header("x-levy-trace-id")
        .expect("X-Levy-Trace-Id header");
    assert_eq!(echoed, ctx.trace_id.to_string());

    let trace = fetch_trace(&client, echoed);
    assert_eq!(
        trace.get("schema").unwrap().as_str(),
        Some("levy-served/trace-v1")
    );
    assert_eq!(trace.get("status").unwrap().as_u64(), Some(200));
    assert_eq!(
        trace.get("remote_parent").unwrap().as_str(),
        Some(ctx.span_id.to_string().as_str()),
        "client span recorded as the remote parent"
    );

    // The acceptance span set, all present in one trace.
    let names = span_names(&trace);
    for required in [
        "request",
        "cache_probe",
        "queue_wait",
        "worker_exec",
        "simulate",
        "response_encode",
    ] {
        assert!(
            names.contains(&required.to_owned()),
            "missing {required} in {names:?}"
        );
    }

    // Parent links form one connected tree rooted at `request`.
    let spans = trace.get("spans").and_then(Json::as_array).unwrap();
    let root = find_span(&trace, "request");
    assert!(root.get("parent_id").is_none(), "root has no parent");
    let root_id = root.get("span_id").unwrap().as_str().unwrap();
    for span in spans {
        let name = span.get("name").unwrap().as_str().unwrap();
        if name == "request" {
            continue;
        }
        let parent = span
            .get("parent_id")
            .and_then(Json::as_str)
            .unwrap_or_else(|| panic!("{name} has no parent link"));
        assert!(
            spans
                .iter()
                .any(|s| s.get("span_id").unwrap().as_str() == Some(parent)),
            "{name}'s parent resolves within the trace"
        );
        // Durations are present and in microseconds (u64).
        assert!(
            span.get("dur_us").unwrap().as_u64().is_some(),
            "{name} dur_us"
        );
    }
    for direct_child in [
        "cache_probe",
        "queue_wait",
        "worker_exec",
        "response_encode",
    ] {
        assert_eq!(
            find_span(&trace, direct_child)
                .get("parent_id")
                .unwrap()
                .as_str(),
            Some(root_id),
            "{direct_child} hangs off the request root"
        );
    }
    let exec_id = find_span(&trace, "worker_exec")
        .get("span_id")
        .unwrap()
        .as_str()
        .unwrap();
    assert_eq!(
        find_span(&trace, "simulate")
            .get("parent_id")
            .unwrap()
            .as_str(),
        Some(exec_id),
        "simulate nests under worker_exec"
    );
    assert_eq!(
        find_span(&trace, "cache_probe")
            .get("tags")
            .and_then(|t| t.get("outcome"))
            .and_then(Json::as_str),
        Some("miss")
    );
    // The root's duration covers the whole exchange (simulation included).
    let root_dur = root.get("dur_us").unwrap().as_u64().unwrap();
    let sim_dur = find_span(&trace, "simulate")
        .get("dur_us")
        .unwrap()
        .as_u64()
        .unwrap();
    assert!(
        root_dur >= sim_dur,
        "root {root_dur}us >= simulate {sim_dur}us"
    );
    server.shutdown();
}

#[test]
fn warm_query_trace_shows_cache_hit_without_worker_spans() {
    let (server, client) = start(test_config());
    let cold = client.post("/v1/query", QUERY).expect("cold ok");
    assert_eq!(cold.status, 200);
    let warm = client.post("/v1/query", QUERY).expect("warm ok");
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-levy-cache"), Some("hit"));
    let warm_id = warm.header("x-levy-trace-id").expect("trace id");
    let trace = fetch_trace(&client, warm_id);
    let names = span_names(&trace);
    assert!(names.contains(&"cache_probe".to_owned()));
    assert_eq!(
        find_span(&trace, "cache_probe")
            .get("tags")
            .and_then(|t| t.get("outcome"))
            .and_then(Json::as_str),
        Some("hit")
    );
    assert!(
        !names.contains(&"worker_exec".to_owned()) && !names.contains(&"queue_wait".to_owned()),
        "a cache hit never reaches the queue: {names:?}"
    );

    // Both exchanges appear in the listing, newest first.
    let listing = client.get("/v1/traces").expect("listing ok");
    assert_eq!(listing.status, 200);
    let listing = Json::parse(&listing.body_string()).expect("JSON");
    assert!(listing.get("count").unwrap().as_u64().unwrap() >= 2);
    let traces = listing.get("traces").and_then(Json::as_array).unwrap();
    assert!(traces
        .iter()
        .any(|t| t.get("trace_id").unwrap().as_str() == Some(warm_id)));
    server.shutdown();
}

#[test]
fn unknown_trace_ids_return_404() {
    let (server, client) = start(test_config());
    for bad in ["deadbeef", "00000000000000000000000000000000"] {
        let response = client
            .get(&format!("/v1/traces/{bad}"))
            .expect("endpoint reachable");
        assert_eq!(response.status, 404, "{bad}");
    }
    server.shutdown();
}

/// Seeded bodies must be byte-identical with tracing fully off, fully on
/// (JSONL events draining to stderr), and with walk-level observers
/// recording sketches — the determinism invariant of the whole PR.
#[test]
fn bodies_byte_identical_with_tracing_and_observers_toggled() {
    let run_once = || {
        let (server, client) = start(test_config());
        let response = client.post("/v1/query", QUERY).expect("request ok");
        assert_eq!(response.status, 200, "body: {}", response.body_string());
        let body = response.body_string();
        server.shutdown();
        body
    };
    levy_obs::set_trace_enabled(false);
    levy_obs::set_observers_enabled(false);
    let quiet = run_once();
    levy_obs::set_trace_enabled(true);
    let traced = run_once();
    levy_obs::set_observers_enabled(true);
    let observed = run_once();
    levy_obs::set_trace_enabled(false);
    levy_obs::set_observers_enabled(false);
    assert_eq!(quiet, traced, "tracing must not perturb seeded bodies");
    assert_eq!(quiet, observed, "observers must not perturb seeded bodies");
}
