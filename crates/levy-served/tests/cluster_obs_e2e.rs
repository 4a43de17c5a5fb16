//! End-to-end cluster observability: federated metrics, cross-node trace
//! assembly, and the structured event journal, driven through the
//! deterministic in-process harness.
//!
//! Pins the PR's acceptance criteria:
//!
//! - a cold forwarded query yields **one stitched span tree** from
//!   `GET /v1/traces/<id>?scope=cluster` on the entry node, with parent
//!   links intact across the forwarding hop;
//! - `GET /v1/cluster/metrics` from *any* node reports exactly one
//!   cluster-wide simulation for N identical queries through different
//!   entry nodes;
//! - killing a peer degrades the federated scrape (HTTP 200 with an
//!   `unreachable` annotation and `levy_cluster_scrape_up 0`) instead of
//!   turning it into an error;
//! - a membership admission shows up as a `peer_admitted` event in
//!   `GET /v1/events` on every old node;
//! - seeded response bodies are byte-identical with the journal enabled
//!   and disabled.

mod harness;

use std::time::Duration;

use harness::TestCluster;
use levy_served::server::{Server, ServerConfig};
use levy_served::{CacheConfig, Client};
use levy_sim::Json;

/// Value of an unlabelled scalar series in a Prometheus exposition.
fn scalar_value(body: &str, name: &str) -> Option<f64> {
    body.lines()
        .find_map(|line| line.strip_prefix(name).and_then(|r| r.strip_prefix(' ')))
        .and_then(|value| value.trim().parse().ok())
}

/// Value of `name{node="<node>"}` in a `?by=node` federated exposition.
fn node_value(body: &str, name: &str, node: &str) -> Option<f64> {
    let prefix = format!("{name}{{node=\"{node}\"}} ");
    body.lines()
        .find_map(|line| line.strip_prefix(prefix.as_str()))
        .and_then(|value| value.trim().parse().ok())
}

fn spans(trace: &Json) -> &[Json] {
    trace
        .get("spans")
        .and_then(Json::as_array)
        .expect("spans array")
}

fn span_str<'a>(span: &'a Json, key: &str) -> Option<&'a str> {
    span.get(key).and_then(Json::as_str)
}

/// Polls the entry node's cluster-scoped trace until both fragments have
/// finished (the home node's root span finalizes after its response hits
/// the wire, a few microseconds behind the client).
fn fetch_stitched(client: &Client, trace_id: &str, want_nodes: usize) -> Json {
    for _ in 0..500 {
        let response = client
            .get(&format!("/v1/traces/{trace_id}?scope=cluster"))
            .expect("cluster trace endpoint reachable");
        if response.status == 200 {
            let trace = Json::parse(&response.body_string()).expect("trace body is JSON");
            let nodes = trace.get("nodes").and_then(Json::as_array).expect("nodes");
            if nodes.len() >= want_nodes {
                return trace;
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("stitched trace {trace_id} never assembled {want_nodes} fragments");
}

#[test]
fn forwarded_query_stitches_one_cluster_trace() {
    let cluster = TestCluster::start(2);
    cluster.probe_all();
    let (body, key) = cluster.seed_homed_on(1);
    assert_eq!(cluster.home_index(&key), 1);

    // Cold query through the *non-home* entry: node 0 forwards to node 1.
    let response = cluster
        .client(0)
        .post("/v1/query", &body)
        .expect("query ok");
    assert_eq!(response.status, 200, "body: {}", response.body_string());
    let trace_id = response
        .header("x-levy-trace-id")
        .expect("trace id header")
        .to_owned();
    // The home's peek fragment can finish well before its forwarded
    // query's fragment; wait for the latter so the stitch holds both.
    cluster.await_span(1, &trace_id, "simulate");

    let trace = fetch_stitched(&cluster.client(0), &trace_id, 2);
    assert_eq!(
        trace.get("schema").unwrap().as_str(),
        Some("levy-served/trace-cluster-v1")
    );
    assert_eq!(trace.get("scope").unwrap().as_str(), Some("cluster"));
    assert_eq!(trace.get("status").unwrap().as_u64(), Some(200));
    let nodes = trace.get("nodes").and_then(Json::as_array).unwrap();
    for addr in &cluster.addrs()[..2] {
        assert!(
            nodes.iter().any(|n| n.as_str() == Some(addr)),
            "{addr} contributed a fragment: {nodes:?}"
        );
    }

    // One tree: exactly one parentless span, every parent link resolves
    // in-pool, and no synthetic `remote` placeholder was needed.
    let pool = spans(&trace);
    let roots: Vec<&Json> = pool
        .iter()
        .filter(|s| s.get("parent_id").is_none())
        .collect();
    assert_eq!(roots.len(), 1, "one stitched tree, not a forest");
    assert_eq!(span_str(roots[0], "name"), Some("request"));
    assert_eq!(
        span_str(roots[0], "node"),
        Some(cluster.addrs()[0].as_str())
    );
    for span in pool {
        if let Some(parent) = span_str(span, "parent_id") {
            assert!(
                pool.iter().any(|s| span_str(s, "span_id") == Some(parent)),
                "{}'s parent resolves within the stitched pool",
                span_str(span, "name").unwrap_or("?")
            );
        }
    }
    assert!(
        !pool
            .iter()
            .any(|s| span_str(s, "span_id") == Some("remote")),
        "a clean forward needs no synthetic remote span"
    );

    // The forwarding hop kept parent links intact: the home node's
    // request span hangs off the entry node's peer_forward span, and the
    // simulate span (home side) walks all the way up to the entry root.
    let forward = pool
        .iter()
        .find(|s| span_str(s, "name") == Some("peer_forward"))
        .expect("entry node recorded the forward");
    assert_eq!(span_str(forward, "node"), Some(cluster.addrs()[0].as_str()));
    let simulate = pool
        .iter()
        .find(|s| span_str(s, "name") == Some("simulate"))
        .expect("home node recorded the simulation");
    assert_eq!(
        span_str(simulate, "node"),
        Some(cluster.addrs()[1].as_str()),
        "the simulation ran on the home node"
    );
    let mut cursor = simulate;
    let mut hops = 0;
    while let Some(parent) = span_str(cursor, "parent_id") {
        cursor = pool
            .iter()
            .find(|s| span_str(s, "span_id") == Some(parent))
            .expect("ancestor in pool");
        hops += 1;
        assert!(hops < 64, "parent chain terminates");
    }
    assert_eq!(
        span_str(cursor, "span_id"),
        span_str(roots[0], "span_id"),
        "simulate's ancestry crosses the hop and reaches the entry root"
    );
    cluster.shutdown();
}

#[test]
fn federated_metrics_count_one_cluster_wide_simulation() {
    let cluster = TestCluster::start(3);
    cluster.probe_all();
    let (body, _key) = cluster.seed_homed_on(2);

    // The same query through three different entry nodes: one node
    // simulates, the others answer via peek/forward/local cache.
    for i in 0..3 {
        let response = cluster
            .client(i)
            .post("/v1/query", &body)
            .expect("query ok");
        assert_eq!(
            response.status,
            200,
            "entry {i}: {}",
            response.body_string()
        );
    }
    assert!(cluster.settle_all(Duration::from_secs(10)));
    assert_eq!(cluster.total_simulations(), 1, "harness ground truth");

    // Every node's federated view agrees: exactly 1 simulation started
    // cluster-wide, and every member answered the scrape.
    for i in 0..3 {
        let response = cluster
            .client(i)
            .get("/v1/cluster/metrics")
            .expect("federated scrape ok");
        assert_eq!(response.status, 200);
        assert!(response
            .header("content-type")
            .is_some_and(|ct| ct.starts_with("text/plain")));
        let text = response.body_string();
        assert_eq!(
            scalar_value(&text, "levy_served_simulations_started_total"),
            Some(1.0),
            "entry {i} reports one cluster-wide simulation"
        );
        // 3 client entries + the forwarded hop the cold query took to
        // reach its home node.
        assert_eq!(
            scalar_value(&text, "levy_served_queries_total"),
            Some(4.0),
            "entry {i} sums the members' query counters"
        );
        for addr in cluster.addrs() {
            assert_eq!(
                node_value(&text, "levy_cluster_scrape_up", addr),
                Some(1.0),
                "entry {i}: {addr} answered"
            );
        }
    }

    // `?by=node` keeps the per-node breakdown: the home simulated once,
    // the other two members report zero.
    let by_node = cluster
        .client(0)
        .get("/v1/cluster/metrics?by=node")
        .expect("by-node scrape ok");
    assert_eq!(by_node.status, 200);
    let text = by_node.body_string();
    let per_node: Vec<f64> = cluster
        .addrs()
        .iter()
        .map(|addr| {
            node_value(&text, "levy_served_simulations_started_total", addr)
                .unwrap_or_else(|| panic!("{addr} series present in by-node view"))
        })
        .collect();
    assert_eq!(per_node.iter().sum::<f64>(), 1.0);
    assert_eq!(per_node.iter().filter(|v| **v == 1.0).count(), 1);
    cluster.shutdown();
}

#[test]
fn dead_peer_degrades_federated_scrape_instead_of_erroring() {
    let mut cluster = TestCluster::start(3);
    cluster.probe_all();
    let dead = cluster.addrs()[2].clone();
    cluster.kill(2);

    let response = cluster
        .client(0)
        .get("/v1/cluster/metrics")
        .expect("scrape survives a dead peer");
    assert_eq!(response.status, 200, "degraded, never an error");
    let text = response.body_string();
    assert_eq!(
        node_value(&text, "levy_cluster_scrape_up", &dead),
        Some(0.0),
        "the dead peer is flagged down"
    );
    for addr in &cluster.addrs()[..2] {
        assert_eq!(
            node_value(&text, "levy_cluster_scrape_up", addr),
            Some(1.0),
            "{addr} still answers"
        );
    }
    let annotation = text
        .lines()
        .find(|line| line.starts_with(&format!("# levy-cluster: node {dead} ")))
        .expect("trailing annotation names the dead peer");
    assert!(
        annotation.contains("unreachable"),
        "annotation says why: {annotation}"
    );
    // Live members' series still merge.
    assert!(scalar_value(&text, "levy_served_queries_total").is_some());
    cluster.shutdown();
}

/// Events a node's journal currently holds, via `GET /v1/events`.
fn fetch_events(client: &Client) -> Json {
    let response = client.get("/v1/events").expect("events endpoint ok");
    assert_eq!(response.status, 200);
    let body = Json::parse(&response.body_string()).expect("events JSON");
    assert_eq!(
        body.get("schema").unwrap().as_str(),
        Some("levy-served/events-v1")
    );
    body
}

fn events_of_kind<'a>(body: &'a Json, kind: &str) -> Vec<&'a Json> {
    body.get("events")
        .and_then(Json::as_array)
        .expect("events array")
        .iter()
        .filter(|e| e.get("kind").and_then(Json::as_str) == Some(kind))
        .collect()
}

#[test]
fn admission_appears_in_every_old_nodes_journal() {
    let mut cluster = TestCluster::start(3);
    cluster.probe_all();
    let new_index = cluster.admit();
    let new_addr = cluster.addrs()[new_index].clone();

    for i in 0..3 {
        let body = fetch_events(&cluster.client(i));
        assert_eq!(body.get("enabled").unwrap().as_bool(), Some(true));
        let admitted = events_of_kind(&body, "peer_admitted");
        assert!(
            admitted.iter().any(|e| e
                .get("fields")
                .and_then(|f| f.get("peer"))
                .and_then(Json::as_str)
                == Some(new_addr.as_str())),
            "node {i} journaled the admission of {new_addr}"
        );
        let epochs = events_of_kind(&body, "ring_epoch");
        assert!(
            !epochs.is_empty(),
            "node {i} journaled the ring epoch advance"
        );
        assert!(
            body.get("last_seq").unwrap().as_u64().unwrap() >= 2,
            "admission + epoch both recorded"
        );
    }
    cluster.shutdown();
}

#[test]
fn events_cursor_pages_without_overlap() {
    let mut cluster = TestCluster::start(2);
    cluster.probe_all();
    cluster.admit();
    // The admission's handoff journals its start/finish from the
    // replicator thread; let it finish so the journal is quiescent
    // while it is listed and then paged.
    assert!(cluster.settle_all(Duration::from_secs(10)));
    let client = cluster.client(0);

    let full = fetch_events(&client);
    let all_seqs: Vec<u64> = full
        .get("events")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|e| e.get("seq").unwrap().as_u64().unwrap())
        .collect();
    assert!(all_seqs.len() >= 2, "admission produced several events");
    assert!(
        all_seqs.windows(2).all(|w| w[0] < w[1]),
        "oldest first, strictly increasing"
    );

    // Page through with max=1, resuming from each page's last seq.
    let mut cursor = 0u64;
    let mut paged: Vec<u64> = Vec::new();
    loop {
        let response = client
            .get(&format!("/v1/events?since={cursor}&max=1"))
            .expect("paged fetch ok");
        assert_eq!(response.status, 200);
        let page = Json::parse(&response.body_string()).expect("page JSON");
        let events = page.get("events").and_then(Json::as_array).unwrap();
        if events.is_empty() {
            break;
        }
        assert_eq!(events.len(), 1, "max bounds the page");
        let seq = events[0].get("seq").unwrap().as_u64().unwrap();
        assert!(seq > cursor, "cursor never re-reads");
        paged.push(seq);
        cursor = seq;
    }
    assert_eq!(paged, all_seqs, "paging covers exactly the full listing");

    // Unparseable cursor params are a client error, not a crash.
    for bad in ["/v1/events?since=x", "/v1/events?max=-1"] {
        let response = client.get(bad).expect("endpoint reachable");
        assert_eq!(response.status, 400, "{bad}");
    }
    cluster.shutdown();
}

const QUERY: &str = r#"{"kind":"parallel","strategy":"optimal","k":8,"ell":16,
    "budget":4000,"trials":200,"seed":7}"#;

/// The journal is strictly off the response path: seeded bodies must be
/// byte-identical whether events are recorded or the journal is disabled.
#[test]
fn bodies_byte_identical_with_journal_on_and_off() {
    let run_once = |events_capacity: usize| {
        let server = Server::start(ServerConfig {
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
            events_capacity,
            ..ServerConfig::default()
        })
        .expect("server starts");
        let client = Client::new(&server.addr().to_string()).with_timeout(Duration::from_secs(120));
        let response = client.post("/v1/query", QUERY).expect("query ok");
        assert_eq!(response.status, 200, "body: {}", response.body_string());
        let body = response.body_string();
        // With the journal disabled, the endpoint says so instead of 404ing.
        let events = client.get("/v1/events").expect("events ok");
        assert_eq!(events.status, 200);
        let parsed = Json::parse(&events.body_string()).expect("events JSON");
        assert_eq!(
            parsed.get("enabled").unwrap().as_bool(),
            Some(events_capacity > 0)
        );
        server.shutdown();
        body
    };
    let journaled = run_once(256);
    let disabled = run_once(0);
    assert_eq!(
        journaled, disabled,
        "the event journal must not perturb seeded bodies"
    );
}
