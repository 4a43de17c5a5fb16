//! Cluster end-to-end tests on the deterministic multi-node harness
//! (`tests/harness`): real `Server`s over TCP, health driven by
//! explicit probe rounds instead of background-prober sleeps.
//!
//! These pin the acceptance criteria for cluster mode: hash-routing to
//! the key's home node, byte-identical bodies whether an answer was
//! simulated locally, relayed by a cross-node cache peek, or forwarded;
//! exactly one simulation for identical queries entering through
//! different nodes; one connected trace spanning entry node and home
//! node; and graceful degraded service after a peer dies.

mod harness;

use std::sync::{Arc, Barrier};

use harness::{peer_up, TestCluster};
use levy_sim::Json;

#[test]
fn identical_queries_through_every_node_cost_one_simulation() {
    let cluster = TestCluster::start(3);
    // A key homed on node 0; entry through all three nodes at once.
    let (body, key) = cluster.seed_homed_on(0);
    let barrier = Arc::new(Barrier::new(3));
    let responses: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..3)
            .map(|i| {
                let barrier = Arc::clone(&barrier);
                let client = cluster.client(i);
                let body = body.as_str();
                scope.spawn(move || {
                    barrier.wait();
                    client.post("/v1/query", body).expect("query ok")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("join"))
            .collect()
    });
    for response in &responses {
        assert_eq!(response.status, 200, "body: {}", response.body_string());
        assert_eq!(response.header("x-levy-key"), Some(key.as_str()));
    }
    // All three bodies are byte-identical regardless of the path taken
    // (local, coalesced-at-home, forwarded, or peeked).
    assert_eq!(responses[0].body, responses[1].body);
    assert_eq!(responses[1].body, responses[2].body);
    assert_eq!(
        cluster.total_simulations(),
        1,
        "identical concurrent queries must coalesce on the home node"
    );
    assert_eq!(cluster.server(0).stats().simulations_started.get(), 1);

    // A later cold entry through a non-home node is answered by a
    // cross-node cache peek — no new simulation anywhere, same bytes.
    let relayed = cluster
        .client(1)
        .post("/v1/query", &body)
        .expect("query ok");
    assert_eq!(relayed.status, 200);
    assert_eq!(
        relayed.header("x-levy-home"),
        Some(cluster.addrs()[0].as_str())
    );
    assert_eq!(
        relayed.body, responses[0].body,
        "peek must relay exact bytes"
    );
    assert_eq!(cluster.total_simulations(), 1);
    assert!(
        cluster.server(1).stats().cluster_peek_hits.get() >= 1,
        "the relay must come from a cache peek"
    );
    cluster.shutdown();
}

#[test]
fn forwarded_query_produces_one_connected_trace_across_nodes() {
    let cluster = TestCluster::start(3);
    let (body, _key) = cluster.seed_homed_on(2);
    // Mint the trace client-side, enter through a non-home node.
    let ctx = levy_obs::SpanContext {
        trace_id: levy_obs::trace::next_trace_id(),
        span_id: levy_obs::trace::next_span_id(),
    };
    let traceparent = ctx.to_traceparent();
    let response = cluster
        .client(0)
        .request_with_headers(
            "POST",
            "/v1/query",
            &[("traceparent", traceparent.as_str())],
            body.as_bytes(),
        )
        .expect("query ok");
    assert_eq!(response.status, 200, "body: {}", response.body_string());
    assert_eq!(response.header("x-levy-cache"), Some("forwarded"));
    assert_eq!(
        response.header("x-levy-home"),
        Some(cluster.addrs()[2].as_str())
    );
    let trace_id = ctx.trace_id.to_string();
    assert_eq!(response.header("x-levy-trace-id"), Some(trace_id.as_str()));
    cluster.await_span(0, &trace_id, "peer_forward");
    cluster.await_span(2, &trace_id, "worker_exec");

    // Entry node: the request trace adopts the client's id and contains
    // the cluster hop spans.
    let entry_trace = cluster
        .server(0)
        .traces()
        .finished()
        .into_iter()
        .find(|t| t.trace_id.to_string() == trace_id && t.root_name == "request")
        .expect("entry node finished the request trace");
    let span_names: Vec<&str> = entry_trace.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(
        span_names.contains(&"cluster_route"),
        "spans: {span_names:?}"
    );
    assert!(
        span_names.contains(&"peer_forward"),
        "spans: {span_names:?}"
    );

    // Home node: the forwarded request joined the SAME trace id, and it
    // is the node that actually ran the simulation.
    let home_traces: Vec<_> = cluster
        .server(2)
        .traces()
        .finished()
        .into_iter()
        .filter(|t| t.trace_id.to_string() == trace_id)
        .collect();
    assert!(
        home_traces
            .iter()
            .any(|t| t.spans.iter().any(|s| s.name == "worker_exec")),
        "home node must carry the worker_exec span under the client's trace id"
    );
    assert!(
        home_traces.iter().all(|t| t.remote_parent.is_some()),
        "home traces must record the entry node as remote parent"
    );
    assert_eq!(cluster.server(2).stats().simulations_started.get(), 1);
    assert_eq!(cluster.server(0).stats().simulations_started.get(), 0);
    cluster.shutdown();
}

#[test]
fn dead_peer_degrades_to_local_simulation_and_health_reports_it() {
    let mut cluster = TestCluster::start(3);
    // Kill the home node of our key, then query through a survivor.
    let (body, _key) = cluster.seed_homed_on(1);
    cluster.kill(1);

    let survivor = cluster.client(0);
    let response = survivor
        .post("/v1/query", &body)
        .expect("degraded query ok");
    assert_eq!(response.status, 200, "body: {}", response.body_string());
    assert_eq!(
        response.header("x-levy-cache"),
        Some("miss"),
        "the survivor must simulate locally, not error"
    );
    assert!(cluster.server(0).stats().cluster_local_fallbacks.get() >= 1);
    assert_eq!(cluster.server(0).stats().simulations_started.get(), 1);

    // Determinism still holds in degraded mode: the other survivor
    // falls back to its own local simulation and produces the same
    // bytes.
    let other = cluster
        .client(2)
        .post("/v1/query", &body)
        .expect("query ok");
    assert_eq!(other.status, 200);
    assert_eq!(other.body, response.body, "degraded bodies stay identical");

    // Two explicit probe rounds are the hysteresis threshold: every
    // survivor has now seen 2+ consecutive failures, so `GET /v1/peers`
    // reports the dead member down — no background prober, no sleeps.
    cluster.probe_all();
    cluster.probe_all();
    let peers = survivor.get("/v1/peers").expect("peers ok");
    assert_eq!(peers.status, 200);
    assert_eq!(
        peer_up(&peers.body_string(), &cluster.addrs()[1]),
        Some(false),
        "explicit probe rounds must mark the dead peer down"
    );

    // And a marked-down home is skipped without a connection attempt:
    // later cold queries homed there still answer locally.
    let (body2, _key2) = cluster.seed_homed_on(1);
    let again = survivor.post("/v1/query", &body2).expect("query ok");
    assert_eq!(again.status, 200);
    cluster.shutdown();
}

#[test]
fn peers_endpoint_and_cache_peek_routes() {
    let cluster = TestCluster::start(3);
    let c = cluster.client(0);
    let peers = c.get("/v1/peers").expect("peers ok");
    assert_eq!(peers.status, 200);
    let body_text = peers.body_string();
    let parsed = Json::parse(&body_text).expect("peers JSON");
    assert_eq!(
        parsed.get("schema").and_then(Json::as_str),
        Some("levy-served/peers-v1")
    );
    assert_eq!(
        parsed.get("self").and_then(Json::as_str),
        Some(cluster.addrs()[0].as_str())
    );
    assert_eq!(parsed.get("epoch").and_then(Json::as_u64), Some(1));
    assert_eq!(parsed.get("replication").and_then(Json::as_u64), Some(1));
    assert_eq!(
        parsed.get("rebalancing").and_then(Json::as_bool),
        Some(false)
    );
    assert_eq!(
        parsed
            .get("members")
            .and_then(Json::as_array)
            .map(<[_]>::len),
        Some(3)
    );
    assert_eq!(
        parsed.get("peers").and_then(Json::as_array).map(<[_]>::len),
        Some(2)
    );

    // The peek route: 400 for junk, 404 for a well-formed cold key, 200
    // with exact bytes once the owning node has simulated.
    assert_eq!(c.get("/v1/cache/not-hex").expect("ok").status, 400);
    let (body, key) = cluster.seed_homed_on(0);
    assert_eq!(c.get(&format!("/v1/cache/{key}")).expect("ok").status, 404);
    let simulated = c.post("/v1/query", &body).expect("query ok");
    assert_eq!(simulated.status, 200);
    let peeked = c.get(&format!("/v1/cache/{key}")).expect("ok");
    assert_eq!(peeked.status, 200);
    assert_eq!(peeked.header("x-levy-cache"), Some("hit"));
    assert_eq!(peeked.body, simulated.body, "peek returns the cached bytes");
    cluster.shutdown();
}
