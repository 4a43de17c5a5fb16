//! Replication and live-membership end-to-end tests on the
//! deterministic multi-node harness.
//!
//! These pin the PR's acceptance criteria: with R=2, killing the home
//! node of a warm key leaves every subsequent query answered
//! byte-identically from a replica with **zero** new simulations;
//! healing the home catches it up through the resurrection handoff;
//! admitting a member under load bumps the ring epoch, keeps every
//! client answer correct, and moves the rehomed keyspace over the
//! counted handoff path; and the peer-health hysteresis holds against a
//! deterministically flapping link.

mod harness;

use std::time::Duration;

use harness::{peer_up, peers_epoch, replica_indices_in, reserve_addr, TestCluster};
use levy_sim::Json;

/// Generous settle deadline: the replication queue is tiny in these
/// tests, so this is a failure backstop, not a pacing device.
const SETTLE: Duration = Duration::from_secs(30);

#[test]
fn write_behind_stores_the_result_on_every_holder() {
    let cluster = TestCluster::builder(4).replication(2).start();
    let (body, key) = cluster.seed_where(|r| r == [0, 1]);

    // Query through the home node: simulated locally, then written
    // behind to the second holder — and only to the second holder.
    let response = cluster
        .client(0)
        .post("/v1/query", &body)
        .expect("query ok");
    assert_eq!(response.status, 200, "body: {}", response.body_string());
    assert!(cluster.settle_all(SETTLE), "replication must settle");
    assert_eq!(cluster.total_simulations(), 1);
    assert!(cluster.server(0).stats().cluster_replica_writes.get() >= 1);

    let path = format!("/v1/cache/{key}");
    assert_eq!(cluster.client(1).get(&path).expect("peek").status, 200);
    assert_eq!(cluster.client(2).get(&path).expect("peek").status, 404);
    assert_eq!(cluster.client(3).get(&path).expect("peek").status, 404);

    // The replica's copy is byte-identical to the home's answer.
    let replica_copy = cluster.client(1).get(&path).expect("peek");
    let home_copy = cluster.client(0).get(&path).expect("peek");
    assert_eq!(replica_copy.body, home_copy.body);
    cluster.shutdown();
}

#[test]
fn dead_home_serves_byte_identical_replies_from_replica_with_zero_new_simulations() {
    let mut cluster = TestCluster::builder(4).replication(2).start();
    // Holders {0, 1}; nodes 2 and 3 are pure entry nodes.
    let (body, key) = cluster.seed_where(|r| r == [0, 1]);

    // Warm through an entry node: forwarded to the home, simulated
    // there, write-behind replicated to node 1.
    let warm = cluster
        .client(2)
        .post("/v1/query", &body)
        .expect("warm query ok");
    assert_eq!(warm.status, 200, "body: {}", warm.body_string());
    assert_eq!(warm.header("x-levy-key"), Some(key.as_str()));
    assert_eq!(
        warm.header("x-levy-home"),
        Some(cluster.addrs()[0].as_str())
    );
    assert!(cluster.settle_all(SETTLE), "write-behind must settle");
    assert_eq!(cluster.total_simulations(), 1);

    cluster.kill(0);

    // Every subsequent query — through either entry node, repeatedly —
    // returns the replica's bytes. No survivor ever simulates.
    for round in 0..3 {
        for entry in [2, 3] {
            let degraded = cluster
                .client(entry)
                .post("/v1/query", &body)
                .expect("degraded query ok");
            assert_eq!(
                degraded.status,
                200,
                "round {round} entry {entry}: {}",
                degraded.body_string()
            );
            assert_eq!(
                degraded.body, warm.body,
                "round {round} entry {entry}: replica bytes must be identical"
            );
            assert_eq!(
                degraded.header("x-levy-home"),
                Some(cluster.addrs()[1].as_str()),
                "round {round} entry {entry}: the replica answers"
            );
        }
    }
    // The surviving holder answers from its own cache too.
    let direct = cluster
        .client(1)
        .post("/v1/query", &body)
        .expect("holder query ok");
    assert_eq!(direct.status, 200);
    assert_eq!(direct.body, warm.body);
    assert_eq!(direct.header("x-levy-cache"), Some("hit"));

    assert_eq!(
        cluster.total_simulations(),
        0,
        "the only simulation died with the home; replicas must never re-run it"
    );
    cluster.shutdown();
}

#[test]
fn healed_home_catches_up_through_the_resurrection_handoff() {
    let mut cluster = TestCluster::builder(4).replication(2).start();
    let (body, key) = cluster.seed_where(|r| r == [0, 1]);
    let path = format!("/v1/cache/{key}");

    // Warm mid-traffic state: key simulated on the home, replicated.
    let warm = cluster
        .client(2)
        .post("/v1/query", &body)
        .expect("warm query ok");
    assert_eq!(warm.status, 200);
    assert!(cluster.settle_all(SETTLE));
    assert_eq!(cluster.client(1).get(&path).expect("peek").status, 200);

    // Partition the home; traffic keeps flowing from the replica.
    cluster.kill(0);
    for entry in [1, 2, 3] {
        let degraded = cluster
            .client(entry)
            .post("/v1/query", &body)
            .expect("degraded query ok");
        assert_eq!(degraded.status, 200);
        assert_eq!(degraded.body, warm.body);
    }
    assert_eq!(cluster.total_simulations(), 0);
    // Two probe rounds: every survivor marks the home down.
    cluster.probe_all();
    cluster.probe_all();
    assert_eq!(
        peer_up(
            &cluster
                .client(1)
                .get("/v1/peers")
                .expect("peers")
                .body_string(),
            &cluster.addrs()[0]
        ),
        Some(false)
    );

    // Heal: the home restarts with an empty cache. The next probe round
    // resurrects it everywhere, and the surviving holder owes it a
    // catch-up handoff of the keys it missed while down.
    cluster.restart(0);
    assert_eq!(cluster.client(0).get(&path).expect("peek").status, 404);
    cluster.probe_all();
    assert!(cluster.settle_all(SETTLE), "catch-up handoff must settle");

    assert!(
        cluster.server(1).stats().cluster_handoff_keys.get() >= 1,
        "the replica must have pushed the missed key"
    );
    let caught_up = cluster.client(0).get(&path).expect("peek");
    assert_eq!(caught_up.status, 200, "the healed home holds the key again");
    assert_eq!(
        caught_up.body,
        cluster.client(1).get(&path).expect("peek").body
    );
    assert_eq!(
        cluster.total_simulations(),
        0,
        "catch-up is a cache transfer, never a re-simulation"
    );
    cluster.shutdown();
}

#[test]
fn admission_under_load_bumps_the_epoch_and_hands_off_the_rehomed_keyspace() {
    let mut cluster = TestCluster::builder(3)
        .token("e2e-secret")
        .handoff(2, 5)
        .start();

    // Reserve the future member's address first, so we can pick warm
    // keys that are *guaranteed* to rehome onto it.
    let addr3 = reserve_addr();
    let mut grown = cluster.addrs().to_vec();
    grown.push(addr3.clone());

    // Warm five arbitrary keys plus one the admission will rehome onto
    // the new member, each through its current home node.
    let warm = |body: &str| -> Vec<u8> {
        let key = harness::key_of(body);
        let home = cluster.replica_indices(&key)[0];
        let response = cluster
            .client(home)
            .post("/v1/query", body)
            .expect("warm query ok");
        assert_eq!(response.status, 200, "body: {}", response.body_string());
        response.body
    };
    let mut warmed: Vec<(String, String, Vec<u8>)> = Vec::new(); // (body, key, bytes)
    for seed in 0..5 {
        let (body, key) = harness::query_with_seed(seed);
        let bytes = warm(&body);
        warmed.push((body, key, bytes));
    }
    // The key must rehome onto the new member AND its old home must not
    // be node 0: the steady-state check below queries through node 0
    // and asserts a *relayed* answer, which only happens when node 0
    // does not still hold the body in its own cache from the warm-up.
    let (body, key) = (0..10_000u64)
        .map(harness::query_with_seed)
        .find(|(_, key)| {
            replica_indices_in(&grown, key, 1)[0] == 3
                && replica_indices_in(cluster.addrs(), key, 1)[0] != 0
        })
        .expect("some key rehomes onto the new member");
    let bytes = warm(&body);
    let rehomed = warmed.len();
    warmed.push((body, key, bytes));
    assert!(cluster.settle_all(SETTLE));
    let sims_before = cluster.total_simulations();

    // Boot the member first (the real rollout order), then broadcast
    // its admission while load threads hammer the warm keys through
    // rotating entry nodes. Every answer must be a byte-identical 200 —
    // zero client-visible errors.
    let index = cluster.boot_member(addr3.clone());
    assert_eq!(index, 3);
    let load_results = std::thread::scope(|scope| {
        let cluster = &cluster;
        let warmed = &warmed;
        let handles: Vec<_> = (0..2)
            .map(|worker| {
                scope.spawn(move || {
                    let mut outcomes = Vec::new();
                    for i in 0..12 {
                        let (body, _key, bytes) = &warmed[(worker * 5 + i) % warmed.len()];
                        let entry = (worker + i) % 3;
                        let response = cluster
                            .client(entry)
                            .post("/v1/query", body)
                            .expect("load query ok");
                        outcomes.push((response.status, response.body == *bytes));
                    }
                    outcomes
                })
            })
            .collect();
        // The admission broadcast lands while the load threads run.
        cluster.broadcast_add(index);
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("load thread"))
            .collect::<Vec<_>>()
    });
    for (status, identical) in &load_results {
        assert_eq!(*status, 200, "admission under load must stay error-free");
        assert!(identical, "admission under load must not change any answer");
    }

    // The change bumped every old member's epoch (the new member booted
    // at epoch 1 with the full list — epochs are per-node counters).
    for i in 0..3 {
        let peers = cluster.client(i).get("/v1/peers").expect("peers");
        assert_eq!(peers_epoch(&peers.body_string()), 2, "node {i} epoch");
        assert!(cluster.server(i).stats().cluster_membership_changes.get() >= 1);
        assert_eq!(cluster.server(i).stats().ring_epoch.get(), 2);
    }
    let peers3 = cluster.client(3).get("/v1/peers").expect("peers");
    assert_eq!(peers_epoch(&peers3.body_string()), 1);

    // Mid-handoff: the rehomed key answers from either side —
    // old home (cache peek via the previous ring) or new member.
    let (body, key, bytes) = warmed[rehomed].clone();
    for entry in 0..4 {
        let response = cluster
            .client(entry)
            .post("/v1/query", &body)
            .expect("rehomed query ok");
        assert_eq!(response.status, 200, "entry {entry} during handoff");
        assert_eq!(
            response.body, bytes,
            "entry {entry}: rehomed answers stay byte-identical"
        );
    }

    // Once the handoff settles, the new member holds the rehomed key,
    // the transfer was counted, and the overlap window is closed.
    assert!(cluster.settle_all(SETTLE), "handoff must settle");
    let handed_off: u64 = (0..3)
        .map(|i| cluster.server(i).stats().cluster_handoff_keys.get())
        .sum();
    assert!(
        handed_off >= 1,
        "the rehomed keyspace must move via handoff"
    );
    let moved = cluster
        .client(3)
        .get(&format!("/v1/cache/{key}"))
        .expect("peek");
    assert_eq!(moved.status, 200, "the new member holds the rehomed key");
    assert_eq!(moved.body, bytes, "the handed-off copy is byte-identical");
    for i in 0..3 {
        let peers = cluster.client(i).get("/v1/peers").expect("peers");
        let parsed = Json::parse(&peers.body_string()).expect("peers JSON");
        assert_eq!(
            parsed.get("rebalancing").and_then(Json::as_bool),
            Some(false),
            "node {i} must close its overlap window after the scan"
        );
    }

    // Steady state: the rehomed key now answers from the new member
    // with no further simulations anywhere.
    let sims_settled = cluster.total_simulations();
    let steady = cluster
        .client(0)
        .post("/v1/query", &body)
        .expect("steady query ok");
    assert_eq!(steady.status, 200);
    assert_eq!(steady.body, bytes);
    assert_eq!(steady.header("x-levy-home"), Some(addr3.as_str()));
    assert_eq!(cluster.total_simulations(), sims_settled);
    assert!(
        cluster.total_simulations() >= sims_before,
        "counters are monotonic"
    );
    cluster.shutdown();
}

#[test]
fn peer_flap_pins_the_health_hysteresis() {
    // Node 0 sees its peer 0 (= node 1) through a deterministically
    // flapping link: up in even 1000 ms windows of the plan clock,
    // partitioned in odd ones.
    let cluster = TestCluster::builder(2)
        .fault(0, "peer_flap@peer=0,period_ms=1000")
        .start();
    let up_from_0 = |cluster: &TestCluster| {
        peer_up(
            &cluster
                .client(0)
                .get("/v1/peers")
                .expect("peers")
                .body_string(),
            &cluster.addrs()[1],
        )
    };

    // Window 0 (clock 0): link up, probes succeed.
    cluster.probe_all();
    assert_eq!(up_from_0(&cluster), Some(true));

    // Window 1: the link drops. ONE failed probe must not flip the
    // peer down (2-consecutive-failures hysteresis) — no route
    // oscillation within a single probe interval.
    cluster.set_clock_ms(1_000);
    cluster.server(0).probe_peers_once();
    assert_eq!(
        up_from_0(&cluster),
        Some(true),
        "one failure must not mark the peer down"
    );
    cluster.server(0).probe_peers_once();
    assert_eq!(
        up_from_0(&cluster),
        Some(false),
        "two consecutive failures must"
    );

    // Window 2: the link heals. ONE success resurrects immediately.
    cluster.set_clock_ms(2_000);
    cluster.server(0).probe_peers_once();
    assert_eq!(
        up_from_0(&cluster),
        Some(true),
        "a single success must resurrect the peer"
    );
    // The resurrection queued a catch-up handoff; it settles cleanly
    // (empty cache, nothing to push).
    assert!(cluster.settle_all(SETTLE));

    // The un-faulted node's view of node 0 never wavered.
    assert_eq!(
        peer_up(
            &cluster
                .client(1)
                .get("/v1/peers")
                .expect("peers")
                .body_string(),
            &cluster.addrs()[0],
        ),
        Some(true)
    );
    cluster.shutdown();
}

#[test]
fn epoch_skew_on_forwards_is_counted_never_fatal() {
    let cluster = TestCluster::start(2);
    // Bump node 0's epoch alone: admit an unreachable (but validly
    // spelled) member on node 0 only. Node 1 stays at epoch 1.
    let ghost = "127.0.0.1:9"; // discard port: never answers
    let response = cluster
        .post_peers(0, &format!(r#"{{"add":["{ghost}"],"epoch":1}}"#))
        .expect("peers change ok");
    assert_eq!(response.status, 200, "body: {}", response.body_string());
    assert!(cluster.settle_all(SETTLE), "empty rehome scan settles");
    assert_eq!(cluster.server(0).cluster().expect("cluster").epoch(), 2);
    assert_eq!(cluster.server(1).cluster().expect("cluster").epoch(), 1);

    // A key homed on node 1 *in node 0's grown ring*: entering through
    // node 0 forwards with epoch 2; node 1 (epoch 1) counts the skew
    // and answers anyway, byte-identical by determinism.
    let members: Vec<String> = vec![
        cluster.addrs()[0].clone(),
        cluster.addrs()[1].clone(),
        ghost.to_owned(),
    ];
    let (body, _key) = (0..10_000u64)
        .map(harness::query_with_seed)
        .find(|(_, key)| replica_indices_in(&members, key, 1)[0] == 1)
        .expect("some key homes on node 1");
    let skew_before = cluster.server(1).stats().cluster_epoch_skew.get();
    let response = cluster
        .client(0)
        .post("/v1/query", &body)
        .expect("skewed forward ok");
    assert_eq!(response.status, 200, "body: {}", response.body_string());
    assert!(
        cluster.server(1).stats().cluster_epoch_skew.get() > skew_before,
        "the stale-epoch forward must be counted"
    );
    cluster.shutdown();
}

#[test]
fn replica_write_with_an_altered_query_is_rejected() {
    let cluster = TestCluster::builder(2).token("repl-secret").start();
    let query = levy_served::Query::from_json(
        &Json::parse(
            r#"{"kind":"single_walk","alpha":2.0,"ell":8,"budget":64,"trials":4,"seed":21}"#,
        )
        .unwrap(),
    )
    .unwrap();
    let key = query.cache_key();
    let intact = levy_served::engine::execute(&query, 1, &levy_sim::CancelToken::new())
        .unwrap()
        .to_string_pretty();
    // Same schema, key and result; only the embedded query's seed differs,
    // so the body claims a key its query does not hash to.
    let altered = intact.replacen("\"seed\": 21", "\"seed\": 22", 1);
    assert_ne!(altered, intact);

    let path = format!("/v1/cache/{key}");
    let token = [("x-levy-cluster-token", "repl-secret")];
    let client = cluster.client(0);
    let put = |body: &str| {
        client
            .request_with_headers("PUT", &path, &token, body.as_bytes())
            .expect("daemon answers")
    };
    let rejected = put(&altered);
    assert_eq!(rejected.status, 400, "body: {}", rejected.body_string());
    assert_eq!(client.get(&path).expect("peek").status, 404);

    // The intact envelope is stored and peeked back byte for byte.
    assert_eq!(put(&intact).status, 201);
    let peeked = client.get(&path).expect("peek");
    assert_eq!(peeked.status, 200);
    assert_eq!(peeked.body_string(), intact);
    cluster.shutdown();
}
