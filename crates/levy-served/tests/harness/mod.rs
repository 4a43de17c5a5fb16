//! Deterministic in-process multi-node harness.
//!
//! Boots N real [`Server`]s on loopback, joined into one consistent-hash
//! cluster, with the three seams the deterministic e2e suites drive
//! instead of sleeping:
//!
//! * **no background prober** — nodes start with `probe_interval_ms: 0`
//!   and tests call [`TestCluster::probe_all`] exactly when they want
//!   health hysteresis to observe the world;
//! * **injectable fault plans** — every node owns a [`FaultPlan`]
//!   (built from a grammar spec per node) whose plan clock is pinned at
//!   0 and advanced with [`TestCluster::set_clock_ms`], so time-window
//!   faults like `peer_flap` replay identically on every run;
//! * **settleable replication** — [`TestCluster::settle_all`] blocks
//!   until every node's background write-behind/handoff queue is
//!   drained, so counter assertions never race the replicator thread.
//!
//! Membership is administrative: [`TestCluster::admit`] boots a new
//! member and broadcasts the `POST /v1/peers` change to every live
//! node, the same way an operator (or `levyc peers add`) would.

#![allow(dead_code)] // each test crate uses a different slice

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use levy_cluster::HashRing;
use levy_served::server::{Server, ServerConfig};
use levy_served::{CacheConfig, Client, ClusterConfig, FaultPlan, Query};
use levy_sim::Json;

/// Vnode count shared by every harness node and key-placement helper.
pub const VNODES: usize = 64;

/// Builder for a [`TestCluster`]; start with [`TestCluster::builder`].
pub struct ClusterBuilder {
    n: usize,
    replication: usize,
    token: Option<String>,
    probe_interval_ms: u64,
    fault_specs: Vec<Option<String>>,
    handoff_batch: usize,
    handoff_pause_ms: u64,
}

impl ClusterBuilder {
    /// Replica count each key is stored on (default 1).
    pub fn replication(mut self, r: usize) -> Self {
        self.replication = r;
        self
    }

    /// Shared cluster token gating membership changes + replica writes.
    pub fn token(mut self, token: &str) -> Self {
        self.token = Some(token.to_owned());
        self
    }

    /// Fault-plan spec (grammar of `levy_served::fault`) for one node.
    pub fn fault(mut self, node: usize, spec: &str) -> Self {
        self.fault_specs[node] = Some(spec.to_owned());
        self
    }

    /// Background prober period; the default 0 keeps probing manual.
    pub fn probe_interval_ms(mut self, ms: u64) -> Self {
        self.probe_interval_ms = ms;
        self
    }

    /// Handoff admission control: keys per batch, pause between batches.
    pub fn handoff(mut self, batch: usize, pause_ms: u64) -> Self {
        self.handoff_batch = batch;
        self.handoff_pause_ms = pause_ms;
        self
    }

    /// Boots the cluster.
    pub fn start(self) -> TestCluster {
        let addrs: Vec<String> = pick_ports(self.n)
            .into_iter()
            .map(|p| format!("127.0.0.1:{p}"))
            .collect();
        let mut cluster = TestCluster {
            addrs,
            servers: Vec::new(),
            faults: Vec::new(),
            replication: self.replication,
            token: self.token,
            probe_interval_ms: self.probe_interval_ms,
            handoff_batch: self.handoff_batch,
            handoff_pause_ms: self.handoff_pause_ms,
        };
        for i in 0..self.n {
            let plan = build_plan(self.fault_specs[i].as_deref());
            let server = cluster.boot_node(i, Arc::clone(&plan));
            cluster.faults.push(plan);
            cluster.servers.push(Some(server));
        }
        cluster
    }
}

/// N live `Server`s joined into one cluster, plus their fault plans.
pub struct TestCluster {
    addrs: Vec<String>,
    servers: Vec<Option<Server>>,
    faults: Vec<Arc<FaultPlan>>,
    replication: usize,
    token: Option<String>,
    probe_interval_ms: u64,
    handoff_batch: usize,
    handoff_pause_ms: u64,
}

impl TestCluster {
    /// An `n`-node cluster with default knobs (R=1, manual probing).
    pub fn start(n: usize) -> TestCluster {
        TestCluster::builder(n).start()
    }

    /// A builder for non-default replication/token/faults.
    pub fn builder(n: usize) -> ClusterBuilder {
        ClusterBuilder {
            n,
            replication: 1,
            token: None,
            probe_interval_ms: 0,
            fault_specs: vec![None; n],
            handoff_batch: 64,
            handoff_pause_ms: 0,
        }
    }

    /// Advertised addresses, in member-index order (dead nodes keep
    /// their slot — membership is orthogonal to liveness).
    pub fn addrs(&self) -> &[String] {
        &self.addrs
    }

    /// The live server at `i`; panics if it was killed.
    pub fn server(&self, i: usize) -> &Server {
        self.servers[i].as_ref().expect("server is alive")
    }

    /// Whether node `i` is currently running.
    pub fn is_alive(&self, i: usize) -> bool {
        self.servers[i].is_some()
    }

    /// A client pointed at node `i` (generous timeout: simulations).
    pub fn client(&self, i: usize) -> Client {
        Client::new(&self.addrs[i]).with_timeout(Duration::from_secs(120))
    }

    /// The fault plan injected into node `i`.
    pub fn faults(&self, i: usize) -> &Arc<FaultPlan> {
        &self.faults[i]
    }

    /// Pins every node's plan clock to `ms` (drives `peer_flap` windows).
    pub fn set_clock_ms(&self, ms: u64) {
        for plan in &self.faults {
            plan.set_clock_ms(ms);
        }
    }

    /// One synchronous probe round on every live node.
    pub fn probe_all(&self) {
        for server in self.servers.iter().flatten() {
            server.probe_peers_once();
        }
    }

    /// Waits for every live node's replication queue to drain.
    pub fn settle_all(&self, timeout: Duration) -> bool {
        self.servers
            .iter()
            .flatten()
            .all(|s| s.settle_replication(timeout))
    }

    /// Polls briefly until node `i` holds a finished fragment of
    /// `trace_id` with a span named `span`. A root span finalizes *after*
    /// its response bytes hit the wire, so a client that just received
    /// its response may be ahead of a node's trace store.
    pub fn await_span(&self, i: usize, trace_id: &str, span: &str) {
        for _ in 0..250 {
            let found = self.server(i).traces().finished().iter().any(|t| {
                t.trace_id.to_string() == trace_id && t.spans.iter().any(|s| s.name == span)
            });
            if found {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    /// Simulations started across all live nodes.
    pub fn total_simulations(&self) -> u64 {
        self.servers
            .iter()
            .flatten()
            .map(|s| s.stats().simulations_started.get())
            .sum()
    }

    /// Kills node `i` (graceful shutdown; its address stays a member).
    pub fn kill(&mut self, i: usize) {
        if let Some(server) = self.servers[i].take() {
            server.shutdown();
        }
    }

    /// Restarts a killed node on its old address with an **empty**
    /// cache — the healed-but-amnesiac peer the catch-up handoff exists
    /// for.
    pub fn restart(&mut self, i: usize) {
        assert!(self.servers[i].is_none(), "node {i} is already running");
        let plan = Arc::clone(&self.faults[i]);
        self.servers[i] = Some(self.boot_node(i, plan));
    }

    /// Boots a new member and broadcasts its admission to every live
    /// node (the operator's `levyc peers add` flow). Returns its index.
    pub fn admit(&mut self) -> usize {
        let index = self.boot_member(reserve_addr());
        self.broadcast_add(index);
        index
    }

    /// Boots a new member process (configured with the full current
    /// member list) *without* telling anyone — the rollout order real
    /// deployments use. Follow with [`TestCluster::broadcast_add`].
    pub fn boot_member(&mut self, addr: String) -> usize {
        let index = self.addrs.len();
        self.addrs.push(addr);
        let plan = build_plan(None);
        let server = self.boot_node(index, Arc::clone(&plan));
        self.faults.push(plan);
        self.servers.push(Some(server));
        index
    }

    /// Broadcasts `{"add": [addr of index]}` to every other live node
    /// (membership is administrative: no gossip, the operator posts the
    /// change to each member). Panics on any non-200.
    pub fn broadcast_add(&self, index: usize) {
        let body = format!(r#"{{"add":["{}"]}}"#, self.addrs[index]);
        for i in (0..self.addrs.len()).filter(|i| *i != index) {
            if self.servers[i].is_none() {
                continue;
            }
            let response = self
                .post_peers(i, &body)
                .unwrap_or_else(|e| panic!("admission broadcast to node {i}: {e}"));
            assert_eq!(
                response.status,
                200,
                "admission broadcast to node {i}: {}",
                response.body_string()
            );
        }
    }

    /// `POST /v1/peers` to node `i`, with the cluster token when set.
    pub fn post_peers(&self, i: usize, body: &str) -> std::io::Result<levy_served::http::Response> {
        let mut headers: Vec<(&str, &str)> = Vec::new();
        if let Some(token) = &self.token {
            headers.push(("x-levy-cluster-token", token.as_str()));
        }
        self.client(i)
            .request_with_headers("POST", "/v1/peers", &headers, body.as_bytes())
    }

    /// The ring every member computes (same spellings, same vnodes).
    pub fn ring(&self) -> HashRing {
        HashRing::new(&self.addrs, VNODES).expect("harness ring")
    }

    /// Member indices holding `key` under the configured replication,
    /// in preference order (index 0 is the home).
    pub fn replica_indices(&self, key: &str) -> Vec<usize> {
        replica_indices_in(&self.addrs, key, self.replication)
    }

    /// The member index of `key`'s home node.
    pub fn home_index(&self, key: &str) -> usize {
        self.replica_indices(key)[0]
    }

    /// A query whose replica set satisfies `pred` (scanning seeds).
    pub fn seed_where(&self, pred: impl Fn(&[usize]) -> bool) -> (String, String) {
        for seed in 0..10_000u64 {
            let (body, key) = query_with_seed(seed);
            if pred(&self.replica_indices(&key)) {
                return (body, key);
            }
        }
        unreachable!("no seed in 0..10000 satisfies the placement predicate");
    }

    /// A query homed on member `want`.
    pub fn seed_homed_on(&self, want: usize) -> (String, String) {
        self.seed_where(|replicas| replicas[0] == want)
    }

    /// Peer index of member `target` as seen from member `observer`
    /// (the index fault plans and `GET /v1/peers` use on that node).
    /// Valid for the boot membership; admitted members append.
    pub fn peer_index(&self, observer: usize, target: usize) -> usize {
        assert_ne!(observer, target, "a node is not its own peer");
        if target < observer {
            target
        } else {
            target - 1
        }
    }

    /// Graceful shutdown of every live node.
    pub fn shutdown(mut self) {
        for server in self.servers.iter_mut().filter_map(Option::take) {
            server.shutdown();
        }
    }

    /// One node's `ServerConfig` + boot. Peers are the other members in
    /// index order, so fault-plan peer indices are predictable.
    fn boot_node(&self, i: usize, plan: Arc<FaultPlan>) -> Server {
        let peers: Vec<String> = self
            .addrs
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != i)
            .map(|(_, a)| a.clone())
            .collect();
        Server::start(ServerConfig {
            addr: self.addrs[i].clone(),
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
            faults: Some(plan),
            cluster: Some(ClusterConfig {
                self_addr: self.addrs[i].clone(),
                peers,
                vnodes: VNODES,
                replication: self.replication,
                token: self.token.clone(),
                probe_interval_ms: self.probe_interval_ms,
                peek_timeout_ms: 1_000,
                handoff_batch: self.handoff_batch,
                handoff_pause_ms: self.handoff_pause_ms,
                ..ClusterConfig::default()
            }),
            ..ServerConfig::default()
        })
        .unwrap_or_else(|e| panic!("cluster node {i} starts: {e}"))
    }
}

/// A fault plan from a grammar spec (or an empty, inert plan), with the
/// plan clock pinned to 0 so window faults never consult wall time.
fn build_plan(spec: Option<&str>) -> Arc<FaultPlan> {
    let plan = match spec {
        Some(spec) => FaultPlan::parse(spec).expect("harness fault spec parses"),
        None => FaultPlan::new(),
    };
    plan.set_clock_ms(0);
    Arc::new(plan)
}

/// One reserved loopback address (see [`pick_ports`]).
pub fn reserve_addr() -> String {
    format!("127.0.0.1:{}", pick_ports(1)[0])
}

/// Member indices (into `members`) holding `key` at replication `r`,
/// in preference order, on the ring those members would build.
pub fn replica_indices_in(members: &[String], key: &str, r: usize) -> Vec<usize> {
    let ring = HashRing::new(members, VNODES).expect("harness ring");
    let raw = levy_cluster::key_from_hex(key).expect("hex key");
    ring.replicas(raw, r)
        .iter()
        .map(|h| {
            members
                .iter()
                .position(|a| a == *h)
                .expect("holder is a member")
        })
        .collect()
}

/// Distinct ephemeral ports, reserved long enough to read then released
/// for the servers to bind. (The kernel will not hand the same port out
/// twice while all listeners are held.)
fn pick_ports(n: usize) -> Vec<u16> {
    let listeners: Vec<TcpListener> = (0..n)
        .map(|_| TcpListener::bind("127.0.0.1:0").expect("reserve port"))
        .collect();
    listeners
        .iter()
        .map(|l| l.local_addr().expect("local addr").port())
        .collect()
}

/// A query body with a given seed, plus its cache key — the same
/// canonicalization the servers use, so tests can pick entry nodes
/// relative to the key's placement.
pub fn query_with_seed(seed: u64) -> (String, String) {
    let body = format!(
        r#"{{"kind":"parallel","strategy":"optimal","k":8,"ell":16,"budget":4000,"trials":300,"seed":{seed}}}"#
    );
    let key = key_of(&body);
    (body, key)
}

/// The cache key of a query body — the same canonicalization the
/// servers apply.
pub fn key_of(body: &str) -> String {
    Query::from_json(&Json::parse(body).expect("valid JSON"))
        .expect("valid query")
        .cache_key()
}

/// Parses a `GET /v1/peers` body and returns the `up` flag reported for
/// `addr`, or `None` when the peer is not listed.
pub fn peer_up(peers_body: &str, addr: &str) -> Option<bool> {
    let parsed = Json::parse(peers_body).ok()?;
    parsed
        .get("peers")?
        .as_array()?
        .iter()
        .find(|p| p.get("addr").and_then(Json::as_str) == Some(addr))
        .and_then(|p| p.get("up").and_then(Json::as_bool))
}

/// The `epoch` a `GET /v1/peers` body reports.
pub fn peers_epoch(peers_body: &str) -> u64 {
    Json::parse(peers_body)
        .expect("peers JSON")
        .get("epoch")
        .and_then(Json::as_u64)
        .expect("peers epoch")
}
