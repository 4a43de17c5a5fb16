//! `levyd` — the Lévy-walk simulation daemon.
//!
//! ```text
//! levyd [--addr HOST:PORT] [--workers N] [--sim-threads N]
//!       [--queue-capacity N] [--cache-dir DIR] [--mem-capacity N]
//!       [--disk-capacity N] [--timeout-ms MS] [--read-timeout-ms MS]
//!       [--trace-capacity N] [--events-capacity N] [--observe]
//!       [--fault-plan SPEC] [--quiet]
//!       [--cluster --peers HOST:PORT,... [--self-addr HOST:PORT]
//!        [--vnodes N] [--probe-interval-ms MS] [--peek-timeout-ms MS]
//!        [--replication R] [--cluster-token TOKEN]
//!        [--handoff-batch N] [--handoff-pause-ms MS]]
//! ```
//!
//! `--trace-capacity` sizes the tail-sampling ring behind
//! `GET /v1/traces`; `--events-capacity` sizes the structured event
//! journal behind `GET /v1/events` (peer flips, membership, handoff
//! lifecycle, replica write errors, backpressure; 0 disables recording);
//! `--observe` turns on the walk-level telemetry observers (per-α jump
//! spectra, displacement quantiles, hitting-time histograms) that are
//! off by default because they multiply registry cardinality.
//!
//! `--fault-plan` replays a deterministic fault schedule (see
//! `levy_served::fault` for the grammar) — a debugging aid for
//! reproducing failure reports against a live daemon, never set in
//! production.
//!
//! `--cluster` shards the query keyspace across this node and the
//! `--peers` list with a consistent-hash ring: cold queries homed on a
//! peer are answered by that peer (cache peek, then forward), and every
//! node probes its peers' `/healthz` to drive `GET /v1/peers` and the
//! per-peer gauges. `--self-addr` is this node's spelling in the other
//! nodes' peer lists (defaults to `--addr`, with an ephemeral `:0` port
//! resolved after bind). All nodes must agree on `--vnodes`.
//!
//! `--replication R` stores each result on the first R members of the
//! key's preference list (write-behind to the R-1 replicas after the
//! home answers); reads walk the same list, so a dead home is served
//! byte-identically by a replica. `--cluster-token` gates the mutating
//! cluster endpoints (`POST /v1/peers` membership changes and
//! `PUT /v1/cache/<key>` replica pushes) behind a shared secret.
//! `--handoff-batch`/`--handoff-pause-ms` throttle the background cache
//! handoff that runs after a membership change or peer resurrection.
//!
//! Prints `levyd listening on ADDR` on stdout once the socket is bound
//! (scripts parse this line to learn an ephemeral port), then serves
//! until SIGTERM/SIGINT or `POST /v1/shutdown`, draining in-flight work
//! before exiting.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use levy_served::cluster::ClusterConfig;
use levy_served::server::{Server, ServerConfig};
use levy_served::signal;

const USAGE: &str = "usage: levyd [--addr HOST:PORT] [--workers N] [--sim-threads N] \
                     [--queue-capacity N] [--cache-dir DIR] [--mem-capacity N] \
                     [--disk-capacity N] [--timeout-ms MS] [--read-timeout-ms MS] \
                     [--trace-capacity N] [--events-capacity N] [--observe] \
                     [--fault-plan SPEC] [--quiet] \
                     [--cluster --peers HOST:PORT,... [--self-addr HOST:PORT] \
                     [--vnodes N] [--probe-interval-ms MS] [--peek-timeout-ms MS] \
                     [--replication R] [--cluster-token TOKEN] \
                     [--handoff-batch N] [--handoff-pause-ms MS]]";

fn parse_args() -> Result<ServerConfig, String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:7878".into(),
        ..ServerConfig::default()
    };
    let mut cluster = false;
    let mut cluster_config = ClusterConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} requires a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|_| "--workers must be an integer".to_owned())?;
            }
            "--sim-threads" => {
                config.sim_threads = value("--sim-threads")?
                    .parse()
                    .map_err(|_| "--sim-threads must be an integer".to_owned())?;
            }
            "--queue-capacity" => {
                config.queue_capacity = value("--queue-capacity")?
                    .parse()
                    .map_err(|_| "--queue-capacity must be an integer".to_owned())?;
            }
            "--cache-dir" => config.cache.dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--mem-capacity" => {
                config.cache.mem_capacity = value("--mem-capacity")?
                    .parse()
                    .map_err(|_| "--mem-capacity must be an integer".to_owned())?;
            }
            "--disk-capacity" => {
                config.cache.disk_capacity = value("--disk-capacity")?
                    .parse()
                    .map_err(|_| "--disk-capacity must be an integer".to_owned())?;
            }
            "--timeout-ms" => {
                config.default_timeout_ms = value("--timeout-ms")?
                    .parse()
                    .map_err(|_| "--timeout-ms must be an integer".to_owned())?;
            }
            "--read-timeout-ms" => {
                config.read_timeout_ms = value("--read-timeout-ms")?
                    .parse()
                    .map_err(|_| "--read-timeout-ms must be an integer".to_owned())?;
            }
            "--trace-capacity" => {
                config.trace_capacity = value("--trace-capacity")?
                    .parse()
                    .map_err(|_| "--trace-capacity must be an integer".to_owned())?;
            }
            "--events-capacity" => {
                config.events_capacity = value("--events-capacity")?
                    .parse()
                    .map_err(|_| "--events-capacity must be an integer".to_owned())?;
            }
            "--observe" => levy_obs::set_observers_enabled(true),
            "--fault-plan" => {
                let plan = levy_served::FaultPlan::parse(&value("--fault-plan")?)
                    .map_err(|e| format!("--fault-plan: {e}"))?;
                config.faults = Some(std::sync::Arc::new(plan));
            }
            "--quiet" => config.quiet = true,
            "--cluster" => cluster = true,
            "--peers" => {
                cluster_config.peers = value("--peers")?
                    .split(',')
                    .map(|p| p.trim().to_owned())
                    .filter(|p| !p.is_empty())
                    .collect();
            }
            "--self-addr" => cluster_config.self_addr = value("--self-addr")?,
            "--vnodes" => {
                cluster_config.vnodes = value("--vnodes")?
                    .parse()
                    .map_err(|_| "--vnodes must be an integer".to_owned())?;
            }
            "--probe-interval-ms" => {
                cluster_config.probe_interval_ms = value("--probe-interval-ms")?
                    .parse()
                    .map_err(|_| "--probe-interval-ms must be an integer".to_owned())?;
            }
            "--peek-timeout-ms" => {
                cluster_config.peek_timeout_ms = value("--peek-timeout-ms")?
                    .parse()
                    .map_err(|_| "--peek-timeout-ms must be an integer".to_owned())?;
            }
            "--replication" => {
                cluster_config.replication = value("--replication")?
                    .parse()
                    .map_err(|_| "--replication must be an integer".to_owned())?;
                if cluster_config.replication == 0 {
                    return Err("--replication must be at least 1".to_owned());
                }
            }
            "--cluster-token" => cluster_config.token = Some(value("--cluster-token")?),
            "--handoff-batch" => {
                cluster_config.handoff_batch = value("--handoff-batch")?
                    .parse()
                    .map_err(|_| "--handoff-batch must be an integer".to_owned())?;
                if cluster_config.handoff_batch == 0 {
                    return Err("--handoff-batch must be at least 1".to_owned());
                }
            }
            "--handoff-pause-ms" => {
                cluster_config.handoff_pause_ms = value("--handoff-pause-ms")?
                    .parse()
                    .map_err(|_| "--handoff-pause-ms must be an integer".to_owned())?;
            }
            "--help" | "-h" => return Err(USAGE.to_owned()),
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if cluster {
        if cluster_config.peers.is_empty() {
            return Err(format!("--cluster requires --peers\n{USAGE}"));
        }
        if cluster_config.self_addr.is_empty() {
            // Server::start resolves an ephemeral `:0` after bind.
            cluster_config.self_addr = config.addr.clone();
        }
        config.cluster = Some(cluster_config);
    } else if !cluster_config.peers.is_empty() {
        return Err(format!("--peers requires --cluster\n{USAGE}"));
    }
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args() {
        Ok(c) => c,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    signal::install_handlers();
    let quiet = config.quiet;
    let server = match Server::start(config) {
        Ok(s) => s,
        Err(e) => {
            levy_obs::log::error("levyd", "failed to start", &[("error", e.to_string())]);
            return ExitCode::FAILURE;
        }
    };
    println!("levyd listening on {}", server.addr());
    if !quiet {
        levy_obs::log::info("levyd", "listening", &[("addr", server.addr().to_string())]);
    }

    while !signal::termination_requested() && !server.shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    if !quiet {
        levy_obs::log::info("levyd", "shutting down, draining in-flight work", &[]);
    }
    server.shutdown();
    ExitCode::SUCCESS
}
