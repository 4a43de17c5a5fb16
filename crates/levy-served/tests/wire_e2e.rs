//! End-to-end tests for the levy-wire binary representation and
//! streaming partial results.
//!
//! These pin the PR's acceptance criteria over real TCP: a
//! wire-negotiated query transcodes byte-exactly to the JSON body, a
//! cached binary replay serves the very bytes sitting in the `.lw`
//! sidecar on disk, version skew gets a structured 406 (never a
//! panic), and the streaming path delivers live trial batches whose
//! terminal frame is byte-identical to a non-streaming response at the
//! same seed — through client disconnects and mid-stream deadlines.

use std::path::PathBuf;
use std::time::Duration;

use levy_served::server::{Server, ServerConfig};
use levy_served::{wirecodec, CacheConfig, Client, Query};
use levy_sim::Json;
use levy_wire::{Frame, MEDIA_TYPE, STREAM_MEDIA_TYPE};

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
    let dir = std::env::temp_dir().join(format!("levy-wire-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const E6_QUERY: &str = r#"{"kind":"parallel","strategy":"optimal","k":8,"ell":16,
    "budget":4000,"trials":300,"seed":42}"#;

/// Adaptive: runs in batches, so a stream carries Batch frames before
/// the Final one.
const ADAPTIVE_QUERY: &str = r#"{"kind":"single_walk","alpha":2.2,"ell":4,"budget":400,
    "precision":{"absolute":0.05,"relative":0.5,"max_trials":4096},"seed":5}"#;

/// Adaptive and slow: an unreachable precision target on a long walk,
/// so batches keep arriving for many seconds — room to disconnect or
/// hit a deadline mid-stream.
const SLOW_ADAPTIVE: &str = r#"{"kind":"single_walk","alpha":2.0,"ell":1000000,"budget":50000,
    "precision":{"absolute":0.000001,"relative":0.000001,"max_trials":200000},"seed":9}"#;

const WIRE_ACCEPT: &[(&str, &str)] = &[("accept", MEDIA_TYPE)];

#[test]
fn wire_negotiated_query_transcodes_to_the_exact_json_body() {
    let (server, client) = start(test_config());
    let json = client.post("/v1/query", E6_QUERY).expect("json ok");
    assert_eq!(json.status, 200, "body: {}", json.body_string());

    let wire = client
        .request_with_headers("POST", "/v1/query", WIRE_ACCEPT, E6_QUERY.as_bytes())
        .expect("wire ok");
    assert_eq!(wire.status, 200);
    assert_eq!(wire.header("content-type"), Some(MEDIA_TYPE));
    assert_eq!(
        wire.header("x-levy-cache"),
        Some("hit"),
        "same canonical query"
    );
    // The binary body IS the canonical encoding of the JSON body, and
    // transcoding it back reproduces the JSON bytes exactly.
    let json_body = Json::parse(&json.body_string()).unwrap();
    assert_eq!(wire.body, wirecodec::encode_result(&json_body).unwrap());
    let transcoded = wirecodec::decode_result_to_json(&wire.body).unwrap();
    assert_eq!(transcoded.to_string_pretty(), json.body_string());
    // The LW1 size ratio is a pure function of the bytes. This body is
    // 679 B of JSON against 101 B of LW1 (6.7×); 4.88× is 0.70 of the
    // 6.97× (704 B against 101 B) of the same shape at seed 0.
    assert!(
        json.body.len() as f64 >= 4.88 * wire.body.len() as f64,
        "the wire form ({}) must be at least 4.88x smaller than JSON ({})",
        wire.body.len(),
        json.body.len()
    );
    assert!(server.stats().wire_requests.get() >= 1);

    // A binary *request* body works too and lands on the same key.
    let query = Query::from_json(&Json::parse(E6_QUERY).unwrap()).unwrap();
    let binary = client
        .request_full(
            "POST",
            "/v1/query",
            MEDIA_TYPE,
            WIRE_ACCEPT,
            &wirecodec::encode_query(&query),
        )
        .expect("binary body ok");
    assert_eq!(binary.status, 200);
    assert_eq!(binary.header("x-levy-cache"), Some("hit"));
    assert_eq!(binary.body, wire.body);
    server.shutdown();
}

#[test]
fn version_skew_and_damaged_bodies_are_structured_errors() {
    let (server, client) = start(test_config());
    // Future wire version in Accept: 406, never a panic.
    let skew = client
        .request_with_headers(
            "POST",
            "/v1/query",
            &[("accept", "application/x-levy-wire;v=2")],
            E6_QUERY.as_bytes(),
        )
        .expect("request ok");
    assert_eq!(skew.status, 406, "body: {}", skew.body_string());
    assert!(Json::parse(&skew.body_string())
        .unwrap()
        .get("error")
        .is_some());

    // Version byte bumped inside a binary body: clean 400.
    let query = Query::from_json(&Json::parse(E6_QUERY).unwrap()).unwrap();
    let mut bytes = wirecodec::encode_query(&query);
    bytes[2] = 2;
    let bumped = client
        .request_full("POST", "/v1/query", MEDIA_TYPE, &[], &bytes)
        .expect("request ok");
    assert_eq!(bumped.status, 400);
    assert!(Json::parse(&bumped.body_string())
        .unwrap()
        .get("error")
        .is_some());
    assert_eq!(
        server.stats().simulations_started.get(),
        0,
        "rejected frames must never reach the engine"
    );
    server.shutdown();
}

#[test]
fn cached_binary_replay_serves_the_exact_on_disk_bytes() {
    let dir = temp_dir("lw-replay");
    let (server, client) = start(ServerConfig {
        cache: CacheConfig {
            mem_capacity: 0,
            disk_capacity: 64,
            dir: Some(dir.clone()),
        },
        ..test_config()
    });
    let cold = client.post("/v1/query", E6_QUERY).expect("cold ok");
    assert_eq!(cold.status, 200);

    let key = Query::from_json(&Json::parse(E6_QUERY).unwrap())
        .unwrap()
        .cache_key();
    let sidecar = std::fs::read(dir.join(format!("{key}.lw"))).expect(".lw sidecar written");

    let warm = client
        .request_with_headers("POST", "/v1/query", WIRE_ACCEPT, E6_QUERY.as_bytes())
        .expect("warm ok");
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-levy-cache"), Some("hit"));
    assert_eq!(warm.header("x-levy-cache-tier"), Some("disk"));
    assert_eq!(
        warm.body, sidecar,
        "a binary replay must serve the sidecar's bytes untouched"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streaming_final_body_is_byte_identical_to_the_buffered_path() {
    // Buffered, on its own server: the reference bytes.
    let (buffered, client) = start(test_config());
    let reference = client.post("/v1/query", ADAPTIVE_QUERY).expect("ok");
    assert_eq!(reference.status, 200, "body: {}", reference.body_string());
    buffered.shutdown();

    // Streamed cold on a fresh server.
    let (server, client) = start(test_config());
    let (head, mut reader) = client
        .open_stream(
            "/v1/query",
            "application/json",
            &[],
            ADAPTIVE_QUERY.as_bytes(),
        )
        .expect("stream opens");
    assert_eq!(head.status, 200);
    assert!(head.chunked, "streaming responses are chunked");
    assert_eq!(head.header("content-type"), Some(STREAM_MEDIA_TYPE));
    assert_eq!(head.header("x-levy-cache"), Some("miss"));
    let mut batches = 0u32;
    let mut trials = 0u64;
    let mut final_body: Option<Vec<u8>> = None;
    while let Some(chunk) = reader.next_chunk().expect("chunk") {
        match Frame::decode(&chunk).expect("every chunk is a frame") {
            Frame::Batch(batch) => {
                batches += 1;
                trials += batch.trials_delta;
                assert!(batch.ci.0 <= batch.p && batch.p <= batch.ci.1);
            }
            Frame::Final(frame) => final_body = Some(frame.body),
            other => panic!("unexpected frame in stream: {other:?}"),
        }
    }
    let final_body = final_body.expect("stream ends with a Final frame");
    assert!(batches >= 1, "adaptive runs must surface progress");
    assert_eq!(
        final_body, reference.body,
        "stream-on and stream-off bodies must be byte-identical"
    );
    // The deltas reconstruct the run: total trials match the envelope.
    let envelope = Json::parse(&reference.body_string()).unwrap();
    let trials_used = envelope
        .get("result")
        .unwrap()
        .get("trials_used")
        .unwrap()
        .as_u64()
        .unwrap();
    assert_eq!(trials, trials_used);
    assert_eq!(server.stats().streams_started.get(), 1);

    // Warm + wire accept: one Final frame carrying the binary encoding.
    let (head, mut reader) = client
        .open_stream(
            "/v1/query",
            "application/json",
            WIRE_ACCEPT,
            ADAPTIVE_QUERY.as_bytes(),
        )
        .expect("stream opens");
    assert_eq!(head.header("x-levy-cache"), Some("hit"));
    let chunk = reader.next_chunk().expect("chunk").expect("one frame");
    match Frame::decode(&chunk).expect("frame") {
        Frame::Final(frame) => {
            assert_eq!(frame.body, wirecodec::encode_result(&envelope).unwrap());
        }
        other => panic!("expected Final, got {other:?}"),
    }
    assert_eq!(reader.next_chunk().expect("end"), None);
    server.shutdown();
}

#[test]
fn client_disconnect_mid_stream_cancels_the_job() {
    let (server, client) = start(test_config());
    let (head, reader) = client
        .open_stream(
            "/v1/query",
            "application/json",
            &[],
            SLOW_ADAPTIVE.as_bytes(),
        )
        .expect("stream opens");
    assert_eq!(head.status, 200);
    // Hang up without reading a single chunk. The server only learns on
    // its next chunk write, so give the batch cadence time to surface.
    drop(reader);
    for _ in 0..2400 {
        if server.stats().streams_cancelled.get() == 1
            && server.stats().simulations_cancelled.get() == 1
        {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(
        server.stats().streams_cancelled.get(),
        1,
        "the dead stream must be noticed"
    );
    assert_eq!(
        server.stats().simulations_cancelled.get(),
        1,
        "the last waiter hanging up must cancel the simulation"
    );
    server.shutdown();
}

#[test]
fn deadline_mid_stream_emits_a_terminal_error_frame() {
    let (server, client) = start(test_config());
    let query = SLOW_ADAPTIVE.replacen('{', r#"{"timeout_ms":300,"#, 1);
    let (head, mut reader) = client
        .open_stream("/v1/query", "application/json", &[], query.as_bytes())
        .expect("stream opens");
    // The deadline hits *after* the head: the stream is already 200 +
    // chunked, so the timeout must arrive in-band.
    assert_eq!(head.status, 200);
    let mut terminal: Option<Frame> = None;
    while let Some(chunk) = reader.next_chunk().expect("chunk") {
        terminal = Some(Frame::decode(&chunk).expect("frame"));
    }
    match terminal {
        Some(Frame::Error(error)) => {
            assert_eq!(error.status, 504);
            assert!(!error.message.is_empty());
        }
        other => panic!("expected a terminal 504 Error frame, got {other:?}"),
    }
    assert_eq!(server.stats().wait_timeouts.get(), 1);
    for _ in 0..2400 {
        if server.stats().simulations_cancelled.get() == 1 {
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(
        server.stats().simulations_cancelled.get(),
        1,
        "the deadline detach must cancel the abandoned job"
    );
    server.shutdown();
}
