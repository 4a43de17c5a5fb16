//! Outside-timed calls into single layers: each number times a public
//! function of one crate on fixed, seeded inputs and reports the median
//! over several batches.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use levy_cluster::HashRing;
use levy_grid::Point;
use levy_obs::TraceStore;
use levy_rng::{JumpLengthDistribution, SeedStream};
use levy_served::server::{Server, ServerConfig};
use levy_served::{engine, wirecodec, CacheConfig, CachedBody, Client, Query, ResultCache};
use levy_sim::{run_trials, CancelToken, Json, TargetPlacement};
use levy_walks::{levy_walk_hitting_time, parallel_hitting_time_common};
use rand::Rng;

use crate::report::Outcome;
use crate::serving::COLD_SHAPES;
use crate::stats::median;

/// Median over `batches` of the per-operation time of `batch`, which
/// performs `ops` operations per call.
fn per_op(batches: u64, ops: u64, mut batch: impl FnMut(u64)) -> f64 {
    let times: Vec<f64> = (0..batches)
        .map(|b| {
            let start = Instant::now();
            batch(b);
            start.elapsed().as_secs_f64() / ops as f64
        })
        .collect();
    median(&times)
}

/// The sweep cell the walk and runner numbers use: α 2.5, ℓ 64, budget
/// ⌈4ℓ^1.5⌉, random target direction.
const ALPHA: f64 = 2.5;
const ELL: u64 = 64;
const BUDGET: u64 = 2048;

/// The E6 query the request-path numbers parse.
const QUERY: &str =
    r#"{"kind":"parallel","strategy":"optimal","k":8,"ell":16,"budget":4000,"trials":60,"seed":7}"#;

/// Every layer micro-measurement, seeded by `seed`; scratch files go
/// under `dir` and are removed.
pub fn measure(seed: u64, dir: &Path, out: &mut Outcome) {
    let seeds = SeedStream::new(seed).child(0x1a7e);
    let mut metrics = Vec::new();
    metrics.extend(sampler(seeds.child(0)));
    metrics.extend(walks(seeds.child(1)));
    metrics.extend(runner(seeds.child(2)));
    out.note(format!(
        "levy_sim.scaling_2t measured with available_parallelism {}",
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    metrics.push((
        "levy_served.engine.execute_ms",
        engine_execute(seeds.child(3)),
    ));
    metrics.push(("levy_cluster.home_ns", ring_home(seeds.child(4))));
    metrics.extend(request_parse());
    metrics.extend(cache(dir));
    metrics.extend(wire_codec(out));
    metrics.push(("levy_served.http.exchange_us", http_exchange()));
    metrics.push(("levy_obs.trace_finish_us", trace_finish()));
    for (name, value) in metrics {
        out.metric(name, value);
    }
}

fn sampler(seeds: SeedStream) -> Vec<(&'static str, f64)> {
    let tabled = JumpLengthDistribution::new(ALPHA).expect("valid exponent");
    let untabled = JumpLengthDistribution::new_untabled(ALPHA).expect("valid exponent");
    let draws = |law: &JumpLengthDistribution, batches: u64, per_batch: u64| {
        per_op(batches, per_batch, |b| {
            let mut rng = seeds.child(b).rng();
            let mut sum = 0u64;
            for _ in 0..per_batch {
                sum = sum.wrapping_add(law.sample(&mut rng));
            }
            black_box(sum);
        }) * 1e9
    };
    vec![
        ("levy_rng.sample_ns", draws(&tabled, 8, 1_000_000)),
        ("levy_rng.untabled_sample_ns", draws(&untabled, 8, 100_000)),
    ]
}

fn walks(seeds: SeedStream) -> Vec<(&'static str, f64)> {
    let law = JumpLengthDistribution::new(ALPHA).expect("valid exponent");
    let placement = TargetPlacement::RandomDirection;
    let (mut attempted, mut censored) = (0u64, 0u64);
    let single = per_op(5, 2000, |b| {
        let mut rng = seeds.child(b).rng();
        for _ in 0..2000 {
            let target = placement.place(ELL, &mut rng);
            let hit = levy_walk_hitting_time(&law, Point::ORIGIN, target, BUDGET, &mut rng);
            attempted += 1;
            censored += u64::from(black_box(hit).is_none());
        }
    });
    let parallel = per_op(5, 200, |b| {
        let mut rng = seeds.child(100 + b).rng();
        for _ in 0..200 {
            let target = placement.place(ELL, &mut rng);
            black_box(parallel_hitting_time_common(
                8,
                &law,
                Point::ORIGIN,
                target,
                BUDGET,
                &mut rng,
            ));
        }
    });
    vec![
        ("levy_walks.walk_trial_us", single * 1e6),
        ("levy_walks.parallel_trial_us", parallel * 1e6),
        (
            "levy_walks.censored_ratio",
            censored as f64 / attempted as f64,
        ),
    ]
}

fn runner(seeds: SeedStream) -> Vec<(&'static str, f64)> {
    let law = JumpLengthDistribution::new(ALPHA).expect("valid exponent");
    let trials = 4000;
    let run = |threads: usize, rep: u64| {
        let start = Instant::now();
        let hits = run_trials(trials, seeds.child(rep), threads, |_i, rng| {
            let target = TargetPlacement::RandomDirection.place(ELL, rng);
            levy_walk_hitting_time(&law, Point::ORIGIN, target, BUDGET, rng).is_some()
        });
        black_box(hits);
        start.elapsed().as_secs_f64()
    };
    // Alternate thread counts so drift on a shared host hits both alike.
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for rep in 0..5 {
        one.push(run(1, rep));
        two.push(run(2, rep));
    }
    let (one, two) = (median(&one), median(&two));
    vec![
        ("levy_sim.trials_per_s_1t", trials as f64 / one),
        ("levy_sim.scaling_2t", one / two),
    ]
}

/// `engine::execute` on one thread of the four `cold_mix` shapes, fresh
/// seeds in every batch: the mean time per query.
fn engine_execute(seeds: SeedStream) -> f64 {
    let batches: Vec<Vec<Query>> = (0..5)
        .map(|b| {
            let mut rng = seeds.child(b).rng();
            COLD_SHAPES
                .iter()
                .map(|(_, fields)| {
                    let body = format!("{{{fields},\"seed\":{}}}", rng.gen::<u64>() >> 11);
                    Query::from_json(&Json::parse(&body).expect("query JSON")).expect("valid query")
                })
                .collect()
        })
        .collect();
    per_op(5, COLD_SHAPES.len() as u64, |b| {
        for query in &batches[b as usize] {
            black_box(engine::execute(query, 1, &CancelToken::new()).expect("query completes"));
        }
    }) * 1e3
}

/// `HashRing::home` on a three-member, 64-vnode ring (the `cluster_mix`
/// ring) over seeded keys.
fn ring_home(seeds: SeedStream) -> f64 {
    let ring = HashRing::new(&["10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"], 64)
        .expect("three-member ring");
    let mut rng = seeds.rng();
    let keys: Vec<u128> = (0..4096)
        .map(|_| (u128::from(rng.gen::<u64>()) << 64) | u128::from(rng.gen::<u64>()))
        .collect();
    per_op(5, 100 * keys.len() as u64, |_| {
        for _ in 0..100 {
            for &key in &keys {
                black_box(ring.home(black_box(key)));
            }
        }
    }) * 1e9
}

fn request_parse() -> Vec<(&'static str, f64)> {
    let query = Query::from_json(&Json::parse(QUERY).expect("query JSON")).expect("valid query");
    let wire = wirecodec::encode_query(&query);
    let json_us = per_op(5, 20_000, |_| {
        for _ in 0..20_000 {
            let parsed = Json::parse(black_box(QUERY)).expect("query JSON");
            let query = Query::from_json(&parsed).expect("valid query");
            black_box(query.cache_key());
        }
    }) * 1e6;
    let wire_us = per_op(5, 20_000, |_| {
        for _ in 0..20_000 {
            black_box(wirecodec::decode_query_with_key(black_box(&wire)).expect("wire query"));
        }
    }) * 1e6;
    vec![
        ("levy_served.request.parse_json_us", json_us),
        ("levy_served.request.parse_wire_us", wire_us),
    ]
}

/// A real result envelope: the cheap `warm_zipf` query, executed.
fn envelope() -> Json {
    envelope_for_seed(3)
}

fn envelope_for_seed(seed: u64) -> Json {
    let body = format!(
        r#"{{"kind":"single_walk","alpha":2.5,"ell":8,"budget":200,"trials":20,"seed":{seed}}}"#
    );
    let query = Query::from_json(&Json::parse(&body).expect("query JSON")).expect("valid query");
    engine::execute(&query, 1, &CancelToken::new()).expect("uncancelled query completes")
}

/// Cache tier calls: `get` of 512 memory hits; `get` of 64 disk hits
/// through a memory-less cache, so every call reads and validates both
/// files; and `put_body` into a full 512-entry memory tier, so every
/// insert also pays for an eviction.
fn cache(dir: &Path) -> Vec<(&'static str, f64)> {
    let cached = CachedBody::from_json(&envelope().to_string_pretty());
    let keys: Vec<String> = (0..5 * 2000 + 512u64)
        .map(|i| format!("{i:032x}"))
        .collect();
    let memory = ResultCache::new(CacheConfig {
        mem_capacity: 512,
        disk_capacity: 0,
        dir: None,
    })
    .expect("memory-only cache");
    for key in &keys[..512] {
        memory.put_body(key, &cached);
    }
    let get_mem_us = per_op(5, 5120, |_| {
        for _ in 0..10 {
            for key in &keys[..512] {
                black_box(memory.get(key));
            }
        }
    }) * 1e6;
    let put_us = per_op(5, 2000, |b| {
        let start = 512 + b as usize * 2000;
        for key in &keys[start..start + 2000] {
            memory.put_body(key, &cached);
        }
    }) * 1e6;

    let disk_dir = dir.join(format!("layers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&disk_dir);
    let disk = ResultCache::new(CacheConfig {
        mem_capacity: 0,
        disk_capacity: 64,
        dir: Some(disk_dir.clone()),
    })
    .expect("disk-tier cache directory");
    // Real envelopes: a disk read validates the body against its key.
    let stored: Vec<(String, CachedBody)> = (0..64)
        .map(|seed| {
            let json = envelope_for_seed(seed).to_string_pretty();
            let key = Json::parse(&json)
                .ok()
                .and_then(|j| j.get("key").and_then(Json::as_str).map(str::to_owned))
                .expect("envelopes carry their key");
            (key, CachedBody::from_json(&json))
        })
        .collect();
    for (key, body) in &stored {
        disk.put_body(key, body);
    }
    let get_disk_us = per_op(5, 640, |_| {
        for _ in 0..10 {
            for (key, _) in &stored {
                black_box(disk.get(key).expect("stored key is a disk hit"));
            }
        }
    }) * 1e6;
    let _ = std::fs::remove_dir_all(&disk_dir);
    vec![
        ("levy_served.cache.get_mem_us", get_mem_us),
        ("levy_served.cache.get_disk_us", get_disk_us),
        ("levy_served.cache.put_us", put_us),
    ]
}

fn wire_codec(out: &mut Outcome) -> Vec<(&'static str, f64)> {
    let envelope = envelope();
    let json = envelope.to_string_pretty();
    let wire = wirecodec::encode_result(&envelope).expect("result envelope encodes");
    let encode_us = per_op(5, 5000, |_| {
        for _ in 0..5000 {
            black_box(wirecodec::encode_result(black_box(&envelope)).expect("encodes"));
        }
    }) * 1e6;
    let decode_us = per_op(5, 5000, |_| {
        for _ in 0..5000 {
            black_box(wirecodec::decode_result_to_json(black_box(&wire)).expect("decodes"));
        }
    }) * 1e6;
    out.note(format!(
        "levy_served.wirecodec body bytes: {} JSON, {} LW1 wire",
        json.len(),
        wire.len()
    ));
    vec![
        ("levy_served.wirecodec.encode_result_us", encode_us),
        ("levy_served.wirecodec.decode_result_us", decode_us),
    ]
}

/// One `GET /healthz` exchange against an idle in-process node, back to
/// back on one connection at a time: connect, accept, parse, route,
/// write, read.
fn http_exchange() -> f64 {
    let server = Server::start(ServerConfig {
        quiet: true,
        ..ServerConfig::default()
    })
    .expect("exchange node starts");
    let client = Client::new(&server.addr().to_string());
    let exchange_us = per_op(5, 200, |_| {
        for _ in 0..200 {
            let response = client.get("/healthz").expect("healthz exchange");
            assert_eq!(response.status, 200, "healthz answers 200");
        }
    }) * 1e6;
    server.shutdown();
    exchange_us
}

/// `start_root` + `finish` into a store already holding its default
/// capacity (256) of finished traces, so every finish evicts.
fn trace_finish() -> f64 {
    let store = TraceStore::new(256);
    for _ in 0..256 {
        store.start_root("request", None).finish();
    }
    per_op(5, 2000, |_| {
        for _ in 0..2000 {
            let root = store.start_root("request", None);
            root.set_status(200);
            root.finish();
        }
    }) * 1e6
}
