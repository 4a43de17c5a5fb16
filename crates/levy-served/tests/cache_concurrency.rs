//! Concurrency stress for the two-tier result cache counters.
//!
//! `/v1/stats` and the bench snapshot treat the cache counters as exact
//! bookkeeping, not estimates: every `get` is counted exactly once as a
//! memory hit, a disk hit, or a miss, and every `put` as one insertion.
//! These tests hammer one shared `ResultCache` from scoped threads with
//! deterministic workloads and assert the counter identities hold no
//! matter how the scheduler interleaved the threads.

use std::path::PathBuf;

use levy_served::request::fnv1a_128_hex;
use levy_served::{engine, CacheConfig, CacheTier, Query, ResultCache};
use levy_sim::{CancelToken, Json};

/// Reads one counter out of the cache's stats JSON.
fn stat(cache: &ResultCache, name: &str) -> u64 {
    cache
        .stats_json()
        .get(name)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("stat {name} missing"))
}

/// A real `result-v1` envelope and its key, as the engine stores them: a
/// tiny single-walk query whose `seed` tells entries apart.
fn envelope(seed: u64) -> (String, String) {
    let query = Query::from_json(
        &Json::parse(&format!(
            r#"{{"kind":"single_walk","alpha":2.0,"ell":8,"budget":64,"trials":4,"seed":{seed}}}"#
        ))
        .unwrap(),
    )
    .unwrap();
    let body = engine::execute(&query, 1, &CancelToken::new())
        .unwrap()
        .to_string_pretty();
    (query.cache_key(), body)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "levy-served-cache-stress-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

#[test]
fn disjoint_puts_then_gets_count_exactly() {
    let threads = 8usize;
    let keys_per_thread = 512usize;
    let absent_per_thread = 64usize;
    let cache = ResultCache::new(CacheConfig {
        mem_capacity: threads * keys_per_thread,
        disk_capacity: 0,
        dir: None,
    })
    .expect("cache");
    // The memory tier never inspects bodies: one envelope serves all keys.
    let (_, body) = envelope(0);

    // Phase 1: every thread inserts its own disjoint key range.
    std::thread::scope(|scope| {
        for t in 0..threads {
            let (cache, body) = (&cache, &body);
            scope.spawn(move || {
                for i in 0..keys_per_thread {
                    let key = format!("k-{t}-{i}");
                    cache.put(&key, body);
                }
            });
        }
    });
    let total = (threads * keys_per_thread) as u64;
    assert_eq!(stat(&cache, "insertions"), total);
    assert_eq!(stat(&cache, "evictions"), 0);
    assert_eq!(cache.mem_len() as u64, total, "no insert may be lost");

    // Phase 2: concurrent reads — own keys hit memory, absent keys miss.
    std::thread::scope(|scope| {
        for t in 0..threads {
            let cache = &cache;
            scope.spawn(move || {
                for i in 0..keys_per_thread {
                    let (_, tier) = cache.get(&format!("k-{t}-{i}")).expect("warm key");
                    assert_eq!(tier, CacheTier::Memory);
                }
                for i in 0..absent_per_thread {
                    assert!(cache.get(&format!("absent-{t}-{i}")).is_none());
                }
            });
        }
    });
    let gets = total + (threads * absent_per_thread) as u64;
    assert_eq!(stat(&cache, "mem_hits"), total);
    assert_eq!(stat(&cache, "misses"), (threads * absent_per_thread) as u64);
    assert_eq!(
        stat(&cache, "mem_hits") + stat(&cache, "disk_hits") + stat(&cache, "misses"),
        gets,
        "every get must be counted exactly once"
    );
}

#[test]
fn contended_get_or_put_preserves_counter_identities() {
    // All threads walk the SAME key set in rotated orders, inserting on
    // miss — the racy read-modify-write the server's handler path does.
    // The interleaving is nondeterministic; the identities are not.
    let threads = 8usize;
    let keys = 256usize;
    let cache = ResultCache::new(CacheConfig {
        mem_capacity: keys,
        disk_capacity: 0,
        dir: None,
    })
    .expect("cache");
    let (_, body) = envelope(0);

    std::thread::scope(|scope| {
        for t in 0..threads {
            let (cache, body) = (&cache, &body);
            scope.spawn(move || {
                for i in 0..keys {
                    let key = format!("shared-{}", (i + t * 31) % keys);
                    if cache.get(&key).is_none() {
                        cache.put(&key, body);
                    }
                }
            });
        }
    });

    let gets = (threads * keys) as u64;
    let hits = stat(&cache, "mem_hits");
    let misses = stat(&cache, "misses");
    assert_eq!(hits + misses, gets, "every get counted exactly once");
    // Each miss triggered exactly one put; each key missed at least once.
    assert_eq!(stat(&cache, "insertions"), misses);
    assert!(misses >= keys as u64, "every key misses on first touch");
    assert_eq!(cache.mem_len(), keys);
    assert_eq!(stat(&cache, "evictions"), 0);
}

#[test]
fn concurrent_evictions_balance_insertions() {
    // Distinct keys over a small memory tier: each insert past capacity
    // evicts exactly one entry, so the books must balance exactly.
    let threads = 8usize;
    let keys_per_thread = 128usize;
    let capacity = 64usize;
    let cache = ResultCache::new(CacheConfig {
        mem_capacity: capacity,
        disk_capacity: 0,
        dir: None,
    })
    .expect("cache");
    let (_, body) = envelope(0);

    std::thread::scope(|scope| {
        for t in 0..threads {
            let (cache, body) = (&cache, &body);
            scope.spawn(move || {
                for i in 0..keys_per_thread {
                    let key = format!("evict-{t}-{i}");
                    cache.put(&key, body);
                }
            });
        }
    });

    let total = (threads * keys_per_thread) as u64;
    assert_eq!(stat(&cache, "insertions"), total);
    assert_eq!(
        stat(&cache, "evictions"),
        total - capacity as u64,
        "live entries + evictions must equal insertions"
    );
    assert_eq!(cache.mem_len(), capacity);
}

#[test]
fn disk_tier_counters_are_exact_under_contention() {
    let threads = 4usize;
    let keys_per_thread = 32usize;
    let dir = temp_dir("disk");
    // mem_capacity 0 forces every get through the disk tier.
    let cache = ResultCache::new(CacheConfig {
        mem_capacity: 0,
        disk_capacity: 4096,
        dir: Some(dir.clone()),
    })
    .expect("cache");

    // Disk reads validate every body against its key, so each thread
    // stores distinct real envelopes under their own keys.
    let entries: Vec<Vec<(String, String)>> = (0..threads)
        .map(|t| {
            (0..keys_per_thread)
                .map(|i| envelope((t * keys_per_thread + i) as u64))
                .collect()
        })
        .collect();
    std::thread::scope(|scope| {
        for own in &entries {
            let cache = &cache;
            scope.spawn(move || {
                for (key, body) in own {
                    cache.put(key, body);
                }
            });
        }
    });
    std::thread::scope(|scope| {
        for (t, own) in entries.iter().enumerate() {
            let cache = &cache;
            scope.spawn(move || {
                for (key, _) in own {
                    let (_, tier) = cache.get(key).expect("stored key");
                    assert_eq!(tier, CacheTier::Disk);
                }
                assert!(cache
                    .get(&fnv1a_128_hex(format!("absent-{t}").as_bytes()))
                    .is_none());
            });
        }
    });

    let total = (threads * keys_per_thread) as u64;
    assert_eq!(stat(&cache, "insertions"), total);
    assert_eq!(stat(&cache, "disk_hits"), total);
    assert_eq!(stat(&cache, "misses"), threads as u64);
    assert_eq!(stat(&cache, "corrupt_entries"), 0);
    assert_eq!(stat(&cache, "disk_errors"), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
