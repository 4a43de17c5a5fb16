//! Content-addressed result cache: in-memory LRU over an optional
//! on-disk store.
//!
//! Keys are the FNV-1a-128 hex digests of canonical queries (see
//! `request`), so a body cached under a key is *the* answer for every
//! request that canonicalizes to it — seeded determinism makes hits
//! exact, not approximate. The memory tier is LRU-bounded by entry
//! count; the disk tier persists bodies as `<dir>/<key>.json` and is
//! bounded by file count with oldest-written-first eviction (tie-broken
//! by name). Disk entries survive daemon restarts; a disk hit promotes
//! the body back into memory.
//!
//! Each entry carries **two representations** of the same result: the
//! pretty-printed JSON envelope (authoritative, validated on every disk
//! read) and its `levy-wire` binary encoding stored alongside as
//! `<dir>/<key>.lw`. Wire-negotiated replays serve the `.lw` bytes
//! exactly as stored — no re-encode on the hit path. A missing or
//! structurally invalid `.lw` is repaired by deterministically
//! re-encoding from the JSON body, so the binary tier can never make a
//! valid entry unservable.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use levy_obs::{Counter, Gauge, Registry};
use levy_sim::Json;

use crate::wirecodec;

/// Filesystem seam for the disk tier.
///
/// The cache never touches `std::fs` directly; it goes through this
/// trait so tests can interpose deterministic failures (see
/// [`fault::FaultDisk`](crate::fault::FaultDisk)) without monkeying
/// with a real filesystem. [`StdDisk`] is the production
/// implementation.
pub trait DiskStore: Send + Sync + std::fmt::Debug {
    /// Reads a stored body.
    fn read(&self, path: &Path) -> io::Result<String>;
    /// Stores a body atomically (readers never observe a torn write).
    fn write(&self, path: &Path, body: &str) -> io::Result<()>;
    /// Reads a stored binary sidecar (`.lw` wire encoding).
    fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Stores a binary sidecar atomically.
    fn write_bytes(&self, path: &Path, body: &[u8]) -> io::Result<()>;
    /// Removes a stored body.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Lists stored entries as `(modified, path)` pairs.
    fn list(&self, dir: &Path) -> io::Result<Vec<(SystemTime, PathBuf)>>;
}

/// The real filesystem: `std::fs` with write-then-rename stores.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdDisk;

impl DiskStore for StdDisk {
    fn read(&self, path: &Path) -> io::Result<String> {
        fs::read_to_string(path)
    }

    fn write(&self, path: &Path, body: &str) -> io::Result<()> {
        // Write-then-rename so concurrent readers never observe a
        // torn body.
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, body).and_then(|()| fs::rename(&tmp, path))
    }

    fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write_bytes(&self, path: &Path, body: &[u8]) -> io::Result<()> {
        // Distinct temp extension: `<key>.json` and `<key>.lw` would
        // otherwise collide on the same `<key>.tmp` staging file.
        let tmp = path.with_extension("lw.tmp");
        fs::write(&tmp, body).and_then(|()| fs::rename(&tmp, path))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<(SystemTime, PathBuf)>> {
        Ok(fs::read_dir(dir)?
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .filter_map(|e| {
                let modified = e.metadata().and_then(|m| m.modified()).ok()?;
                Some((modified, e.path()))
            })
            .collect())
    }
}

/// Which tier served a cache hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// In-memory LRU.
    Memory,
    /// On-disk store (body was promoted to memory on the way out).
    Disk,
}

impl CacheTier {
    /// Lowercase name for headers and logs.
    pub fn as_str(&self) -> &'static str {
        match self {
            CacheTier::Memory => "memory",
            CacheTier::Disk => "disk",
        }
    }
}

/// Cache sizing and placement.
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum in-memory entries (0 disables the memory tier).
    pub mem_capacity: usize,
    /// Maximum on-disk entries (0 disables the disk tier).
    pub disk_capacity: usize,
    /// Directory for the disk tier; `None` disables it.
    pub dir: Option<PathBuf>,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            mem_capacity: 256,
            disk_capacity: 4096,
            dir: None,
        }
    }
}

/// A cached result in both of its representations.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedBody {
    /// The pretty-printed JSON envelope (authoritative representation).
    pub json: String,
    /// The `levy-wire` binary encoding of the same envelope; `None`
    /// when the body is not an encodable `result-v1` envelope.
    pub wire: Option<Vec<u8>>,
}

impl CachedBody {
    /// Builds both representations from a JSON body. Encoding failure
    /// (non-envelope bodies, as some tests store) just drops the wire
    /// side; JSON replay is never affected.
    pub fn from_json(json: &str) -> CachedBody {
        let wire = Json::parse(json)
            .ok()
            .and_then(|parsed| wirecodec::encode_result(&parsed).ok());
        CachedBody {
            json: json.to_owned(),
            wire,
        }
    }
}

/// LRU entries: body plus a recency tick.
struct MemEntry {
    body: CachedBody,
    tick: u64,
}

/// The two-tier result cache. All methods are `&self`; internal state is
/// mutex-protected so handler and worker threads share one instance.
pub struct ResultCache {
    config: CacheConfig,
    store: Arc<dyn DiskStore>,
    mem: Mutex<HashMap<String, MemEntry>>,
    clock: AtomicU64,
    mem_hits: Counter,
    disk_hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
    corrupt_entries: Counter,
    disk_errors: Counter,
    mem_entries: Gauge,
}

impl ResultCache {
    /// Creates the cache over the real filesystem, creating the disk
    /// directory if configured.
    pub fn new(config: CacheConfig) -> io::Result<ResultCache> {
        ResultCache::with_store(config, Arc::new(StdDisk))
    }

    /// Creates the cache over an explicit [`DiskStore`] (fault
    /// injection and tests).
    pub fn with_store(config: CacheConfig, store: Arc<dyn DiskStore>) -> io::Result<ResultCache> {
        if let Some(dir) = &config.dir {
            fs::create_dir_all(dir)?;
        }
        Ok(ResultCache {
            config,
            store,
            mem: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            mem_hits: Counter::new(),
            disk_hits: Counter::new(),
            misses: Counter::new(),
            insertions: Counter::new(),
            evictions: Counter::new(),
            corrupt_entries: Counter::new(),
            disk_errors: Counter::new(),
            mem_entries: Gauge::new(),
        })
    }

    /// Adopts this cache's counters into `registry` under
    /// `levy_served_cache_*` names so `/metrics` can scrape them.
    pub fn register_metrics(&self, registry: &Registry) {
        registry.register_counter(
            "levy_served_cache_mem_hits_total",
            "Cache lookups served by the in-memory tier.",
            &self.mem_hits,
        );
        registry.register_counter(
            "levy_served_cache_disk_hits_total",
            "Cache lookups served by the disk tier (promoted to memory).",
            &self.disk_hits,
        );
        registry.register_counter(
            "levy_served_cache_misses_total",
            "Cache lookups that found nothing in either tier.",
            &self.misses,
        );
        registry.register_counter(
            "levy_served_cache_insertions_total",
            "Bodies stored in the cache.",
            &self.insertions,
        );
        registry.register_counter(
            "levy_served_cache_evictions_total",
            "Entries evicted from either tier to stay within capacity.",
            &self.evictions,
        );
        registry.register_counter(
            "levy_served_cache_corrupt_entries_total",
            "Disk entries dropped because their body failed validation.",
            &self.corrupt_entries,
        );
        registry.register_counter(
            "levy_served_cache_disk_errors_total",
            "Disk-tier reads or writes that failed with an I/O error.",
            &self.disk_errors,
        );
        registry.register_gauge(
            "levy_served_cache_mem_entries",
            "Entries currently in the memory tier.",
            &self.mem_entries,
        );
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    fn disk_path(&self, key: &str) -> Option<PathBuf> {
        // Keys are generated hex internally, but revalidate before using
        // one as a file name: this is the only untrusted-input boundary.
        if !(key.len() == 32 && key.bytes().all(|b| b.is_ascii_hexdigit())) {
            return None;
        }
        self.config
            .dir
            .as_ref()
            .filter(|_| self.config.disk_capacity > 0)
            .map(|dir| dir.join(format!("{key}.json")))
    }

    /// `.lw` sidecar path for a `.json` entry path.
    fn wire_sibling(path: &Path) -> PathBuf {
        path.with_extension("lw")
    }

    /// Loads the wire representation for a disk hit: the stored `.lw`
    /// bytes when they are structurally intact and self-identify with
    /// `key`, else a deterministic re-encode from the validated JSON
    /// body (repairing the sidecar on the way).
    fn disk_wire(&self, key: &str, json_path: &Path, json_body: &str) -> Option<Vec<u8>> {
        let lw = Self::wire_sibling(json_path);
        if let Ok(bytes) = self.store.read_bytes(&lw) {
            if wire_body_is_valid(key, &bytes) {
                return Some(bytes);
            }
            self.corrupt_entries.inc();
            let _ = self.store.remove(&lw);
            levy_obs::log::warn(
                "levy-served",
                "corrupt wire sidecar dropped, re-encoding",
                &[("key", key.to_owned()), ("path", lw.display().to_string())],
            );
        }
        let wire = CachedBody::from_json(json_body).wire;
        if let Some(bytes) = &wire {
            let _ = self.store.write_bytes(&lw, bytes);
        }
        wire
    }

    /// Looks up a body; `None` on miss.
    ///
    /// Disk bodies are validated before they are replayed: an entry
    /// that is not the intact result stored for `key` (truncated,
    /// bit-rotted, or written under the wrong name) is dropped from
    /// disk, counted in `corrupt_entries`, and reported as a miss so
    /// the simulation reruns instead of serving garbage.
    pub fn get(&self, key: &str) -> Option<(CachedBody, CacheTier)> {
        if self.config.mem_capacity > 0 {
            let mut mem = self.mem.lock().expect("cache lock");
            if let Some(entry) = mem.get_mut(key) {
                entry.tick = self.clock.fetch_add(1, Ordering::Relaxed);
                self.mem_hits.inc();
                return Some((entry.body.clone(), CacheTier::Memory));
            }
        }
        if let Some(path) = self.disk_path(key) {
            match self.store.read(&path) {
                Ok(body) if disk_body_is_valid(key, &body) => {
                    self.disk_hits.inc();
                    let cached = CachedBody {
                        wire: self.disk_wire(key, &path, &body),
                        json: body,
                    };
                    self.insert_mem(key, &cached);
                    return Some((cached, CacheTier::Disk));
                }
                Ok(_) => {
                    self.corrupt_entries.inc();
                    let _ = self.store.remove(&path);
                    let _ = self.store.remove(&Self::wire_sibling(&path));
                    levy_obs::log::warn(
                        "levy-served",
                        "corrupt disk cache entry dropped",
                        &[
                            ("key", key.to_owned()),
                            ("path", path.display().to_string()),
                        ],
                    );
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                Err(e) => {
                    self.disk_errors.inc();
                    levy_obs::log::warn(
                        "levy-served",
                        "disk cache read failed",
                        &[
                            ("path", path.display().to_string()),
                            ("error", e.to_string()),
                        ],
                    );
                }
            }
        }
        self.misses.inc();
        None
    }

    /// Stores a body under `key` in both tiers, deriving and persisting
    /// the wire encoding alongside the JSON.
    pub fn put(&self, key: &str, body: &str) {
        self.put_body(key, &CachedBody::from_json(body));
    }

    /// [`put`](ResultCache::put) with both representations already built
    /// (workers encode once and share the result with their waiters).
    pub fn put_body(&self, key: &str, cached: &CachedBody) {
        self.insertions.inc();
        self.insert_mem(key, cached);
        if let Some(path) = self.disk_path(key) {
            if let Err(e) = self.store.write(&path, &cached.json) {
                self.disk_errors.inc();
                levy_obs::log::warn(
                    "levy-served",
                    "cache write failed",
                    &[
                        ("path", path.display().to_string()),
                        ("error", e.to_string()),
                    ],
                );
                return;
            }
            if let Some(wire) = &cached.wire {
                if let Err(e) = self.store.write_bytes(&Self::wire_sibling(&path), wire) {
                    // The JSON tier is authoritative; a failed sidecar
                    // write only costs a re-encode on later hits.
                    self.disk_errors.inc();
                    levy_obs::log::warn(
                        "levy-served",
                        "wire sidecar write failed",
                        &[
                            ("path", path.display().to_string()),
                            ("error", e.to_string()),
                        ],
                    );
                }
            }
            self.enforce_disk_capacity();
        }
    }

    fn insert_mem(&self, key: &str, body: &CachedBody) {
        if self.config.mem_capacity == 0 {
            return;
        }
        let tick = self.tick();
        let mut mem = self.mem.lock().expect("cache lock");
        mem.insert(
            key.to_owned(),
            MemEntry {
                body: body.clone(),
                tick,
            },
        );
        while mem.len() > self.config.mem_capacity {
            let oldest = mem
                .iter()
                .min_by_key(|(_, e)| e.tick)
                .map(|(k, _)| k.clone())
                .expect("non-empty over capacity");
            mem.remove(&oldest);
            self.evictions.inc();
        }
        self.mem_entries
            .set(i64::try_from(mem.len()).unwrap_or(i64::MAX));
    }

    fn enforce_disk_capacity(&self) {
        let Some(dir) = &self.config.dir else { return };
        let Ok(mut files) = self.store.list(dir) else {
            return;
        };
        if files.len() <= self.config.disk_capacity {
            return;
        }
        files.sort();
        let excess = files.len() - self.config.disk_capacity;
        for (_, path) in files.into_iter().take(excess) {
            if self.store.remove(&path).is_ok() {
                self.evictions.inc();
            }
            // Evict the wire sidecar with its JSON entry.
            let _ = self.store.remove(&Self::wire_sibling(&path));
        }
    }

    /// Entries currently in the memory tier.
    pub fn mem_len(&self) -> usize {
        self.mem.lock().expect("cache lock").len()
    }

    /// Whether `key` is cached in either tier, without promoting it or
    /// counting a hit/miss. Replica writes and the handoff scanner use
    /// this to stay idempotent. The disk probe checks file presence
    /// directly rather than going through [`DiskStore::read`]: a fault
    /// plan's read schedule must not be consumed by presence checks.
    pub fn contains(&self, key: &str) -> bool {
        if self.config.mem_capacity > 0 && self.mem.lock().expect("cache lock").contains_key(key) {
            return true;
        }
        self.disk_path(key).is_some_and(|p| p.exists())
    }

    /// Keys currently cached in either tier, deduplicated and sorted.
    /// The handoff scanner walks this list when membership changes; only
    /// well-formed 32-hex names are reported, so stray files in the
    /// cache directory never become transfer candidates.
    pub fn keys(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .mem
            .lock()
            .expect("cache lock")
            .keys()
            .cloned()
            .collect();
        if let Some(dir) = self
            .config
            .dir
            .as_ref()
            .filter(|_| self.config.disk_capacity > 0)
        {
            if let Ok(files) = self.store.list(dir) {
                for (_, path) in files {
                    if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                        if stem.len() == 32 && stem.bytes().all(|b| b.is_ascii_hexdigit()) {
                            out.push(stem.to_owned());
                        }
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Counter snapshot for `/v1/stats` and the bench snapshot.
    pub fn stats_json(&self) -> Json {
        Json::obj([
            ("mem_entries", Json::from(self.mem_len())),
            ("mem_capacity", Json::from(self.config.mem_capacity)),
            ("disk_capacity", Json::from(self.config.disk_capacity)),
            (
                "disk_enabled",
                Json::from(self.config.dir.is_some() && self.config.disk_capacity > 0),
            ),
            ("mem_hits", Json::from(self.mem_hits.get())),
            ("disk_hits", Json::from(self.disk_hits.get())),
            ("misses", Json::from(self.misses.get())),
            ("insertions", Json::from(self.insertions.get())),
            ("evictions", Json::from(self.evictions.get())),
            ("corrupt_entries", Json::from(self.corrupt_entries.get())),
            ("disk_errors", Json::from(self.disk_errors.get())),
        ])
    }
}

/// An intact disk body is the `result-v1` envelope the engine stored for
/// `key`: parseable JSON that [`wirecodec::result_to_frame`] accepts —
/// schema tag, a result of a known mode, and an embedded canonical query
/// that parses and hashes to the envelope's key — with that key equal to
/// the one it is filed under. Anything else — truncated JSON, bit rot, a
/// file renamed onto the wrong key, an envelope whose query was edited —
/// fails here and is treated as a miss rather than replayed.
pub(crate) fn disk_body_is_valid(key: &str, body: &str) -> bool {
    Json::parse(body)
        .ok()
        .and_then(|parsed| wirecodec::result_to_frame(&parsed).ok())
        .is_some_and(|frame| levy_wire::key_to_hex(&frame.query.key) == key)
}

/// An intact `.lw` sidecar decodes as a wire `Result` frame whose
/// embedded query key matches the key it is filed under. Structural
/// damage (truncation, bit flips in the framing, a sidecar renamed onto
/// the wrong key) fails here and triggers a re-encode from JSON.
fn wire_body_is_valid(key: &str, bytes: &[u8]) -> bool {
    match levy_wire::Frame::decode(bytes) {
        Ok(levy_wire::Frame::Result(frame)) => levy_wire::key_to_hex(&frame.query.key) == key,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> String {
        crate::request::fnv1a_128_hex(&i.to_le_bytes())
    }

    /// A real `result-v1` envelope and its key, as the engine stores
    /// them: a tiny single-walk query whose `seed` tells entries apart.
    fn envelope(seed: u64) -> (String, String) {
        let query = crate::request::Query::from_json(
            &Json::parse(&format!(
                r#"{{"kind":"single_walk","alpha":2.0,"ell":8,"budget":64,"trials":4,"seed":{seed}}}"#
            ))
            .unwrap(),
        )
        .unwrap();
        let cancel = levy_sim::CancelToken::new();
        let body = crate::engine::execute(&query, 1, &cancel)
            .unwrap()
            .to_string_pretty();
        (query.cache_key(), body)
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "levy-served-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn memory_round_trip_and_miss() {
        let cache = ResultCache::new(CacheConfig {
            mem_capacity: 4,
            disk_capacity: 0,
            dir: None,
        })
        .unwrap();
        assert!(cache.get(&key(1)).is_none());
        cache.put(&key(1), "body-1");
        let (body, tier) = cache.get(&key(1)).unwrap();
        assert_eq!(body.json, "body-1");
        assert_eq!(body.wire, None, "non-envelope bodies have no wire form");
        assert_eq!(tier, CacheTier::Memory);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ResultCache::new(CacheConfig {
            mem_capacity: 2,
            disk_capacity: 0,
            dir: None,
        })
        .unwrap();
        cache.put(&key(1), "one");
        cache.put(&key(2), "two");
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(&key(1)).is_some());
        cache.put(&key(3), "three");
        assert!(cache.get(&key(2)).is_none(), "LRU entry should be evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
        assert_eq!(cache.mem_len(), 2);
    }

    #[test]
    fn disk_tier_survives_a_new_cache_instance() {
        let dir = temp_dir("persist");
        let config = CacheConfig {
            mem_capacity: 4,
            disk_capacity: 16,
            dir: Some(dir.clone()),
        };
        let cache = ResultCache::new(config.clone()).unwrap();
        let (k, body) = envelope(7);
        cache.put(&k, &body);
        drop(cache);
        let reborn = ResultCache::new(config).unwrap();
        let (got, tier) = reborn.get(&k).unwrap();
        assert_eq!((got.json, tier), (body.clone(), CacheTier::Disk));
        // Promoted to memory: second read is a memory hit.
        let (got, tier) = reborn.get(&k).unwrap();
        assert_eq!((got.json, tier), (body, CacheTier::Memory));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_are_dropped_and_reported_as_misses() {
        let dir = temp_dir("corrupt");
        let cache = ResultCache::new(CacheConfig {
            mem_capacity: 0,
            disk_capacity: 8,
            dir: Some(dir.clone()),
        })
        .unwrap();
        let (k, good) = envelope(9);
        let path = dir.join(format!("{k}.json"));
        let (_, wrong_key) = envelope(10);
        for bad in [
            "not json at all",
            "{\"schema\": \"levy-served/result-v1\"}", // no key
            wrong_key.as_str(),
            &good[..good.len() / 2], // truncated
        ] {
            fs::write(&path, bad).unwrap();
            assert!(cache.get(&k).is_none(), "{bad:?} must not be replayed");
            assert!(!path.exists(), "{bad:?} must be removed from disk");
        }
        let stats = cache.stats_json();
        assert_eq!(stats.get("corrupt_entries").unwrap().as_u64(), Some(4));
        assert_eq!(stats.get("misses").unwrap().as_u64(), Some(4));
        // An intact body still round-trips.
        cache.put(&k, &good);
        let (got, tier) = cache.get(&k).unwrap();
        assert_eq!(
            (got.json, tier),
            (good, CacheTier::Disk),
            "valid bodies must keep replaying after corrupt ones were dropped"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn envelope_with_an_altered_query_is_a_miss() {
        let dir = temp_dir("altered");
        let cache = ResultCache::new(CacheConfig {
            mem_capacity: 0,
            disk_capacity: 8,
            dir: Some(dir.clone()),
        })
        .unwrap();
        let (k, good) = envelope(11);
        cache.put(&k, &good);
        let path = dir.join(format!("{k}.json"));
        let lw = dir.join(format!("{k}.lw"));
        assert!(lw.exists(), "intact sidecar stored");
        // Same schema, same key, same result: only the embedded query's
        // seed differs, so the body answers some other query.
        let altered = good.replacen("\"seed\": 11", "\"seed\": 12", 1);
        assert_ne!(altered, good);
        fs::write(&path, &altered).unwrap();
        assert!(
            cache.get(&k).is_none(),
            "an envelope whose query hashes elsewhere must not be replayed"
        );
        assert!(!path.exists() && !lw.exists(), "entry and sidecar dropped");
        let stats = cache.stats_json();
        assert_eq!(stats.get("corrupt_entries").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("misses").unwrap().as_u64(), Some(1));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_capacity_is_enforced() {
        let dir = temp_dir("capacity");
        let cache = ResultCache::new(CacheConfig {
            mem_capacity: 1,
            disk_capacity: 3,
            dir: Some(dir.clone()),
        })
        .unwrap();
        for i in 0..6 {
            cache.put(&key(i), &format!("body-{i}"));
        }
        let files = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
            .count();
        assert!(files <= 3, "disk tier kept {files} files over capacity 3");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_capacity_disables_tiers() {
        let cache = ResultCache::new(CacheConfig {
            mem_capacity: 0,
            disk_capacity: 0,
            dir: None,
        })
        .unwrap();
        cache.put(&key(1), "x");
        assert!(cache.get(&key(1)).is_none());
    }

    #[test]
    fn malformed_keys_never_touch_disk() {
        let dir = temp_dir("badkey");
        let cache = ResultCache::new(CacheConfig {
            mem_capacity: 0,
            disk_capacity: 8,
            dir: Some(dir.clone()),
        })
        .unwrap();
        cache.put("../../etc/passwd", "nope");
        cache.put("short", "nope");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wire_sidecar_is_stored_and_replayed_byte_exactly() {
        let dir = temp_dir("wire");
        let config = CacheConfig {
            mem_capacity: 4,
            disk_capacity: 16,
            dir: Some(dir.clone()),
        };
        let (k, body) = envelope(1);
        let cache = ResultCache::new(config.clone()).unwrap();
        cache.put(&k, &body);
        let lw = dir.join(format!("{k}.lw"));
        let on_disk = fs::read(&lw).expect("wire sidecar written");
        assert!(levy_wire::Frame::decode(&on_disk).is_ok());
        // A fresh instance replays the exact on-disk bytes.
        drop(cache);
        let reborn = ResultCache::new(config).unwrap();
        let (got, tier) = reborn.get(&k).unwrap();
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(got.json, body);
        assert_eq!(got.wire.as_deref(), Some(&on_disk[..]));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_wire_sidecar_is_repaired_from_json() {
        let dir = temp_dir("wire-repair");
        let config = CacheConfig {
            mem_capacity: 0,
            disk_capacity: 16,
            dir: Some(dir.clone()),
        };
        let (k, body) = envelope(1);
        let cache = ResultCache::new(config).unwrap();
        cache.put(&k, &body);
        let lw = dir.join(format!("{k}.lw"));
        let good = fs::read(&lw).unwrap();
        for bad in [&b"garbage"[..], &good[..good.len() / 2]] {
            fs::write(&lw, bad).unwrap();
            let (got, _) = cache.get(&k).expect("JSON tier still authoritative");
            assert_eq!(
                got.wire.as_deref(),
                Some(&good[..]),
                "wire must be re-encoded deterministically from JSON"
            );
            assert_eq!(fs::read(&lw).unwrap(), good, "sidecar must be repaired");
        }
        // Deleting the sidecar entirely also repairs it.
        fs::remove_file(&lw).unwrap();
        let (got, _) = cache.get(&k).unwrap();
        assert_eq!(got.wire.as_deref(), Some(&good[..]));
        assert!(lw.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_eviction_removes_wire_siblings() {
        let dir = temp_dir("wire-evict");
        let cache = ResultCache::new(CacheConfig {
            mem_capacity: 1,
            disk_capacity: 2,
            dir: Some(dir.clone()),
        })
        .unwrap();
        let (k, body) = envelope(1);
        cache.put(&k, &body);
        assert!(dir.join(format!("{k}.lw")).exists());
        for seed in 2..6 {
            let (k, body) = envelope(seed);
            cache.put(&k, &body);
            // Distinct mtimes so eviction order is deterministic.
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(
            !dir.join(format!("{k}.lw")).exists(),
            "evicting a JSON entry must take its wire sidecar with it"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_count_hits_and_misses() {
        let cache = ResultCache::new(CacheConfig {
            mem_capacity: 4,
            disk_capacity: 0,
            dir: None,
        })
        .unwrap();
        cache.put(&key(1), "x");
        let _ = cache.get(&key(1));
        let _ = cache.get(&key(2));
        let stats = cache.stats_json();
        assert_eq!(stats.get("mem_hits").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("misses").unwrap().as_u64(), Some(1));
        assert_eq!(stats.get("insertions").unwrap().as_u64(), Some(1));
    }
}
