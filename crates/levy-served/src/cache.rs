//! Content-addressed result cache: in-memory LRU over an optional
//! on-disk store.
//!
//! Keys are the FNV-1a-128 hex digests of canonical queries (see
//! `request`), so a body cached under a key is *the* answer for every
//! request that canonicalizes to it — seeded determinism makes hits
//! exact, not approximate. The memory tier is LRU-bounded by entry
//! count and holds both served forms of a result (pretty JSON and its
//! `levy-wire` LW1 frame), so a memory hit renders nothing.
//!
//! The disk tier stores one file per entry, `<dir>/<key>.lw`: the LW1
//! frame, which transcodes to the JSON byte-exactly. Its membership is
//! an in-memory index built by one directory listing when the cache
//! opens (ordered by mtime, then name); eviction is oldest-written
//! first, and nothing lists the directory again. A disk hit is one read,
//! one frame decode and one key check, renders the JSON once, and is
//! promoted into memory. Entries survive daemon restarts.

use std::collections::{BTreeMap, HashMap};
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
    /// Reads a stored `.lw` entry.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Stores an entry atomically (readers never observe a torn write).
    fn write(&self, path: &Path, body: &[u8]) -> io::Result<()>;
    /// Removes a stored entry.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Lists stored `.lw` entries as `(modified, path)` pairs. The cache
    /// calls it once, when it opens.
    fn list(&self, dir: &Path) -> io::Result<Vec<(SystemTime, PathBuf)>>;
}

/// The real filesystem: `std::fs` with write-then-rename stores.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdDisk;

impl DiskStore for StdDisk {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        fs::read(path)
    }

    fn write(&self, path: &Path, body: &[u8]) -> io::Result<()> {
        // Write-then-rename so concurrent readers never observe a
        // torn body.
        let tmp = path.with_extension("tmp");
        fs::write(&tmp, body).and_then(|()| fs::rename(&tmp, path))
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        fs::remove_file(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<(SystemTime, PathBuf)>> {
        Ok(fs::read_dir(dir)?
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "lw"))
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
    /// The pretty-printed JSON envelope.
    pub json: String,
    /// The `levy-wire` binary encoding of the same envelope — the form
    /// the disk tier stores; `None` when the body is not an encodable
    /// `result-v1` envelope, and such a body stays in memory only.
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

    /// Both representations of `json` if it is the intact `result-v1`
    /// envelope for `key`: [`wirecodec::result_to_frame`] accepts it (its
    /// embedded query parses and hashes to its key) and that key is
    /// `key`. Replica writes from peers pass through here, so a bad peer
    /// can never poison the cache.
    pub(crate) fn for_key(key: &str, json: &str) -> Option<CachedBody> {
        let frame = wirecodec::result_to_frame(&Json::parse(json).ok()?).ok()?;
        (levy_wire::key_to_hex(&frame.query.key) == key).then(|| CachedBody {
            json: json.to_owned(),
            wire: Some(levy_wire::Frame::Result(frame).encode()),
        })
    }
}

/// LRU entries: body plus a recency tick.
struct MemEntry {
    body: CachedBody,
    tick: u64,
}

/// The disk tier's membership in write order, so the oldest-written
/// entry is evicted first.
#[derive(Default)]
struct DiskIndex {
    written: HashMap<String, u64>,
    order: BTreeMap<u64, String>,
    next: u64,
}

impl DiskIndex {
    /// Files `key` as the newest entry; a rewrite moves it to the end.
    fn insert(&mut self, key: &str) {
        let seq = self.next;
        self.next += 1;
        if let Some(old) = self.written.insert(key.to_owned(), seq) {
            self.order.remove(&old);
        }
        self.order.insert(seq, key.to_owned());
    }

    fn remove(&mut self, key: &str) {
        if let Some(seq) = self.written.remove(key) {
            self.order.remove(&seq);
        }
    }

    fn pop_oldest(&mut self) -> Option<String> {
        let (_, key) = self.order.pop_first()?;
        self.written.remove(&key);
        Some(key)
    }
}

/// An enabled disk tier: its directory and the index of its entries.
struct DiskTier {
    dir: PathBuf,
    index: Mutex<DiskIndex>,
}

impl DiskTier {
    /// Indexes the `.lw` entries already in `dir`, oldest-written first
    /// (ties broken by name), with one listing.
    fn open(store: &dyn DiskStore, dir: PathBuf) -> io::Result<DiskTier> {
        let mut files = store.list(&dir)?;
        files.sort();
        let mut index = DiskIndex::default();
        for (_, path) in files {
            if let Some(key) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .filter(|k| is_key(k))
            {
                index.insert(key);
            }
        }
        Ok(DiskTier {
            dir,
            index: Mutex::new(index),
        })
    }

    fn index(&self) -> std::sync::MutexGuard<'_, DiskIndex> {
        self.index.lock().expect("disk index lock")
    }

    fn path(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.lw"))
    }
}

/// Keys are generated hex internally, but they are revalidated before
/// one is used as a file name: this is the only untrusted-input boundary.
fn is_key(key: &str) -> bool {
    key.len() == 32 && key.bytes().all(|b| b.is_ascii_hexdigit())
}

/// The two-tier result cache. All methods are `&self`; internal state is
/// mutex-protected so handler and worker threads share one instance.
pub struct ResultCache {
    config: CacheConfig,
    store: Arc<dyn DiskStore>,
    mem: Mutex<HashMap<String, MemEntry>>,
    disk: Option<DiskTier>,
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
    /// injection and tests), indexing the entries already on disk.
    pub fn with_store(config: CacheConfig, store: Arc<dyn DiskStore>) -> io::Result<ResultCache> {
        let mut disk = None;
        if let Some(dir) = &config.dir {
            fs::create_dir_all(dir)?;
            if config.disk_capacity > 0 {
                disk = Some(DiskTier::open(&*store, dir.clone())?);
            }
        }
        Ok(ResultCache {
            config,
            store,
            mem: Mutex::new(HashMap::new()),
            disk,
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

    fn disk_path(&self, key: &str) -> Option<(&DiskTier, PathBuf)> {
        let disk = self.disk.as_ref().filter(|_| is_key(key))?;
        Some((disk, disk.path(key)))
    }

    /// Files `key` in the disk index — as the newest entry when it was
    /// just `written`, otherwise only if the index does not hold it yet —
    /// then evicts oldest-written entries past capacity.
    fn index_entry(&self, disk: &DiskTier, key: &str, written: bool) {
        let mut index = disk.index();
        if !written && index.written.contains_key(key) {
            return;
        }
        index.insert(key);
        while index.written.len() > self.config.disk_capacity {
            let Some(oldest) = index.pop_oldest() else {
                break;
            };
            if self.store.remove(&disk.path(&oldest)).is_ok() {
                self.evictions.inc();
            }
        }
    }

    /// Looks up a body; `None` on miss.
    ///
    /// A lookup that reaches the disk tier reads once, indexed or not,
    /// so fault plans number one read per lookup. The frame is replayed
    /// only if it decodes and the key re-derived from its embedded query
    /// (not its stored key bytes) is `key`. Anything else is removed from
    /// disk and index, counted in `corrupt_entries`, and reported as a
    /// miss so the simulation reruns; a vanished file is a clean miss.
    pub fn get(&self, key: &str) -> Option<(CachedBody, CacheTier)> {
        if self.config.mem_capacity > 0 {
            let mut mem = self.mem.lock().expect("cache lock");
            if let Some(entry) = mem.get_mut(key) {
                entry.tick = self.clock.fetch_add(1, Ordering::Relaxed);
                self.mem_hits.inc();
                return Some((entry.body.clone(), CacheTier::Memory));
            }
        }
        if let Some((disk, path)) = self.disk_path(key) {
            match self.store.read(&path) {
                Ok(wire) => match wirecodec::decode_result_with_key(&wire) {
                    Ok((envelope, derived)) if derived == key => {
                        self.disk_hits.inc();
                        self.index_entry(disk, key, false);
                        let cached = CachedBody {
                            json: envelope.to_string_pretty(),
                            wire: Some(wire),
                        };
                        self.insert_mem(key, &cached);
                        return Some((cached, CacheTier::Disk));
                    }
                    _ => {
                        self.corrupt_entries.inc();
                        let _ = self.store.remove(&path);
                        disk.index().remove(key);
                        levy_obs::log::warn(
                            "levy-served",
                            "corrupt disk cache entry dropped",
                            &[
                                ("key", key.to_owned()),
                                ("path", path.display().to_string()),
                            ],
                        );
                    }
                },
                Err(e) if e.kind() == io::ErrorKind::NotFound => disk.index().remove(key),
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

    /// Stores a body under `key` in both tiers, deriving the wire
    /// encoding the disk tier stores.
    pub fn put(&self, key: &str, body: &str) {
        self.put_body(key, &CachedBody::from_json(body));
    }

    /// [`put`](ResultCache::put) with both representations already built
    /// (workers encode once and share the result with their waiters). A
    /// body without a wire form is kept in memory only.
    pub fn put_body(&self, key: &str, cached: &CachedBody) {
        self.insertions.inc();
        self.insert_mem(key, cached);
        let (Some((disk, path)), Some(wire)) = (self.disk_path(key), &cached.wire) else {
            return;
        };
        match self.store.write(&path, wire) {
            Ok(()) => self.index_entry(disk, key, true),
            Err(e) => {
                self.disk_errors.inc();
                levy_obs::log::warn(
                    "levy-served",
                    "cache write failed",
                    &[
                        ("path", path.display().to_string()),
                        ("error", e.to_string()),
                    ],
                );
            }
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

    /// Entries currently in the memory tier.
    pub fn mem_len(&self) -> usize {
        self.mem.lock().expect("cache lock").len()
    }

    /// Whether `key` is cached in either tier, without promoting it or
    /// counting a hit/miss. Replica writes and the handoff scanner use
    /// this to stay idempotent. The disk probe asks the index, never the
    /// store: a fault plan's read schedule must not be consumed by
    /// presence checks.
    pub fn contains(&self, key: &str) -> bool {
        if self.config.mem_capacity > 0 && self.mem.lock().expect("cache lock").contains_key(key) {
            return true;
        }
        self.disk
            .as_ref()
            .is_some_and(|disk| disk.index().written.contains_key(key))
    }

    /// Keys currently cached in either tier, deduplicated and sorted.
    /// The handoff scanner walks this list when membership changes; the
    /// disk index holds only well-formed 32-hex names, so stray files in
    /// the cache directory never become transfer candidates.
    pub fn keys(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .mem
            .lock()
            .expect("cache lock")
            .keys()
            .cloned()
            .collect();
        if let Some(disk) = &self.disk {
            out.extend(disk.index().written.keys().cloned());
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
            ("disk_enabled", Json::from(self.disk.is_some())),
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

    /// The LW1 frame the disk tier stores for an envelope.
    fn frame_of(body: &str) -> Vec<u8> {
        CachedBody::from_json(body).wire.expect("envelopes encode")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "levy-served-cache-test-{tag}-{}",
            std::process::id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn stat(cache: &ResultCache, name: &str) -> Option<u64> {
        cache.stats_json().get(name).unwrap().as_u64()
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
        let path = dir.join(format!("{k}.lw"));
        let good_frame = frame_of(&good);
        let other_key = frame_of(&envelope(10).1);
        for bad in [
            b"not a frame at all".to_vec(),
            good_frame[..good_frame.len() / 2].to_vec(), // truncated
            crate::fault::scramble_bytes(&good_frame),   // bit rot
            other_key,                                   // filed under the wrong key
        ] {
            fs::write(&path, &bad).unwrap();
            assert!(cache.get(&k).is_none(), "{bad:?} must not be replayed");
            assert!(!path.exists(), "{bad:?} must be removed from disk");
        }
        assert_eq!(stat(&cache, "corrupt_entries"), Some(4));
        assert_eq!(stat(&cache, "misses"), Some(4));
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
        let path = dir.join(format!("{k}.lw"));
        // Same key bytes, same result: only the embedded query's seed
        // differs, so the frame answers some other query.
        let Ok(levy_wire::Frame::Result(mut frame)) =
            levy_wire::Frame::decode(&fs::read(&path).unwrap())
        else {
            panic!("stored entry is a result frame");
        };
        assert_eq!(frame.query.seed, 11);
        frame.query.seed = 12;
        let altered = levy_wire::Frame::Result(frame).encode();
        assert_ne!(altered, frame_of(&good));
        fs::write(&path, &altered).unwrap();
        assert!(
            cache.get(&k).is_none(),
            "a frame whose query hashes elsewhere must not be replayed"
        );
        assert!(!path.exists(), "entry dropped from disk");
        assert!(!cache.contains(&k), "entry dropped from the index");
        assert_eq!(stat(&cache, "corrupt_entries"), Some(1));
        assert_eq!(stat(&cache, "misses"), Some(1));
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
            let (k, body) = envelope(i);
            cache.put(&k, &body);
        }
        let files = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|x| x == "lw"))
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
        let (_, body) = envelope(1);
        cache.put("../../etc/passwd", &body);
        cache.put("short", &body);
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wire_entry_is_stored_and_replayed_byte_exactly() {
        let dir = temp_dir("wire");
        let config = CacheConfig {
            mem_capacity: 4,
            disk_capacity: 16,
            dir: Some(dir.clone()),
        };
        let (k, body) = envelope(1);
        let cache = ResultCache::new(config.clone()).unwrap();
        cache.put(&k, &body);
        let on_disk = fs::read(dir.join(format!("{k}.lw"))).expect("wire entry written");
        assert!(levy_wire::Frame::decode(&on_disk).is_ok());
        let names: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .map(|e| e.file_name())
            .collect();
        assert_eq!(names.len(), 1, "one file per entry, got {names:?}");
        // A fresh instance replays the exact on-disk bytes and renders
        // the exact JSON body from them.
        drop(cache);
        let reborn = ResultCache::new(config).unwrap();
        let (got, tier) = reborn.get(&k).unwrap();
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(got.json, body);
        assert_eq!(got.wire.as_deref(), Some(&on_disk[..]));
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
