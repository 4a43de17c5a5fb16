//! The disk tier's in-memory index: built by one directory listing when
//! a cache opens, then the tier's membership. Puts, gets, presence
//! checks and key listings never list the directory again; eviction is
//! oldest-written first, also across a reopen; a file deleted behind the
//! cache's back becomes a clean miss that leaves the index.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, SystemTime};

use levy_served::{engine, CacheConfig, CacheTier, DiskStore, Query, ResultCache, StdDisk};
use levy_sim::{CancelToken, Json};

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
        "levy-served-disk-index-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn stat(cache: &ResultCache, name: &str) -> Option<u64> {
    cache.stats_json().get(name).unwrap().as_u64()
}

/// A real store that counts directory listings.
#[derive(Debug, Default)]
struct CountingDisk {
    lists: AtomicUsize,
}

impl DiskStore for CountingDisk {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdDisk.read(path)
    }
    fn write(&self, path: &Path, body: &[u8]) -> io::Result<()> {
        StdDisk.write(path, body)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        StdDisk.remove(path)
    }
    fn list(&self, dir: &Path) -> io::Result<Vec<(SystemTime, PathBuf)>> {
        self.lists.fetch_add(1, Ordering::Relaxed);
        StdDisk.list(dir)
    }
}

#[test]
fn the_directory_is_listed_once_at_construction() {
    let dir = temp_dir("lists");
    let capacity = 4;
    let store = Arc::new(CountingDisk::default());
    let cache = ResultCache::with_store(
        CacheConfig {
            mem_capacity: 0,
            disk_capacity: capacity,
            dir: Some(dir.clone()),
        },
        store.clone(),
    )
    .unwrap();
    assert_eq!(store.lists.load(Ordering::Relaxed), 1);
    let entries: Vec<_> = (0..2 * capacity as u64).map(envelope).collect();
    for (k, body) in &entries {
        cache.put(k, body);
        assert!(cache.contains(k));
        assert_eq!(cache.get(k).map(|(_, tier)| tier), Some(CacheTier::Disk));
        assert!(cache.keys().contains(k));
    }
    for (k, _) in &entries[..capacity] {
        assert!(!cache.contains(k), "oldest-written entries evicted");
        assert!(cache.get(k).is_none());
    }
    assert_eq!(cache.keys().len(), capacity);
    assert_eq!(stat(&cache, "evictions"), Some(capacity as u64));
    assert_eq!(
        store.lists.load(Ordering::Relaxed),
        1,
        "puts, gets, contains and keys must not list the directory"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_second_cache_indexes_the_first_ones_entries_oldest_written_first() {
    let dir = temp_dir("reopen");
    let config = CacheConfig {
        mem_capacity: 0,
        disk_capacity: 3,
        dir: Some(dir.clone()),
    };
    let first = ResultCache::new(config.clone()).unwrap();
    let mut entries: Vec<_> = (0..3).map(envelope).collect();
    for (k, body) in &entries {
        first.put(k, body);
    }
    drop(first);
    // Give the entries mtimes in reverse name order, so the oldest
    // written is not the first by name.
    entries.sort();
    entries.reverse();
    for (age, (k, _)) in entries.iter().enumerate() {
        std::fs::File::options()
            .write(true)
            .open(dir.join(format!("{k}.lw")))
            .unwrap()
            .set_modified(SystemTime::UNIX_EPOCH + Duration::from_secs(1_000_000 + age as u64))
            .unwrap();
    }
    // An entry in the pre-LW1 form is not migrated: it is a miss.
    let (legacy, legacy_body) = envelope(3);
    std::fs::write(dir.join(format!("{legacy}.json")), &legacy_body).unwrap();

    let second = ResultCache::new(config).unwrap();
    for (k, body) in &entries {
        let (got, tier) = second.get(k).expect("first cache's entry");
        assert_eq!((got.json, tier), (body.clone(), CacheTier::Disk));
    }
    assert!(!second.contains(&legacy));
    assert!(second.get(&legacy).is_none());
    let (k, body) = envelope(4);
    second.put(&k, &body);
    let oldest = &entries[0].0;
    assert!(
        !dir.join(format!("{oldest}.lw")).exists(),
        "oldest-written entry evicted"
    );
    assert!(!second.contains(oldest));
    for (k, _) in &entries[1..] {
        assert!(dir.join(format!("{k}.lw")).exists());
    }
    assert!(second.contains(&k));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_deleted_entry_is_a_clean_miss_that_leaves_the_index() {
    let dir = temp_dir("deleted");
    let cache = ResultCache::new(CacheConfig {
        mem_capacity: 0,
        disk_capacity: 8,
        dir: Some(dir.clone()),
    })
    .unwrap();
    let (k, body) = envelope(5);
    cache.put(&k, &body);
    assert!(cache.contains(&k));
    std::fs::remove_file(dir.join(format!("{k}.lw"))).unwrap();
    assert!(cache.get(&k).is_none());
    assert!(!cache.contains(&k));
    assert!(!cache.keys().contains(&k));
    assert_eq!(stat(&cache, "misses"), Some(1));
    assert_eq!(stat(&cache, "corrupt_entries"), Some(0));
    assert_eq!(stat(&cache, "disk_errors"), Some(0));
    let _ = std::fs::remove_dir_all(&dir);
}
