//! The content-addressed run cache: hits are guaranteed replays of the
//! exact simulation the config describes, misses re-run, corrupt entries
//! fall back to a fresh run, and the key itself is pinned so it cannot
//! drift between processes or releases without a schema bump.

use edonkey_experiments::{cache_key, Measurement, Options, RunCache};
use edonkey_sim::{run_scenario, ScenarioConfig};

fn temp_cache(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("edhp-cache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn store_then_load_roundtrips_and_misses_on_config_change() {
    let dir = temp_cache("roundtrip");
    let cache = RunCache::new(dir.clone());
    let config = ScenarioConfig::tiny(7);
    assert!(cache.load(&config).is_none(), "cold cache must miss");

    let out = run_scenario(config.clone());
    cache.store(&config, &out.log).expect("store");
    let hit = cache.load(&config).expect("warm cache must hit");
    assert_eq!(format!("{:?}", hit), format!("{:?}", out.log), "hit must replay bit-identically");

    // Any config change is a different key, hence a miss.
    let mut reseeded = config.clone();
    reseeded.seed = 8;
    assert!(cache.load(&reseeded).is_none(), "different seed must miss");
    let mut rescaled = config;
    rescaled.population.rate_per_popularity *= 2.0;
    assert!(cache.load(&rescaled).is_none(), "different rate must miss");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_entry_is_ignored_and_rerun() {
    let dir = temp_cache("corrupt");
    let cache = RunCache::new(dir.clone());
    let config = ScenarioConfig::tiny(9);

    let out = run_scenario(config.clone());
    let path = cache.store(&config, &out.log).expect("store");
    assert_eq!(path, cache.entry_path(&config));

    // Truncate-and-garble the entry: load must treat it as a miss, not
    // trust it or panic.
    std::fs::write(&path, b"EDHPnot really a measurement log").expect("corrupt");
    assert!(cache.load(&config).is_none(), "corrupt entry must read as a miss");

    // A re-store heals the entry.
    cache.store(&config, &out.log).expect("re-store");
    assert!(cache.load(&config).is_some());

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_entry_is_a_miss_until_a_store_overwrites_it() {
    let dir = temp_cache("truncated");
    let cache = RunCache::new(dir.clone());
    let config = ScenarioConfig::tiny(11);
    let out = run_scenario(config.clone());
    let path = cache.store(&config, &out.log).expect("store");

    // One byte short — what a writer killed mid-copy of an entry leaves.
    let file = std::fs::OpenOptions::new().write(true).open(&path).expect("open entry");
    let len = file.metadata().expect("metadata").len();
    file.set_len(len - 1).expect("truncate");
    drop(file);
    assert!(cache.load(&config).is_none(), "truncated entry must read as a miss");

    cache.store(&config, &out.log).expect("store over the bad entry");
    assert_eq!(std::fs::metadata(&path).expect("metadata").len(), len);
    let hit = cache.load(&config).expect("clean hit after the overwrite");
    assert_eq!(format!("{:?}", hit), format!("{:?}", out.log));

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_store_leaves_no_temp_file() {
    let dir = temp_cache("litter");
    let cache = RunCache::new(dir.clone());
    let config = ScenarioConfig::tiny(12);
    let out = run_scenario(config.clone());
    let temp_files = || {
        std::fs::read_dir(&dir)
            .expect("cache dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .count()
    };

    // A non-empty directory under the entry's name: the temp file is
    // written in full and then cannot be renamed into place.
    std::fs::create_dir_all(cache.entry_path(&config).join("in-the-way")).expect("blocker");
    assert!(cache.store(&config, &out.log).is_err(), "rename onto a directory must fail");
    assert_eq!(temp_files(), 0, "a store that fails must take its temp file with it");

    // A read-only cache directory: the temp file cannot even be created
    // (or, for root, which ignores the mode, the rename fails as above).
    let writable = std::fs::metadata(&dir).expect("metadata").permissions();
    let mut read_only = writable.clone();
    read_only.set_readonly(true);
    std::fs::set_permissions(&dir, read_only).expect("chmod");
    let stored = cache.store(&config, &out.log);
    std::fs::set_permissions(&dir, writable).expect("chmod back");
    assert!(stored.is_err());
    assert_eq!(temp_files(), 0);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn runner_populates_then_reuses_the_cache() {
    let dir = temp_cache("runner");
    let opts = Options {
        scale: 0.01,
        seed: 5,
        samples: 10,
        cache_dir: Some(dir.clone()),
        ..Default::default()
    };
    // First run: miss → simulate → store.
    let fresh = opts.run(Measurement::Distributed);
    let entry = opts.run_cache().entry_path(&opts.scenario(Measurement::Distributed));
    assert!(entry.exists(), "first run must populate {}", entry.display());

    // Second run: hit → identical log without re-simulating.
    let cached = opts.run(Measurement::Distributed);
    assert_eq!(format!("{:?}", cached), format!("{:?}", fresh));

    // --no-cache bypasses the warm entry but still produces the same
    // deterministic log.
    let uncached = Options { no_cache: true, ..opts.clone() }.run(Measurement::Distributed);
    assert_eq!(format!("{:?}", uncached), format!("{:?}", fresh));

    let _ = std::fs::remove_dir_all(&dir);
}

/// The golden key: pins the full hashing pipeline (domain prefix, schema
/// and storage version bytes, `Debug` rendering of the config) across
/// processes and platforms.  If this test fails after an intentional
/// config/format change, bump `CACHE_SCHEMA` in `cache.rs` and update the
/// constant — silent drift would alias old cache entries to new configs.
#[test]
fn golden_key_is_stable_across_processes() {
    let key = cache_key(&ScenarioConfig::tiny(1));
    assert_eq!(key.len(), 32);
    assert!(key.bytes().all(|b| b.is_ascii_hexdigit()));
    assert_eq!(key, GOLDEN_TINY_1, "cache key drifted — see test doc comment");
}

const GOLDEN_TINY_1: &str = "b962e273f027773cce5899c624f3f597";
