//! Content-addressed on-disk cache of completed simulation runs.
//!
//! Every figure binary and `--bin all` needs a `MeasurementLog` for some
//! `ScenarioConfig`; at paper scale a single distributed run simulates
//! tens of millions of events, and the binaries historically re-simulated
//! from scratch on every invocation.  This cache keys completed runs by a
//! **stable hash of the full configuration** plus the EDHP format
//! [`honeypot::storage::VERSION`], storing each log as
//! `<cache-dir>/<hash>.edhp`:
//!
//! * identical configs (same seed, scale, knobs) across
//!   invocations — and across *binaries* — reuse one run;
//! * any config change, however small, changes the key (a miss, never a
//!   wrong hit);
//! * bumping the storage format or the key schema invalidates everything.
//!
//! The key hashes the config's `Debug` rendering with the MD4 the
//! platform already ships.  `ScenarioConfig` is plain data — scalars,
//! enums, vectors; no maps — so its `Debug` output is a deterministic,
//! process-independent function of the value (floats print
//! shortest-roundtrip).  A golden-hash test pins cross-process stability.
//!
//! Corrupt or truncated entries are handled like a corrupt `--load` file:
//! the loader validates, reports, and falls back to a fresh simulation
//! (which then overwrites the bad entry).

use std::path::{Path, PathBuf};

use edonkey_proto::md4::Md4;
use edonkey_sim::ScenarioConfig;
use honeypot::MeasurementLog;

/// Cache key schema version: bump when the key derivation itself changes.
/// 2: `ScenarioConfig` grew `server_capture`, which appears in the hashed
/// `Debug` rendering — old keys would alias configs that now differ.
/// 3: `ScenarioConfig` lost `exec` and `lane` (one execution mode).
const CACHE_SCHEMA: u32 = 3;

/// The stable cache key of a configuration (32 hex chars).
pub fn cache_key(config: &ScenarioConfig) -> String {
    let mut h = Md4::new();
    h.update(b"edhp-run-cache/");
    h.update(&CACHE_SCHEMA.to_le_bytes());
    h.update(&honeypot::STORAGE_VERSION.to_le_bytes());
    h.update(format!("{config:?}").as_bytes());
    let digest = h.finalize();
    let mut out = String::with_capacity(32);
    for b in digest {
        out.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble"));
        out.push(char::from_digit(u32::from(b & 0xF), 16).expect("nibble"));
    }
    out
}

/// A directory of cached runs.
#[derive(Clone, Debug)]
pub struct RunCache {
    dir: PathBuf,
}

impl RunCache {
    /// A cache rooted at `dir` (created lazily on first store).
    pub fn new(dir: PathBuf) -> Self {
        RunCache { dir }
    }

    /// The default cache location, `target/run-cache` at the workspace
    /// root — inside `target/` so `cargo clean` wipes it together with
    /// every other build product.
    pub fn at_default_location() -> Self {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        RunCache::new(root.join("target").join("run-cache"))
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Where `config`'s entry lives (whether or not it exists).
    pub fn entry_path(&self, config: &ScenarioConfig) -> PathBuf {
        self.dir.join(format!("{}.edhp", cache_key(config)))
    }

    /// Looks `config` up, returning its cached log on a clean hit.
    ///
    /// A missing entry is the silent miss; *any* other failure —
    /// unreadable file, bad magic, truncation, an index out of range —
    /// is reported on stderr and also returns `None`, so the caller falls
    /// back to a fresh simulation.  `storage::load` returns only validated
    /// logs, so a hit is never a log a fresh run could not have produced.
    pub fn load(&self, config: &ScenarioConfig) -> Option<MeasurementLog> {
        let path = self.entry_path(config);
        match honeypot::storage::load(&path) {
            Ok(log) => Some(log),
            Err(honeypot::StorageError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => {
                eprintln!("[cache] {} unreadable ({e}); ignoring entry", path.display());
                None
            }
        }
    }

    /// Stores `log` as `config`'s entry (write-to-temp + rename, so a
    /// crashed writer can only ever leave a stray temp file, not a
    /// half-written entry under the final name; a writer that merely
    /// *fails* — disk full, rename refused — removes its temp file).
    ///
    /// The temp name is unique per *call* — pid plus a process-wide
    /// counter — so two figure binaries (or two threads of one) storing
    /// the same entry concurrently never interleave writes into a shared
    /// temp file; each writes its own and the atomic renames race
    /// harmlessly, last one wins with a complete file either way.
    pub fn store(&self, config: &ScenarioConfig, log: &MeasurementLog) -> std::io::Result<PathBuf> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static STORE_SERIAL: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(&self.dir)?;
        let path = self.entry_path(config);
        let tmp = self.dir.join(format!(
            "{}.edhp.tmp-{}-{}",
            cache_key(config),
            std::process::id(),
            STORE_SERIAL.fetch_add(1, Ordering::Relaxed)
        ));
        let stored = honeypot::storage::save(log, &tmp)
            .map_err(|e| match e {
                honeypot::StorageError::Io(io) => io,
                other => std::io::Error::other(other.to_string()),
            })
            .and_then(|()| std::fs::rename(&tmp, &path));
        if stored.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        stored.map(|()| path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_is_stable_within_a_process() {
        let c = ScenarioConfig::tiny(42);
        assert_eq!(cache_key(&c), cache_key(&c.clone()));
        assert_eq!(cache_key(&c).len(), 32);
        assert!(cache_key(&c).bytes().all(|b| b.is_ascii_hexdigit()));
    }

    #[test]
    fn concurrent_writers_never_corrupt_an_entry() {
        // Two figure binaries can decide to fill the same cache miss at
        // once.  Per-call temp names make their writes independent; the
        // final renames race, but whichever wins, the entry under the
        // final name must always be a complete, loadable log.
        let config = ScenarioConfig::tiny(9);
        let log = edonkey_sim::run_scenario(config.clone()).log;
        let dir = std::env::temp_dir().join(format!("edhp-cache-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = RunCache::new(dir.clone());

        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..5 {
                        cache.store(&config, &log).unwrap();
                    }
                });
            }
        });

        let loaded = cache.load(&config).expect("entry must be a clean hit");
        assert_eq!(loaded.records.len(), log.records.len());
        assert_eq!(loaded.distinct_peers, log.distinct_peers);
        // No temp litter: every writer renamed its own file away.
        let stray = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
            .count();
        assert_eq!(stray, 0, "temp files must not survive successful stores");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn any_config_change_changes_the_key() {
        let base = ScenarioConfig::tiny(42);
        let mut seed = base.clone();
        seed.seed = 43;
        let mut scale = base.clone();
        scale.population.rate_per_popularity *= 1.000001;
        let mut name_threshold = base.clone();
        name_threshold.name_threshold += 1;
        let mut capture = base.clone();
        capture.server_capture = Some(edonkey_sim::ServerCaptureConfig::default());
        let mut capture_knob = capture.clone();
        capture_knob.server_capture.as_mut().unwrap().status_interval_ms += 1;
        let keys = [
            cache_key(&base),
            cache_key(&seed),
            cache_key(&scale),
            cache_key(&name_threshold),
            cache_key(&capture),
            cache_key(&capture_knob),
        ];
        for (i, a) in keys.iter().enumerate() {
            for b in keys.iter().skip(i + 1) {
                assert_ne!(a, b, "distinct configs must have distinct keys");
            }
        }
    }
}
