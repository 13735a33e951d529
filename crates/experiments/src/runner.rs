//! End-to-end experiment execution and shared CLI plumbing for the
//! per-figure binaries.

use edonkey_sim::{run_scenario, ScenarioConfig, SimOutput};
use honeypot::MeasurementLog;

use crate::cache::RunCache;
use crate::scenarios;

/// Which measurement a figure draws on.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Measurement {
    Distributed,
    Greedy,
}

/// Common command-line options of every experiment binary.
#[derive(Clone, Debug)]
pub struct Options {
    /// Volume scale (1.0 = paper scale).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Monte-Carlo samples for subset figures.
    pub samples: usize,
    /// Emit machine-readable JSON after the human-readable report.
    pub json: bool,
    /// Directory to store measurement logs in after running.
    pub save: Option<std::path::PathBuf>,
    /// Directory to load previously saved measurement logs from (skips the
    /// simulation when the file exists).
    pub load: Option<std::path::PathBuf>,
    /// Disable the content-addressed run cache (`--no-cache`).
    pub no_cache: bool,
    /// Run-cache directory (`--cache-dir`; default
    /// `target/run-cache` at the workspace root).
    pub cache_dir: Option<std::path::PathBuf>,
    /// Run the live control-plane loopback demo (manager daemon + agents
    /// over real TCP) instead of / before the simulated measurements.
    pub live_loopback: bool,
    /// Durable-spool root for the live demo (`--spool-dir`): agents
    /// write-ahead their chunks under it and the manager checkpoints its
    /// supervision state + chunk WAL, making the demo crash-safe (a
    /// manager kill/recovery cycle is exercised when set).
    pub spool_dir: Option<std::path::PathBuf>,
    /// Manager snapshot cadence in milliseconds
    /// (`--checkpoint-interval`; requires `--spool-dir`).
    pub checkpoint_interval: Option<u64>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            scale: 1.0,
            seed: scenarios::DEFAULT_SEED,
            samples: 100,
            json: false,
            save: None,
            load: None,
            no_cache: false,
            cache_dir: None,
            live_loopback: false,
            spool_dir: None,
            checkpoint_interval: None,
        }
    }
}

impl Options {
    /// Parses `--scale F`, `--seed N`, `--samples N`, `--json` from
    /// `std::env::args`.  Exits with a usage message on malformed input.
    pub fn from_args() -> Self {
        let mut opts = Options::default();
        let args: Vec<String> = std::env::args().skip(1).collect();
        let mut i = 0;
        while i < args.len() {
            let take_value = |i: &mut usize| -> String {
                *i += 1;
                args.get(*i).cloned().unwrap_or_else(|| usage(&args[*i - 1]))
            };
            match args[i].as_str() {
                "--scale" => {
                    opts.scale = take_value(&mut i).parse().unwrap_or_else(|_| usage("--scale"));
                    if !(opts.scale > 0.0 && opts.scale.is_finite()) {
                        usage("--scale must be a positive number");
                    }
                }
                "--seed" => {
                    opts.seed = take_value(&mut i).parse().unwrap_or_else(|_| usage("--seed"))
                }
                "--samples" => {
                    opts.samples = take_value(&mut i).parse().unwrap_or_else(|_| usage("--samples"))
                }
                "--json" => opts.json = true,
                "--save" => opts.save = Some(take_value(&mut i).into()),
                "--load" => opts.load = Some(take_value(&mut i).into()),
                "--no-cache" => opts.no_cache = true,
                "--cache-dir" => opts.cache_dir = Some(take_value(&mut i).into()),
                "--live-loopback" => opts.live_loopback = true,
                "--spool-dir" => opts.spool_dir = Some(take_value(&mut i).into()),
                "--checkpoint-interval" => {
                    let ms: u64 = take_value(&mut i)
                        .parse()
                        .unwrap_or_else(|_| usage("--checkpoint-interval"));
                    if ms == 0 {
                        usage("--checkpoint-interval must be at least 1 ms");
                    }
                    opts.checkpoint_interval = Some(ms);
                }
                "--help" | "-h" => usage(""),
                other => usage(other),
            }
            i += 1;
        }
        if opts.checkpoint_interval.is_some() && opts.spool_dir.is_none() {
            usage("--checkpoint-interval requires --spool-dir");
        }
        opts
    }

    /// The live demo's durability configuration under these options
    /// (`None` unless `--spool-dir` was given).
    pub fn live_durability(&self) -> Option<crate::live::LiveDurability> {
        self.spool_dir.as_ref().map(|dir| crate::live::LiveDurability {
            dir: dir.clone(),
            checkpoint_interval_ms: self.checkpoint_interval,
        })
    }

    /// The scenario configuration for a measurement under these options.
    pub fn scenario(&self, which: Measurement) -> ScenarioConfig {
        match which {
            Measurement::Distributed => scenarios::distributed(self.seed, self.scale),
            Measurement::Greedy => scenarios::greedy(self.seed, self.scale),
        }
    }

    /// The run cache under these options.
    pub fn run_cache(&self) -> RunCache {
        match &self.cache_dir {
            Some(dir) => RunCache::new(dir.clone()),
            None => RunCache::at_default_location(),
        }
    }

    /// Runs the measurement and returns its merged log (with stats printed
    /// to stderr so stdout stays report-only).  With `--load`, a previously
    /// saved log is reused instead of re-running the simulation; with
    /// `--save`, the fresh log is stored for later reuse.
    pub fn run(&self, which: Measurement) -> MeasurementLog {
        let label = match which {
            Measurement::Distributed => "distributed",
            Measurement::Greedy => "greedy",
        };
        if let Some(dir) = &self.load {
            let path = dir.join(format!("{label}.edhp"));
            // `storage::load` returns only validated logs: a file that is
            // truncated, foreign or holds an index out of range (it would
            // silently corrupt every figure) is an `Err` here, and the
            // measurement is re-run instead.  A missing file is the silent case.
            match honeypot::storage::load(&path) {
                Ok(log) => {
                    eprintln!(
                        "[run] {label}: loaded {} records from {}",
                        log.records.len(),
                        path.display()
                    );
                    return log;
                }
                Err(honeypot::StorageError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => {
                    eprintln!("[run] {label}: could not load {}: {e}; re-running", path.display())
                }
            }
        }
        // Content-addressed cache: keyed by the full scenario config +
        // storage format version, so a hit is guaranteed to be the log
        // this exact simulation would produce.  Corrupt entries report
        // and fall through to a fresh run, like a corrupt `--load` file.
        let config = self.scenario(which);
        let cache = self.run_cache();
        if !self.no_cache {
            if let Some(log) = cache.load(&config) {
                eprintln!(
                    "[run] {label}: cache hit, {} records from {}",
                    log.records.len(),
                    cache.entry_path(&config).display()
                );
                return log;
            }
        }
        let out = self.run_full(which);
        if let Some(dir) = &self.save {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("[run] cannot create {}: {e}", dir.display());
            } else {
                let path = dir.join(format!("{label}.edhp"));
                match honeypot::storage::save(&out.log, &path) {
                    Ok(()) => eprintln!("[run] {label}: saved to {}", path.display()),
                    Err(e) => eprintln!("[run] {label}: save failed: {e}"),
                }
            }
        }
        if !self.no_cache {
            match cache.store(&config, &out.log) {
                Ok(path) => eprintln!("[run] {label}: cached to {}", path.display()),
                Err(e) => eprintln!("[run] {label}: cache store failed: {e}"),
            }
        }
        out.log
    }

    /// Runs the measurement, returning the full output.
    pub fn run_full(&self, which: Measurement) -> SimOutput {
        let label = match which {
            Measurement::Distributed => "distributed",
            Measurement::Greedy => "greedy",
        };
        eprintln!("[run] {label} measurement: scale {}, seed {:#x} …", self.scale, self.seed);
        let started = std::time::Instant::now();
        let out = run_scenario(self.scenario(which));
        eprintln!(
            "[run] {label}: {} peers, {} records in {:.1}s ({} arrivals, {} sessions, {} nc-det, {} rc-det, {} skipped)",
            out.log.distinct_peers,
            out.log.records.len(),
            started.elapsed().as_secs_f64(),
            out.stats.arrivals,
            out.stats.sessions,
            out.stats.detections_nc,
            out.stats.detections_rc,
            out.stats.skipped_invisible,
        );
        let problems = out.log.validate();
        assert!(problems.is_empty(), "invalid measurement log: {problems:?}");
        out
    }
}

fn usage(offender: &str) -> ! {
    if !offender.is_empty() {
        eprintln!("invalid arguments: {offender}");
    }
    eprintln!(
        "usage: <experiment> [--scale F] [--seed N] [--samples N] [--json]\n\
         \n\
         --scale F    population scale, 1.0 = paper scale (default 1.0)\n\
         --seed N     master seed (default {:#x})\n\
         --samples N  Monte-Carlo samples for subset figures (default 100)\n\
         --json       also emit machine-readable JSON\n\
         --save DIR   store the measurement logs under DIR (EDHP format)\n\
         --load DIR   reuse measurement logs from DIR instead of re-running\n\
         --no-cache   bypass the content-addressed run cache\n\
         --cache-dir DIR  run-cache location (default target/run-cache)\n\
         --live-loopback  live control-plane demo over loopback TCP (all)\n\
         --spool-dir DIR  durable spools + manager checkpoint for the live\n\
         \x20             demo; also exercises a manager crash/recovery\n\
         --checkpoint-interval MS  manager snapshot cadence (needs --spool-dir)",
        scenarios::DEFAULT_SEED
    );
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_analysis::basic_stats;

    #[test]
    fn small_distributed_run_is_coherent() {
        let opts = Options {
            scale: 0.01,
            seed: 5,
            samples: 10,
            json: false,
            no_cache: true,
            ..Default::default()
        };
        let log = opts.run(Measurement::Distributed);
        assert_eq!(log.honeypots.len(), 24);
        let stats = basic_stats(&log);
        assert!(stats.distinct_peers > 50, "got {}", stats.distinct_peers);
        assert_eq!(stats.shared_files, 4);
        assert!((stats.duration_days - 32.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_saved_log_is_rerun_not_trusted() {
        use edonkey_analysis::testutil::synthetic_log;
        use honeypot::QueryKind;
        use netsim::SimTime;

        let dir = std::env::temp_dir().join(format!("edhp-load-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        // A log that decodes fine but violates the peer-range invariant.
        let mut bad = synthetic_log(&[(0, QueryKind::Hello, 0, SimTime::from_hours(1))]);
        bad.distinct_peers = 0;
        assert!(!bad.validate().is_empty(), "fixture must actually be invalid");
        honeypot::storage::save(&bad, &dir.join("distributed.edhp")).expect("save");

        let opts = Options {
            scale: 0.01,
            seed: 5,
            load: Some(dir.clone()),
            no_cache: true,
            ..Default::default()
        };
        let log = opts.run(Measurement::Distributed);
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(log.honeypots.len(), 24, "must come from a fresh run, not the bad file");
        assert!(log.validate().is_empty());
    }

    #[test]
    fn small_greedy_run_adopts_files() {
        let opts = Options {
            scale: 0.01,
            seed: 5,
            samples: 10,
            json: false,
            no_cache: true,
            ..Default::default()
        };
        let log = opts.run(Measurement::Greedy);
        assert_eq!(log.honeypots.len(), 1);
        let stats = basic_stats(&log);
        assert!(
            stats.shared_files > 3,
            "greedy honeypot must adopt beyond its seeds, got {}",
            stats.shared_files
        );
        assert!(stats.distinct_files as u32 >= stats.shared_files);
    }
}
