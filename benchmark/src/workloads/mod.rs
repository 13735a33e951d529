//! The five workloads and what they share.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use edonkey_proto::md4::Md4;
use serde_json::Value;

use crate::trace::Tracer;

pub mod analyse;
pub mod loopback;
pub mod sim;
pub mod upload;

/// Fixed workload sizes.  `smoke` is about a tenth of `full` on every
/// axis that sets the amount of work.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub distributed_scale: f64,
    pub greedy_scale: f64,
    pub upload_chunks: u64,
    /// Hello + part session pairs each loopback client performs.
    pub loopback_pairs: u32,
    /// Two-triple sessions per client for the traced part-triple ladder.
    pub ladder_sessions: u32,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        distributed_scale: 0.2,
        greedy_scale: 0.1,
        upload_chunks: 600,
        loopback_pairs: 100,
        ladder_sessions: 5,
    };
    pub const SMOKE: Sizes = Sizes {
        distributed_scale: 0.02,
        greedy_scale: 0.03,
        upload_chunks: 60,
        loopback_pairs: 10,
        ladder_sessions: 2,
    };
}

/// What a workload is built from.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    pub smoke: bool,
    /// Scratch directory of this run (inside the checkout, removed when
    /// the run ends).
    pub dir: PathBuf,
}

impl Ctx {
    pub fn sizes(&self) -> Sizes {
        if self.smoke {
            Sizes::SMOKE
        } else {
            Sizes::FULL
        }
    }
}

/// Per-layer values of one repetition, by metric name.
pub type Layers = BTreeMap<String, f64>;

/// What one repetition reports.
#[derive(Default)]
pub struct Rep {
    /// Wall time of the repetition's work, checks excluded.
    pub pipeline_s: f64,
    /// Work units done (events, records, sessions) and the wall time of
    /// the phase that did them; their ratio is `throughput_per_s`.
    pub work_units: f64,
    pub hot_s: f64,
    /// `VmHWM` when the work ended, before the checks allocated.
    pub rss_mb: f64,
    /// Operations checked (a repetition, a pass, a chunk, a session) and
    /// how many failed, with one line per failure.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Per-layer values (traced repetitions only).
    pub layers: Layers,
    /// Exact facts about the output (counts, digests) for the result
    /// document and the golden comparison.
    pub facts: Value,
}

impl Rep {
    /// Records one failed operation.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.failures.push(what.into());
    }

    /// Fails the repetition, as one operation, if any check found a problem.
    pub fn fail_if_any(&mut self, problems: Vec<String>) {
        if !problems.is_empty() {
            self.fail(problems.join("; "));
        }
    }
}

pub trait Workload {
    /// Runs one repetition end to end and checks its output.
    fn rep(&mut self, tr: &mut Tracer) -> Rep;

    /// Warm-up repetitions set-up runs; `setup_s` takes the median of their
    /// times.  More than one only where a single repetition's time is too
    /// erratic to compare across runs.
    fn warm_ups(&self) -> usize {
        1
    }

    /// Per-layer values pooled over every repetition so far (percentiles
    /// of per-operation samples, side probes).  Traced runs only.
    fn pooled_layers(&mut self, _layers: &mut Layers) {}
}

pub fn build(name: &str, ctx: &Ctx) -> std::io::Result<Box<dyn Workload>> {
    Ok(match name {
        "sim-distributed" => Box::new(sim::Sim::new(sim::Which::Distributed, ctx)),
        "sim-greedy" => Box::new(sim::Sim::new(sim::Which::Greedy, ctx)),
        "analyse-saved" => Box::new(analyse::Analyse::new(ctx)?),
        "live-upload" => Box::new(upload::Upload::new(ctx)),
        "live-loopback" => Box::new(loopback::Loopback::new(ctx)),
        other => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unknown workload {other}"),
            ))
        }
    })
}

/// This process's peak resident set (`VmHWM`) in MB; 0 where `/proc` has
/// no such line.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// MD4 of a file's bytes, streamed.
pub fn md4_of_file(path: &Path) -> std::io::Result<String> {
    use std::io::Read;
    let mut file = std::fs::File::open(path)?;
    let mut h = Md4::new();
    let mut buf = vec![0u8; 1 << 20];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(hex(&h.finalize()));
        }
        h.update(&buf[..n]);
    }
}

pub fn md4_of_text(parts: &[String]) -> String {
    let mut h = Md4::new();
    for p in parts {
        h.update(p.as_bytes());
    }
    hex(&h.finalize())
}

/// Total size of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
