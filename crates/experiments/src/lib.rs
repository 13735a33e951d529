//! # edonkey-experiments
//!
//! Calibrated scenarios and reporting code that regenerate every table and
//! figure of the paper's evaluation.  Each binary (`table1`, `fig02` …
//! `fig12`, `all`) runs the relevant measurement on the simulated eDonkey
//! world and prints the paper artefact; `all` additionally rewrites
//! `EXPERIMENTS.md`.
//!
//! Binaries accept `--scale F` (population scale; 1.0 = paper scale),
//! `--seed N`, `--samples N` (Monte-Carlo subsets), `--json`, plus the
//! run-cache knobs (`--no-cache`, `--cache-dir DIR`) — completed runs are
//! reused from the content-addressed cache ([`cache`]) across invocations
//! and across binaries.

pub mod cache;
pub mod figures;
pub mod live;
pub mod runner;
pub mod scenarios;
pub mod targeted;

pub use cache::{cache_key, RunCache};
pub use figures::Artefact;
pub use live::{run_live_loopback, LiveDemo, LiveDurability};
pub use runner::{Measurement, Options};
pub use targeted::{targeted, Coordination, TargetInfo};

/// This process's high-water-mark resident set in kB (`VmHWM` in
/// `/proc/self/status`); `None` where the kernel does not report it.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
