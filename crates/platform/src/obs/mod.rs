//! `platform::obs` — the unified observability layer for the control
//! plane (DESIGN.md §3i).
//!
//! Four pieces:
//!
//! * the **event facade + flight recorder** — re-exported from
//!   [`netsim::obs`] (it lives in the workspace's bottom crate so the
//!   sim engine and analysis can instrument through the same facade);
//!   emit with [`netsim::obs_event!`];
//! * [`hist`] — mergeable log-linear [`Histogram`]s (count/min/mean/max
//!   plus p50/p90/p99), the one latency summary of the platform;
//! * [`registry`] — [`Registry::global`], which holds only the two
//!   histograms the agent side records per process (chunk RTT and spool
//!   append latency); every daemon-side sample lives in the daemon's own
//!   [`PlatformMetrics`](crate::metrics::PlatformMetrics);
//! * [`scrape`] — the periodic [`Scraper`]: JSONL time series plus a
//!   one-shot loopback snapshot endpoint, both carrying the document its
//!   owner renders (the daemon's `PlatformMetrics`, schema `obs-v2`).
//!
//! **Purity contract** (pinned by `tests/obs_purity.rs`): observation
//! never changes what the platform *does*.  Measurement logs and
//! control-protocol byte streams are bit-identical with observability
//! off, on, or at any verbosity.  Structurally this holds because the
//! facade only copies `Copy` data into pre-allocated rings, instruments
//! only accumulate integers on the side, and the scraper only reads.

pub mod hist;
pub mod registry;
pub mod scrape;

pub use hist::Histogram;
pub use netsim::obs::{
    dump_all, enabled, level, record, set_level, snapshot_all, snapshot_thread, EventRecord,
    InlineStr, Level, Value, RING_CAPACITY,
};
pub use registry::{HistogramHandle, Registry};
pub use scrape::{ObsConfig, Scraper};

use std::path::PathBuf;

/// Directory chaos/e2e failure dumps land in: `target/obs/`.
pub fn dump_dir() -> PathBuf {
    // Relative to the test's working directory (the workspace root for
    // `cargo test`), matching where CI collects artifacts from.
    PathBuf::from("target").join("obs")
}

/// Dumps every thread's flight-recorder ring to
/// `target/obs/<name>.events.jsonl`; returns the path on success.
/// Never panics — a failing dump must not mask the original failure.
pub fn dump_flight_recorder(name: &str) -> Option<PathBuf> {
    let path = dump_dir().join(format!("{name}.events.jsonl"));
    match dump_all(&path) {
        Ok(n) => {
            eprintln!("[obs] flight recorder: {n} events -> {}", path.display());
            Some(path)
        }
        Err(e) => {
            eprintln!("[obs] flight recorder dump failed: {e}");
            None
        }
    }
}

/// Panic-path guard for chaos tests: construct one at the top of a test
/// cell and the flight recorder is dumped to
/// `target/obs/<cell>.events.jsonl` *only* if the cell panics (assert
/// failure, unwrap, …).  A passing cell writes nothing.
pub struct FlightDumpOnPanic {
    cell: &'static str,
}

impl FlightDumpOnPanic {
    /// Arms the guard for `cell`.
    pub fn arm(cell: &'static str) -> FlightDumpOnPanic {
        FlightDumpOnPanic { cell }
    }
}

impl Drop for FlightDumpOnPanic {
    fn drop(&mut self) {
        if std::thread::panicking() {
            let _ = dump_flight_recorder(self.cell);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flight_dump_writes_named_file() {
        set_level(Level::Trace);
        netsim::obs_event!(Level::Info, "obs-mod-test", "dump_named", k = 1u64);
        let path = dump_flight_recorder("obs-mod-selftest").expect("dump");
        let text = std::fs::read_to_string(&path).expect("read");
        assert!(text.lines().any(|l| l.contains("dump_named")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn panic_guard_is_silent_on_success() {
        let marker = dump_dir().join("obs-guard-pass.events.jsonl");
        let _ = std::fs::remove_file(&marker);
        {
            let _guard = FlightDumpOnPanic::arm("obs-guard-pass");
        }
        assert!(!marker.exists(), "guard must not dump on clean exit");
    }

    #[test]
    fn panic_guard_dumps_on_unwind() {
        set_level(Level::Trace);
        let marker = dump_dir().join("obs-guard-fail.events.jsonl");
        let _ = std::fs::remove_file(&marker);
        let result = std::panic::catch_unwind(|| {
            let _guard = FlightDumpOnPanic::arm("obs-guard-fail");
            netsim::obs_event!(Level::Error, "obs-mod-test", "about_to_fail", code = 7u64);
            panic!("simulated cell failure");
        });
        assert!(result.is_err());
        let text = std::fs::read_to_string(&marker).expect("dump on panic");
        assert!(text.lines().any(|l| l.contains("about_to_fail")));
        let _ = std::fs::remove_file(&marker);
    }
}
