//! The process-wide histograms of the agent side.
//!
//! A daemon records its own samples into its
//! [`PlatformMetrics`](crate::metrics::PlatformMetrics), and its scrape
//! serves that document.  Two latencies belong to no daemon: the chunk
//! RTT every agent measures and the spool append latency.  In a
//! deployment each agent is its own process, so one registry per process
//! is one per agent; in a single-process loopback deployment the agents
//! pool into it (and the daemon's WAL appends, which go through the same
//! spool, record beside them).  [`Registry::global`] holds them.
//!
//! Handles are cheap `Arc` clones; recording a sample takes a mutex
//! private to that histogram (uncontended in steady state — each has one
//! dominant writer thread).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

use netsim::sync::lock;

use super::hist::Histogram;

/// Shared histogram handle.
#[derive(Clone, Default)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Records one sample (typically microseconds).
    pub fn record(&self, value: u64) {
        lock(&self.0).record(value);
    }

    /// A copy of the current distribution.
    pub fn snapshot(&self) -> Histogram {
        lock(&self.0).clone()
    }
}

/// A namespace of named histograms.
#[derive(Default)]
pub struct Registry {
    histograms: Mutex<BTreeMap<&'static str, HistogramHandle>>,
}

impl Registry {
    /// The process-wide registry the agents and the spool record into.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::default)
    }

    /// Returns the histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &'static str) -> HistogramHandle {
        lock(&self.histograms).entry(name).or_default().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state() {
        let reg = Registry::default();
        let h = reg.histogram("latency");
        h.record(100);
        reg.histogram("latency").record(300);
        assert_eq!(reg.histogram("latency").snapshot().count(), 2);
        assert_eq!(reg.histogram("other").snapshot().count(), 0);
    }

    #[test]
    fn global_registry_is_shared() {
        Registry::global().histogram("obs_registry_test_hist").record(5);
        assert!(Registry::global().histogram("obs_registry_test_hist").snapshot().count() >= 1);
    }
}
