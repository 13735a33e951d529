//! Named metrics registry: counters, gauges and [`Histogram`]s that the
//! snapshot scraper samples periodically.
//!
//! Handles are cheap `Arc` clones; recording a histogram sample takes a
//! mutex private to that instrument (uncontended in steady state — each
//! instrument has one dominant writer thread).
//! Snapshots iterate a `BTreeMap`, so output ordering is deterministic
//! regardless of registration order races.
//!
//! The daemon, in-process agents and the spool all record through
//! [`Registry::global`] so a single scraper sees the whole process;
//! unit tests construct private registries.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use netsim::sync::lock;

use super::hist::Histogram;

/// Monotone counter handle.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-value gauge handle.
#[derive(Clone, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the current value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Shared histogram handle.
#[derive(Clone)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl Default for HistogramHandle {
    fn default() -> HistogramHandle {
        HistogramHandle(Arc::new(Mutex::new(Histogram::new())))
    }
}

impl HistogramHandle {
    /// Records one sample (typically microseconds).
    pub fn record(&self, value: u64) {
        lock(&self.0).record(value);
    }

    /// A copy of the current distribution.
    pub fn snapshot(&self) -> Histogram {
        lock(&self.0).clone()
    }

    /// Folds another histogram in (shard merge).
    pub fn merge(&self, other: &Histogram) {
        lock(&self.0).merge(other);
    }
}

#[derive(Default)]
struct Instruments {
    counters: BTreeMap<&'static str, Counter>,
    gauges: BTreeMap<&'static str, Gauge>,
    histograms: BTreeMap<&'static str, HistogramHandle>,
}

/// A namespace of named instruments.
#[derive(Default)]
pub struct Registry {
    inner: Mutex<Instruments>,
}

/// Point-in-time copy of every instrument, ready to serialise.
pub struct RegistrySnapshot {
    /// Counter name → value.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge name → value.
    pub gauges: BTreeMap<&'static str, i64>,
    /// Histogram name → distribution copy.
    pub histograms: BTreeMap<&'static str, Histogram>,
}

impl Registry {
    /// A fresh, private registry (tests; embedded use).
    pub fn new() -> Registry {
        Registry::default()
    }

    /// The process-wide registry the scraper samples.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::new)
    }

    /// Returns the counter named `name`, creating it on first use.
    pub fn counter(&self, name: &'static str) -> Counter {
        lock(&self.inner).counters.entry(name).or_default().clone()
    }

    /// Returns the gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        lock(&self.inner).gauges.entry(name).or_default().clone()
    }

    /// Returns the histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &'static str) -> HistogramHandle {
        lock(&self.inner).histograms.entry(name).or_default().clone()
    }

    /// Copies every instrument's current state.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let inner = lock(&self.inner);
        RegistrySnapshot {
            counters: inner.counters.iter().map(|(k, v)| (*k, v.get())).collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (*k, v.get())).collect(),
            histograms: inner.histograms.iter().map(|(k, v)| (*k, v.snapshot())).collect(),
        }
    }
}

impl RegistrySnapshot {
    /// One JSON object with `counters` / `gauges` / `histograms`
    /// sub-objects; key order is deterministic (BTreeMap).  `extra` is
    /// spliced in verbatim as leading members (e.g. a timestamp) — pass
    /// `""` for none.
    pub fn to_json(&self, extra: &str) -> String {
        let mut s = String::with_capacity(512);
        s.push('{');
        if !extra.is_empty() {
            s.push_str(extra);
            s.push(',');
        }
        s.push_str("\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{k}\":{v}"));
        }
        s.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{k}\":{v}"));
        }
        s.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{k}\":{}", h.to_json()));
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state() {
        let reg = Registry::new();
        let c1 = reg.counter("requests");
        let c2 = reg.counter("requests");
        c1.add(3);
        c2.inc();
        assert_eq!(reg.counter("requests").get(), 4);

        let g = reg.gauge("depth");
        g.set(-7);
        assert_eq!(reg.gauge("depth").get(), -7);

        let h = reg.histogram("latency");
        h.record(100);
        reg.histogram("latency").record(300);
        assert_eq!(reg.histogram("latency").snapshot().count(), 2);
    }

    #[test]
    fn snapshot_json_is_deterministic_and_ordered() {
        let reg = Registry::new();
        reg.counter("zeta").inc();
        reg.counter("alpha").add(2);
        reg.gauge("mid").set(5);
        reg.histogram("lat").record(42);
        let j1 = reg.snapshot().to_json("\"t\":1");
        let j2 = reg.snapshot().to_json("\"t\":1");
        assert_eq!(j1, j2);
        // BTreeMap ordering: alpha before zeta.
        assert!(j1.find("\"alpha\":2").unwrap() < j1.find("\"zeta\":1").unwrap());
        assert!(j1.starts_with("{\"t\":1,"));
        assert!(j1.contains("\"lat\":{\"count\":1"));
    }

    #[test]
    fn global_registry_is_shared() {
        let a = Registry::global().counter("obs_registry_test_counter");
        a.add(5);
        assert!(Registry::global().counter("obs_registry_test_counter").get() >= 5);
    }
}
