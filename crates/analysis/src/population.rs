//! Peer-population demographics: the metadata dimensions the honeypots log
//! beyond identity — high/low ID status, client software, per-peer query
//! volumes — plus how evenly the measurement load spreads over honeypots.
//!
//! The paper logs all of these fields (§III-B) without analysing them; a
//! measurement platform's users will want the breakdowns.

use std::collections::HashMap;

use honeypot::{IdStatus, MeasurementLog, QueryKind};

/// High/low ID breakdown over distinct peers.
#[derive(Clone, Copy, Debug)]
pub struct IdStatusBreakdown {
    pub high: u64,
    pub low: u64,
}

impl IdStatusBreakdown {
    /// Fraction of peers behind NAT/firewall.
    pub fn low_fraction(&self) -> f64 {
        let total = self.high + self.low;
        if total == 0 {
            0.0
        } else {
            self.low as f64 / total as f64
        }
    }
}

/// Counts distinct peers by ID status (a peer's status can differ between
/// server sessions; the first observation wins, as in the logs).
pub fn id_status_breakdown(log: &MeasurementLog) -> IdStatusBreakdown {
    let mut seen: HashMap<u32, IdStatus> = HashMap::new();
    for (r, client) in log.records_with_clients() {
        seen.entry(r.peer.0).or_insert(client.id_status);
    }
    let mut out = IdStatusBreakdown { high: 0, low: 0 };
    for s in seen.values() {
        match s {
            IdStatus::High => out.high += 1,
            IdStatus::Low => out.low += 1,
        }
    }
    out
}

/// Distinct peers per client-software name, descending.
pub fn client_software(log: &MeasurementLog) -> Vec<(String, u64)> {
    let mut first_name: HashMap<u32, u32> = HashMap::new();
    for (r, client) in log.records_with_clients() {
        first_name.entry(r.peer.0).or_insert(client.name);
    }
    let mut counts: HashMap<u32, u64> = HashMap::new();
    for &n in first_name.values() {
        *counts.entry(n).or_insert(0) += 1;
    }
    let mut out: Vec<(String, u64)> = counts
        .into_iter()
        .map(|(idx, c)| (log.peer_names.get(idx as usize).cloned().unwrap_or_default(), c))
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    out
}

/// Log₂-bucketed histogram of per-peer query counts of one kind:
/// `(bucket_label, peers)` with buckets `1, 2-3, 4-7, …`.
pub fn queries_per_peer_histogram(log: &MeasurementLog, kind: QueryKind) -> Vec<(String, u64)> {
    let mut per_peer: HashMap<u32, u64> = HashMap::new();
    for r in log.records_of(kind) {
        *per_peer.entry(r.peer.0).or_insert(0) += 1;
    }
    let mut buckets: HashMap<u32, u64> = HashMap::new();
    for &c in per_peer.values() {
        let b = 64 - c.leading_zeros(); // c ≥ 1 ⇒ b ≥ 1
        *buckets.entry(b).or_insert(0) += 1;
    }
    let mut out: Vec<(u32, u64)> = buckets.into_iter().collect();
    out.sort_unstable();
    out.into_iter()
        .map(|(b, count)| {
            let lo = 1u64 << (b - 1);
            let hi = (1u64 << b) - 1;
            let label = if lo == hi { lo.to_string() } else { format!("{lo}-{hi}") };
            (label, count)
        })
        .collect()
}

/// Gini coefficient of the per-honeypot record counts: 0 = perfectly even
/// load, →1 = one honeypot absorbs everything.  A distributed measurement
/// wants this low; Fig. 10's attractiveness spread makes it non-zero.
pub fn honeypot_load_gini(log: &MeasurementLog) -> f64 {
    let mut loads = vec![0u64; log.honeypots.len()];
    for r in &log.records {
        loads[r.honeypot() as usize] += 1;
    }
    gini(&loads)
}

/// Gini coefficient of a non-negative sample.
pub fn gini(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let total: u64 = values.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let mut sorted: Vec<u64> = values.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    // G = (2·Σ i·xᵢ)/(n·Σ xᵢ) − (n+1)/n with 1-based ranks over the sorted
    // sample.
    let weighted: f64 = sorted.iter().enumerate().map(|(i, &x)| (i as f64 + 1.0) * x as f64).sum();
    (2.0 * weighted) / (n * total as f64) - (n + 1.0) / n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::synthetic_log;
    use netsim::SimTime;

    fn t(h: u64) -> SimTime {
        SimTime::from_hours(h)
    }

    #[test]
    fn id_status_counts_distinct_peers_once() {
        // Fixture: peer % 3 == 0 → Low.
        let log = synthetic_log(&[
            (0, QueryKind::Hello, 0, t(1)), // low
            (0, QueryKind::Hello, 1, t(2)), // same peer again
            (1, QueryKind::Hello, 0, t(1)), // high
            (2, QueryKind::Hello, 0, t(1)), // high
        ]);
        let b = id_status_breakdown(&log);
        assert_eq!((b.high, b.low), (2, 1));
        assert!((b.low_fraction() - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_breakdown() {
        let log = synthetic_log(&[]);
        assert_eq!(id_status_breakdown(&log).low_fraction(), 0.0);
        assert!(client_software(&log).is_empty());
        assert!(queries_per_peer_histogram(&log, QueryKind::Hello).is_empty());
    }

    #[test]
    fn client_software_aggregates() {
        let log = synthetic_log(&[(0, QueryKind::Hello, 0, t(1)), (1, QueryKind::Hello, 0, t(1))]);
        let soft = client_software(&log);
        assert_eq!(soft, vec![("eMule".to_string(), 2)]);
    }

    #[test]
    fn query_histogram_buckets_correctly() {
        // Peer 0: 1 HELLO (bucket "1"); peer 1: 3 HELLOs (bucket "2-3");
        // peer 2: 5 HELLOs (bucket "4-7").
        let mut entries = vec![(0, QueryKind::Hello, 0, t(1))];
        for i in 0..3 {
            entries.push((1, QueryKind::Hello, 0, t(2 + i)));
        }
        for i in 0..5 {
            entries.push((2, QueryKind::Hello, 0, t(10 + i)));
        }
        let log = synthetic_log(&entries);
        let hist = queries_per_peer_histogram(&log, QueryKind::Hello);
        assert_eq!(
            hist,
            vec![("1".to_string(), 1), ("2-3".to_string(), 1), ("4-7".to_string(), 1)]
        );
    }

    #[test]
    fn gini_extremes() {
        assert_eq!(gini(&[]), 0.0);
        assert_eq!(gini(&[0, 0]), 0.0);
        assert!((gini(&[5, 5, 5, 5])).abs() < 1e-9, "even load → 0");
        // One honeypot takes all: G = (n-1)/n.
        let g = gini(&[0, 0, 0, 100]);
        assert!((g - 0.75).abs() < 1e-9, "got {g}");
        // Moderate skew sits between.
        let g = gini(&[1, 2, 3, 4]);
        assert!(g > 0.0 && g < 0.75);
    }

    #[test]
    fn honeypot_load_gini_over_log() {
        let log = synthetic_log(&[
            (0, QueryKind::Hello, 0, t(1)),
            (1, QueryKind::Hello, 0, t(1)),
            (2, QueryKind::Hello, 0, t(1)),
            (3, QueryKind::Hello, 1, t(1)),
        ]);
        let g = honeypot_load_gini(&log);
        assert!((g - gini(&[3, 1])).abs() < 1e-12);
    }
}
