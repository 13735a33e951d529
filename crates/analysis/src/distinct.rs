//! Distinct-peer growth over time (paper Figs. 2 and 3).
//!
//! From the merged log we derive, per measurement day, the cumulative
//! number of distinct peers observed so far and the number of peers seen
//! for the first time that day — the two curves of Figs. 2/3.

use honeypot::{AnonPeerId, MeasurementLog, QueryKind};
use netsim::metrics::FirstSeen;
use netsim::time::MS_PER_DAY;

use crate::index::{cumulate, new_per_bucket, LogIndex};

/// The two series of Fig. 2/3, daily buckets.
#[derive(Clone, Debug)]
pub struct PeerGrowth {
    /// Cumulative distinct peers at the end of each day.
    pub cumulative: Vec<u64>,
    /// Peers first observed on each day.
    pub new_per_day: Vec<u64>,
}

impl PeerGrowth {
    /// Total distinct peers over the whole measurement.
    pub fn total(&self) -> u64 {
        self.cumulative.last().copied().unwrap_or(0)
    }

    /// Mean new peers per day over the last `n` days (the paper quotes
    /// ">2,500 new peers per day" at the end of the distributed run).
    pub fn tail_rate(&self, n: usize) -> f64 {
        if self.new_per_day.is_empty() {
            return 0.0;
        }
        let tail = &self.new_per_day[self.new_per_day.len().saturating_sub(n)..];
        tail.iter().sum::<u64>() as f64 / tail.len() as f64
    }
}

/// Computes peer growth over all records (any message kind counts as an
/// observation, as in the paper's "observed peers").
pub fn peer_growth(log: &MeasurementLog) -> PeerGrowth {
    peer_growth_filtered(log, None)
}

/// Computes peer growth restricted to one message kind (`Some(kind)`), or
/// any kind (`None`).
pub fn peer_growth_filtered(log: &MeasurementLog, kind: Option<QueryKind>) -> PeerGrowth {
    let mut first: FirstSeen<AnonPeerId> = FirstSeen::new();
    for r in &log.records {
        if kind.is_none_or(|k| r.kind == k) {
            first.observe(r.peer, r.at);
        }
    }
    let days = log.duration.as_millis().div_ceil(MS_PER_DAY).max(1) as usize;
    let new_per_day = first.new_per_bucket(MS_PER_DAY, days);
    let mut cumulative = Vec::with_capacity(new_per_day.len());
    let mut acc = 0;
    for &n in &new_per_day {
        acc += n;
        cumulative.push(acc);
    }
    PeerGrowth { cumulative, new_per_day }
}

/// Distinct-file growth (Table I's "distinct files" and the file-side
/// counterpart of Figs. 2/3): files are observed through START-UPLOAD /
/// REQUEST-PART queries and through shared-file lists.
pub fn file_growth(log: &MeasurementLog) -> PeerGrowth {
    let mut first: FirstSeen<u32> = FirstSeen::new();
    for r in &log.records {
        if r.file != honeypot::log::FILE_NONE {
            first.observe(r.file, r.at);
        }
    }
    for l in &log.shared_lists {
        for &f in &l.files {
            first.observe(f, l.at);
        }
    }
    let days = log.duration.as_millis().div_ceil(MS_PER_DAY).max(1) as usize;
    let new_per_day = first.new_per_bucket(MS_PER_DAY, days);
    let mut cumulative = Vec::with_capacity(new_per_day.len());
    let mut acc = 0;
    for &n in &new_per_day {
        acc += n;
        cumulative.push(acc);
    }
    PeerGrowth { cumulative, new_per_day }
}

/// Index-backed equivalents of this module's scans; asserted equal to the
/// direct functions in `tests/index_equivalence.rs`.
impl LogIndex {
    /// Indexed [`peer_growth`].
    pub fn peer_growth(&self) -> PeerGrowth {
        self.peer_growth_filtered(None)
    }

    /// Indexed [`peer_growth_filtered`].
    pub fn peer_growth_filtered(&self, kind: Option<QueryKind>) -> PeerGrowth {
        let firsts = self.peer_first_merged(kind);
        let new_per_day = new_per_bucket(&firsts, MS_PER_DAY, self.days());
        PeerGrowth { cumulative: cumulate(new_per_day.clone()), new_per_day }
    }

    /// Indexed [`file_growth`].
    pub fn file_growth(&self) -> PeerGrowth {
        let new_per_day = new_per_bucket(self.file_first(), MS_PER_DAY, self.days());
        PeerGrowth { cumulative: cumulate(new_per_day.clone()), new_per_day }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::synthetic_log;
    use netsim::SimTime;

    #[test]
    fn growth_counts_each_peer_once() {
        // Peer 0 appears on days 0 and 2; peer 1 on day 1.
        let log = synthetic_log(&[
            (0, QueryKind::Hello, 0, SimTime::from_hours(1)),
            (0, QueryKind::Hello, 0, SimTime::from_hours(50)),
            (1, QueryKind::Hello, 0, SimTime::from_hours(30)),
        ]);
        let g = peer_growth(&log);
        assert_eq!(g.new_per_day[0], 1);
        assert_eq!(g.new_per_day[1], 1);
        assert_eq!(g.new_per_day[2], 0);
        assert_eq!(g.cumulative, vec![1, 2, 2]);
        assert_eq!(g.total(), 2);
    }

    #[test]
    fn filtered_growth_respects_kind() {
        let log = synthetic_log(&[
            (0, QueryKind::Hello, 0, SimTime::from_hours(1)),
            (1, QueryKind::StartUpload, 0, SimTime::from_hours(2)),
        ]);
        let g = peer_growth_filtered(&log, Some(QueryKind::StartUpload));
        assert_eq!(g.total(), 1);
        let g = peer_growth_filtered(&log, None);
        assert_eq!(g.total(), 2);
    }

    #[test]
    fn tail_rate_averages_last_days() {
        let g = PeerGrowth { cumulative: vec![10, 30, 40], new_per_day: vec![10, 20, 10] };
        assert!((g.tail_rate(2) - 15.0).abs() < 1e-9);
        assert!((g.tail_rate(10) - 40.0 / 3.0).abs() < 1e-9, "clamped to available days");
        let empty = PeerGrowth { cumulative: vec![], new_per_day: vec![] };
        assert_eq!(empty.tail_rate(5), 0.0);
    }

    #[test]
    fn series_span_full_duration_even_when_quiet() {
        let log = synthetic_log(&[(0, QueryKind::Hello, 0, SimTime::from_hours(1))]);
        let g = peer_growth(&log);
        assert_eq!(g.cumulative.len(), 3, "duration is 3 days in the fixture");
    }

    #[test]
    fn file_growth_sees_queries_and_lists() {
        let mut log = synthetic_log(&[
            (0, QueryKind::StartUpload, 0, SimTime::from_hours(1)), // file 0
        ]);
        log.shared_lists.push(honeypot::AnonSharedList {
            at: SimTime::from_hours(30),
            honeypot: honeypot::HoneypotId(0),
            peer: honeypot::AnonPeerId(0),
            files: vec![1, 2],
        });
        let g = file_growth(&log);
        assert_eq!(g.total(), 3);
        assert_eq!(g.new_per_day[0], 1);
        assert_eq!(g.new_per_day[1], 2);
    }
}
