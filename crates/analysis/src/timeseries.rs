//! Hourly message-volume series (paper Fig. 4: HELLO messages per hour over
//! the first week, exhibiting the day-night oscillation).

use honeypot::{MeasurementLog, QueryKind};
use netsim::metrics::BucketSeries;
use netsim::time::MS_PER_HOUR;

use crate::index::LogIndex;

/// An hourly count series.
#[derive(Clone, Debug)]
pub struct HourlySeries {
    pub counts: Vec<u64>,
}

impl HourlySeries {
    /// Restricts to the first `hours` buckets (Fig. 4 plots 168 h).
    pub fn first_hours(&self, hours: usize) -> Vec<u64> {
        let mut v = self.counts.clone();
        v.truncate(hours);
        v.resize(hours.min(v.len().max(hours)), 0);
        v
    }

    /// Ratio between the mean of the daily maxima and the mean of the
    /// daily minima — the strength of the day/night oscillation.
    pub fn day_night_ratio(&self) -> f64 {
        let days = self.counts.len() / 24;
        if days == 0 {
            return 1.0;
        }
        let mut max_sum = 0.0;
        let mut min_sum = 0.0;
        for d in 0..days {
            let day = &self.counts[d * 24..(d + 1) * 24];
            max_sum += *day.iter().max().expect("24 entries") as f64;
            min_sum += *day.iter().min().expect("24 entries") as f64;
        }
        if min_sum == 0.0 {
            f64::INFINITY
        } else {
            max_sum / min_sum
        }
    }

    /// Time (in ms from start) of the first non-empty bucket's first event
    /// is not recoverable from buckets; see [`first_event_ms`] instead.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

/// Hourly counts of one message kind across the whole measurement.
pub fn hourly_counts(log: &MeasurementLog, kind: QueryKind) -> HourlySeries {
    let mut series = BucketSeries::hourly();
    for r in log.records_of(kind) {
        series.record(r.at);
    }
    let hours = log.duration.as_millis().div_ceil(MS_PER_HOUR).max(1) as usize;
    HourlySeries { counts: series.to_vec(hours) }
}

/// Timestamp (ms) of the earliest record of the given kind — the paper
/// notes its first query arrived ten minutes into the measurement.
pub fn first_event_ms(log: &MeasurementLog, kind: QueryKind) -> Option<u64> {
    log.records_of(kind).map(|r| r.at.as_millis()).min()
}

/// Index-backed equivalents of this module's scans; asserted equal to the
/// direct functions in `tests/index_equivalence.rs`.
impl LogIndex {
    /// Indexed [`hourly_counts`].
    pub fn hourly_counts(&self, kind: QueryKind) -> HourlySeries {
        HourlySeries { counts: self.hourly_padded(kind) }
    }

    /// Indexed [`first_event_ms`].
    pub fn first_event_ms(&self, kind: QueryKind) -> Option<u64> {
        self.kind_first(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::synthetic_log;
    use netsim::SimTime;

    #[test]
    fn hourly_counts_bucket_correctly() {
        let log = synthetic_log(&[
            (0, QueryKind::Hello, 0, SimTime::from_mins(10)),
            (1, QueryKind::Hello, 0, SimTime::from_mins(50)),
            (2, QueryKind::Hello, 0, SimTime::from_mins(70)),
            (3, QueryKind::StartUpload, 0, SimTime::from_mins(20)),
        ]);
        let s = hourly_counts(&log, QueryKind::Hello);
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.counts[1], 1);
        assert_eq!(s.total(), 3, "START-UPLOAD not counted");
        assert_eq!(s.counts.len(), 72, "3-day fixture spans 72 hours");
    }

    #[test]
    fn first_event_found() {
        let log = synthetic_log(&[
            (0, QueryKind::Hello, 0, SimTime::from_mins(10)),
            (1, QueryKind::Hello, 0, SimTime::from_mins(5)),
        ]);
        assert_eq!(first_event_ms(&log, QueryKind::Hello), Some(300_000));
        assert_eq!(first_event_ms(&log, QueryKind::RequestPart), None);
    }

    #[test]
    fn day_night_ratio_detects_oscillation() {
        // Hand-build: 10 by day, 1 by night for two days.
        let counts: Vec<u64> =
            (0..48).map(|h| if (8..20).contains(&(h % 24)) { 10 } else { 1 }).collect();
        let s = HourlySeries { counts };
        assert!((s.day_night_ratio() - 10.0).abs() < 1e-9);
        let flat = HourlySeries { counts: vec![5; 48] };
        assert!((flat.day_night_ratio() - 1.0).abs() < 1e-9);
        let short = HourlySeries { counts: vec![5; 10] };
        assert_eq!(short.day_night_ratio(), 1.0, "under a day: no ratio");
    }

    #[test]
    fn first_hours_truncates() {
        let s = HourlySeries { counts: (0..100u64).collect() };
        let week = s.first_hours(24);
        assert_eq!(week.len(), 24);
        assert_eq!(week[23], 23);
    }
}
