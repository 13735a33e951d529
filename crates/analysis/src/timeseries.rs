//! Hourly message-volume series (paper Fig. 4: HELLO messages per hour over
//! the first week, exhibiting the day-night oscillation).

use honeypot::QueryKind;

use crate::index::LogIndex;

/// An hourly count series.
#[derive(Clone, Debug)]
pub struct HourlySeries {
    pub counts: Vec<u64>,
}

impl HourlySeries {
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

    /// Total count over all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl LogIndex {
    /// Hourly counts of one message kind across the whole measurement.
    pub fn hourly_counts(&self, kind: QueryKind) -> HourlySeries {
        HourlySeries { counts: self.hourly_padded(kind) }
    }

    /// Timestamp (ms) of the earliest record of the given kind — the paper
    /// notes its first query arrived ten minutes into the measurement.
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
        let s = LogIndex::build(&log).hourly_counts(QueryKind::Hello);
        assert_eq!(s.counts[0], 2);
        assert_eq!(s.counts[1], 1);
        assert_eq!(s.total(), 3, "START-UPLOAD not counted");
        assert_eq!(s.counts.len(), 72, "3-day fixture spans 72 hours");
    }

    #[test]
    fn first_event_found() {
        let ix = LogIndex::build(&synthetic_log(&[
            (0, QueryKind::Hello, 0, SimTime::from_mins(10)),
            (1, QueryKind::Hello, 0, SimTime::from_mins(5)),
        ]));
        assert_eq!(ix.first_event_ms(QueryKind::Hello), Some(300_000));
        assert_eq!(ix.first_event_ms(QueryKind::RequestPart), None);
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
}
