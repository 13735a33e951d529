//! Table I — basic statistics of a measurement.

use honeypot::MeasurementLog;

use crate::distinct::peer_growth;
use crate::index::LogIndex;

/// One column of the paper's Table I.
#[derive(Clone, Debug)]
pub struct BasicStats {
    pub honeypots: usize,
    pub duration_days: f64,
    pub shared_files: u32,
    pub distinct_peers: u32,
    pub distinct_files: usize,
    /// Total size of distinct observed files, bytes.
    pub distinct_files_bytes: u64,
}

impl BasicStats {
    /// Space used by distinct files in terabytes (the unit Table I uses).
    pub fn distinct_files_tb(&self) -> f64 {
        self.distinct_files_bytes as f64 / 1e12
    }
}

/// Computes the Table I column for a measurement.
pub fn basic_stats(log: &MeasurementLog) -> BasicStats {
    BasicStats {
        honeypots: log.honeypots.len(),
        duration_days: log.duration.as_days(),
        shared_files: log.shared_files_final,
        distinct_peers: log.distinct_peers,
        distinct_files: log.distinct_files(),
        distinct_files_bytes: log.distinct_files_size(),
    }
}

/// Sanity: `distinct_peers` must agree with a full scan (used by tests and
/// the experiment runner's self-check).
pub fn recount_distinct_peers(log: &MeasurementLog) -> u64 {
    peer_growth(log).total()
}

impl LogIndex {
    /// Indexed [`recount_distinct_peers`] — the runner's self-check without
    /// the extra record scan.
    pub fn recount_distinct_peers(&self) -> u64 {
        self.peer_growth().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::synthetic_log;
    use honeypot::QueryKind;
    use netsim::SimTime;

    #[test]
    fn stats_reflect_log() {
        let log = synthetic_log(&[
            (0, QueryKind::Hello, 0, SimTime::from_hours(1)),
            (1, QueryKind::Hello, 1, SimTime::from_hours(2)),
        ]);
        let s = basic_stats(&log);
        assert_eq!(s.honeypots, 2);
        assert_eq!(s.distinct_peers, 2);
        assert!((s.duration_days - 3.0).abs() < 1e-9);
        assert_eq!(s.shared_files, 4);
        assert_eq!(s.distinct_files, 3);
        assert_eq!(recount_distinct_peers(&log), 2);
    }

    #[test]
    fn tb_conversion() {
        let log = synthetic_log(&[]);
        let mut s = basic_stats(&log);
        s.distinct_files_bytes = 9_000_000_000_000;
        assert!((s.distinct_files_tb() - 9.0).abs() < 1e-9);
    }
}
