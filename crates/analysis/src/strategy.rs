//! Random-content vs no-content comparison (paper Figs. 5–7).
//!
//! The 24 honeypots of the distributed measurement split into two groups of
//! 12 by content strategy; the paper compares, per group and per day:
//! the number of distinct peers having sent HELLO (Fig. 5) and START-UPLOAD
//! (Fig. 6), and the cumulative number of REQUEST-PART messages (Fig. 7).

use honeypot::{AnonPeerId, ContentStrategy, HoneypotId, MeasurementLog, QueryKind};
use netsim::metrics::{BucketSeries, FirstSeen};
use netsim::time::MS_PER_DAY;

use crate::index::{cumulate, new_per_bucket, LogIndex};

/// A per-day cumulative series for each strategy group.
#[derive(Clone, Debug)]
pub struct StrategyComparison {
    /// Cumulative value per day for the random-content group.
    pub random_content: Vec<u64>,
    /// Cumulative value per day for the no-content group.
    pub no_content: Vec<u64>,
}

impl StrategyComparison {
    /// Final values `(random_content, no_content)`.
    pub fn finals(&self) -> (u64, u64) {
        (
            self.random_content.last().copied().unwrap_or(0),
            self.no_content.last().copied().unwrap_or(0),
        )
    }

    /// Whether random-content dominates no-content at the end — the
    /// paper's headline §IV-B finding.
    pub fn random_wins(&self) -> bool {
        let (rc, nc) = self.finals();
        rc > nc
    }
}

fn group_of(log: &MeasurementLog, hp: HoneypotId) -> ContentStrategy {
    log.honeypots[hp.0 as usize].content
}

fn days_of(log: &MeasurementLog) -> usize {
    log.duration.as_millis().div_ceil(MS_PER_DAY).max(1) as usize
}

/// Distinct peers having sent `kind` to each group, cumulative per day
/// (Figs. 5 and 6).
pub fn distinct_peers_by_strategy(log: &MeasurementLog, kind: QueryKind) -> StrategyComparison {
    let mut rc: FirstSeen<AnonPeerId> = FirstSeen::new();
    let mut nc: FirstSeen<AnonPeerId> = FirstSeen::new();
    for r in log.records_of(kind) {
        match group_of(log, r.honeypot) {
            ContentStrategy::RandomContent => rc.observe(r.peer, r.at),
            ContentStrategy::NoContent => nc.observe(r.peer, r.at),
        };
    }
    let days = days_of(log);
    StrategyComparison {
        random_content: rc.cumulative_per_bucket(MS_PER_DAY, days),
        no_content: nc.cumulative_per_bucket(MS_PER_DAY, days),
    }
}

/// Total messages of `kind` received by each group, cumulative per day
/// (Fig. 7 with `QueryKind::RequestPart`).
pub fn messages_by_strategy(log: &MeasurementLog, kind: QueryKind) -> StrategyComparison {
    let mut rc = BucketSeries::daily();
    let mut nc = BucketSeries::daily();
    for r in log.records_of(kind) {
        match group_of(log, r.honeypot) {
            ContentStrategy::RandomContent => rc.record(r.at),
            ContentStrategy::NoContent => nc.record(r.at),
        }
    }
    let days = days_of(log);
    StrategyComparison { random_content: rc.cumulative(days), no_content: nc.cumulative(days) }
}

/// Index-backed equivalents of this module's scans; asserted equal to the
/// direct functions in `tests/index_equivalence.rs`.
impl LogIndex {
    /// Indexed [`distinct_peers_by_strategy`].
    pub fn distinct_peers_by_strategy(&self, kind: QueryKind) -> StrategyComparison {
        let days = self.days();
        let per_group = |s: ContentStrategy| {
            cumulate(new_per_bucket(self.peer_first_cell(s, kind), MS_PER_DAY, days))
        };
        StrategyComparison {
            random_content: per_group(ContentStrategy::RandomContent),
            no_content: per_group(ContentStrategy::NoContent),
        }
    }

    /// Indexed [`messages_by_strategy`].
    pub fn messages_by_strategy(&self, kind: QueryKind) -> StrategyComparison {
        StrategyComparison {
            random_content: cumulate(self.daily_padded(ContentStrategy::RandomContent, kind)),
            no_content: cumulate(self.daily_padded(ContentStrategy::NoContent, kind)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::synthetic_log;
    use netsim::SimTime;

    // Fixture convention: hp0 = no-content, hp2 = no-content, hp1 =
    // random-content.

    #[test]
    fn distinct_peers_split_by_group() {
        let log = synthetic_log(&[
            (0, QueryKind::Hello, 0, SimTime::from_hours(1)), // nc
            (0, QueryKind::Hello, 1, SimTime::from_hours(2)), // rc (same peer)
            (1, QueryKind::Hello, 1, SimTime::from_hours(3)), // rc
            (1, QueryKind::Hello, 1, SimTime::from_hours(40)), // repeat, day 1
        ]);
        let c = distinct_peers_by_strategy(&log, QueryKind::Hello);
        assert_eq!(c.no_content, vec![1, 1, 1]);
        assert_eq!(c.random_content, vec![2, 2, 2], "repeat contact not double-counted");
        assert_eq!(c.finals(), (2, 1));
        assert!(c.random_wins());
    }

    #[test]
    fn messages_accumulate_per_group() {
        let log = synthetic_log(&[
            (0, QueryKind::RequestPart, 0, SimTime::from_hours(1)),
            (0, QueryKind::RequestPart, 0, SimTime::from_hours(30)),
            (0, QueryKind::RequestPart, 1, SimTime::from_hours(30)),
            (0, QueryKind::RequestPart, 1, SimTime::from_hours(31)),
            (0, QueryKind::RequestPart, 1, SimTime::from_hours(60)),
        ]);
        let c = messages_by_strategy(&log, QueryKind::RequestPart);
        assert_eq!(c.no_content, vec![1, 2, 2]);
        assert_eq!(c.random_content, vec![0, 2, 3]);
    }

    #[test]
    fn kinds_do_not_mix() {
        let log = synthetic_log(&[
            (0, QueryKind::Hello, 1, SimTime::from_hours(1)),
            (1, QueryKind::StartUpload, 1, SimTime::from_hours(1)),
        ]);
        let c = distinct_peers_by_strategy(&log, QueryKind::StartUpload);
        assert_eq!(c.finals(), (1, 0));
    }

    #[test]
    fn empty_log_yields_flat_series() {
        let log = synthetic_log(&[]);
        let c = distinct_peers_by_strategy(&log, QueryKind::Hello);
        assert_eq!(c.finals(), (0, 0));
        assert!(!c.random_wins());
        assert_eq!(c.no_content.len(), 3);
    }
}
