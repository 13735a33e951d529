//! Single-peer query series (paper Figs. 8–9).
//!
//! The paper singles out the peer that sent the most queries and plots, per
//! strategy group, the cumulative START-UPLOAD (Fig. 8) and REQUEST-PART
//! (Fig. 9) messages received from it — exposing both the pacing difference
//! (timeout-clocked vs transfer-clocked) and the plateaus of its off
//! periods.

use std::collections::HashMap;

use honeypot::{AnonPeerId, ContentStrategy, MeasurementLog, QueryKind};
use netsim::metrics::BucketSeries;
use netsim::time::MS_PER_DAY;

use crate::index::LogIndex;
use crate::strategy::StrategyComparison;

/// Identifies the peer with the most records of `kind` (ties broken by the
/// smaller anonymised ID, i.e. earlier first appearance).
pub fn top_peer(log: &MeasurementLog, kind: QueryKind) -> Option<AnonPeerId> {
    let mut counts: HashMap<AnonPeerId, u64> = HashMap::new();
    for r in log.records_of(kind) {
        *counts.entry(r.peer).or_insert(0) += 1;
    }
    counts
        .into_iter()
        .max_by_key(|&(peer, count)| (count, std::cmp::Reverse(peer.0)))
        .map(|(peer, _)| peer)
}

/// Cumulative per-day messages of `kind` received *from one peer* by each
/// strategy group.
pub fn peer_series(log: &MeasurementLog, peer: AnonPeerId, kind: QueryKind) -> StrategyComparison {
    let mut rc = BucketSeries::daily();
    let mut nc = BucketSeries::daily();
    for r in log.records_of(kind).filter(|r| r.peer == peer) {
        match log.honeypots[r.honeypot.0 as usize].content {
            ContentStrategy::RandomContent => rc.record(r.at),
            ContentStrategy::NoContent => nc.record(r.at),
        }
    }
    let days = log.duration.as_millis().div_ceil(MS_PER_DAY).max(1) as usize;
    StrategyComparison { random_content: rc.cumulative(days), no_content: nc.cumulative(days) }
}

/// Detects plateaus — runs of ≥ `min_days` consecutive days with no growth
/// — in a cumulative series (the paper points at the top peer's silent
/// periods).
pub fn plateaus(cumulative: &[u64], min_days: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut run_start = None;
    for i in 1..cumulative.len() {
        if cumulative[i] == cumulative[i - 1] {
            run_start.get_or_insert(i);
        } else if let Some(s) = run_start.take() {
            if i - s >= min_days {
                out.push((s, i - 1));
            }
        }
    }
    if let Some(s) = run_start {
        if cumulative.len() - s >= min_days {
            out.push((s, cumulative.len() - 1));
        }
    }
    out
}

/// Summary row for reports.
#[derive(Clone, Debug)]
pub struct TopPeerSummary {
    pub peer: u32,
    pub start_upload_rc: u64,
    pub start_upload_nc: u64,
    pub request_part_rc: u64,
    pub request_part_nc: u64,
}

/// Computes the full Fig. 8/9 summary for the top peer (by START-UPLOAD
/// volume, as in the paper).
pub fn top_peer_summary(log: &MeasurementLog) -> Option<TopPeerSummary> {
    let peer = top_peer(log, QueryKind::StartUpload)?;
    let su = peer_series(log, peer, QueryKind::StartUpload);
    let rp = peer_series(log, peer, QueryKind::RequestPart);
    let (su_rc, su_nc) = su.finals();
    let (rp_rc, rp_nc) = rp.finals();
    Some(TopPeerSummary {
        peer: peer.0,
        start_upload_rc: su_rc,
        start_upload_nc: su_nc,
        request_part_rc: rp_rc,
        request_part_nc: rp_nc,
    })
}

/// Index-backed equivalents of this module's scans; asserted equal to the
/// direct functions in `tests/index_equivalence.rs`.
impl LogIndex {
    /// Indexed [`top_peer`]: reads the per-peer count array instead of
    /// re-tallying the records, same tie-break (smaller anonymised ID).
    pub fn top_peer(&self, kind: QueryKind) -> Option<AnonPeerId> {
        self.peer_counts(kind)
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count > 0)
            .max_by_key(|&(peer, &count)| (count, std::cmp::Reverse(peer)))
            .map(|(peer, _)| AnonPeerId(peer as u32))
    }
}

/// [`top_peer_summary`] with the top-peer search served from the index;
/// the single-peer series stay direct scans (they touch one peer's records
/// only, and per-peer-per-day series are deliberately not materialised in
/// the index).
pub fn top_peer_summary_indexed(log: &MeasurementLog, ix: &LogIndex) -> Option<TopPeerSummary> {
    let peer = ix.top_peer(QueryKind::StartUpload)?;
    let su = peer_series(log, peer, QueryKind::StartUpload);
    let rp = peer_series(log, peer, QueryKind::RequestPart);
    let (su_rc, su_nc) = su.finals();
    let (rp_rc, rp_nc) = rp.finals();
    Some(TopPeerSummary {
        peer: peer.0,
        start_upload_rc: su_rc,
        start_upload_nc: su_nc,
        request_part_rc: rp_rc,
        request_part_nc: rp_nc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::synthetic_log;
    use netsim::SimTime;

    #[test]
    fn top_peer_is_the_busiest() {
        let log = synthetic_log(&[
            (0, QueryKind::StartUpload, 0, SimTime::from_hours(1)),
            (1, QueryKind::StartUpload, 0, SimTime::from_hours(1)),
            (1, QueryKind::StartUpload, 1, SimTime::from_hours(2)),
            (1, QueryKind::StartUpload, 1, SimTime::from_hours(3)),
        ]);
        assert_eq!(top_peer(&log, QueryKind::StartUpload), Some(AnonPeerId(1)));
        assert_eq!(top_peer(&log, QueryKind::RequestPart), None);
    }

    #[test]
    fn peer_series_filters_to_one_peer() {
        let log = synthetic_log(&[
            (1, QueryKind::RequestPart, 1, SimTime::from_hours(1)),
            (1, QueryKind::RequestPart, 0, SimTime::from_hours(30)),
            (2, QueryKind::RequestPart, 1, SimTime::from_hours(1)), // other peer
        ]);
        let s = peer_series(&log, AnonPeerId(1), QueryKind::RequestPart);
        assert_eq!(s.random_content, vec![1, 1, 1]);
        assert_eq!(s.no_content, vec![0, 1, 1]);
    }

    #[test]
    fn plateaus_found() {
        let series = [1, 5, 5, 5, 8, 8, 9, 9, 9, 9];
        let p = plateaus(&series, 2);
        assert_eq!(p, vec![(2, 3), (7, 9)]);
        assert!(plateaus(&series, 4).is_empty());
        assert!(plateaus(&[], 1).is_empty());
    }

    #[test]
    fn summary_combines_both_kinds() {
        let log = synthetic_log(&[
            (3, QueryKind::StartUpload, 1, SimTime::from_hours(1)),
            (3, QueryKind::StartUpload, 0, SimTime::from_hours(2)),
            (3, QueryKind::RequestPart, 1, SimTime::from_hours(3)),
            (3, QueryKind::RequestPart, 1, SimTime::from_hours(4)),
        ]);
        let s = top_peer_summary(&log).unwrap();
        assert_eq!(s.peer, 3);
        assert_eq!((s.start_upload_rc, s.start_upload_nc), (1, 1));
        assert_eq!((s.request_part_rc, s.request_part_nc), (2, 0));
    }
}
