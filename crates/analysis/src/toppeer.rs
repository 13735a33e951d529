//! Single-peer query series (paper Figs. 8–9).
//!
//! The paper singles out the peer that sent the most queries and plots, per
//! strategy group, the cumulative START-UPLOAD (Fig. 8) and REQUEST-PART
//! (Fig. 9) messages received from it — exposing both the pacing difference
//! (timeout-clocked vs transfer-clocked) and the plateaus of its off
//! periods.

use honeypot::{AnonPeerId, ContentStrategy, QueryKind};

use crate::index::{cumulate, LogIndex};
use crate::strategy::StrategyComparison;

/// The peer with the largest count (ties broken by the smaller anonymised
/// ID, i.e. earlier first appearance); `None` when every count is zero.
pub(crate) fn busiest(counts: &[u64]) -> Option<AnonPeerId> {
    counts
        .iter()
        .enumerate()
        .filter(|&(_, &count)| count > 0)
        .max_by_key(|&(peer, &count)| (count, std::cmp::Reverse(peer)))
        .map(|(peer, _)| AnonPeerId(peer as u32))
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

impl LogIndex {
    /// The peer with the most records of `kind` (ties broken by the smaller
    /// anonymised ID); `None` when there are none.
    pub fn top_peer(&self, kind: QueryKind) -> Option<AnonPeerId> {
        busiest(self.peer_counts(kind))
    }

    /// The top START-UPLOAD peer (as in the paper) and the cumulative
    /// per-day messages of `kind` each strategy group received from it.
    pub fn top_peer_series(&self, kind: QueryKind) -> Option<(AnonPeerId, StrategyComparison)> {
        let peer = self.top_peer(QueryKind::StartUpload)?;
        let per_group = |s: ContentStrategy| cumulate(self.top_daily_padded(s, kind));
        Some((
            peer,
            StrategyComparison {
                random_content: per_group(ContentStrategy::RandomContent),
                no_content: per_group(ContentStrategy::NoContent),
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::synthetic_log;
    use netsim::SimTime;

    #[test]
    fn top_peer_is_the_busiest() {
        let ix = LogIndex::build(&synthetic_log(&[
            (0, QueryKind::StartUpload, 0, SimTime::from_hours(1)),
            (1, QueryKind::StartUpload, 0, SimTime::from_hours(1)),
            (1, QueryKind::StartUpload, 1, SimTime::from_hours(2)),
            (1, QueryKind::StartUpload, 1, SimTime::from_hours(3)),
        ]));
        assert_eq!(ix.top_peer(QueryKind::StartUpload), Some(AnonPeerId(1)));
        assert_eq!(ix.top_peer(QueryKind::RequestPart), None);
    }

    #[test]
    fn peer_series_filters_to_one_peer() {
        let ix = LogIndex::build(&synthetic_log(&[
            (1, QueryKind::StartUpload, 1, SimTime::from_hours(1)),
            (1, QueryKind::RequestPart, 1, SimTime::from_hours(1)),
            (1, QueryKind::RequestPart, 0, SimTime::from_hours(30)),
            (2, QueryKind::RequestPart, 1, SimTime::from_hours(1)), // other peer
        ]));
        let (peer, s) = ix.top_peer_series(QueryKind::RequestPart).unwrap();
        assert_eq!(peer, AnonPeerId(1));
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
        let ix = LogIndex::build(&synthetic_log(&[
            (3, QueryKind::StartUpload, 1, SimTime::from_hours(1)),
            (3, QueryKind::StartUpload, 0, SimTime::from_hours(2)),
            (3, QueryKind::RequestPart, 1, SimTime::from_hours(3)),
            (3, QueryKind::RequestPart, 1, SimTime::from_hours(4)),
        ]));
        let (peer, su) = ix.top_peer_series(QueryKind::StartUpload).unwrap();
        let (same, rp) = ix.top_peer_series(QueryKind::RequestPart).unwrap();
        assert_eq!((peer, same), (AnonPeerId(3), AnonPeerId(3)));
        assert_eq!(su.finals(), (1, 1));
        assert_eq!(rp.finals(), (2, 0));
    }
}
