//! Co-interest analysis — the paper's §V analysis agenda: "explore the
//! relationships between peers inferred from the fact that they are
//! interested in the same files, and conversely study relations between
//! files from the fact that they are downloaded by the same peers".
//!
//! The measurement log induces a bipartite peer–file graph from
//! START-UPLOAD queries; this module computes both projections:
//!
//! * the **file projection**: files weighted by the number of peers
//!   interested in both (with Jaccard similarity to normalise away
//!   popularity);
//! * the **peer projection**: how many peers share interests, and the
//!   degree distribution of the co-interest relation.

use std::collections::HashMap;

use honeypot::{MeasurementLog, QueryKind};
use netsim::{json_object, Json};

/// An edge of the file projection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FilePairEdge {
    pub file_a: u32,
    pub file_b: u32,
    /// Peers interested in both files.
    pub common_peers: u64,
    /// `common / (|A| + |B| - common)`.
    pub jaccard: f64,
}

/// Aggregate co-interest statistics.
#[derive(Clone, Debug)]
pub struct CoInterestStats {
    /// Peers with at least one START-UPLOAD.
    pub querying_peers: u64,
    /// Peers interested in ≥ 2 distinct files.
    pub multi_file_peers: u64,
    /// Mean distinct files per querying peer.
    pub mean_files_per_peer: f64,
    /// Number of file pairs with ≥ 1 common peer.
    pub file_pairs: u64,
    /// Strongest file pairs by common-peer count.
    pub top_pairs: Vec<FilePairEdge>,
}

impl CoInterestStats {
    /// The statistics as a JSON object, one key per field (`--json`).
    pub fn to_json(&self) -> Json {
        let pair = |p: &FilePairEdge| {
            json_object! {
                "file_a": p.file_a, "file_b": p.file_b,
                "common_peers": p.common_peers, "jaccard": p.jaccard,
            }
        };
        json_object! {
            "querying_peers": self.querying_peers,
            "multi_file_peers": self.multi_file_peers,
            "mean_files_per_peer": self.mean_files_per_peer,
            "file_pairs": self.file_pairs,
            "top_pairs": self.top_pairs.iter().map(pair).collect::<Vec<_>>(),
        }
    }
}

/// The peer→files incidence derived from START-UPLOAD records.
pub fn peer_file_incidence(log: &MeasurementLog) -> HashMap<u32, Vec<u32>> {
    let mut by_peer: HashMap<u32, Vec<u32>> = HashMap::new();
    for r in log.records_of(QueryKind::StartUpload) {
        if r.file == honeypot::log::FILE_NONE {
            continue;
        }
        let files = by_peer.entry(r.peer.0).or_default();
        if !files.contains(&r.file) {
            files.push(r.file);
        }
    }
    by_peer
}

/// Computes the co-interest statistics, keeping the `top_k` strongest file
/// pairs.
///
/// Complexity is `Σ_p k_p²` over per-peer file counts — cheap because real
/// (and simulated) peers query a handful of files each.  Peers with
/// enormous lists (crawlers) are capped at 64 files to keep hostile inputs
/// from going quadratic.
pub fn co_interest(log: &MeasurementLog, top_k: usize) -> CoInterestStats {
    let by_peer = peer_file_incidence(log);

    let mut per_file_peers: HashMap<u32, u64> = HashMap::new();
    let mut pair_counts: HashMap<(u32, u32), u64> = HashMap::new();
    let mut multi = 0u64;
    let mut total_files = 0u64;

    for files in by_peer.values() {
        total_files += files.len() as u64;
        if files.len() >= 2 {
            multi += 1;
        }
        for &f in files {
            *per_file_peers.entry(f).or_insert(0) += 1;
        }
        let capped = &files[..files.len().min(64)];
        for i in 0..capped.len() {
            for j in (i + 1)..capped.len() {
                let key = if capped[i] < capped[j] {
                    (capped[i], capped[j])
                } else {
                    (capped[j], capped[i])
                };
                *pair_counts.entry(key).or_insert(0) += 1;
            }
        }
    }

    let mut pairs: Vec<FilePairEdge> = pair_counts
        .into_iter()
        .map(|((a, b), common)| {
            let pa = per_file_peers[&a];
            let pb = per_file_peers[&b];
            FilePairEdge {
                file_a: a,
                file_b: b,
                common_peers: common,
                jaccard: common as f64 / (pa + pb - common) as f64,
            }
        })
        .collect();
    let file_pairs = pairs.len() as u64;
    pairs.sort_by(|x, y| {
        y.common_peers
            .cmp(&x.common_peers)
            .then_with(|| (x.file_a, x.file_b).cmp(&(y.file_a, y.file_b)))
    });
    pairs.truncate(top_k);

    let querying_peers = by_peer.len() as u64;
    CoInterestStats {
        querying_peers,
        multi_file_peers: multi,
        mean_files_per_peer: if querying_peers == 0 {
            0.0
        } else {
            total_files as f64 / querying_peers as f64
        },
        file_pairs,
        top_pairs: pairs,
    }
}

/// Histogram of co-interest degrees in the peer projection: for each peer,
/// the number of *other* peers sharing at least one file with it, bucketed
/// logarithmically (`0, 1, 2-3, 4-7, 8-15, …`).  Returns `(bucket_label,
/// count)` pairs.
pub fn peer_degree_histogram(log: &MeasurementLog) -> Vec<(String, u64)> {
    let by_peer = peer_file_incidence(log);
    let mut peers_of_file: HashMap<u32, u64> = HashMap::new();
    for files in by_peer.values() {
        for &f in files {
            *peers_of_file.entry(f).or_insert(0) += 1;
        }
    }
    // Upper-bound co-degree: peers sharing any file ≈ Σ over the peer's
    // files of (peers-on-that-file − 1).  An upper bound rather than the
    // exact union, which suffices for the distribution's shape and stays
    // linear-time.
    let mut buckets: HashMap<u32, u64> = HashMap::new();
    for files in by_peer.values() {
        let degree: u64 = files.iter().map(|f| peers_of_file[f] - 1).sum();
        let bucket = if degree == 0 { 0 } else { 64 - u64::leading_zeros(degree) };
        *buckets.entry(bucket).or_insert(0) += 1;
    }
    let mut out: Vec<(u32, u64)> = buckets.into_iter().collect();
    out.sort_unstable();
    out.into_iter()
        .map(|(b, count)| {
            let label = if b == 0 {
                "0".to_string()
            } else {
                format!("{}-{}", 1u64 << (b - 1), (1u64 << b) - 1)
            };
            (label, count)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::synthetic_log_with_files;
    use honeypot::log::FILE_NONE;
    use netsim::SimTime;

    fn t(h: u64) -> SimTime {
        SimTime::from_hours(h)
    }

    #[test]
    fn incidence_dedups_per_peer() {
        let log = synthetic_log_with_files(&[
            (0, QueryKind::StartUpload, 0, t(1), 0),
            (0, QueryKind::StartUpload, 0, t(2), 0), // repeat query
            (0, QueryKind::StartUpload, 0, t(3), 1),
            (1, QueryKind::Hello, 0, t(1), FILE_NONE),
        ]);
        let inc = peer_file_incidence(&log);
        assert_eq!(inc.len(), 1, "HELLO-only peers do not appear");
        assert_eq!(inc[&0], vec![0, 1]);
    }

    #[test]
    fn co_interest_counts_common_peers() {
        // Peers 0 and 1 both want files 0 and 1; peer 2 wants only file 2.
        let log = synthetic_log_with_files(&[
            (0, QueryKind::StartUpload, 0, t(1), 0),
            (0, QueryKind::StartUpload, 0, t(1), 1),
            (1, QueryKind::StartUpload, 0, t(2), 0),
            (1, QueryKind::StartUpload, 0, t(2), 1),
            (2, QueryKind::StartUpload, 0, t(3), 2),
        ]);
        let stats = co_interest(&log, 10);
        assert_eq!(stats.querying_peers, 3);
        assert_eq!(stats.multi_file_peers, 2);
        assert!((stats.mean_files_per_peer - 5.0 / 3.0).abs() < 1e-9);
        assert_eq!(stats.file_pairs, 1);
        let top = &stats.top_pairs[0];
        assert_eq!((top.file_a, top.file_b, top.common_peers), (0, 1, 2));
        assert!((top.jaccard - 1.0).abs() < 1e-9, "both peers want both files");
    }

    #[test]
    fn jaccard_normalises_popularity() {
        // File 0 is popular (3 peers), file 1 niche (1 peer, shared).
        let log = synthetic_log_with_files(&[
            (0, QueryKind::StartUpload, 0, t(1), 0),
            (1, QueryKind::StartUpload, 0, t(1), 0),
            (2, QueryKind::StartUpload, 0, t(1), 0),
            (2, QueryKind::StartUpload, 0, t(1), 1),
        ]);
        let stats = co_interest(&log, 10);
        let top = &stats.top_pairs[0];
        assert_eq!(top.common_peers, 1);
        assert!((top.jaccard - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn top_k_truncates_deterministically() {
        let log = synthetic_log_with_files(&[
            (0, QueryKind::StartUpload, 0, t(1), 0),
            (0, QueryKind::StartUpload, 0, t(1), 1),
            (0, QueryKind::StartUpload, 0, t(1), 2),
        ]);
        let stats = co_interest(&log, 2);
        assert_eq!(stats.file_pairs, 3, "three pairs exist");
        assert_eq!(stats.top_pairs.len(), 2, "but only two reported");
        // Equal counts: ties broken by file indices.
        assert_eq!((stats.top_pairs[0].file_a, stats.top_pairs[0].file_b), (0, 1));
    }

    #[test]
    fn degree_histogram_buckets() {
        // Peers 0,1,2 all on file 0 → each has co-degree 2 (bucket "2-3").
        let log = synthetic_log_with_files(&[
            (0, QueryKind::StartUpload, 0, t(1), 0),
            (1, QueryKind::StartUpload, 0, t(1), 0),
            (2, QueryKind::StartUpload, 0, t(1), 0),
            (3, QueryKind::StartUpload, 0, t(1), 1), // loner → bucket "0"
        ]);
        let hist = peer_degree_histogram(&log);
        assert_eq!(hist, vec![("0".into(), 1), ("2-3".into(), 3)]);
    }

    #[test]
    fn empty_log() {
        let log = synthetic_log_with_files(&[]);
        let stats = co_interest(&log, 5);
        assert_eq!(stats.querying_peers, 0);
        assert_eq!(stats.mean_files_per_peer, 0.0);
        assert!(peer_degree_histogram(&log).is_empty());
    }
}
