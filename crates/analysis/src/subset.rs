//! Monte-Carlo subset sampling (paper Figs. 10–12).
//!
//! "Given n honeypots (resp. advertised files), how many distinct peers
//! would a measurement using only those n have observed?"  The paper
//! samples 100 random subsets per n and plots average, minimum and maximum.
//!
//! Enumerating independent subsets for every `n` re-does almost all union
//! work; instead each Monte-Carlo *permutation* of the full set yields, via
//! incremental unions, one sample for every `n` at once (a uniformly random
//! permutation's n-prefix is a uniformly random n-subset).  Permutations
//! run in parallel on `netsim::par`.

use honeypot::{MeasurementLog, QueryKind};
use netsim::Rng;

/// A set of peers as a fixed-width bitset.
#[derive(Clone, Debug, Default)]
pub struct PeerSet {
    words: Vec<u64>,
}

impl PeerSet {
    /// An empty set sized for `universe` peers.
    pub fn new(universe: usize) -> Self {
        PeerSet { words: vec![0; universe.div_ceil(64)] }
    }

    pub fn insert(&mut self, peer: u32) {
        let idx = peer as usize;
        self.words[idx / 64] |= 1u64 << (idx % 64);
    }

    pub fn contains(&self, peer: u32) -> bool {
        let idx = peer as usize;
        self.words.get(idx / 64).is_some_and(|w| w & (1u64 << (idx % 64)) != 0)
    }

    /// Number of peers in the set.
    pub fn count(&self) -> u64 {
        self.words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    /// In-place union; returns the new cardinality.
    pub fn union_with(&mut self, other: &PeerSet) -> u64 {
        debug_assert_eq!(self.words.len(), other.words.len(), "mismatched universes");
        let mut count = 0u64;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
            count += u64::from(a.count_ones());
        }
        count
    }

    fn clear(&mut self) {
        self.words.fill(0);
    }
}

/// One point of a subset curve.
#[derive(Clone, Copy, Debug)]
pub struct SubsetPoint {
    /// Subset size.
    pub n: usize,
    pub avg: f64,
    pub min: u64,
    pub max: u64,
}

/// Computes the subset curve over `sets` with `samples` Monte-Carlo
/// permutations.  Point `i` (1-based `n = i + 1`) aggregates the union
/// cardinality of each permutation's `n`-prefix.
pub fn subset_curve(sets: &[PeerSet], samples: usize, seed: u64) -> Vec<SubsetPoint> {
    if sets.is_empty() || samples == 0 {
        return Vec::new();
    }
    let universe_words = sets[0].words.len();
    let per_permutation: Vec<Vec<u64>> = netsim::par::par_map((0..samples).collect(), |s| {
        let mut rng = Rng::seed_from(seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut order: Vec<usize> = (0..sets.len()).collect();
        rng.shuffle(&mut order);
        let mut acc = PeerSet { words: vec![0; universe_words] };
        let mut sizes = Vec::with_capacity(sets.len());
        for &idx in &order {
            sizes.push(acc.union_with(&sets[idx]));
        }
        acc.clear();
        sizes
    });

    (0..sets.len())
        .map(|i| {
            let values = per_permutation.iter().map(|p| p[i]);
            let min = values.clone().min().expect("samples > 0");
            let max = values.clone().max().expect("samples > 0");
            let sum: u64 = values.sum();
            SubsetPoint { n: i + 1, avg: sum as f64 / samples as f64, min, max }
        })
        .collect()
}

/// Sequential reference implementation of [`subset_curve`] (same
/// permutation trick, one thread) — the cross-check in tests.
pub fn subset_curve_sequential(sets: &[PeerSet], samples: usize, seed: u64) -> Vec<SubsetPoint> {
    if sets.is_empty() || samples == 0 {
        return Vec::new();
    }
    let universe_words = sets[0].words.len();
    let mut per_permutation: Vec<Vec<u64>> = Vec::with_capacity(samples);
    for s in 0..samples {
        let mut rng = Rng::seed_from(seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut order: Vec<usize> = (0..sets.len()).collect();
        rng.shuffle(&mut order);
        let mut acc = PeerSet { words: vec![0; universe_words] };
        let mut sizes = Vec::with_capacity(sets.len());
        for &idx in &order {
            sizes.push(acc.union_with(&sets[idx]));
        }
        per_permutation.push(sizes);
    }
    (0..sets.len())
        .map(|i| {
            let values = per_permutation.iter().map(|p| p[i]);
            let min = values.clone().min().expect("samples > 0");
            let max = values.clone().max().expect("samples > 0");
            let sum: u64 = values.sum();
            SubsetPoint { n: i + 1, avg: sum as f64 / samples as f64, min, max }
        })
        .collect()
}

/// Per-honeypot distinct-peer sets (any query kind), for Fig. 10.
pub fn peer_sets_by_honeypot(log: &MeasurementLog) -> Vec<PeerSet> {
    let universe = log.distinct_peers as usize;
    let mut sets: Vec<PeerSet> = (0..log.honeypots.len()).map(|_| PeerSet::new(universe)).collect();
    for r in &log.records {
        sets[r.honeypot.0 as usize].insert(r.peer.0);
    }
    sets
}

/// Per-file distinct-peer sets over the files peers actually queried
/// (START-UPLOAD), for Figs. 11–12.  Returns `(file_idx, set)` pairs.
pub fn peer_sets_by_file(log: &MeasurementLog) -> Vec<(u32, PeerSet)> {
    use std::collections::HashMap;
    let universe = log.distinct_peers as usize;
    let mut by_file: HashMap<u32, PeerSet> = HashMap::new();
    for r in log.records_of(QueryKind::StartUpload) {
        if r.file != honeypot::log::FILE_NONE {
            by_file.entry(r.file).or_insert_with(|| PeerSet::new(universe)).insert(r.peer.0);
        }
    }
    let mut out: Vec<(u32, PeerSet)> = by_file.into_iter().collect();
    // Deterministic order (HashMap iteration is not).
    out.sort_by_key(|(f, _)| *f);
    out
}

/// Selects the Fig. 11 *random-files* sample: `k` files drawn uniformly
/// from the queried set.
pub fn random_files(sets: &[(u32, PeerSet)], k: usize, seed: u64) -> Vec<PeerSet> {
    let mut rng = Rng::seed_from(seed);
    let k = k.min(sets.len());
    rng.sample_indices(sets.len(), k).into_iter().map(|i| sets[i].1.clone()).collect()
}

/// Selects the Fig. 12 *popular-files* sample: the `k` files whose queries
/// came from the most distinct peers.
pub fn popular_files(sets: &[(u32, PeerSet)], k: usize) -> Vec<PeerSet> {
    let mut by_count: Vec<(u64, usize)> =
        sets.iter().enumerate().map(|(i, (_, s))| (s.count(), i)).collect();
    by_count.sort_unstable_by_key(|&(c, i)| (std::cmp::Reverse(c), i));
    by_count.into_iter().take(k).map(|(_, i)| sets[i].1.clone()).collect()
}

/// Per-file peer counts sorted descending (the paper quotes the best file
/// at 13,373 peers and the worst at 2).
pub fn file_peer_counts(sets: &[(u32, PeerSet)]) -> Vec<u64> {
    let mut counts: Vec<u64> = sets.iter().map(|(_, s)| s.count()).collect();
    counts.sort_unstable_by_key(|&c| std::cmp::Reverse(c));
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::synthetic_log;
    use netsim::SimTime;

    #[test]
    fn peer_set_basics() {
        let mut s = PeerSet::new(100);
        assert_eq!(s.count(), 0);
        s.insert(0);
        s.insert(64);
        s.insert(99);
        assert_eq!(s.count(), 3);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        let mut t = PeerSet::new(100);
        t.insert(64);
        t.insert(7);
        assert_eq!(t.union_with(&s), 4);
    }

    #[test]
    fn subset_curve_monotone_and_exact_at_extremes() {
        // Three sets: {0,1}, {1,2}, {3}.  Union of all = 4.
        let mut a = PeerSet::new(10);
        a.insert(0);
        a.insert(1);
        let mut b = PeerSet::new(10);
        b.insert(1);
        b.insert(2);
        let mut c = PeerSet::new(10);
        c.insert(3);
        let curve = subset_curve(&[a, b, c], 50, 42);
        assert_eq!(curve.len(), 3);
        assert_eq!(curve[2].min, 4, "full union is permutation-independent");
        assert_eq!(curve[2].max, 4);
        assert!(curve[0].avg <= curve[1].avg && curve[1].avg <= curve[2].avg);
        assert_eq!(curve[0].min, 1, "some single set has 1 peer");
        assert_eq!(curve[0].max, 2, "some single set has 2 peers");
        for p in &curve {
            assert!(f64::from(p.min as u32) <= p.avg && p.avg <= p.max as f64);
        }
    }

    #[test]
    fn sequential_matches_parallel() {
        let mut a = PeerSet::new(200);
        let mut b = PeerSet::new(200);
        let mut c = PeerSet::new(200);
        for i in 0..50 {
            a.insert(i);
            b.insert(i + 30);
            c.insert(i * 3);
        }
        let sets = [a, b, c];
        let seq = subset_curve_sequential(&sets, 20, 5);
        for workers in [1, 2, 8] {
            let par = netsim::par::with_workers(workers, || subset_curve(&sets, 20, 5));
            assert_eq!(par.len(), seq.len());
            for (p, s) in par.iter().zip(&seq) {
                assert_eq!(
                    (p.n, p.min, p.max, p.avg.to_bits()),
                    (s.n, s.min, s.max, s.avg.to_bits()),
                    "{workers} workers"
                );
            }
        }
    }

    #[test]
    fn subset_curve_deterministic_per_seed() {
        let mut a = PeerSet::new(8);
        a.insert(1);
        let mut b = PeerSet::new(8);
        b.insert(2);
        let c1 = subset_curve(&[a.clone(), b.clone()], 10, 7);
        let c2 = subset_curve(&[a, b], 10, 7);
        assert_eq!(c1[0].avg, c2[0].avg);
    }

    #[test]
    fn empty_inputs() {
        assert!(subset_curve(&[], 10, 1).is_empty());
        let s = PeerSet::new(4);
        assert!(subset_curve(&[s], 0, 1).is_empty());
    }

    #[test]
    fn honeypot_sets_from_log() {
        let log = synthetic_log(&[
            (0, QueryKind::Hello, 0, SimTime::from_hours(1)),
            (1, QueryKind::Hello, 0, SimTime::from_hours(1)),
            (1, QueryKind::Hello, 1, SimTime::from_hours(1)),
        ]);
        let sets = peer_sets_by_honeypot(&log);
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].count(), 2);
        assert_eq!(sets[1].count(), 1);
    }

    #[test]
    fn file_sets_from_start_uploads_only() {
        let log = synthetic_log(&[
            (0, QueryKind::StartUpload, 0, SimTime::from_hours(1)), // file 0
            (1, QueryKind::StartUpload, 0, SimTime::from_hours(1)),
            (2, QueryKind::Hello, 0, SimTime::from_hours(1)), // no file
            (2, QueryKind::RequestPart, 0, SimTime::from_hours(1)), // file 0, but not SU
        ]);
        let sets = peer_sets_by_file(&log);
        assert_eq!(sets.len(), 1);
        assert_eq!(sets[0].0, 0);
        assert_eq!(sets[0].1.count(), 2);
    }

    #[test]
    fn popular_and_random_selection() {
        let mk = |peers: &[u32]| {
            let mut s = PeerSet::new(50);
            for &p in peers {
                s.insert(p);
            }
            s
        };
        let sets = vec![(0u32, mk(&[1])), (1u32, mk(&[1, 2, 3])), (2u32, mk(&[4, 5]))];
        let top = popular_files(&sets, 2);
        assert_eq!(top[0].count(), 3);
        assert_eq!(top[1].count(), 2);
        let rnd = random_files(&sets, 2, 9);
        assert_eq!(rnd.len(), 2);
        assert_eq!(file_peer_counts(&sets), vec![3, 2, 1]);
    }
}
