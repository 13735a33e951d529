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
//!
//! A [`PeerSet`] stores only its members, so a file seen by a thousand of
//! the greedy run's 852,777 peers costs 4 kB rather than a 107 kB bitset.
//! The unions still run on dense words: [`subset_curve`] expands the sets
//! it is given into bitsets once per call.

use std::borrow::Borrow;

use netsim::Rng;

/// A set of peers: its members, sorted and distinct.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PeerSet {
    members: Vec<u32>,
}

impl PeerSet {
    /// The set of `members`, in any order and with repeats.
    pub fn from_members(mut members: Vec<u32>) -> Self {
        members.sort_unstable();
        members.dedup();
        members.shrink_to_fit();
        PeerSet { members }
    }

    /// The set of the bits set in a dense bitset (bit `i % 64` of word
    /// `i / 64` stands for peer `i`).
    pub(crate) fn from_words(words: &[u64]) -> Self {
        let mut members = Vec::with_capacity(words.iter().map(|w| w.count_ones() as usize).sum());
        for (i, &word) in words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                members.push((i * 64) as u32 + w.trailing_zeros());
                w &= w - 1;
            }
        }
        PeerSet::from_members(members)
    }

    pub fn contains(&self, peer: u32) -> bool {
        self.members.binary_search(&peer).is_ok()
    }

    /// Number of peers in the set.
    pub fn count(&self) -> u64 {
        self.members.len() as u64
    }

    /// The members in ascending order.
    pub fn members(&self) -> &[u32] {
        &self.members
    }

    /// The set as a dense bitset of `width` words; every member must be
    /// below `64 * width`.
    fn to_words(&self, width: usize) -> Vec<u64> {
        let mut words = vec![0; width];
        for &m in &self.members {
            words[m as usize / 64] |= 1u64 << (m % 64);
        }
        words
    }
}

/// ORs `set` into `acc` word by word; returns the union's cardinality.
fn union_count(acc: &mut [u64], set: &[u64]) -> u64 {
    let mut count = 0u64;
    for (a, b) in acc.iter_mut().zip(set) {
        *a |= b;
        count += u64::from(a.count_ones());
    }
    count
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
///
/// The sets are expanded once into dense bitsets as wide as the largest
/// member needs, so every permutation's unions are word-wise ORs.
pub fn subset_curve<S: Borrow<PeerSet>>(sets: &[S], samples: usize, seed: u64) -> Vec<SubsetPoint> {
    if sets.is_empty() || samples == 0 {
        return Vec::new();
    }
    let width = sets
        .iter()
        .filter_map(|s| s.borrow().members.last())
        .max()
        .map_or(0, |&m| m as usize / 64 + 1);
    let dense: Vec<Vec<u64>> = sets.iter().map(|s| s.borrow().to_words(width)).collect();
    let per_permutation: Vec<Vec<u64>> = netsim::par::par_map((0..samples).collect(), |s| {
        let mut rng = Rng::seed_from(seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut order: Vec<usize> = (0..dense.len()).collect();
        rng.shuffle(&mut order);
        let mut acc = vec![0u64; width];
        order.iter().map(|&idx| union_count(&mut acc, &dense[idx])).collect()
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

/// Selects the Fig. 11 *random-files* sample: `k` files drawn uniformly
/// from the queried set.
pub fn random_files(sets: &[(u32, PeerSet)], k: usize, seed: u64) -> Vec<&PeerSet> {
    let mut rng = Rng::seed_from(seed);
    let k = k.min(sets.len());
    rng.sample_indices(sets.len(), k).into_iter().map(|i| &sets[i].1).collect()
}

/// Selects the Fig. 12 *popular-files* sample: the `k` files whose queries
/// came from the most distinct peers.
pub fn popular_files(sets: &[(u32, PeerSet)], k: usize) -> Vec<&PeerSet> {
    let mut by_count: Vec<(u64, usize)> =
        sets.iter().enumerate().map(|(i, (_, s))| (s.count(), i)).collect();
    by_count.sort_unstable_by_key(|&(c, i)| (std::cmp::Reverse(c), i));
    by_count.into_iter().take(k).map(|(_, i)| &sets[i].1).collect()
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
    use crate::LogIndex;
    use honeypot::QueryKind;
    use netsim::SimTime;

    fn set(members: &[u32]) -> PeerSet {
        PeerSet::from_members(members.to_vec())
    }

    /// The kernel's oracle: one bitset as wide as the whole universe per
    /// set, unions in place.
    struct DenseSet {
        words: Vec<u64>,
    }

    impl DenseSet {
        fn new(universe: usize) -> Self {
            DenseSet { words: vec![0; universe.div_ceil(64)] }
        }

        fn insert(&mut self, peer: u32) {
            let idx = peer as usize;
            self.words[idx / 64] |= 1u64 << (idx % 64);
        }

        fn union_with(&mut self, other: &DenseSet) -> u64 {
            let mut count = 0u64;
            for (a, b) in self.words.iter_mut().zip(&other.words) {
                *a |= b;
                count += u64::from(a.count_ones());
            }
            count
        }
    }

    /// [`subset_curve`] over `universe`-wide [`DenseSet`]s, one
    /// permutation after the other.
    fn reference_curve(
        sets: &[PeerSet],
        universe: usize,
        samples: usize,
        seed: u64,
    ) -> Vec<SubsetPoint> {
        let dense: Vec<DenseSet> = sets
            .iter()
            .map(|s| {
                let mut d = DenseSet::new(universe);
                s.members().iter().for_each(|&m| d.insert(m));
                d
            })
            .collect();
        let per_permutation: Vec<Vec<u64>> = (0..samples)
            .map(|s| {
                let mut rng = Rng::seed_from(seed ^ (s as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut order: Vec<usize> = (0..sets.len()).collect();
                rng.shuffle(&mut order);
                let mut acc = DenseSet::new(universe);
                order.iter().map(|&idx| acc.union_with(&dense[idx])).collect()
            })
            .collect();
        (0..sets.len())
            .map(|i| {
                let values: Vec<u64> = per_permutation.iter().map(|p| p[i]).collect();
                let sum: u64 = values.iter().sum();
                SubsetPoint {
                    n: i + 1,
                    avg: sum as f64 / samples as f64,
                    min: *values.iter().min().unwrap(),
                    max: *values.iter().max().unwrap(),
                }
            })
            .collect()
    }

    /// `1..=12` sets over a universe of up to 3,000 peers, each empty,
    /// sparse (a few peers anywhere) or dense (most peers of a random
    /// range), so their largest members differ; members arrive shuffled
    /// and repeated.
    fn random_sets(rng: &mut Rng, universe: usize) -> Vec<PeerSet> {
        (0..1 + rng.below(12))
            .map(|_| {
                let mut members: Vec<u32> = match rng.below(3) {
                    0 => Vec::new(),
                    1 => (0..rng.below(20)).map(|_| rng.below(universe as u64) as u32).collect(),
                    _ => {
                        let hi = 1 + rng.below(universe as u64);
                        let lo = rng.below(hi);
                        (lo..hi).filter(|_| rng.below(10) < 7).map(|p| p as u32).collect()
                    }
                };
                let repeats = members.len() / 3;
                members.extend_from_within(..repeats);
                rng.shuffle(&mut members);
                PeerSet::from_members(members)
            })
            .collect()
    }

    #[test]
    fn peer_set_basics() {
        let s = PeerSet::from_members(vec![99, 0, 64, 0, 99]);
        assert_eq!(s.count(), 3);
        assert_eq!(s.members(), &[0, 64, 99]);
        assert!(s.contains(64));
        assert!(!s.contains(63));
        assert!(!s.contains(100));
        assert_eq!(s, set(&[0, 64, 99]));
        assert_eq!(PeerSet::from_words(&[1, 0, 1 << 35 | 1]), set(&[0, 128, 163]));
        assert_eq!(PeerSet::default().count(), 0);
        assert_eq!(set(&[5]).to_words(2), vec![1 << 5, 0], "padded to the width asked for");
    }

    #[test]
    fn subset_curve_equals_dense_unions() {
        let mut rng = Rng::seed_from(0x5E75);
        for case in 0..48 {
            let universe = 1 + rng.below(3_000) as usize;
            let sets = random_sets(&mut rng, universe);
            // The oracle's bitsets are wider than the largest member needs.
            let want = reference_curve(&sets, universe + 64 * rng.below(3) as usize, 17, case);
            for workers in [1, 2, 8] {
                let got = netsim::par::with_workers(workers, || subset_curve(&sets, 17, case));
                assert_eq!(got.len(), want.len(), "case {case}");
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(
                        (g.n, g.min, g.max, g.avg.to_bits()),
                        (w.n, w.min, w.max, w.avg.to_bits()),
                        "case {case}, {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn subset_curve_monotone_and_exact_at_extremes() {
        // Three sets: {0,1}, {1,2}, {3}.  Union of all = 4.
        let curve = subset_curve(&[set(&[0, 1]), set(&[1, 2]), set(&[3])], 50, 42);
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
        let a = PeerSet::from_members((0..50).collect());
        let b = PeerSet::from_members((30..80).collect());
        let c = PeerSet::from_members((0..50).map(|i| i * 3).collect());
        let sets = [a, b, c];
        let seq = netsim::par::with_workers(1, || subset_curve(&sets, 20, 5));
        for workers in [2, 8] {
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
        let sets = [set(&[1]), set(&[2])];
        let c1 = subset_curve(&sets, 10, 7);
        let c2 = subset_curve(&sets, 10, 7);
        assert_eq!(c1[0].avg, c2[0].avg);
    }

    #[test]
    fn borrowed_and_owned_sets_give_one_curve() {
        let owned = [set(&[1, 70]), set(&[2]), set(&[])];
        let borrowed: Vec<&PeerSet> = owned.iter().collect();
        let (a, b) = (subset_curve(&owned, 10, 7), subset_curve(&borrowed, 10, 7));
        for (p, q) in a.iter().zip(&b) {
            assert_eq!((p.n, p.min, p.max, p.avg.to_bits()), (q.n, q.min, q.max, q.avg.to_bits()));
        }
    }

    #[test]
    fn empty_inputs() {
        assert!(subset_curve::<PeerSet>(&[], 10, 1).is_empty());
        assert!(subset_curve(&[set(&[])], 0, 1).is_empty());
        let curve = subset_curve(&[set(&[]), set(&[])], 5, 1);
        assert!(curve.iter().all(|p| p.max == 0), "empty sets union to nothing");
    }

    #[test]
    fn honeypot_sets_from_log() {
        let log = synthetic_log(&[
            (0, QueryKind::Hello, 0, SimTime::from_hours(1)),
            (1, QueryKind::Hello, 0, SimTime::from_hours(1)),
            (1, QueryKind::Hello, 1, SimTime::from_hours(1)),
        ]);
        let ix = LogIndex::build(&log);
        assert_eq!(ix.honeypot_peer_sets(), &[set(&[0, 1]), set(&[1])]);
    }

    #[test]
    fn file_sets_from_start_uploads_only() {
        let log = synthetic_log(&[
            (0, QueryKind::StartUpload, 0, SimTime::from_hours(1)), // file 0
            (1, QueryKind::StartUpload, 0, SimTime::from_hours(1)),
            (2, QueryKind::Hello, 0, SimTime::from_hours(1)), // no file
            (2, QueryKind::RequestPart, 0, SimTime::from_hours(1)), // file 0, but not SU
        ]);
        let ix = LogIndex::build(&log);
        assert_eq!(ix.file_peer_sets(), &[(0, set(&[0, 1]))]);
    }

    #[test]
    fn popular_and_random_selection() {
        let sets = vec![(0u32, set(&[1])), (1u32, set(&[1, 2, 3])), (2u32, set(&[4, 5]))];
        let top = popular_files(&sets, 2);
        assert_eq!(top, vec![&sets[1].1, &sets[2].1]);
        let rnd = random_files(&sets, 2, 9);
        assert_eq!(rnd.len(), 2);
        assert!(rnd.iter().all(|r| sets.iter().any(|(_, s)| std::ptr::eq(s, *r))));
        assert_eq!(file_peer_counts(&sets), vec![3, 2, 1]);
    }
}
