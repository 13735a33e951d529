//! Lightweight time-series recording.
//!
//! Experiments need per-hour and per-day bucketed counts (Figs. 2–9) and
//! cumulative-distinct curves.  [`BucketSeries`] accumulates counts into
//! fixed-width time buckets; [`FirstSeen`] tracks when each key was first
//! observed, from which cumulative-distinct and new-per-bucket series
//! derive.

use std::collections::HashMap;
use std::hash::Hash;

use crate::time::SimTime;

/// Counts events in fixed-width time buckets.
#[derive(Clone, Debug)]
pub struct BucketSeries {
    /// Bucket width in milliseconds.
    bucket_ms: u64,
    /// Dense counts, index = bucket number.
    counts: Vec<u64>,
}

impl BucketSeries {
    /// Creates a series with the given bucket width.
    ///
    /// # Panics
    /// If `bucket_ms == 0`.
    pub fn new(bucket_ms: u64) -> Self {
        assert!(bucket_ms > 0, "bucket width must be positive");
        BucketSeries { bucket_ms, counts: Vec::new() }
    }

    /// Per-hour buckets.
    pub fn hourly() -> Self {
        Self::new(crate::time::MS_PER_HOUR)
    }

    /// Per-day buckets.
    pub fn daily() -> Self {
        Self::new(crate::time::MS_PER_DAY)
    }

    /// Records one event at `t`.
    pub fn record(&mut self, t: SimTime) {
        self.add(t, 1);
    }

    /// Records `n` events at `t`.
    pub fn add(&mut self, t: SimTime, n: u64) {
        let idx = (t.as_millis() / self.bucket_ms) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += n;
    }

    /// The count in bucket `idx` (0 beyond the recorded range).
    pub fn get(&self, idx: usize) -> u64 {
        self.counts.get(idx).copied().unwrap_or(0)
    }

    /// All buckets, padded with zeros up to `min_len` (so a quiet final day
    /// still appears in reports).
    pub fn to_vec(&self, min_len: usize) -> Vec<u64> {
        let mut v = self.counts.clone();
        if v.len() < min_len {
            v.resize(min_len, 0);
        }
        v
    }

    /// Cumulative counts bucket by bucket.
    pub fn cumulative(&self, min_len: usize) -> Vec<u64> {
        let mut acc = 0u64;
        self.to_vec(min_len)
            .into_iter()
            .map(|c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Sum over all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Number of non-empty trailing-trimmed buckets.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

/// Tracks the first observation time of each key.
#[derive(Clone, Debug)]
pub struct FirstSeen<K: Eq + Hash> {
    first: HashMap<K, SimTime>,
}

impl<K: Eq + Hash> Default for FirstSeen<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Eq + Hash> FirstSeen<K> {
    pub fn new() -> Self {
        FirstSeen { first: HashMap::new() }
    }

    /// Records an observation; returns `true` the first time `key` is seen.
    pub fn observe(&mut self, key: K, t: SimTime) -> bool {
        match self.first.entry(key) {
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(t);
                true
            }
            std::collections::hash_map::Entry::Occupied(mut e) => {
                // Out-of-order merges (multi-honeypot logs) keep the
                // earliest time.
                if t < *e.get() {
                    e.insert(t);
                }
                false
            }
        }
    }

    /// Number of distinct keys observed.
    pub fn distinct(&self) -> usize {
        self.first.len()
    }

    /// First-seen time of a key.
    pub fn first_seen(&self, key: &K) -> Option<SimTime> {
        self.first.get(key).copied()
    }

    /// Number of *new* keys per bucket of `bucket_ms`, over at least
    /// `min_len` buckets.
    pub fn new_per_bucket(&self, bucket_ms: u64, min_len: usize) -> Vec<u64> {
        assert!(bucket_ms > 0);
        let mut counts = vec![
            0u64;
            self.first
                .values()
                .map(|t| (t.as_millis() / bucket_ms) as usize + 1)
                .max()
                .unwrap_or(0)
                .max(min_len)
        ];
        for t in self.first.values() {
            counts[(t.as_millis() / bucket_ms) as usize] += 1;
        }
        counts
    }

    /// Cumulative distinct keys per bucket.
    pub fn cumulative_per_bucket(&self, bucket_ms: u64, min_len: usize) -> Vec<u64> {
        let mut acc = 0;
        self.new_per_bucket(bucket_ms, min_len)
            .into_iter()
            .map(|c| {
                acc += c;
                acc
            })
            .collect()
    }

    /// Iterates over `(key, first_seen)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, SimTime)> {
        self.first.iter().map(|(k, t)| (k, *t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MS_PER_DAY, MS_PER_HOUR};

    #[test]
    fn bucket_series_accumulates() {
        let mut s = BucketSeries::hourly();
        s.record(SimTime::from_mins(10));
        s.record(SimTime::from_mins(50));
        s.record(SimTime::from_mins(70));
        assert_eq!(s.get(0), 2);
        assert_eq!(s.get(1), 1);
        assert_eq!(s.get(2), 0);
        assert_eq!(s.total(), 3);
    }

    #[test]
    fn bucket_series_padding_and_cumulative() {
        let mut s = BucketSeries::daily();
        s.add(SimTime::from_days(1), 5);
        let v = s.to_vec(4);
        assert_eq!(v, vec![0, 5, 0, 0]);
        assert_eq!(s.cumulative(4), vec![0, 5, 5, 5]);
    }

    #[test]
    #[should_panic(expected = "bucket width must be positive")]
    fn zero_bucket_rejected() {
        let _ = BucketSeries::new(0);
    }

    #[test]
    fn first_seen_counts_each_key_once() {
        let mut fs = FirstSeen::new();
        assert!(fs.observe("peer-1", SimTime::from_hours(1)));
        assert!(!fs.observe("peer-1", SimTime::from_hours(5)));
        assert!(fs.observe("peer-2", SimTime::from_hours(30)));
        assert_eq!(fs.distinct(), 2);
        assert_eq!(fs.first_seen(&"peer-1"), Some(SimTime::from_hours(1)));
    }

    #[test]
    fn out_of_order_merge_keeps_earliest() {
        let mut fs = FirstSeen::new();
        fs.observe(7u32, SimTime::from_hours(10));
        fs.observe(7u32, SimTime::from_hours(2));
        assert_eq!(fs.first_seen(&7), Some(SimTime::from_hours(2)));
    }

    #[test]
    fn new_and_cumulative_per_day() {
        let mut fs = FirstSeen::new();
        fs.observe(1, SimTime::from_hours(1)); // day 0
        fs.observe(2, SimTime::from_hours(30)); // day 1
        fs.observe(3, SimTime::from_hours(31)); // day 1
        assert_eq!(fs.new_per_bucket(MS_PER_DAY, 3), vec![1, 2, 0]);
        assert_eq!(fs.cumulative_per_bucket(MS_PER_DAY, 3), vec![1, 3, 3]);
        assert_eq!(fs.new_per_bucket(MS_PER_HOUR, 0).len(), 32);
    }

    #[test]
    fn empty_first_seen() {
        let fs: FirstSeen<u8> = FirstSeen::new();
        assert_eq!(fs.distinct(), 0);
        assert_eq!(fs.new_per_bucket(MS_PER_DAY, 2), vec![0, 0]);
    }
}
