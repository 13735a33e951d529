//! Log-linear latency histogram: fixed bucket layout, mergeable across
//! reactor shards, constant-time record, percentile read-out.
//!
//! Layout: values are bucketed by power-of-two decade (the position of
//! the highest set bit) subdivided into `SUBS` linear sub-buckets —
//! the classic HDR-style log-linear scheme.  With `SUBS = 16` the
//! relative quantile error is bounded by 1/16 ≈ 6%, plenty for p50/p99
//! operational latencies, while the whole histogram is a fixed
//! `64 × 16` array of `u64` — no allocation after construction, and
//! `merge` is element-wise addition (plus min/max), so merged shards
//! equal one histogram of the combined stream.

/// Linear sub-buckets per power-of-two decade.
const SUBS: usize = 16;
/// Decades: one per possible highest-bit position of a `u64`.
const DECADES: usize = 64;
const NBUCKETS: usize = DECADES * SUBS;

/// A mergeable log-linear histogram of non-negative integer samples
/// (typically microseconds).
#[derive(Clone)]
pub struct Histogram {
    counts: Box<[u64; NBUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("min", &self.min())
            .field("max", &self.max)
            .field("p50", &self.p50())
            .field("p99", &self.p99())
            .finish()
    }
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram { counts: Box::new([0u64; NBUCKETS]), count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Bucket index for `value` — constant time, branch-free but for
    /// the small-value special case.
    #[inline]
    fn bucket(value: u64) -> usize {
        if value < SUBS as u64 {
            // Decade 0..4 collapse: values below SUBS are exact.
            return value as usize;
        }
        let decade = 63 - value.leading_zeros() as usize;
        let sub = ((value >> (decade - 4)) & (SUBS as u64 - 1)) as usize;
        decade * SUBS + sub
    }

    /// Representative (lower-bound) value of bucket `idx`.
    fn bucket_floor(idx: usize) -> u64 {
        if idx < SUBS {
            return idx as u64;
        }
        let decade = idx / SUBS;
        let sub = idx % SUBS;
        (1u64 << decade) + ((sub as u64) << (decade - 4))
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self`; used to combine per-shard and
    /// per-agent histograms.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, 0 when empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples, 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` in `[0, 1]` — the lower bound of the
    /// bucket holding the q-th sample (≤ ~6% relative error).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_floor(idx).max(self.min).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// JSON object fragment with the summary statistics every consumer
    /// wants: `{"count":..,"min":..,"mean":..,"max":..,"p50":..,"p90":..,"p99":..}`.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"min\":{},\"mean\":{:.1},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
            self.count,
            self.min(),
            self.mean(),
            self.max,
            self.p50(),
            self.p90(),
            self.p99()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn small_values_exact() {
        let mut h = Histogram::new();
        for v in 0..SUBS as u64 {
            h.record(v);
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 15);
        assert_eq!(h.p50(), 7);
    }

    #[test]
    fn quantiles_within_log_linear_error() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let p50 = h.p50() as f64;
        let p99 = h.p99() as f64;
        assert!((p50 - 5_000.0).abs() / 5_000.0 < 0.08, "p50={p50}");
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.08, "p99={p99}");
        assert_eq!(h.max(), 10_000);
        assert_eq!(h.min(), 1);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        let mut x = 1u64;
        for i in 0..5_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let v = x % 1_000_000;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.sum(), whole.sum());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        assert_eq!(a.p50(), whole.p50());
        assert_eq!(a.p99(), whole.p99());
    }

    #[test]
    fn huge_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.count(), 2);
        assert!(h.p99() > 0);
    }

    #[test]
    fn json_fragment_shape() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(200);
        let j = h.to_json();
        for key in ["count", "min", "mean", "max", "p50", "p90", "p99"] {
            assert!(j.contains(&format!("\"{key}\":")), "{key} in {j}");
        }
    }
}
