//! Sampling distributions used by the synthetic eDonkey world.
//!
//! * [`exponential`] / [`poisson`] — inter-arrival times and event counts of
//!   the peer arrival process;
//! * [`normal`] / [`log_normal`] — file sizes (heavy-tailed mixture around
//!   the ~330 MB mean implied by Table I's 9 TB / 28 k files);
//! * [`Zipf`] — file popularity (the paper's Figs. 11–12 show a strongly
//!   skewed per-file peer count: best file 13,373 peers, worst 2);
//! * [`DiurnalCurve`] — the day/night activity modulation behind Fig. 4.

use crate::rng::Rng;

/// Exponential variate with the given rate (events per unit time).
///
/// # Panics
/// If `rate` is not strictly positive and finite.
pub fn exponential(rng: &mut Rng, rate: f64) -> f64 {
    assert!(rate > 0.0 && rate.is_finite(), "exponential rate must be positive");
    -rng.f64_open().ln() / rate
}

/// Poisson variate with mean `lambda`.
///
/// Uses Knuth's product method for small means and a (rounded, clamped)
/// normal approximation for large ones — exactly accurate enough for
/// populating per-interval arrival counts.
pub fn poisson(rng: &mut Rng, lambda: f64) -> u64 {
    assert!(lambda >= 0.0 && lambda.is_finite(), "poisson mean must be non-negative");
    if lambda == 0.0 {
        return 0;
    }
    if lambda < 30.0 {
        let limit = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.f64_open();
            if p <= limit {
                return k;
            }
            k += 1;
        }
    }
    let x = normal(rng, lambda, lambda.sqrt());
    x.round().max(0.0) as u64
}

/// Normal variate via Box–Muller.
pub fn normal(rng: &mut Rng, mean: f64, std_dev: f64) -> f64 {
    let u1 = rng.f64_open();
    let u2 = rng.f64();
    let mag = (-2.0 * u1.ln()).sqrt();
    mean + std_dev * mag * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Log-normal variate parameterised by the mean/σ of the underlying normal.
pub fn log_normal(rng: &mut Rng, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// A Zipf-like discrete distribution over ranks `0..n` with exponent `s`:
/// `P(rank k) ∝ 1 / (k + 1)^s`.
///
/// Sampling is by binary search over the precomputed cumulative weights —
/// exact, O(log n) per draw, and cheap to build even for catalogs of
/// hundreds of thousands of files.
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Builds the distribution.
    ///
    /// # Panics
    /// If `n == 0` or `s` is negative/non-finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over empty support");
        assert!(s >= 0.0 && s.is_finite(), "Zipf exponent must be non-negative");
        let mut cumulative = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cumulative.push(acc);
        }
        Zipf { cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    pub fn is_empty(&self) -> bool {
        false // guaranteed non-empty by construction
    }

    /// Relative weight of rank `k` (normalised so all weights sum to 1).
    pub fn probability(&self, k: usize) -> f64 {
        let total = *self.cumulative.last().expect("non-empty");
        let prev = if k == 0 { 0.0 } else { self.cumulative[k - 1] };
        (self.cumulative[k] - prev) / total
    }

    /// Draws a rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self.cumulative.last().expect("non-empty");
        let x = rng.f64() * total;
        // partition_point returns the first rank whose cumulative weight
        // exceeds x.
        self.cumulative.partition_point(|&c| c <= x).min(self.cumulative.len() - 1)
    }
}

/// Day/night activity modulation.
///
/// The paper observes that HELLO arrivals follow the European / North
/// African daily rhythm: maxima in local daytime, minima at night (Fig. 4).
/// We model the rate multiplier as a raised cosine with configurable
/// amplitude, peaking at `peak_hour` local time, averaging 1.0 over a day so
/// it scales rates without changing daily totals.
#[derive(Clone, Copy, Debug)]
pub struct DiurnalCurve {
    /// Hour of local day at which activity peaks (e.g. 15 ≈ mid-afternoon).
    pub peak_hour: f64,
    /// Peak-to-mean excess in `[0, 1)`: multiplier spans `1 ± amplitude`.
    pub amplitude: f64,
}

impl DiurnalCurve {
    /// The calibration used by the experiments: peak at 15:00, amplitude
    /// 0.75 (day ≈ 7× the nightly trough, matching Fig. 4's swing).
    pub fn european() -> Self {
        DiurnalCurve { peak_hour: 15.0, amplitude: 0.75 }
    }

    /// A flat curve (multiplier constantly 1) — ablation control.
    pub fn flat() -> Self {
        DiurnalCurve { peak_hour: 0.0, amplitude: 0.0 }
    }

    /// Rate multiplier at an hour-of-day (fractional hours accepted).
    pub fn multiplier_at_hour(&self, hour_of_day: f64) -> f64 {
        let phase = (hour_of_day - self.peak_hour) / 24.0 * std::f64::consts::TAU;
        1.0 + self.amplitude * phase.cos()
    }

    /// Rate multiplier at a simulation instant, given the local clock offset
    /// (simulation hour 0 == local `offset_hours` o'clock).
    pub fn multiplier(&self, t: crate::time::SimTime, offset_hours: f64) -> f64 {
        let hour = (t.as_hours() + offset_hours) % 24.0;
        self.multiplier_at_hour(hour)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Rng {
        Rng::seed_from(0xFEED)
    }

    #[test]
    fn exponential_mean_close_to_inverse_rate() {
        let mut r = rng();
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| exponential(&mut r, 2.0)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn poisson_small_mean() {
        let mut r = rng();
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| poisson(&mut r, 3.5) as f64).sum::<f64>() / n as f64;
        assert!((mean - 3.5).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_branch() {
        let mut r = rng();
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| poisson(&mut r, 500.0) as f64).sum::<f64>() / n as f64;
        assert!((mean - 500.0).abs() < 2.0, "mean {mean}");
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        assert_eq!(poisson(&mut rng(), 0.0), 0);
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let n = 100_000;
        let xs: Vec<f64> = (0..n).map(|_| normal(&mut r, 10.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 9.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn log_normal_is_positive() {
        let mut r = rng();
        for _ in 0..1_000 {
            assert!(log_normal(&mut r, 2.0, 1.5) > 0.0);
        }
    }

    #[test]
    fn zipf_rank_zero_most_likely() {
        let z = Zipf::new(1_000, 1.0);
        assert!(z.probability(0) > z.probability(1));
        assert!(z.probability(1) > z.probability(100));
        let total: f64 = (0..z.len()).map(|k| z.probability(k)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zipf_sampling_matches_probabilities() {
        let z = Zipf::new(50, 1.2);
        let mut r = rng();
        let n = 200_000;
        let mut counts = [0u32; 50];
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        for k in [0usize, 1, 5, 20] {
            let got = counts[k] as f64 / n as f64;
            let want = z.probability(k);
            assert!((got - want).abs() < 0.01 + want * 0.1, "rank {k}: got {got}, want {want}");
        }
        assert!(counts[0] > counts[10], "head must dominate tail");
    }

    #[test]
    fn zipf_uniform_when_exponent_zero() {
        let z = Zipf::new(10, 0.0);
        for k in 0..10 {
            assert!((z.probability(k) - 0.1).abs() < 1e-12);
        }
    }

    #[test]
    fn diurnal_average_is_one() {
        let c = DiurnalCurve::european();
        let avg: f64 =
            (0..2400).map(|i| c.multiplier_at_hour(i as f64 / 100.0)).sum::<f64>() / 2400.0;
        assert!((avg - 1.0).abs() < 1e-6, "avg {avg}");
    }

    #[test]
    fn diurnal_peak_and_trough() {
        let c = DiurnalCurve::european();
        assert!(c.multiplier_at_hour(15.0) > 1.7);
        assert!(c.multiplier_at_hour(3.0) < 0.3);
        let f = DiurnalCurve::flat();
        assert_eq!(f.multiplier_at_hour(4.0), 1.0);
    }

    #[test]
    fn diurnal_respects_offset() {
        let c = DiurnalCurve::european();
        let t = crate::time::SimTime::from_hours(0);
        assert!(
            (c.multiplier(t, 15.0) - c.multiplier_at_hour(15.0)).abs() < 1e-12,
            "offset shifts the local clock"
        );
    }
}
