//! Network latency and bandwidth models for the simulated transport.
//!
//! The honeypot measurement is sensitive to *pacing*: a peer talking to a
//! no-content honeypot is clocked by its own request timeout, while one
//! downloading random content is clocked by transfer latency (paper §IV-B,
//! Figs. 8–9).  The latency model therefore distinguishes a per-link base
//! RTT, jitter, and a throughput term for data-bearing messages.

use crate::rng::Rng;

/// Latency/bandwidth parameters for a class of links.
#[derive(Clone, Copy, Debug)]
pub struct LatencyModel {
    /// Minimum one-way delay in ms.
    pub base_ms: u64,
    /// Additional uniformly-distributed jitter bound in ms.
    pub jitter_ms: u64,
    /// Throughput in bytes per second used for payload serialisation time
    /// (0 disables the term, e.g. for control messages).
    pub bytes_per_sec: u64,
}

impl LatencyModel {
    /// Typical 2008-era consumer ADSL reaching a European server: ~60 ms
    /// one-way, modest jitter, ~150 KB/s down.
    pub fn adsl() -> Self {
        LatencyModel { base_ms: 60, jitter_ms: 40, bytes_per_sec: 150_000 }
    }

    /// A fast, well-connected host (PlanetLab node or index server).
    pub fn backbone() -> Self {
        LatencyModel { base_ms: 15, jitter_ms: 10, bytes_per_sec: 2_000_000 }
    }

    /// Fixed-delay model for tests.
    pub fn fixed(ms: u64) -> Self {
        LatencyModel { base_ms: ms, jitter_ms: 0, bytes_per_sec: 0 }
    }

    /// Samples the one-way delay for a message of `payload_bytes`.
    pub fn sample_ms(&self, rng: &mut Rng, payload_bytes: usize) -> u64 {
        let jitter = if self.jitter_ms == 0 { 0 } else { rng.below(self.jitter_ms + 1) };
        let transfer = (payload_bytes as u64 * 1_000).checked_div(self.bytes_per_sec).unwrap_or(0);
        self.base_ms + jitter + transfer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_model_is_deterministic() {
        let m = LatencyModel::fixed(25);
        let mut rng = Rng::seed_from(1);
        assert_eq!(m.sample_ms(&mut rng, 0), 25);
        assert_eq!(m.sample_ms(&mut rng, 10_000), 25, "no throughput term");
    }

    #[test]
    fn jitter_bounded() {
        let m = LatencyModel { base_ms: 10, jitter_ms: 5, bytes_per_sec: 0 };
        let mut rng = Rng::seed_from(2);
        for _ in 0..1_000 {
            let d = m.sample_ms(&mut rng, 0);
            assert!((10..=15).contains(&d));
        }
    }

    #[test]
    fn payload_adds_transfer_time() {
        let m = LatencyModel { base_ms: 0, jitter_ms: 0, bytes_per_sec: 100_000 };
        let mut rng = Rng::seed_from(3);
        // 180 KB at 100 KB/s ≈ 1.8 s.
        assert_eq!(m.sample_ms(&mut rng, 184_320), 1_843);
    }

    #[test]
    fn presets_are_ordered_sensibly() {
        let mut rng = Rng::seed_from(4);
        let adsl: u64 = (0..100).map(|_| LatencyModel::adsl().sample_ms(&mut rng, 184_320)).sum();
        let bb: u64 = (0..100).map(|_| LatencyModel::backbone().sample_ms(&mut rng, 184_320)).sum();
        assert!(adsl > bb, "ADSL must be slower than backbone for data blocks");
    }
}
