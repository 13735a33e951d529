//! Seeded property tests of the simulated world's building blocks.  Every
//! case is generated from its seed alone, and a failure names the seed.

use std::collections::HashSet;

use edonkey_sim::catalog::{Catalog, CatalogConfig};
use edonkey_sim::identity::IdentityFactory;
use edonkey_sim::ScenarioConfig;
use netsim::Rng;

/// Cases per property.
const CASES: u64 = 256;

#[test]
fn catalog_invariants() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let n = rng.range(1, 2_000) as usize;
        let config = CatalogConfig {
            n_files: n,
            zipf_exponent: 1.5 * rng.f64(),
            popularity_sigma: 1.5 * rng.f64(),
            ..Default::default()
        };
        let c = Catalog::generate(&config, &mut rng);
        assert_eq!(c.len(), n, "seed {seed}");
        let mut ids = HashSet::new();
        for i in 0..n as u32 {
            let f = c.file(i);
            assert!(f.popularity > 0.0 && f.popularity.is_finite(), "seed {seed}: file {i}");
            assert!(f.size > 0 && f.size < u64::from(u32::MAX), "seed {seed}: u32 offsets");
            assert!(ids.insert(f.id), "seed {seed}: duplicate file id");
        }
        // Popularity-weighted sampling stays in range.
        for _ in 0..20 {
            assert!((c.sample_by_popularity(&mut rng) as usize) < n, "seed {seed}");
        }
    }
}

#[test]
fn identity_factory_unique_ips() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let count = rng.range(1, 2_000);
        let mut f = IdentityFactory::new(rng);
        let mut ips = HashSet::new();
        for _ in 0..count {
            let p = f.create();
            assert!(ips.insert(p.ip), "seed {seed}: IP handed out twice");
            if p.client_id.is_high() {
                assert_eq!(p.client_id.ip(), Some(p.ip), "seed {seed}");
            }
        }
    }
}

#[test]
fn tiny_scenarios_always_produce_valid_logs() {
    for seed in 0..CASES {
        let out = edonkey_sim::run_scenario(ScenarioConfig::tiny(seed).scaled(0.1));
        assert!(out.log.validate().is_empty(), "seed {seed}: {:?}", out.log.validate());
        // Aggregate counters must dominate logged records.
        let hello = out.log.records_of(honeypot::QueryKind::Hello).count() as u64;
        assert!(out.stats.hello_sent >= hello, "seed {seed}");
    }
}
