//! Seeded property tests of the simulated world's building blocks.  Every
//! case is generated from its seed alone, and a failure names the seed.

use std::collections::{HashMap, HashSet};

use edonkey_proto::{FileId, Ipv4, PeerAddr};
use edonkey_sim::catalog::{Catalog, CatalogConfig};
use edonkey_sim::identity::IdentityFactory;
use edonkey_sim::server::SimServer;
use edonkey_sim::ScenarioConfig;
use honeypot::{AdvertisedFile, ServerInfo};
use netsim::{Rng, SimTime};

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
fn server_index_is_consistent_under_arbitrary_operations() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        // Model: sessions 0..8 randomly log in, offer files out of 256, or
        // disconnect; the index must always agree with a naive model.  An
        // offer is one new file, a keep-alive (the session's whole offer set
        // in order, plus new files), or a reshuffled re-offer.
        let mut server = SimServer::new(ServerInfo::new("s", Ipv4::new(1, 1, 1, 1), 4661));
        let mut model: HashMap<FileId, HashSet<u64>> = HashMap::new();
        let mut offered: HashMap<u64, Vec<FileId>> = HashMap::new();
        let mut logged_in: HashSet<u64> = HashSet::new();
        let random_file = |rng: &mut Rng| FileId::from_seed(&[rng.next_u32() as u8]);
        for _ in 0..rng.range(1, 120) {
            let session = rng.below(8);
            if !logged_in.contains(&session) {
                let addr = PeerAddr::new(Ipv4::new(10, 0, 0, session as u8 + 1), 4662);
                server.login(SimTime::ZERO, session, addr, true);
                logged_in.insert(session);
            }
            let op = rng.below(4);
            if op == 3 {
                server.disconnect(SimTime::ZERO, session);
                logged_in.remove(&session);
                offered.remove(&session);
                for providers in model.values_mut() {
                    providers.remove(&session);
                }
                model.retain(|_, v| !v.is_empty());
                continue;
            }
            let prior = offered.entry(session).or_default();
            let mut files = if op == 0 { Vec::new() } else { prior.clone() };
            if op == 2 {
                rng.shuffle(&mut files);
                files.truncate(rng.below(files.len() as u64 + 1) as usize);
            }
            let new_files = if op == 1 { rng.below(3) } else { 1 };
            files.extend((0..new_files).map(|_| random_file(&mut rng)));
            let keepalive_shaped = files.starts_with(prior);
            let prefix = prior.iter().zip(&files).take_while(|(a, b)| a == b).count();
            let advertised: Vec<AdvertisedFile> =
                files.iter().map(|&id| AdvertisedFile::new(id, "f", 1)).collect();
            let skipped = server.offer_files(SimTime::ZERO, session, &advertised);
            if keepalive_shaped {
                assert_eq!(skipped, prior.len(), "seed {seed}: a keep-alive skips its offer set");
            }
            assert_eq!(skipped, prefix, "seed {seed}: skips exactly the repeated head");
            for id in files {
                if model.entry(id).or_default().insert(session) {
                    prior.push(id);
                }
            }
        }
        assert_eq!(server.clients(), logged_in.len(), "seed {seed}");
        assert_eq!(server.indexed_files(), model.len(), "seed {seed}");
        for (fid, providers) in &model {
            let got: HashSet<u64> = server.provider_sessions(fid).iter().copied().collect();
            assert_eq!(&got, providers, "seed {seed}");
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
