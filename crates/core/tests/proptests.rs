//! Seeded property tests of the measurement platform: anonymisation
//! coherence, log interning, manager merging, the index server.  Every case is generated
//! from its seed alone, and a failure names the seed.

use std::collections::{HashMap, HashSet};

use edonkey_proto::{ClientServerMessage, FileId, Ipv4, PeerAddr, SearchExpr, UserId};
use honeypot::anonymize::{AnonMap, IpHasher, NameAnonymizer};
use honeypot::log::{HoneypotLog, QueryKind, QueryRecord, FILE_NONE};
use honeypot::types::IdStatus;
use honeypot::{AdvertisedFile, HoneypotId, HoneypotSpec, IndexServer, Manager, ServerInfo};
use netsim::{Rng, SimTime};

/// Cases per property.
const CASES: u64 = 256;

fn server() -> ServerInfo {
    ServerInfo::new("s", Ipv4::new(9, 9, 9, 9), 4661)
}

/// Between `min` and `max - 1` generated items.
fn vec_of<T>(rng: &mut Rng, min: u64, max: u64, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
    (0..rng.range(min, max)).map(|_| item(rng)).collect()
}

/// Between `min` and `max` characters drawn from `alphabet`.
fn arb_word(rng: &mut Rng, alphabet: &[u8], min: u64, max: u64) -> String {
    (0..rng.range(min, max + 1)).map(|_| *rng.choose(alphabet) as char).collect()
}

const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";

/// Source IPs with repeats: drawn from a pool a few times smaller than the
/// sample, so the same peer shows up again (and at both honeypots).
fn arb_ips(rng: &mut Rng, min: u64, max: u64) -> Vec<u32> {
    let pool = vec_of(rng, 1, max / 2, |r| r.next_u32());
    vec_of(rng, min, max, |r| *r.choose(&pool))
}

#[test]
fn ip_hashing_is_injective_on_samples() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let ips: HashSet<u32> = vec_of(&mut rng, 2, 200, |r| r.next_u32()).into_iter().collect();
        let hasher = IpHasher::from_seed(1);
        let hashes: HashSet<_> = ips.iter().map(|&ip| hasher.hash(Ipv4(ip))).collect();
        assert_eq!(hashes.len(), ips.len(), "seed {seed}: distinct IPs must hash distinctly");
    }
}

#[test]
fn anon_map_is_a_bijection_onto_a_prefix() {
    for seed in 0..CASES {
        let ips = arb_ips(&mut Rng::seed_from(seed), 0, 300);
        let hasher = IpHasher::from_seed(2);
        let mut map = AnonMap::new();
        let mut by_ip = HashMap::new();
        for &ip in &ips {
            let id = map.intern(hasher.hash(Ipv4(ip)));
            // Same IP always yields the same ID.
            if let Some(prev) = by_ip.insert(ip, id) {
                assert_eq!(prev, id, "seed {seed}");
            }
        }
        let distinct: HashSet<_> = by_ip.values().collect();
        assert_eq!(distinct.len(), by_ip.len(), "seed {seed}: distinct IPs get distinct IDs");
        assert_eq!(map.len(), by_ip.len(), "seed {seed}");
        // IDs form the dense prefix 0..n.
        let mut ids: Vec<u32> = by_ip.values().map(|a| a.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids, (0..map.len() as u32).collect::<Vec<_>>(), "seed {seed}");
    }
}

#[test]
fn name_anonymiser_never_leaks_rare_words() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let rare = arb_word(&mut rng, LOWER, 4, 12);
        let common = arb_word(&mut rng, LOWER, 4, 12);
        if rare == common {
            continue;
        }
        let mut counter = NameAnonymizer::new();
        for _ in 0..rng.range(5, 20) {
            counter.count(&common);
        }
        counter.count(&format!("{rare} {common}"));
        let frozen = counter.freeze(3);
        let out = frozen.anonymize(&format!("{rare}.{common}.{rare}"));
        assert!(!out.contains(&rare), "seed {seed}: rare word leaked: {out}");
        assert!(out.contains(&common), "seed {seed}: common word lost: {out}");
    }
}

#[test]
fn anonymised_output_is_deterministic() {
    for seed in 0..CASES {
        let names =
            vec_of(&mut Rng::seed_from(seed), 1, 30, |r| arb_word(r, b"abcdefghij ", 1, 20));
        let build = || {
            let mut counter = NameAnonymizer::new();
            for n in &names {
                counter.count(n);
            }
            counter.freeze(2)
        };
        let a = build();
        let b = build();
        for n in &names {
            assert_eq!(a.anonymize(n), b.anonymize(n), "seed {seed}");
        }
    }
}

#[test]
fn manager_merge_preserves_record_counts_and_coherence() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let peers_a = arb_ips(&mut rng, 1, 60);
        // The second honeypot also sees some of the first one's peers.
        let peers_b =
            vec_of(
                &mut rng,
                1,
                60,
                |r| {
                    if r.chance(0.3) {
                        *r.choose(&peers_a)
                    } else {
                        r.next_u32()
                    }
                },
            );
        let hasher = IpHasher::from_seed(3);
        let make_chunk = |hp: u32, ips: &[u32]| {
            let mut log = HoneypotLog::new(HoneypotId(hp), server());
            let name = log.intern_name("client");
            let file = log.files.intern(FileId::from_seed(b"f"), "f", 1);
            for (i, &ip) in ips.iter().enumerate() {
                log.push(QueryRecord {
                    at: SimTime::from_secs(i as u64),
                    kind: if i % 2 == 0 { QueryKind::Hello } else { QueryKind::StartUpload },
                    peer: hasher.hash(Ipv4(ip)),
                    port: 4662,
                    id_status: IdStatus::High,
                    user_id: UserId::from_seed(&ip.to_le_bytes()),
                    name,
                    version: 1,
                    file: if i % 2 == 0 { FILE_NONE } else { file },
                });
            }
            log.take_chunk()
        };
        let spec = |id, content| HoneypotSpec { id: HoneypotId(id), content, server: server() };
        let mut mgr = Manager::new(vec![
            spec(0, honeypot::ContentStrategy::NoContent),
            spec(1, honeypot::ContentStrategy::RandomContent),
        ]);
        mgr.collect(make_chunk(0, &peers_a));
        mgr.collect(make_chunk(1, &peers_b));
        let merged = mgr.finalize(SimTime::from_days(1), 1, 2);

        assert_eq!(merged.records.len(), peers_a.len() + peers_b.len(), "seed {seed}");
        assert!(merged.validate().is_empty(), "seed {seed}: {:?}", merged.validate());

        // Coherence: an IP appearing in both honeypots' logs maps to one ID.
        let expect_distinct: HashSet<u32> = peers_a.iter().chain(&peers_b).copied().collect();
        assert_eq!(merged.distinct_peers as usize, expect_distinct.len(), "seed {seed}");

        // Per-record check: same source IP ⇒ same anon id across honeypots.
        let mut id_of_ip = HashMap::new();
        for (r, &ip) in merged.records.iter().zip(peers_a.iter().chain(&peers_b)) {
            if let Some(prev) = id_of_ip.insert(ip, r.peer) {
                assert_eq!(prev, r.peer, "seed {seed}: IP {ip} mapped to two ids");
            }
        }
    }
}

#[test]
fn file_table_interning_is_idempotent() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        // Ids from a small pool, so files are re-interned.
        let entries = vec_of(&mut rng, 0, 100, |r| {
            (FileId::from_seed(&[r.below(40) as u8]), arb_word(r, LOWER, 1, 8), r.next_u32())
        });
        let mut table = honeypot::log::FileTable::new();
        let mut expect: HashMap<FileId, u32> = HashMap::new();
        for (id, name, size) in &entries {
            let idx = table.intern(*id, name, u64::from(*size));
            let first = *expect.entry(*id).or_insert(idx);
            assert_eq!(first, idx, "seed {seed}: re-interning must return the same index");
        }
        assert_eq!(table.len(), expect.len(), "seed {seed}");
    }
}

#[test]
fn server_index_is_consistent_under_arbitrary_operations() {
    const T0: SimTime = SimTime::ZERO;
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        // Model: sessions 0..8 randomly log in, offer files out of 256, log
        // in again over their live session, or disconnect; the index must
        // always agree with a naive model.  An offer is one new file, a
        // keep-alive (the session's whole offer set in order, plus new
        // files), or a reshuffled re-offer.  Each offer names its files
        // after its step, so the model can tell which offer indexed a file.
        let mut server = IndexServer::new();
        let mut model: HashMap<FileId, (String, HashSet<u64>)> = HashMap::new();
        let mut offered: HashMap<u64, Vec<FileId>> = HashMap::new();
        let mut logged_in: HashSet<u64> = HashSet::new();
        let random_file = |rng: &mut Rng| FileId::from_seed(&[rng.next_u32() as u8]);
        let withdraw = |model: &mut HashMap<FileId, (String, HashSet<u64>)>, session: u64| {
            for (_, providers) in model.values_mut() {
                providers.remove(&session);
            }
            model.retain(|_, (_, providers)| !providers.is_empty());
        };
        for step in 0..rng.range(1, 120) {
            let session = rng.below(8);
            let addr = PeerAddr::new(Ipv4::new(10, 0, 0, session as u8 + 1), 4662);
            if !logged_in.contains(&session) {
                server.login(T0, session, addr, true);
                logged_in.insert(session);
            }
            let op = rng.below(5);
            if op == 3 {
                server.disconnect(T0, session);
                logged_in.remove(&session);
                offered.remove(&session);
                withdraw(&mut model, session);
                continue;
            }
            if op == 4 {
                // A login over the live session supersedes it: its offers
                // are withdrawn and it stays connected.
                server.login(T0, session, addr, true);
                offered.remove(&session);
                withdraw(&mut model, session);
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
            let name = format!("f v{step}");
            let advertised: Vec<AdvertisedFile> =
                files.iter().map(|&id| AdvertisedFile::new(id, name.as_str(), 1)).collect();
            let skipped = server.offer_files(T0, session, &advertised);
            if keepalive_shaped {
                assert_eq!(skipped, prior.len(), "seed {seed}: a keep-alive skips its offer set");
            }
            assert_eq!(skipped, prefix, "seed {seed}: skips exactly the repeated head");
            for id in files {
                let (_, providers) =
                    model.entry(id).or_insert_with(|| (name.clone(), HashSet::new()));
                if providers.insert(session) {
                    prior.push(id);
                }
            }
        }
        assert_eq!(server.clients(), logged_in.len(), "seed {seed}");
        assert_eq!(server.indexed_files(), model.len(), "seed {seed}");
        for (fid, (_, providers)) in &model {
            let got: HashSet<u64> = server.provider_sessions(fid).iter().copied().collect();
            assert_eq!(&got, providers, "seed {seed}");
        }
        let ClientServerMessage::ServerStatus { users, files } = server.status(T0) else {
            panic!("seed {seed}: expected SERVER-STATUS")
        };
        assert_eq!((users as usize, files as usize), (logged_in.len(), model.len()), "seed {seed}");
        // A file leaves SEARCH with its last provider, and one indexed
        // again answers under the name of the offer that re-indexed it.
        let ClientServerMessage::SearchResult { files } =
            server.search(T0, 0, &SearchExpr::keyword("f"), usize::MAX)
        else {
            panic!("seed {seed}: expected SEARCH-RESULT")
        };
        let found: HashMap<FileId, String> =
            files.iter().map(|f| (f.file_id, f.name().unwrap_or("").to_string())).collect();
        let expected: HashMap<FileId, String> =
            model.iter().map(|(id, (name, _))| (*id, name.clone())).collect();
        assert_eq!(found, expected, "seed {seed}");
    }
}
