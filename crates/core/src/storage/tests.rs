use netsim::Rng;

use super::*;

fn sample_log() -> MeasurementLog {
    let mut files = FileTable::new();
    let f0 = files.intern(FileId::from_seed(b"a"), "file a.avi", 700 << 20);
    let mut clients = ClientTable::default();
    let (p0, p1) = (AnonPeerId(0), AnonPeerId(1));
    let c0 = clients.push(
        p0,
        AnonClient {
            port: 4662,
            id_status: IdStatus::High,
            user_id: UserId::from_seed(b"u"),
            name: 0,
            version: 0x49,
        },
    );
    let c1 = clients.push(
        p1,
        AnonClient {
            port: 4663,
            id_status: IdStatus::Low,
            user_id: UserId::from_seed(b"v"),
            name: 0,
            version: 0x3c,
        },
    );
    MeasurementLog {
        honeypots: vec![HoneypotMeta {
            id: HoneypotId(0),
            content: ContentStrategy::RandomContent,
            server: ServerInfo::new("srv", Ipv4::new(1, 2, 3, 4), 4661),
        }],
        records: vec![
            AnonRecord::new(SimTime::from_secs(5), p0, FILE_NONE, 0, QueryKind::Hello, c0),
            AnonRecord::new(SimTime::from_secs(9), p1, f0, 0, QueryKind::StartUpload, c1),
        ],
        clients: clients.into_entries(),
        shared_lists: vec![AnonSharedList {
            at: SimTime::from_secs(7),
            honeypot: HoneypotId(0),
            peer: p0,
            files: vec![f0],
        }],
        peer_names: vec!["eMule".into()],
        files,
        distinct_peers: 2,
        duration: SimTime::from_days(1),
        shared_files_final: 1,
    }
}

fn tmp(name: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("edhp-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn round_trip_preserves_everything() {
    let log = sample_log();
    let path = tmp("roundtrip.edhp");
    save(&log, &path).unwrap();
    let back = load(&path).unwrap();
    std::fs::remove_file(&path).ok();

    assert_eq!(back.records.len(), log.records.len());
    for (a, b) in back.records.iter().zip(&log.records) {
        assert_eq!(a, b);
    }
    assert_eq!(back.clients, log.clients);
    assert_eq!(back.shared_lists, log.shared_lists);
    assert_eq!(back.peer_names, log.peer_names);
    assert_eq!(back.distinct_peers, log.distinct_peers);
    assert_eq!(back.duration, log.duration);
    assert_eq!(back.shared_files_final, log.shared_files_final);
    assert_eq!(back.files.len(), log.files.len());
    assert_eq!(back.files.name(0), log.files.name(0));
    assert_eq!(back.files.total_size(), log.files.total_size());
    assert_eq!(back.honeypots.len(), 1);
    assert_eq!(back.honeypots[0].content, ContentStrategy::RandomContent);
    assert_eq!(back.honeypots[0].server.name, "srv");
    // The loaded file table's index works.
    assert_eq!(back.files.lookup(&FileId::from_seed(b"a")), Some(0));
}

#[test]
fn bad_magic_rejected() {
    let path = tmp("magic.edhp");
    std::fs::write(&path, b"NOPE....").unwrap();
    assert!(matches!(load(&path), Err(StorageError::BadMagic)));
    std::fs::remove_file(&path).ok();
}

#[test]
fn wrong_version_rejected() {
    let path = tmp("version.edhp");
    let mut data = Vec::new();
    data.extend_from_slice(&MAGIC);
    data.extend_from_slice(&99u32.to_le_bytes());
    std::fs::write(&path, data).unwrap();
    assert!(matches!(load(&path), Err(StorageError::UnsupportedVersion(99))));
    std::fs::remove_file(&path).ok();
}

#[test]
fn truncation_detected() {
    let log = sample_log();
    let path = tmp("trunc.edhp");
    save(&log, &path).unwrap();
    let data = std::fs::read(&path).unwrap();
    for cut in [8, 20, data.len() / 2, data.len() - 1] {
        std::fs::write(&path, &data[..cut]).unwrap();
        assert!(load(&path).is_err(), "cut at {cut} must fail");
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn corrupted_indices_detected() {
    let log = sample_log();
    let path = tmp("corrupt.edhp");
    save(&log, &path).unwrap();
    let mut data = std::fs::read(&path).unwrap();
    // Flip the distinct_peers trailer (last 16 bytes: u32 + u64 + u32 →
    // distinct_peers is at len-16..len-12).
    let n = data.len();
    data[n - 16..n - 12].copy_from_slice(&0u32.to_le_bytes());
    std::fs::write(&path, &data).unwrap();
    assert!(
        matches!(load(&path), Err(StorageError::Corrupt(_))),
        "peer ids now exceed distinct_peers"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn distinct_peers_must_match_the_peer_ids() {
    let log = sample_log();
    let good = reference::save(&log);
    let at = good.len() - TRAILER_BYTES;
    let path = tmp("distinct-peers.edhp");
    for (bit, message) in [
        (31, "distinct-peer count exceeds the file's length"),
        (0, "distinct-peer count is not the highest peer id + 1"),
    ] {
        let mut bytes = good.clone();
        bytes[at..at + 4].copy_from_slice(&(log.distinct_peers ^ 1 << bit).to_le_bytes());
        assert_corrupt(&path, &bytes, message);
        assert!(reference::load(&bytes).is_err(), "bit {bit}: validate() rejects it too");
    }
    assert_same_log(&load_bytes(&path, &good).unwrap(), &log);
    std::fs::remove_file(&path).ok();
}

/// `sample_log()` as format v1 writes it, section by section.  Pins the
/// format in tier-1: if this test fails, every `.edhp` file and run-cache
/// entry in existence stops loading — bump [`VERSION`] instead.
#[rustfmt::skip]
const SAMPLE_V1: &[u8] = &[
    // magic, version 1
    b'E', b'D', b'H', b'P', 1, 0, 0, 0,
    // 1 honeypot: id 0, RandomContent, "srv", 1.2.3.4, port 4661
    1, 0, 0, 0,
    0, 0, 0, 0, 1, 3, 0, 0, 0, b's', b'r', b'v', 4, 3, 2, 1, 0x35, 0x12,
    // 1 peer name: "eMule"
    1, 0, 0, 0,
    5, 0, 0, 0, b'e', b'M', b'u', b'l', b'e',
    // 1 file: id MD4("a"), "file a.avi", 700 MiB
    1, 0, 0, 0,
    0xbd, 0xe5, 0x2c, 0xb3, 0x1d, 0xe3, 0x3e, 0x46, 0x24, 0x5e, 0x05, 0xfb, 0xdb, 0xd6, 0xfb, 0x24,
    10, 0, 0, 0, b'f', b'i', b'l', b'e', b' ', b'a', b'.', b'a', b'v', b'i',
    0, 0, 0xc0, 0x2b, 0, 0, 0, 0,
    // 2 records of 48 bytes
    2, 0, 0, 0, 0, 0, 0, 0,
    // at 5 s, honeypot 0, HELLO, peer 0, port 4662, high id, user hash
    // of seed "u", name 0, version 0x49, no file
    0x88, 0x13, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x36, 0x12, 1,
    0xde, 0x2d, 0x6f, 0x9a, 0xdd, 0x45, 0x36, 0xcd, 0x4a, 0xe3, 0xef, 0x01, 0x28, 0x3d, 0xb2, 0xcc,
    0, 0, 0, 0, 0x49, 0, 0, 0, 0xff, 0xff, 0xff, 0xff,
    // at 9 s, honeypot 0, START-UPLOAD, peer 1, port 4663, low id, user
    // hash of seed "v", name 0, version 0x3c, file 0
    0x28, 0x23, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0x37, 0x12, 0,
    0x95, 0x69, 0x1c, 0x45, 0x01, 0x29, 0x4e, 0xee, 0x00, 0xe1, 0xdf, 0x38, 0x69, 0xf3, 0xc9, 0x0f,
    0, 0, 0, 0, 0x3c, 0, 0, 0, 0, 0, 0, 0,
    // 1 shared list: at 7 s, honeypot 0, peer 0, 1 file: index 0
    1, 0, 0, 0, 0, 0, 0, 0,
    0x58, 0x1b, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0,
    0, 0, 0, 0,
    // trailer: 2 distinct peers, 1 day, 1 shared file at the end
    2, 0, 0, 0, 0, 0x5c, 0x26, 0x05, 0, 0, 0, 0, 1, 0, 0, 0,
];

#[test]
fn format_v1_is_pinned_byte_for_byte() {
    assert_eq!(VERSION, 1);
    let log = sample_log();
    let path = tmp("pinned.edhp");
    save(&log, &path).unwrap();
    let written = std::fs::read(&path).unwrap();
    assert_eq!(written, SAMPLE_V1, "save no longer writes format v1");
    assert_eq!(
        reference::save(&log),
        SAMPLE_V1,
        "the fixture is not what the field-at-a-time writer wrote"
    );

    std::fs::write(&path, SAMPLE_V1).unwrap();
    let back = load(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert_same_log(&back, &log);
}

#[track_caller]
fn assert_same_log(a: &MeasurementLog, b: &MeasurementLog) {
    assert_eq!(format!("{:?}", a.honeypots), format!("{:?}", b.honeypots));
    assert_eq!(a.peer_names, b.peer_names);
    assert_eq!(a.files, b.files);
    assert_eq!(a.records, b.records);
    assert_eq!(a.clients, b.clients);
    assert_eq!(a.shared_lists, b.shared_lists);
    assert_eq!(a.distinct_peers, b.distinct_peers);
    assert_eq!(a.duration, b.duration);
    assert_eq!(a.shared_files_final, b.shared_files_final);
}

/// Writes `bytes` to `path` and loads them with the block reader.
fn load_bytes(path: &Path, bytes: &[u8]) -> Result<MeasurementLog, StorageError> {
    std::fs::write(path, bytes).unwrap();
    load(path)
}

#[track_caller]
fn assert_corrupt(path: &Path, bytes: &[u8], message: &str) {
    match load_bytes(path, bytes) {
        Err(StorageError::Corrupt(what)) => assert_eq!(what, message),
        Err(other) => panic!("expected Corrupt({message:?}), got {other}"),
        Ok(_) => panic!("expected Corrupt({message:?}), got a log"),
    }
}

/// Where each element count sits in `log`'s file, and how wide it is.
struct CountOffsets {
    honeypots: usize,
    names: usize,
    files: usize,
    records: usize,
    lists: usize,
    /// The u32 length of each shared list.
    list_lens: Vec<usize>,
}

fn count_offsets(log: &MeasurementLog) -> CountOffsets {
    let honeypots = HEADER_BYTES;
    let names = honeypots
        + 4
        + log.honeypots.iter().map(|h| HONEYPOT_MIN_BYTES + h.server.name.len()).sum::<usize>();
    let files = names + 4 + log.peer_names.iter().map(|n| 4 + n.len()).sum::<usize>();
    let records = files
        + 4
        + (0..log.files.len() as u32)
            .map(|i| FILE_MIN_BYTES + log.files.name(i).len())
            .sum::<usize>();
    let lists = records + 8 + log.records.len() * RECORD_BYTES;
    let mut at = lists + 8;
    let mut list_lens = Vec::new();
    for l in &log.shared_lists {
        list_lens.push(at + 16);
        at += LIST_HEADER_BYTES + 4 * l.files.len();
    }
    CountOffsets { honeypots, names, files, records, lists, list_lens }
}

#[test]
fn silent_acceptances_are_now_errors() {
    let log = sample_log();
    let good = reference::save(&log);
    let at = count_offsets(&log);
    assert_eq!(at.lists + 8 + LIST_HEADER_BYTES + 4 + TRAILER_BYTES, good.len());
    let path = tmp("strict.edhp");

    // An id_status byte other than 0 or 1 used to read as `Low`.
    let mut bytes = good.clone();
    let id_status = at.records + 8 + 19;
    assert_eq!(bytes[id_status], 1);
    bytes[id_status] = 3;
    assert!(reference::load(&bytes).is_ok(), "the old reader took it for Low");
    assert_corrupt(&path, &bytes, "id status byte is neither 0 nor 1");

    // Bytes after the trailer used to be ignored.
    let mut bytes = good.clone();
    bytes.push(0);
    assert!(reference::load(&bytes).is_ok(), "the old reader never looked for EOF");
    assert!(load_bytes(&path, &bytes).is_err());
    // Padding *between* sections and trailer leaves the last 16 bytes a
    // well-formed trailer, so it is the EOF check itself that fires.
    let mut bytes = good.clone();
    let trailer = bytes.len() - TRAILER_BYTES;
    bytes.splice(trailer..trailer, [0u8; 5]);
    assert_corrupt(&path, &bytes, "bytes after the trailer");

    // Counts are bounded by the file's length before anything is reserved.
    for (offset, width, message) in [
        (at.names, 4, "peer-name count exceeds the file's length"),
        (at.files, 4, "file count exceeds the file's length"),
        (at.records, 8, "record count exceeds the file's length"),
        (at.lists, 8, "shared-list count exceeds the file's length"),
    ] {
        let mut bytes = good.clone();
        bytes[offset..offset + width].fill(0xff);
        assert_corrupt(&path, &bytes, message);
    }
    let mut bytes = good.clone();
    bytes[at.honeypots..at.honeypots + 4].copy_from_slice(&9_999u32.to_le_bytes());
    assert_corrupt(&path, &bytes, "honeypot count exceeds the file's length");
    // One more record than the file holds: a count the 2²⁴ guess let through.
    let mut bytes = good.clone();
    bytes[at.records..at.records + 8].copy_from_slice(&3u64.to_le_bytes());
    assert_corrupt(&path, &bytes, "record count exceeds the file's length");

    assert_same_log(&load_bytes(&path, &good).unwrap(), &log);
    std::fs::remove_file(&path).ok();
}

#[test]
fn shared_list_honeypot_must_be_known() {
    let log = sample_log();
    let good = reference::save(&log);
    let honeypot = count_offsets(&log).lists + 8 + 8;
    assert_eq!(&good[honeypot..honeypot + 4], &0u32.to_le_bytes());
    let path = tmp("list-honeypot.edhp");
    let mut bytes = good.clone();
    bytes[honeypot..honeypot + 4].copy_from_slice(&(log.honeypots.len() as u32).to_le_bytes());
    assert_corrupt(&path, &bytes, "shared-list honeypot out of range");
    assert!(reference::load(&bytes).is_err(), "the reference validates what it loads");

    let mut bad = log.clone();
    bad.shared_lists[0].honeypot = HoneypotId(log.honeypots.len() as u32);
    assert_eq!(bad.validate(), ["shared list 0: honeypot 1 unknown"]);
    assert_same_log(&load_bytes(&path, &good).unwrap(), &log);
    std::fs::remove_file(&path).ok();
}

#[test]
fn record_time_must_fit_its_47_bits() {
    let log = sample_log();
    let good = reference::save(&log);
    let at = count_offsets(&log).records + 8;
    assert_eq!(&good[at..at + 8], &5_000u64.to_le_bytes());
    let path = tmp("record-time.edhp");
    for ms in [1 << 47, RECORD_TIME_LIMIT_MS, u64::MAX] {
        let mut bytes = good.clone();
        bytes[at..at + 8].copy_from_slice(&ms.to_le_bytes());
        assert_corrupt(&path, &bytes, "record time out of range");
        assert!(reference::load(&bytes).is_err(), "{ms} ms: the reference validates what it loads");
    }
    let mut bytes = good.clone();
    let last = RECORD_TIME_LIMIT_MS - 1;
    bytes[at..at + 8].copy_from_slice(&last.to_le_bytes());
    let back = load_bytes(&path, &bytes).unwrap();
    assert_eq!(back.records[0].at(), SimTime::from_millis(last));
    assert_same_log(&back, &reference::load(&bytes).unwrap());
    std::fs::remove_file(&path).ok();
}

const NAMES: [&str; 6] = ["", "eMule 0.49b", "aMule ü", "ослик", "驴 2.2", "x"];

/// A random *valid* log with exactly `n_records` records and one shared
/// list per entry of `list_sizes`.  Its peers' HELLO attributes churn the
/// way real clients' do: between sessions a peer changes port, ID status,
/// client name or version, and some addresses hide two users whose
/// records interleave.
fn random_log(rng: &mut Rng, n_records: usize, list_sizes: &[usize]) -> MeasurementLog {
    let longest_list = list_sizes.iter().copied().max().unwrap_or(0);
    // The reader rejects a list longer than the file table.
    let n_files = longest_list as u64 + rng.below(20);
    let mut files = FileTable::new();
    for i in 0..n_files {
        let mut id = [0u8; 16];
        rng.fill_bytes(&mut id);
        id[..8].copy_from_slice(&i.to_le_bytes()); // distinct
        files.intern(FileId(id), rng.choose::<&str>(&NAMES), rng.next_u64());
    }
    let honeypots: Vec<HoneypotMeta> = (0..1 + rng.below(4))
        .map(|i| HoneypotMeta {
            id: HoneypotId(i as u32),
            content: *rng.choose(&[ContentStrategy::NoContent, ContentStrategy::RandomContent]),
            server: ServerInfo::new(
                *rng.choose(&NAMES),
                Ipv4(rng.next_u32()),
                rng.next_u32() as u16,
            ),
        })
        .collect();
    let peer_names: Vec<String> =
        (0..1 + rng.below(5)).map(|_| rng.choose(&NAMES).to_string()).collect();
    let n_names = peer_names.len() as u64;

    // Each peer's current attributes, and a second user behind its address.
    let n_peers = 1 + rng.below(200) as usize;
    let user_id = |rng: &mut Rng| {
        let mut id = [0u8; 16];
        rng.fill_bytes(&mut id);
        UserId(id)
    };
    let mut current: Vec<AnonClient> = (0..n_peers)
        .map(|_| AnonClient {
            port: rng.next_u32() as u16,
            id_status: *rng.choose(&[IdStatus::Low, IdStatus::High]),
            user_id: user_id(rng),
            name: rng.below(n_names) as u32,
            version: rng.next_u32(),
        })
        .collect();
    let second_user: Vec<Option<UserId>> =
        (0..n_peers).map(|_| rng.chance(0.2).then(|| user_id(rng))).collect();

    // Step-2 ids are dense, in order of first appearance.
    let mut ids = vec![None; n_peers];
    let mut distinct_peers = 0;
    let mut step2 = |p: usize| {
        *ids[p].get_or_insert_with(|| {
            distinct_peers += 1;
            AnonPeerId(distinct_peers - 1)
        })
    };

    let mut clients = ClientTable::default();
    let mut records = Vec::with_capacity(n_records);
    let mut attributes = Vec::with_capacity(n_records);
    for _ in 0..n_records {
        let p = rng.below(n_peers as u64) as usize;
        let c = &mut current[p];
        // A new session, with one attribute changed.
        if rng.chance(0.1) {
            match rng.below(4) {
                0 => c.port = rng.next_u32() as u16,
                1 => c.id_status = *rng.choose(&[IdStatus::Low, IdStatus::High]),
                2 => c.name = rng.below(n_names) as u32,
                _ => c.version = rng.next_u32(),
            }
        }
        let mut client = *c;
        if let Some(other) = second_user[p].filter(|_| rng.chance(0.5)) {
            client.user_id = other;
        }
        attributes.push(client);
        let kind = *rng.choose(&[QueryKind::Hello, QueryKind::StartUpload, QueryKind::RequestPart]);
        let peer = step2(p);
        let at = SimTime::from_millis(rng.below(RECORD_TIME_LIMIT_MS));
        let file = if kind == QueryKind::Hello || n_files == 0 || rng.chance(0.1) {
            FILE_NONE
        } else {
            rng.below(n_files) as u32
        };
        let new_client = clients.push(peer, client);
        let honeypot = rng.below(honeypots.len() as u64) as u32;
        records.push(AnonRecord::new(at, peer, file, honeypot, kind, new_client));
    }
    let shared_lists: Vec<AnonSharedList> = list_sizes
        .iter()
        .map(|&n| AnonSharedList {
            at: SimTime::from_millis(rng.next_u64()),
            honeypot: HoneypotId(rng.below(honeypots.len() as u64) as u32),
            peer: step2(rng.below(n_peers as u64) as usize),
            files: (0..n).map(|_| rng.below(n_files) as u32).collect(),
        })
        .collect();

    let log = MeasurementLog {
        honeypots,
        records,
        clients: clients.into_entries(),
        shared_lists,
        peer_names,
        files,
        distinct_peers,
        duration: SimTime::from_millis(rng.next_u64()),
        shared_files_final: rng.next_u32(),
    };
    assert!(log.validate().is_empty(), "generator must produce valid logs");
    assert_eq!(log.records_with_clients().count(), attributes.len());
    for ((_, read), client) in log.records_with_clients().zip(&attributes) {
        assert_eq!(read, client, "the client table lost an attribute");
    }
    log
}

#[test]
fn block_codec_matches_field_at_a_time_reference() {
    const B: usize = BLOCK_RECORDS;
    let path = tmp("differential.edhp");
    for seed in 0..500u64 {
        let mut rng = Rng::seed_from(0xD1FF_0000 + seed);
        let n_records = [0, 1, B - 1, B, B + 1, 2 * B + 7][(seed % 6) as usize];
        let list_sizes: &[usize] = match seed % 5 {
            0 => &[],
            1 => &[0],
            2 => &[3, 0, 17],
            3 => &[3_000, 1],
            _ => &[1, 2, 3, 4, 5, 6, 7, 8],
        };
        let log = random_log(&mut rng, n_records, list_sizes);
        if n_records > B {
            // Attributes churn: some peers need more than one entry, most
            // records reuse one.
            assert!(log.clients.len() > log.distinct_peers as usize, "seed {seed}");
            assert!(log.clients.len() < n_records / 2, "seed {seed}");
        }

        save(&log, &path).unwrap();
        let written = std::fs::read(&path).unwrap();
        assert!(written == reference::save(&log), "seed {seed}: save differs from the reference");

        let ours = load(&path).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        let theirs = reference::load(&written).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_same_log(&ours, &theirs);
        assert_same_log(&ours, &log);
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn mutated_files_never_load_as_something_the_reference_rejects() {
    let mut rng = Rng::seed_from(0x5EED_B10C);
    let bases: Vec<(MeasurementLog, Vec<u8>)> =
        [(0, &[][..]), (3, &[2, 0][..]), (40, &[5, 1, 9][..]), (BLOCK_RECORDS + 1, &[3_000][..])]
            .into_iter()
            .map(|(n_records, list_sizes)| {
                let log = random_log(&mut rng, n_records, list_sizes);
                let bytes = reference::save(&log);
                (log, bytes)
            })
            .collect();
    let path = tmp("mutation.edhp");
    let (mut loaded, mut rejected, mut stricter) = (0, 0, 0);

    for seed in 0..2_000u64 {
        let mut rng = Rng::seed_from(0x0BAD_0000 + seed);
        // The block-straddling base is 200 KB: every tenth case.
        let (log, good) = &bases[if seed % 10 == 9 { 3 } else { (seed % 3) as usize }];
        let mut bytes = good.clone();
        match seed % 4 {
            0 => {
                let at = rng.below(bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.below(8);
            }
            1 => bytes.truncate(rng.below(bytes.len() as u64) as usize),
            2 => {
                let mut garbage = vec![0u8; 1 + rng.below(64) as usize];
                rng.fill_bytes(&mut garbage);
                bytes.extend_from_slice(&garbage);
            }
            _ => {
                let at = count_offsets(log);
                let mut counts = vec![
                    (at.honeypots, 4),
                    (at.names, 4),
                    (at.files, 4),
                    (at.records, 8),
                    (at.lists, 8),
                ];
                counts.extend(at.list_lens.iter().map(|&offset| (offset, 4)));
                let (offset, width) = *rng.choose(&counts);
                let mut count = [0u8; 8];
                count[..width].copy_from_slice(&bytes[offset..offset + width]);
                let inflated = match rng.below(3) {
                    0 => u64::from_le_bytes(count) + 1 + rng.below(4),
                    1 => u64::from_le_bytes(count) + (1 << rng.range(8, 31)),
                    _ => u64::MAX,
                };
                bytes[offset..offset + width].copy_from_slice(&inflated.to_le_bytes()[..width]);
            }
        }

        let ours = load_bytes(&path, &bytes);
        let theirs = reference::load(&bytes);
        match (&ours, &theirs) {
            (Ok(ours), Ok(theirs)) => {
                loaded += 1;
                assert!(ours.validate().is_empty(), "seed {seed}: an Ok log must be valid");
                assert_same_log(ours, theirs);
                // Nothing was reserved that the file could not have held.
                assert!(ours.records.capacity() * RECORD_BYTES <= bytes.len(), "seed {seed}");
                assert!(ours.shared_lists.capacity() * LIST_HEADER_BYTES <= bytes.len());
                assert!(ours.peer_names.capacity() * 4 <= bytes.len(), "seed {seed}");
                for l in &ours.shared_lists {
                    assert!(l.files.capacity() * 4 <= bytes.len(), "seed {seed}");
                }
            }
            (Ok(_), Err(e)) => panic!("seed {seed}: loaded what the reference rejects ({e})"),
            (Err(_), Ok(_)) => stricter += 1,
            (Err(_), Err(_)) => rejected += 1,
        }
    }
    std::fs::remove_file(&path).ok();
    // The sweep must exercise every outcome: harmless flips (a timestamp,
    // a user hash) still load, most damage is rejected by both readers,
    // and appended garbage / odd id-status bytes only by the new one.
    assert!(loaded > 50, "only {loaded} mutants loaded");
    assert!(rejected > 500, "only {rejected} mutants rejected by both");
    assert!(stricter > 100, "only {stricter} mutants rejected by the new reader alone");
}

#[test]
fn file_names_keep_their_utf8_and_length_checks() {
    let log = sample_log();
    let good = reference::save(&log);
    let name_len = count_offsets(&log).files + 4 + 16;
    assert_eq!(&good[name_len..name_len + 4], &10u32.to_le_bytes(), "\"file a.avi\"");
    let path = tmp("file-names.edhp");

    let mut bytes = good.clone();
    bytes[name_len + 4 + 3] = 0xff;
    assert_corrupt(&path, &bytes, "invalid UTF-8");
    let mut bytes = good.clone();
    bytes[name_len..name_len + 4].copy_from_slice(&(STRING_LIMIT as u32 + 1).to_le_bytes());
    assert_corrupt(&path, &bytes, "string length exceeds limit");

    let back = load_bytes(&path, &good).unwrap();
    assert_eq!(back.files, log.files);
    assert_eq!(back.files.name(0), "file a.avi");
    std::fs::remove_file(&path).ok();
}
