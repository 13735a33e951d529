//! Integration tests of the real-TCP substrate: server, honeypot host and
//! scripted peers exchanging genuine eDonkey frames over loopback.

use std::time::{Duration, Instant};

use edonkey_honeypots::net::{HoneypotHost, NetServer, ScriptedPeer};
use edonkey_honeypots::platform::{
    AdvertisedFile, ContentStrategy, FileStrategy, Honeypot, HoneypotConfig, HoneypotId, IpHasher,
    QueryKind, ServerInfo,
};
use edonkey_honeypots::proto::{FileId, Ipv4};
use netsim::{Rng, SimTime};

fn start_honeypot(server: &NetServer, content: ContentStrategy, materialize: bool) -> HoneypotHost {
    let file = FileId::from_seed(b"test-file");
    let mut config = HoneypotConfig::fixed(
        HoneypotId(0),
        content,
        vec![AdvertisedFile::new(file, "test file.avi", 100_000_000)],
    );
    config.materialize_content = materialize;
    let hp = Honeypot::new(
        config,
        ServerInfo::new("loopback", Ipv4::new(127, 0, 0, 1), server.addr().port()),
        IpHasher::from_seed(1),
        Rng::seed_from(2),
    );
    let host = HoneypotHost::start(hp, server.addr()).expect("start host");
    assert!(host.wait_connected(Duration::from_secs(5)), "honeypot login timed out");
    // The server indexes the OFFER-FILES that follows the login round trip
    // on its own thread; a peer asking before it lands finds nothing.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.indexed_files() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    host
}

#[test]
fn peer_discovers_honeypot_through_server() {
    let server = NetServer::start().unwrap();
    let host = start_honeypot(&server, ContentStrategy::NoContent, false);
    let file = FileId::from_seed(b"test-file");

    let mut peer = ScriptedPeer::login(server.addr(), "discoverer").unwrap();
    let sources = peer.get_sources(file).unwrap();
    assert_eq!(sources.len(), 1, "the honeypot must be indexed as provider");
    assert_eq!(sources[0].port, host.peer_addr().port());

    host.stop();
    server.stop();
}

#[test]
fn random_content_honeypot_sends_bytes_no_content_stays_silent() {
    let server = NetServer::start().unwrap();
    let file = FileId::from_seed(b"test-file");

    // Random content with materialised bytes.
    let host_rc = start_honeypot(&server, ContentStrategy::RandomContent, true);
    let mut peer = ScriptedPeer::login(server.addr(), "downloader").unwrap();
    let rc = peer
        .attempt_download(host_rc.peer_addr(), file, 2, Duration::from_millis(400), &[])
        .unwrap();
    assert!(rc.hello_answered && rc.upload_accepted);
    assert_eq!(rc.answered_requests, 2);
    assert_eq!(rc.timed_out_requests, 0);
    assert!(rc.bytes_received > 0, "random-content honeypot must send bytes");
    let chunk = host_rc.stop();
    assert_eq!(chunk.records.iter().filter(|r| r.kind == QueryKind::RequestPart).count(), 2);

    // No content: same flow, requests time out.
    let host_nc = start_honeypot(&server, ContentStrategy::NoContent, false);
    let nc = peer
        .attempt_download(host_nc.peer_addr(), file, 2, Duration::from_millis(300), &[])
        .unwrap();
    assert!(nc.hello_answered && nc.upload_accepted);
    assert_eq!(nc.answered_requests, 0, "no-content honeypot must stay silent");
    assert_eq!(nc.timed_out_requests, 2);
    assert_eq!(nc.bytes_received, 0);
    let chunk = host_nc.stop();
    assert_eq!(
        chunk.records.iter().filter(|r| r.kind == QueryKind::RequestPart).count(),
        2,
        "silent honeypots still log the requests"
    );
    server.stop();
}

#[test]
fn honeypot_logs_carry_peer_metadata_and_hashed_ips() {
    let server = NetServer::start().unwrap();
    let host = start_honeypot(&server, ContentStrategy::NoContent, false);
    let file = FileId::from_seed(b"test-file");

    let mut peer = ScriptedPeer::login(server.addr(), "metadata-peer").unwrap();
    let _ =
        peer.attempt_download(host.peer_addr(), file, 1, Duration::from_millis(200), &[]).unwrap();

    let chunk = host.stop();
    let hello: Vec<_> = chunk.records.iter().filter(|r| r.kind == QueryKind::Hello).collect();
    assert_eq!(hello.len(), 1);
    let rec = hello[0];
    assert_eq!(chunk.peer_names[rec.name as usize], "metadata-peer");
    assert_eq!(rec.version, 0x49);
    // Step-1 anonymisation: the hash of 127.0.0.1 under the measurement
    // salt, never the raw address.
    let expected = IpHasher::from_seed(1).hash(Ipv4::new(127, 0, 0, 1));
    assert_eq!(rec.peer, expected);
    server.stop();
}

#[test]
fn greedy_honeypot_adopts_files_over_tcp() {
    let server = NetServer::start().unwrap();
    let seed_file = FileId::from_seed(b"seed");
    let config = HoneypotConfig {
        id: HoneypotId(0),
        content: ContentStrategy::NoContent,
        files: FileStrategy::Greedy {
            seeds: vec![AdvertisedFile::new(seed_file, "seed.mp3", 5_000_000)],
            // Wall-clock log time starts at 0 when the host starts, so one
            // simulated "day" comfortably covers the test.
            adopt_until: SimTime::from_days(1),
            max_files: 100,
        },
        ask_shared_files: true,
        materialize_content: false,
        port: 4662,
        client_name: "greedy-hp".into(),
    };
    let hp = Honeypot::new(
        config,
        ServerInfo::new("loopback", Ipv4::new(127, 0, 0, 1), server.addr().port()),
        IpHasher::from_seed(1),
        Rng::seed_from(3),
    );
    let host = HoneypotHost::start(hp, server.addr()).expect("start host");
    assert!(host.wait_connected(Duration::from_secs(5)));

    let mut peer = ScriptedPeer::login(server.addr(), "sharer").unwrap();
    let shared = [
        (FileId::from_seed(b"s1"), "my first file.avi", 700_000_000u64),
        (FileId::from_seed(b"s2"), "my second file.mp3", 5_000_000u64),
    ];
    let attempt = peer
        .attempt_download(host.peer_addr(), seed_file, 1, Duration::from_millis(300), &shared)
        .unwrap();
    assert!(attempt.was_asked_shared_files, "greedy honeypot must ask for the list");

    // The adopted files must propagate to the server index (OFFER-FILES
    // over the server socket); poll for the async round trip.
    let mut indexed = 0;
    for _ in 0..100 {
        indexed = server.indexed_files();
        if indexed >= 3 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(indexed >= 3, "adopted files must be re-advertised (got {indexed})");

    let chunk = host.stop();
    assert_eq!(chunk.shared_lists.len(), 1);
    assert_eq!(chunk.shared_lists.get(0).files.len(), 2);
    assert!(chunk.files.len() >= 3, "seed + 2 adopted files in the file table");
    server.stop();
}

#[test]
fn greedy_loopback_run_flows_through_merge_pipeline() {
    use edonkey_honeypots::platform::{HoneypotSpec, Manager};

    let server = NetServer::start().unwrap();
    let server_info = ServerInfo::new("loopback", Ipv4::new(127, 0, 0, 1), server.addr().port());
    let seed_file = FileId::from_seed(b"greedy-seed");
    let config = HoneypotConfig {
        id: HoneypotId(0),
        content: ContentStrategy::NoContent,
        files: FileStrategy::Greedy {
            seeds: vec![AdvertisedFile::new(seed_file, "seed.mp3", 5_000_000)],
            adopt_until: SimTime::from_days(1),
            max_files: 100,
        },
        ask_shared_files: true,
        materialize_content: false,
        port: 4662,
        client_name: "greedy-pipeline-hp".into(),
    };
    let hp = Honeypot::new(config, server_info.clone(), IpHasher::from_seed(1), Rng::seed_from(4));
    let host = HoneypotHost::start(hp, server.addr()).expect("start host");
    assert!(host.wait_connected(Duration::from_secs(5)));

    let mut peer = ScriptedPeer::login(server.addr(), "pipeline-sharer").unwrap();
    let shared = [
        (FileId::from_seed(b"adopt-1"), "adopted first.avi", 700_000_000u64),
        (FileId::from_seed(b"adopt-2"), "adopted second.mp3", 5_000_000u64),
    ];
    let attempt = peer
        .attempt_download(host.peer_addr(), seed_file, 1, Duration::from_millis(300), &shared)
        .unwrap();
    assert!(attempt.was_asked_shared_files);

    // The full collection path: the TCP-collected chunk goes through the
    // manager's merge/anonymise pipeline into a MeasurementLog, exactly
    // like a simulated or live-platform run.
    let chunk = host.stop();
    let mut manager = Manager::new(vec![HoneypotSpec {
        id: HoneypotId(0),
        content: ContentStrategy::NoContent,
        server: server_info,
    }]);
    manager.collect(chunk);
    let log = manager.finalize(SimTime::from_secs(60), 3, 1);

    assert!(!log.records.is_empty(), "the greedy run must produce anonymised records");
    assert_eq!(log.shared_lists.len(), 1, "the shared list must survive the merge");
    assert_eq!(log.shared_lists[0].files.len(), 2);
    assert!(log.files.len() >= 3, "seed + adopted files in the unified table");
    assert!(log.distinct_peers >= 1);
    server.stop();
}

#[test]
fn quiet_collections_cut_no_chunk_and_lose_no_table_entry() {
    let server = NetServer::start().unwrap();
    let host = start_honeypot(&server, ContentStrategy::NoContent, false);
    assert!(host.collect_pending_log().is_none(), "no traffic yet: nothing to cut");

    // The peer asks for a file the honeypot does not advertise, so the
    // advertised one is never referenced by a record...
    let other = FileId::from_seed(b"some-other-file");
    let mut peer = ScriptedPeer::login(server.addr(), "asker").unwrap();
    let _ = peer.attempt_download(host.peer_addr(), other, 1, Duration::from_millis(150), &[]);
    let chunk = host.collect_pending_log().expect("traffic was logged");
    // ...and still rides in the first chunk that is cut.
    let carried: Vec<FileId> = (0..chunk.files.len() as u32).map(|i| chunk.files.id(i)).collect();
    assert_eq!(carried, vec![FileId::from_seed(b"test-file"), other]);
    assert!(host.collect_pending_log().is_none(), "quiet again");
    assert!(host.stop().files.is_empty(), "a quiet final chunk carries empty tables");
    server.stop();
}

#[test]
fn keyword_search_over_tcp_finds_honeypot_files() {
    let server = NetServer::start().unwrap();
    let host = start_honeypot(&server, ContentStrategy::NoContent, false);
    let mut peer = ScriptedPeer::login(server.addr(), "searcher").unwrap();
    // The honeypot advertises "test file.avi".
    let hits = peer.search(edonkey_honeypots::proto::SearchExpr::keyword("test")).unwrap();
    assert_eq!(hits.len(), 1);
    assert_eq!(hits[0].name(), Some("test file.avi"));
    let none = peer.search(edonkey_honeypots::proto::SearchExpr::keyword("nonexistent")).unwrap();
    assert!(none.is_empty());
    // Boolean query: keyword AND size constraint.
    let expr = edonkey_honeypots::proto::SearchExpr::keyword("file").and(
        edonkey_honeypots::proto::SearchExpr::NumericTag {
            name: "size".into(),
            comparator: edonkey_honeypots::proto::Comparator::Greater,
            value: 1_000,
        },
    );
    assert_eq!(peer.search(expr).unwrap().len(), 1);
    host.stop();
    server.stop();
}

#[test]
fn two_peers_are_distinct_in_the_log_by_user_hash() {
    let server = NetServer::start().unwrap();
    let host = start_honeypot(&server, ContentStrategy::NoContent, false);
    let file = FileId::from_seed(b"test-file");
    for name in ["peer-a", "peer-b"] {
        let mut peer = ScriptedPeer::login(server.addr(), name).unwrap();
        let _ = peer
            .attempt_download(host.peer_addr(), file, 1, Duration::from_millis(150), &[])
            .unwrap();
    }
    let chunk = host.stop();
    let users: std::collections::HashSet<_> =
        chunk.records.iter().filter(|r| r.kind == QueryKind::Hello).map(|r| r.user_id).collect();
    assert_eq!(users.len(), 2, "both peers logged with distinct user hashes");
    // Same source IP (loopback) ⇒ same hashed peer identity: the paper
    // counts peers by address, and both connections came from 127.0.0.1.
    let ips: std::collections::HashSet<_> =
        chunk.records.iter().filter(|r| r.kind == QueryKind::Hello).map(|r| r.peer).collect();
    assert_eq!(ips.len(), 1);
    server.stop();
}
