//! The honeypot platform over **real TCP sockets** on loopback: an eDonkey
//! index server, one random-content honeypot, and two scripted peers
//! speaking the genuine binary wire protocol (paper Fig. 1 message flow).
//!
//! ```sh
//! cargo run --release --example tcp_loopback
//! ```

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use edonkey_honeypots::net::{HoneypotHost, NetServer, ScriptedPeer};
use edonkey_honeypots::platform::{
    AdvertisedFile, ContentStrategy, Honeypot, HoneypotConfig, HoneypotId, IpHasher, QueryKind,
    ServerInfo,
};
use edonkey_honeypots::proto::{FileId, Ipv4};
use netsim::Rng;

fn main() {
    // 1. A real TCP eDonkey index server on an ephemeral loopback port.
    let server = NetServer::start().expect("bind loopback");
    println!("index server listening on {}", server.addr());

    // 2. A random-content honeypot advertising one fake file, with actual
    //    random bytes in its SENDING-PART answers.
    let file = FileId::from_seed(b"very-popular-movie");
    let mut config = HoneypotConfig::fixed(
        HoneypotId(0),
        ContentStrategy::RandomContent,
        vec![AdvertisedFile::new(file, "very popular movie.avi", 734_003_200)],
    );
    config.materialize_content = true;
    let hp = Honeypot::new(
        config,
        ServerInfo::new("loopback", Ipv4::new(127, 0, 0, 1), server.addr().port()),
        IpHasher::from_seed(0xACE),
        Rng::seed_from(7),
    );
    let host = HoneypotHost::start(hp, server.addr()).expect("start honeypot");
    assert!(host.wait_connected(Duration::from_secs(5)), "honeypot failed to log in");
    // The server indexes the OFFER-FILES that follows the login round trip
    // on its own thread; a peer asking before it lands finds nothing.
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.indexed_files() == 0 {
        assert!(Instant::now() < deadline, "the server never indexed the honeypot's offer");
        std::thread::sleep(Duration::from_millis(1));
    }
    println!("honeypot connected; peers reach it at {}", host.peer_addr());

    // 3. Scripted peers discover the honeypot through the server and run
    //    the full download message flow.
    for name in ["alice", "bob"] {
        let mut peer = ScriptedPeer::login(server.addr(), name).expect("peer login");
        let sources = peer.get_sources(file).expect("get sources");
        println!("{name}: server lists {} provider(s) for the file", sources.len());
        assert_eq!(sources.len(), 1, "the honeypot is the file's one provider");
        let provider: SocketAddr = host.peer_addr();
        let attempt = peer
            .attempt_download(
                provider,
                file,
                3,
                Duration::from_millis(500),
                &[(FileId::from_seed(name.as_bytes()), "my shared song.mp3", 5_000_000)],
            )
            .expect("download attempt");
        println!(
            "{name}: hello_answered={} accepted={} asked_for_list={} received {} bytes over {} answered requests",
            attempt.hello_answered,
            attempt.upload_accepted,
            attempt.was_asked_shared_files,
            attempt.bytes_received,
            attempt.answered_requests,
        );
    }

    // 4. What did the honeypot log?
    let chunk = host.stop();
    let hello = chunk.records.iter().filter(|r| r.kind == QueryKind::Hello).count();
    let uploads = chunk.records.iter().filter(|r| r.kind == QueryKind::StartUpload).count();
    let parts = chunk.records.iter().filter(|r| r.kind == QueryKind::RequestPart).count();
    println!(
        "\nhoneypot log: {hello} HELLO, {uploads} START-UPLOAD, {parts} REQUEST-PART from {} shared lists, {} distinct files seen",
        chunk.shared_lists.len(),
        chunk.files.len(),
    );
    server.stop();
}
