//! The eDonkey socket path against its clock: a session must not wait for
//! a timer (Nagle against delayed ACK, 40 ms), and stopping a server or a
//! host must not wait for a poll interval.

use std::net::UdpSocket;
use std::time::{Duration, Instant};

use edonkey_net::{HoneypotHost, NetServer, ScriptedPeer};
use edonkey_proto::parts::BLOCK_SIZE;
use edonkey_proto::{FileId, Ipv4, UdpMessage};
use honeypot::{
    AdvertisedFile, ContentStrategy, Honeypot, HoneypotConfig, HoneypotId, IpHasher, ServerInfo,
};
use netsim::Rng;

fn file() -> FileId {
    FileId::from_seed(b"socket-path-file")
}

fn start_host(server: &NetServer) -> HoneypotHost {
    let mut config = HoneypotConfig::fixed(
        HoneypotId(0),
        ContentStrategy::RandomContent,
        vec![AdvertisedFile::new(file(), "socket path.avi", 700 << 20)],
    );
    config.materialize_content = true;
    let honeypot = Honeypot::new(
        config,
        ServerInfo::new("loopback", Ipv4::new(127, 0, 0, 1), server.addr().port()),
        IpHasher::from_seed(1),
        Rng::seed_from(2),
    );
    let host = HoneypotHost::start(honeypot, server.addr()).expect("start host");
    assert!(host.wait_connected(Duration::from_secs(5)), "honeypot login timed out");
    host
}

#[test]
fn part_sessions_do_not_stall_on_a_timer() {
    let server = NetServer::start().unwrap();
    let host = start_host(&server);
    let mut peer = ScriptedPeer::login(server.addr(), "stall-probe").unwrap();
    let shared = [(FileId::from_seed(b"shared"), "a shared file.mp3", 5u64 << 20)];
    let mut ms: Vec<f64> = (0..40)
        .map(|_| {
            let started = Instant::now();
            let got = peer
                .attempt_download(host.peer_addr(), file(), 2, Duration::from_secs(5), &shared)
                .unwrap();
            assert_eq!(got.answered_requests, 2);
            assert_eq!(got.bytes_received, 6 * BLOCK_SIZE as usize);
            assert!(got.was_asked_shared_files);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    ms.sort_by(f64::total_cmp);
    let median = ms[ms.len() / 2];
    // One delayed-ACK stall is 40 ms on top of the session's own work.  An
    // optimised build does that work (1 MB generated, framed, sent, counted)
    // in a few ms; an unoptimised one needs 10–16 ms on a busy two-core box,
    // so there only the stall's own floor separates the two.
    let limit = if cfg!(debug_assertions) { 40.0 } else { 15.0 };
    assert!(median < limit, "median two-triple session {median:.1} ms ({ms:.1?})");
    assert_eq!(host.stop().records.len(), 40 * 4);
    server.stop();
}

/// A GLOB-STAT-REQ round trip: the UDP responder is awake and blocking in
/// its next receive when this returns.
fn udp_ping(server: &NetServer) {
    let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
    sock.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
    sock.send_to(&UdpMessage::GlobStatReq { challenge: 0xED2C }.encode(), server.udp_addr())
        .unwrap();
    let mut buf = [0u8; 64];
    let (n, _) = sock.recv_from(&mut buf).unwrap();
    assert!(matches!(
        UdpMessage::decode(&buf[..n]).unwrap(),
        UdpMessage::GlobStatRes { challenge: 0xED2C, .. }
    ));
}

#[test]
fn stops_do_not_wait_for_a_poll_interval() {
    // Five rounds, one excused: the box may deschedule a test thread, but a
    // service thread that polls (every 200 ms before) is late most rounds.
    let mut slow_server_stops = 0;
    let mut slow_host_stops = 0;
    for _ in 0..5 {
        let server = NetServer::start().unwrap();
        let host = start_host(&server);
        let mut peer = ScriptedPeer::login(server.addr(), "stop-probe").unwrap();
        peer.attempt_download(host.peer_addr(), file(), 0, Duration::from_secs(5), &[]).unwrap();
        udp_ping(&server);

        let started = Instant::now();
        let chunk = host.stop();
        slow_host_stops += u32::from(started.elapsed() >= Duration::from_millis(50));
        assert_eq!(chunk.records.len(), 2, "HELLO and START-UPLOAD");

        let started = Instant::now();
        server.stop();
        slow_server_stops += u32::from(started.elapsed() >= Duration::from_millis(50));
    }
    assert!(slow_server_stops <= 1, "NetServer::stop took ≥ 50 ms in {slow_server_stops} of 5");
    assert!(slow_host_stops <= 1, "HoneypotHost::stop took ≥ 50 ms in {slow_host_stops} of 5");
}
