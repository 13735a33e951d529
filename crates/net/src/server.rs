//! A threaded TCP eDonkey index server: the socket driver of
//! [`honeypot::IndexServer`].
//!
//! Speaks the real wire protocol over loopback (or any interface): LOGIN →
//! ID-CHANGE, OFFER-FILES indexing, GET-SOURCES → FOUND-SOURCES, SEARCH,
//! and the UDP global queries.  One thread per connection, each a session
//! of the one index server behind a mutex — the same state machine the
//! simulation drives, so both answer by the same rules.  This is the
//! server side of the zero-simulation proof that the honeypot platform
//! speaks genuine eDonkey.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use edonkey_proto::{ClientId, ClientServerMessage, Ipv4, PeerAddr, UdpMessage};
use honeypot::{AdvertisedFile, IndexServer};
use netsim::sync::lock;
use netsim::SimTime;

use crate::accept::{accept_until, remote_ipv4, wake_accept};
use crate::framing::{FramedStream, NetError};

/// The session token UDP queries are answered under: connections draw
/// theirs from a counter starting at 0, so no client ever holds it.
const UDP_SESSION: u64 = u64::MAX;

/// Handle to a running server.
pub struct NetServer {
    addr: SocketAddr,
    udp_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    udp_thread: Option<JoinHandle<()>>,
    server: Arc<Mutex<IndexServer>>,
}

impl NetServer {
    /// Binds to `127.0.0.1:0` (ephemeral port) and starts accepting.
    pub fn start() -> std::io::Result<NetServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let server = Arc::new(Mutex::new(IndexServer::new()));

        // Bind the UDP responder before spawning any thread: a bind
        // failure must not leak a blocking accept loop.
        let udp = UdpSocket::bind("127.0.0.1:0")?;
        let udp_addr = udp.local_addr()?;

        let accept_shutdown = shutdown.clone();
        let accept_server = server.clone();
        let accept_thread = std::thread::spawn(move || {
            let mut next_session = 0u64;
            accept_until(&listener, &accept_shutdown, |stream| {
                let server = accept_server.clone();
                let session = next_session;
                next_session += 1;
                std::thread::spawn(move || {
                    if let Ok(ip) = remote_ipv4(&stream) {
                        let _ = serve_connection(stream, ip, &server, session);
                    }
                });
            });
        });

        // UDP responder: global source queries and status pings (the side
        // channel through which peers not connected to this server still
        // find its providers — the paper's §III-B remark).  It blocks in
        // `recv_from`; `stop` wakes it with a datagram.
        let udp_shutdown = shutdown.clone();
        let udp_server = server.clone();
        let udp_thread = std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            loop {
                let received = udp.recv_from(&mut buf);
                if udp_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok((n, from)) = received else { continue };
                let Ok(msg) = UdpMessage::decode(&buf[..n]) else { continue };
                match msg {
                    UdpMessage::GlobStatReq { challenge } => {
                        let status = lock(&udp_server).status(SimTime::ZERO);
                        if let ClientServerMessage::ServerStatus { users, files } = status {
                            let res = UdpMessage::GlobStatRes { challenge, users, files };
                            let _ = udp.send_to(&res.encode(), from);
                        }
                    }
                    UdpMessage::GlobGetSources { files } => {
                        for file in files {
                            let found =
                                lock(&udp_server).get_sources(SimTime::ZERO, UDP_SESSION, file);
                            match found {
                                ClientServerMessage::FoundSources { sources, .. }
                                    if !sources.is_empty() =>
                                {
                                    let res = UdpMessage::GlobFoundSources { file, sources };
                                    let _ = udp.send_to(&res.encode(), from);
                                }
                                _ => {}
                            }
                        }
                    }
                    // Server-side messages arriving at the server: ignore.
                    _ => {}
                }
            }
        });

        Ok(NetServer {
            addr,
            udp_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            udp_thread: Some(udp_thread),
            server,
        })
    }

    /// The server's socket address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The server's UDP endpoint (global queries).
    pub fn udp_addr(&self) -> SocketAddr {
        self.udp_addr
    }

    /// Number of logged-in users (diagnostics).
    pub fn users(&self) -> u32 {
        lock(&self.server).clients() as u32
    }

    /// Number of indexed files (diagnostics).
    pub fn indexed_files(&self) -> usize {
        lock(&self.server).indexed_files()
    }

    /// Stops accepting and joins the accept loop.  Existing per-connection
    /// threads die when their peers disconnect.
    pub fn stop(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake both blocking service threads: the accept loop with a
        // throw-away connection, the UDP responder with an empty datagram.
        wake_accept(self.addr);
        if let Ok(waker) = UdpSocket::bind("127.0.0.1:0") {
            let _ = waker.send_to(&[], self.udp_addr);
        }
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if let Some(t) = self.udp_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        if self.accept_thread.is_some() {
            self.shutdown_inner();
        }
    }
}

/// Serves one client connection as `session` until it ends, then
/// withdraws everything the session registered — however it ended: a
/// failed write ends it as surely as the client closing.
fn serve_connection(
    stream: impl Read + Write,
    ip: Ipv4,
    server: &Mutex<IndexServer>,
    session: u64,
) -> Result<(), NetError> {
    let mut framed = FramedStream::over(stream);
    let mut serve = || -> Result<(), NetError> {
        loop {
            match framed.read_server_message(false)? {
                ClientServerMessage::LoginRequest { port, .. } => {
                    // Loopback peers are directly reachable: a high ID when
                    // the IP encodes one, a low ID otherwise.
                    let reachable = ClientId::high_from_ip(ip).is_high();
                    let addr = PeerAddr::new(ip, port);
                    let id_change = lock(server).login(SimTime::ZERO, session, addr, reachable);
                    framed.queue_server_message(&id_change);
                    framed.queue_server_message(&ClientServerMessage::ServerMessage {
                        text: "welcome to edonkey-net test server".into(),
                    });
                    framed.flush()?;
                }
                ClientServerMessage::OfferFiles { files } => {
                    let files: Vec<AdvertisedFile> = files
                        .iter()
                        .map(|f| {
                            let (name, size) = (f.name().unwrap_or(""), f.size().unwrap_or(0));
                            AdvertisedFile::new(f.file_id, name, size)
                        })
                        .collect();
                    lock(server).offer_files(SimTime::ZERO, session, &files);
                }
                ClientServerMessage::GetSources { file_id } => {
                    let found = lock(server).get_sources(SimTime::ZERO, session, file_id);
                    framed.write_server_message(&found)?;
                }
                ClientServerMessage::SearchRequest { expr } => {
                    let result = lock(server).search(SimTime::ZERO, session, &expr, 200);
                    framed.write_server_message(&result)?;
                }
                // Server-side messages arriving at the server are client
                // bugs; ignore them.
                _ => {}
            }
        }
    };
    let result = serve();
    lock(server).disconnect(SimTime::ZERO, session);
    match result {
        Err(NetError::Closed) => Ok(()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peer::ScriptedPeer;
    use edonkey_proto::{FileId, PublishedFile, SearchExpr, UserId};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    fn login(framed: &mut FramedStream, port: u16) -> ClientId {
        framed
            .write_server_message(&ClientServerMessage::LoginRequest {
                user_id: UserId::from_seed(b"t"),
                client_id: ClientId(0),
                port,
                tags: vec![],
            })
            .unwrap();
        let ClientServerMessage::IdChange { client_id } = framed.read_server_message(true).unwrap()
        else {
            panic!("expected ID-CHANGE")
        };
        // Swallow the welcome message.
        let ClientServerMessage::ServerMessage { .. } = framed.read_server_message(true).unwrap()
        else {
            panic!("expected SERVER-MESSAGE")
        };
        client_id
    }

    /// ID-CHANGE + MOTD as the parent build (one `write` per message) put
    /// them on the wire for a client at 127.0.0.1.
    const LOGIN_STEP: &str = "e305000000407f000001e32500000038220077656c636f6d6520746f206564\
         6f6e6b65792d6e6574207465737420736572766572";

    #[test]
    fn login_burst_is_one_write_and_a_keepalive_reoffer_indexes_nothing_twice() {
        use crate::framing::testing::{unhex, Script};
        use edonkey_proto::codec::encode_client_server_message;

        let files: Vec<PublishedFile> = (0..3_000u32)
            .map(|i| PublishedFile::new(FileId::from_seed(&i.to_le_bytes()), "adopted.avi", 1_000))
            .collect();
        let offer = ClientServerMessage::OfferFiles { files };
        let mut script = Script::new(
            [
                ClientServerMessage::LoginRequest {
                    user_id: UserId::from_seed(b"t"),
                    client_id: ClientId(0),
                    port: 4662,
                    tags: vec![],
                },
                offer.clone(),
                offer,
                ClientServerMessage::GetSources { file_id: FileId::from_seed(&7u32.to_le_bytes()) },
            ]
            .iter()
            .map(encode_client_server_message),
        );
        let server = Mutex::new(IndexServer::new());
        let ip = Ipv4::new(127, 0, 0, 1);
        serve_connection(&mut script, ip, &server, 0).unwrap();

        assert_eq!(script.writes.len(), 2, "the login burst, then FOUND-SOURCES");
        assert_eq!(script.writes[0], unhex(LOGIN_STEP));
        let found = ClientServerMessage::FoundSources {
            file_id: FileId::from_seed(&7u32.to_le_bytes()),
            sources: vec![PeerAddr::new(ip, 4662)],
        };
        assert_eq!(script.writes[1], encode_client_server_message(&found), "offered once");
        let status = lock(&server).status(SimTime::ZERO);
        let ClientServerMessage::ServerStatus { users, files } = status else { panic!() };
        assert_eq!((users, files), (0, 0), "all withdrawn on disconnect");
    }

    #[test]
    fn a_failed_write_still_withdraws_the_session() {
        use crate::framing::testing::Script;
        use edonkey_proto::codec::encode_client_server_message;

        /// Takes the login burst, then fails every write.
        struct OneWrite(Script);
        impl Read for OneWrite {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                self.0.read(buf)
            }
        }
        impl Write for OneWrite {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                if self.0.writes.is_empty() {
                    return self.0.write(buf);
                }
                Err(std::io::ErrorKind::BrokenPipe.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let file = FileId::from_seed(b"f");
        let script = Script::new(
            [
                ClientServerMessage::LoginRequest {
                    user_id: UserId::from_seed(b"t"),
                    client_id: ClientId(0),
                    port: 4662,
                    tags: vec![],
                },
                ClientServerMessage::OfferFiles {
                    files: vec![PublishedFile::new(file, "f.avi", 1_000)],
                },
                ClientServerMessage::GetSources { file_id: file },
            ]
            .iter()
            .map(encode_client_server_message),
        );
        let server = Mutex::new(IndexServer::new());
        let ended = serve_connection(OneWrite(script), Ipv4::new(127, 0, 0, 1), &server, 0);
        assert!(ended.is_err(), "the FOUND-SOURCES write failed");
        let status = lock(&server).status(SimTime::ZERO);
        let ClientServerMessage::ServerStatus { users, files } = status else { panic!() };
        assert_eq!((users, files), (0, 0), "the session is withdrawn all the same");
    }

    #[test]
    fn login_offer_sources_lifecycle() {
        let server = NetServer::start().unwrap();
        let mut a = FramedStream::new(TcpStream::connect(server.addr()).unwrap());
        let id = login(&mut a, 14662);
        // 127.0.0.1 little-endian is 0x0100007F ≥ 2^24: numerically a high
        // ID encoding the loopback address.
        assert!(id.is_high());
        assert_eq!(id.ip(), Some(Ipv4::new(127, 0, 0, 1)));
        assert_eq!(server.users(), 1);

        let file = FileId::from_seed(b"f");
        a.write_server_message(&ClientServerMessage::OfferFiles {
            files: vec![PublishedFile::new(file, "f.avi", 1000)],
        })
        .unwrap();
        a.write_server_message(&ClientServerMessage::GetSources { file_id: file }).unwrap();
        let ClientServerMessage::FoundSources { sources, .. } =
            a.read_server_message(true).unwrap()
        else {
            panic!("expected FOUND-SOURCES")
        };
        assert_eq!(sources.len(), 1);
        assert_eq!(sources[0].port, 14662);

        // A second client sees the first one's offer.
        let mut b = FramedStream::new(TcpStream::connect(server.addr()).unwrap());
        login(&mut b, 14663);
        b.write_server_message(&ClientServerMessage::GetSources { file_id: file }).unwrap();
        let ClientServerMessage::FoundSources { sources, .. } =
            b.read_server_message(true).unwrap()
        else {
            panic!()
        };
        assert_eq!(sources.len(), 1);

        drop(a);
        // Disconnection withdraws offers (poll for the cleanup thread).
        for _ in 0..100 {
            if server.indexed_files() == 0 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        assert_eq!(server.indexed_files(), 0, "offers withdrawn on disconnect");
        server.stop();
    }

    #[test]
    fn udp_global_queries_answered() {
        use edonkey_proto::UdpMessage;
        let server = NetServer::start().unwrap();
        let mut a = FramedStream::new(TcpStream::connect(server.addr()).unwrap());
        login(&mut a, 24662);
        let file = FileId::from_seed(b"udp-file");
        a.write_server_message(&ClientServerMessage::OfferFiles {
            files: vec![PublishedFile::new(file, "udp file.avi", 1_000)],
        })
        .unwrap();

        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(3))).unwrap();

        // Wait for the TCP offer to land in the index (it is processed by
        // another thread) before poking the UDP side.
        for _ in 0..200 {
            if server.indexed_files() == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.indexed_files(), 1, "offer must be indexed first");

        // Status ping echoes the challenge.
        sock.send_to(&UdpMessage::GlobStatReq { challenge: 0xC0FFEE }.encode(), server.udp_addr())
            .unwrap();
        let mut buf = [0u8; 512];
        let (n, _) = sock.recv_from(&mut buf).unwrap();
        let UdpMessage::GlobStatRes { challenge, users, files } =
            UdpMessage::decode(&buf[..n]).unwrap()
        else {
            panic!("expected GLOB-STAT-RES")
        };
        assert_eq!(challenge, 0xC0FFEE);
        assert_eq!(users, 1);
        assert_eq!(files, 1);

        // Global source query.
        sock.send_to(&UdpMessage::GlobGetSources { files: vec![file] }.encode(), server.udp_addr())
            .unwrap();
        let (n, _) = sock.recv_from(&mut buf).unwrap();
        let UdpMessage::GlobFoundSources { file: f, sources } =
            UdpMessage::decode(&buf[..n]).unwrap()
        else {
            panic!("expected GLOB-FOUND-SOURCES")
        };
        assert_eq!(f, file);
        assert_eq!(sources.len(), 1);
        assert_eq!(sources[0].port, 24662);

        // Unknown files draw no datagram (clients rely on timeouts).
        sock.send_to(
            &UdpMessage::GlobGetSources { files: vec![FileId::from_seed(b"none")] }.encode(),
            server.udp_addr(),
        )
        .unwrap();
        sock.set_read_timeout(Some(Duration::from_millis(300))).unwrap();
        assert!(sock.recv_from(&mut buf).is_err(), "no answer expected");
        server.stop();
    }

    #[test]
    fn unknown_file_yields_empty_sources() {
        let server = NetServer::start().unwrap();
        let mut a = FramedStream::new(TcpStream::connect(server.addr()).unwrap());
        login(&mut a, 1);
        a.write_server_message(&ClientServerMessage::GetSources {
            file_id: FileId::from_seed(b"nothing"),
        })
        .unwrap();
        let ClientServerMessage::FoundSources { sources, .. } =
            a.read_server_message(true).unwrap()
        else {
            panic!()
        };
        assert!(sources.is_empty());
        server.stop();
    }

    /// Polls `done` for up to two seconds: connection threads clean up
    /// after a disconnect on their own time.
    fn eventually(mut done: impl FnMut() -> bool) -> bool {
        let deadline = Instant::now() + Duration::from_secs(2);
        while !done() {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        true
    }

    /// The (users, files) a GLOB-STAT ping reads.
    fn glob_stat(server: &NetServer) -> (u32, u32) {
        use edonkey_proto::UdpMessage;
        let sock = UdpSocket::bind("127.0.0.1:0").unwrap();
        sock.set_read_timeout(Some(Duration::from_secs(3))).unwrap();
        sock.send_to(&UdpMessage::GlobStatReq { challenge: 7 }.encode(), server.udp_addr())
            .unwrap();
        let mut buf = [0u8; 64];
        let (n, _) = sock.recv_from(&mut buf).unwrap();
        let UdpMessage::GlobStatRes { users, files, .. } = UdpMessage::decode(&buf[..n]).unwrap()
        else {
            panic!("expected GLOB-STAT-RES")
        };
        (users, files)
    }

    fn sources(framed: &mut FramedStream, file_id: FileId) -> Vec<PeerAddr> {
        framed.write_server_message(&ClientServerMessage::GetSources { file_id }).unwrap();
        let ClientServerMessage::FoundSources { sources, .. } =
            framed.read_server_message(true).unwrap()
        else {
            panic!("expected FOUND-SOURCES")
        };
        sources
    }

    #[test]
    fn a_double_login_leaves_no_user_behind() {
        let server = NetServer::start().unwrap();
        let mut a = FramedStream::new(TcpStream::connect(server.addr()).unwrap());
        login(&mut a, 4662);
        login(&mut a, 4662);
        assert_eq!(glob_stat(&server).0, 1, "one connection is one user");
        drop(a);
        assert!(eventually(|| glob_stat(&server).0 == 0), "the user left with its connection");
        server.stop();
    }

    #[test]
    fn peers_sharing_an_address_are_listed_per_session() {
        let server = NetServer::start().unwrap();
        let file = FileId::from_seed(b"shared");
        // Every scripted peer announces 127.0.0.1:4662.
        let mut a = ScriptedPeer::login(server.addr(), "a").unwrap();
        a.offer(&[(file, "shared.avi", 1_000)]).unwrap();
        a.get_sources(file).unwrap();
        let mut b = ScriptedPeer::login(server.addr(), "b").unwrap();
        b.offer(&[(file, "shared.avi", 1_000)]).unwrap();
        let here = PeerAddr::new(Ipv4::new(127, 0, 0, 1), 4662);
        assert_eq!(b.get_sources(file).unwrap(), [here, here], "one entry per providing session");
        drop(a);
        assert!(eventually(|| server.users() == 1));
        assert_eq!(b.get_sources(file).unwrap(), [here], "B still offers the file");
        server.stop();
    }

    #[test]
    fn a_relogin_on_a_new_port_withdraws_the_old_ports_offer() {
        let server = NetServer::start().unwrap();
        let file = FileId::from_seed(b"moved");
        let offer = ClientServerMessage::OfferFiles {
            files: vec![PublishedFile::new(file, "moved.avi", 1_000)],
        };
        let mut a = FramedStream::new(TcpStream::connect(server.addr()).unwrap());
        login(&mut a, 1_000);
        a.write_server_message(&offer).unwrap();
        assert_eq!(sources(&mut a, file)[0].port, 1_000);
        login(&mut a, 2_000);
        assert!(sources(&mut a, file).is_empty(), "the old port's offer is withdrawn");
        a.write_server_message(&offer).unwrap();
        let listed: Vec<u16> = sources(&mut a, file).iter().map(|s| s.port).collect();
        assert_eq!(listed, [2_000]);
        server.stop();
    }

    #[test]
    fn a_type_constraint_matches_by_extension() {
        let server = NetServer::start().unwrap();
        let mut peer = ScriptedPeer::login(server.addr(), "typed").unwrap();
        peer.offer(&[
            (FileId::from_seed(b"v"), "holiday clip.avi", 700_000_000),
            (FileId::from_seed(b"s"), "holiday song.mp3", 5_000_000),
        ])
        .unwrap();
        let video = SearchExpr::StringTag { name: "type".into(), value: "Video".into() };
        let hits = peer.search(SearchExpr::keyword("holiday").and(video)).unwrap();
        let names: Vec<_> = hits.iter().map(|f| f.name()).collect();
        assert_eq!(names, [Some("holiday clip.avi")]);
        server.stop();
    }
}
