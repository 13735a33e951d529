//! A threaded TCP eDonkey index server.
//!
//! Speaks the real wire protocol over loopback (or any interface): LOGIN →
//! ID-CHANGE, OFFER-FILES indexing, GET-SOURCES → FOUND-SOURCES.  One
//! thread per connection; shared index behind a mutex.  This
//! is the server side of the zero-simulation proof that the honeypot
//! platform speaks genuine eDonkey.

use std::collections::{HashMap, HashSet};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use edonkey_proto::{ClientId, ClientServerMessage, FileId, Ipv4, PeerAddr};
use netsim::sync::lock;

use crate::accept::{accept_until, remote_ipv4, wake_accept};
use crate::framing::{FramedStream, NetError};

#[derive(Default)]
struct Index {
    /// file → providers (address of the *peer-facing* listener the client
    /// announced as its port).
    providers: HashMap<FileId, Vec<PeerAddr>>,
    /// file → first-published (name, size), for search answering.
    metadata: HashMap<FileId, (String, u64)>,
    users: u32,
}

/// Handle to a running server.
pub struct NetServer {
    addr: SocketAddr,
    udp_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    udp_thread: Option<JoinHandle<()>>,
    index: Arc<Mutex<Index>>,
}

impl NetServer {
    /// Binds to `127.0.0.1:0` (ephemeral port) and starts accepting.
    pub fn start() -> std::io::Result<NetServer> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let index: Arc<Mutex<Index>> = Arc::new(Mutex::new(Index::default()));
        let next_low = Arc::new(AtomicU64::new(1));

        // Bind the UDP responder before spawning any thread: a bind
        // failure must not leak a blocking accept loop.
        let udp = UdpSocket::bind("127.0.0.1:0")?;
        let udp_addr = udp.local_addr()?;

        let accept_shutdown = shutdown.clone();
        let accept_index = index.clone();
        let accept_thread = std::thread::spawn(move || {
            accept_until(&listener, &accept_shutdown, |stream| {
                let index = accept_index.clone();
                let low = next_low.clone();
                std::thread::spawn(move || {
                    if let Ok(ip) = remote_ipv4(&stream) {
                        let _ = serve_connection(stream, ip, &index, &low);
                    }
                });
            });
        });

        // UDP responder: global source queries and status pings (the side
        // channel through which peers not connected to this server still
        // find its providers — the paper's §III-B remark).  It blocks in
        // `recv_from`; `stop` wakes it with a datagram.
        let udp_shutdown = shutdown.clone();
        let udp_index = index.clone();
        let udp_thread = std::thread::spawn(move || {
            let mut buf = [0u8; 4096];
            loop {
                let received = udp.recv_from(&mut buf);
                if udp_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok((n, from)) = received else { continue };
                let Ok(msg) = edonkey_proto::UdpMessage::decode(&buf[..n]) else { continue };
                match msg {
                    edonkey_proto::UdpMessage::GlobStatReq { challenge } => {
                        let idx = lock(&udp_index);
                        let res = edonkey_proto::UdpMessage::GlobStatRes {
                            challenge,
                            users: idx.users,
                            files: idx.providers.len() as u32,
                        };
                        drop(idx);
                        let _ = udp.send_to(&res.encode(), from);
                    }
                    edonkey_proto::UdpMessage::GlobGetSources { files } => {
                        for file in files {
                            let sources =
                                lock(&udp_index).providers.get(&file).cloned().unwrap_or_default();
                            if !sources.is_empty() {
                                let res =
                                    edonkey_proto::UdpMessage::GlobFoundSources { file, sources };
                                let _ = udp.send_to(&res.encode(), from);
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
            index,
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
        lock(&self.index).users
    }

    /// Number of indexed files (diagnostics).
    pub fn indexed_files(&self) -> usize {
        lock(&self.index).providers.len()
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

fn serve_connection(
    stream: impl Read + Write,
    ip: Ipv4,
    index: &Mutex<Index>,
    next_low: &AtomicU64,
) -> Result<(), NetError> {
    let mut framed = FramedStream::over(stream);
    let mut announced_port = 0u16;
    let mut offered: HashSet<FileId> = HashSet::new();
    let mut logged_in = false;

    let result = loop {
        let msg = match framed.read_server_message(false) {
            Ok(m) => m,
            Err(e) => break Err(e),
        };
        match msg {
            ClientServerMessage::LoginRequest { port, .. } => {
                announced_port = port;
                logged_in = true;
                lock(index).users += 1;
                // Loopback peers are directly reachable: hand out a high ID
                // when the IP encodes one, a low ID otherwise.
                let candidate = ClientId::high_from_ip(ip);
                let client_id = if candidate.is_high() {
                    candidate
                } else {
                    let n = next_low.fetch_add(1, Ordering::Relaxed) as u32;
                    ClientId::low(1 + n % (edonkey_proto::ids::LOW_ID_LIMIT - 2))
                };
                framed.queue_server_message(&ClientServerMessage::IdChange { client_id });
                framed.queue_server_message(&ClientServerMessage::ServerMessage {
                    text: "welcome to edonkey-net test server".into(),
                });
                framed.flush()?;
            }
            ClientServerMessage::OfferFiles { files } => {
                if !logged_in {
                    continue;
                }
                let addr = PeerAddr::new(ip, announced_port);
                let mut idx = lock(index);
                for f in files {
                    let list = idx.providers.entry(f.file_id).or_default();
                    if !list.contains(&addr) {
                        list.push(addr);
                    }
                    // A keep-alive re-offers everything (≈ 3,000 files for
                    // the greedy honeypot): a set, not a scan per file.
                    offered.insert(f.file_id);
                    idx.metadata.entry(f.file_id).or_insert_with(|| {
                        (f.name().unwrap_or("").to_string(), f.size().unwrap_or(0))
                    });
                }
            }
            ClientServerMessage::GetSources { file_id } => {
                let sources = lock(index).providers.get(&file_id).cloned().unwrap_or_default();
                framed.write_server_message(&ClientServerMessage::FoundSources {
                    file_id,
                    sources,
                })?;
            }
            ClientServerMessage::SearchRequest { expr } => {
                let files = {
                    let idx = lock(index);
                    idx.providers
                        .iter()
                        .filter(|(_, providers)| !providers.is_empty())
                        .filter_map(|(fid, _)| {
                            let (name, size) = idx.metadata.get(fid)?;
                            expr.matches(name, *size, "")
                                .then(|| edonkey_proto::PublishedFile::new(*fid, name, *size))
                        })
                        .take(200)
                        .collect()
                };
                framed.write_server_message(&ClientServerMessage::SearchResult { files })?;
            }
            // Server-side messages arriving at the server are client bugs;
            // ignore them.
            _ => {}
        }
    };

    // Withdraw this client's state.
    let addr = PeerAddr::new(ip, announced_port);
    let mut idx = lock(index);
    if logged_in {
        idx.users = idx.users.saturating_sub(1);
    }
    for f in offered {
        if let Some(list) = idx.providers.get_mut(&f) {
            list.retain(|a| *a != addr);
            if list.is_empty() {
                idx.providers.remove(&f);
                idx.metadata.remove(&f);
            }
        }
    }
    drop(idx);
    match result {
        Err(NetError::Closed) => Ok(()),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::{PublishedFile, UserId};
    use std::net::TcpStream;
    use std::time::Duration;

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
        let index = Mutex::new(Index::default());
        let ip = Ipv4::new(127, 0, 0, 1);
        serve_connection(&mut script, ip, &index, &AtomicU64::new(1)).unwrap();

        assert_eq!(script.writes.len(), 2, "the login burst, then FOUND-SOURCES");
        assert_eq!(script.writes[0], unhex(LOGIN_STEP));
        let found = ClientServerMessage::FoundSources {
            file_id: FileId::from_seed(&7u32.to_le_bytes()),
            sources: vec![PeerAddr::new(ip, 4662)],
        };
        assert_eq!(script.writes[1], encode_client_server_message(&found), "offered once");
        let idx = lock(&index);
        assert!(idx.providers.is_empty() && idx.users == 0, "all withdrawn on disconnect");
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
}
