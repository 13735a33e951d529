//! Runs a [`honeypot::Honeypot`] state machine over real TCP sockets.
//!
//! The host owns two socket roles:
//!
//! * a **client connection** to the eDonkey server (login, OFFER-FILES,
//!   keep-alives) with a dedicated writer fed by an mpsc channel, so
//!   peer-connection threads can publish greedy adoptions without sharing
//!   the socket;
//! * a **listener** for incoming peer connections; each accepted peer gets
//!   a thread that decodes frames, drives the shared honeypot state
//!   machine, and encodes its lent replies straight into the write buffer —
//!   all replies of one message in one `write`, SENDING-PART content
//!   streamed one block at a time without the honeypot held.  Server and
//!   status traffic is sent only after the honeypot lock is released.
//!
//! Time is wall-clock milliseconds since host start, mapped onto
//! [`netsim::SimTime`] so the log schema is identical to the simulation's.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use edonkey_proto::parts::BLOCK_SIZE;
use edonkey_proto::{ClientServerMessage, Ipv4, PartRange, PeerMessage};
use honeypot::honeypot::offer_message;
use honeypot::{
    ActionSink, AdvertisedFile, ConnId, Honeypot, HoneypotStatus, LogChunk, StatusReport,
};
use netsim::sync::lock;
use netsim::SimTime;

use crate::accept::{accept_until, remote_ipv4, wake_accept};
use crate::framing::{FramedStream, NetError};

/// What the host's threads share.
struct Shared {
    honeypot: Mutex<Honeypot>,
    /// Signalled whenever the server session may have changed the
    /// honeypot's status.
    status_changed: Condvar,
    status: Mutex<Vec<StatusReport>>,
    started: Instant,
    /// Live peer connections.  A peer thread removes its own entry when it
    /// ends.
    peers: Mutex<HashMap<ConnId, LivePeer>>,
    /// Set first thing by [`HoneypotHost::stop`]: ends the accept loop, and
    /// lets the server-session reader tell a deliberate kill from the
    /// server dropping us.
    stopping: AtomicBool,
}

/// What [`HoneypotHost::stop`] needs to end one peer connection.
struct LivePeer {
    /// Shared with the serving thread; shutting it down fails its read.
    stream: Arc<TcpStream>,
    thread: JoinHandle<()>,
}

impl Shared {
    fn new(honeypot: Honeypot) -> Self {
        Shared {
            honeypot: Mutex::new(honeypot),
            status_changed: Condvar::new(),
            status: Mutex::new(Vec::new()),
            started: Instant::now(),
            peers: Mutex::new(HashMap::new()),
            stopping: AtomicBool::new(false),
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_millis(self.started.elapsed().as_millis() as u64)
    }
}

/// A honeypot running over TCP.
pub struct HoneypotHost {
    shared: Arc<Shared>,
    peer_addr: SocketAddr,
    accept_thread: Option<JoinHandle<()>>,
    server_reader: Option<JoinHandle<()>>,
    server_writer: Option<JoinHandle<()>>,
    to_server: Sender<ClientServerMessage>,
    /// A clone of the server-session stream, kept to force-shutdown the
    /// reader thread on stop.
    server_stream: TcpStream,
}

impl HoneypotHost {
    /// Connects `honeypot` to the server at `server_addr` and starts
    /// listening for peers on an ephemeral loopback port.
    pub fn start(mut honeypot: Honeypot, server_addr: SocketAddr) -> Result<Self, NetError> {
        // Peer listener first: its port is announced in the login.
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let peer_addr = listener.local_addr()?;

        let mut server_framed = FramedStream::new(TcpStream::connect(server_addr)?);
        let mut server_out = FramedStream::new(server_framed.try_clone_stream()?);
        let shutdown_stream = server_framed.try_clone_stream()?;

        let (to_server, from_host) = channel::<ClientServerMessage>();

        // Kick off the login handshake.
        let mut login = Outbox::default();
        honeypot.connect(SimTime::ZERO, &mut login);
        let shared = Arc::new(Shared::new(honeypot));
        login.send(&to_server, &shared.status);

        // Server writer: drains the channel onto the socket, everything
        // queued at the moment it wakes in one write.
        let server_writer = std::thread::spawn(move || {
            while let Ok(first) = from_host.recv() {
                for msg in std::iter::once(first).chain(from_host.try_iter()) {
                    // Patch the announced port into the login so peers can
                    // find the real listener.
                    let msg = match msg {
                        ClientServerMessage::LoginRequest { user_id, client_id, tags, .. } => {
                            ClientServerMessage::LoginRequest {
                                user_id,
                                client_id,
                                port: peer_addr.port(),
                                tags,
                            }
                        }
                        other => other,
                    };
                    server_out.queue_server_message(&msg);
                }
                if server_out.flush().is_err() {
                    break;
                }
            }
        });

        // Server reader: feeds server messages into the state machine. When
        // the session dies and we are *not* stopping, that is the server
        // dropping us mid-session: report it as a clean disconnect instead
        // of silently parking the host, so a supervisor can distinguish
        // crash from kill.
        let reader_shared = shared.clone();
        let reader_sender = to_server.clone();
        let server_reader = std::thread::spawn(move || {
            let shared = reader_shared;
            while let Ok(msg) = server_framed.read_server_message(true) {
                let mut out = Outbox::default();
                lock(&shared.honeypot).on_server_message(shared.now(), &msg, &mut out);
                shared.status_changed.notify_all();
                out.send(&reader_sender, &shared.status);
            }
            if !shared.stopping.load(Ordering::SeqCst) {
                let mut out = Outbox::default();
                lock(&shared.honeypot).on_disconnected(shared.now(), &mut out);
                out.send(&reader_sender, &shared.status);
            }
        });

        // Peer accept loop.
        let accept_shared = shared.clone();
        let accept_sender = to_server.clone();
        let mut next_conn = 0;
        let accept_thread = std::thread::spawn(move || {
            accept_until(&listener, &accept_shared.stopping, |stream| {
                let stream = Arc::new(stream);
                next_conn += 1;
                let conn = ConnId(next_conn);
                let shared = accept_shared.clone();
                let sender = accept_sender.clone();
                let peer_stream = stream.clone();
                // The registry is held across the spawn, so the thread's own
                // removal cannot come before the insertion.
                let mut peers = lock(&accept_shared.peers);
                let thread = std::thread::spawn(move || {
                    if let Ok(src_ip) = remote_ipv4(&peer_stream) {
                        let _ = serve_peer(&*peer_stream, src_ip, conn, &shared, &sender);
                    }
                    lock(&shared.honeypot).on_peer_disconnected(conn);
                    lock(&shared.peers).remove(&conn);
                });
                peers.insert(conn, LivePeer { stream, thread });
            });
        });

        Ok(HoneypotHost {
            shared,
            peer_addr,
            accept_thread: Some(accept_thread),
            server_reader: Some(server_reader),
            server_writer: Some(server_writer),
            to_server,
            server_stream: shutdown_stream,
        })
    }

    /// The address peers connect to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer_addr
    }

    /// Milliseconds since host start, as the log's time base.
    pub fn now(&self) -> SimTime {
        self.shared.now()
    }

    /// Waits until the honeypot reports Connected (the login round trip
    /// completed), up to `timeout`.
    pub fn wait_connected(&self, timeout: Duration) -> bool {
        let connected = |hp: &Honeypot| matches!(hp.status(), HoneypotStatus::Connected { .. });
        let (hp, _) = self
            .shared
            .status_changed
            .wait_timeout_while(lock(&self.shared.honeypot), timeout, |hp| !connected(hp))
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        connected(&hp)
    }

    /// Sends a keep-alive OFFER-FILES now.
    pub fn keepalive(&self) {
        let now = self.now();
        let mut out = Outbox::default();
        lock(&self.shared.honeypot).keepalive(now, &mut out);
        out.send(&self.to_server, &self.shared.status);
    }

    /// Collects the honeypot's buffered log.
    pub fn collect_log(&self) -> LogChunk {
        lock(&self.shared.honeypot).collect_log()
    }

    /// Collects the buffered log only if it holds a record or a shared
    /// list.  A chunk's tables carry what was interned since the previous
    /// *cut*, so a periodic uploader that skips empty collections must not
    /// cut them in the first place — this is its entry point.
    pub fn collect_pending_log(&self) -> Option<LogChunk> {
        let mut hp = lock(&self.shared.honeypot);
        hp.log().has_pending().then(|| hp.collect_log())
    }

    /// Status reports seen so far.
    pub fn status_reports(&self) -> Vec<StatusReport> {
        lock(&self.shared.status).clone()
    }

    /// Currently connected peer count.
    pub fn live_peers(&self) -> u64 {
        lock(&self.shared.peers).len() as u64
    }

    /// Stops the host: closes the listener, ends and joins every live peer
    /// connection, tears down the server session, joins the service threads
    /// and only then cuts the final log chunk — so it holds every record
    /// the host ever logged, and `live_peers()` is 0 on return.
    pub fn stop(mut self) -> LogChunk {
        self.shared.stopping.store(true, Ordering::SeqCst);
        wake_accept(self.peer_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // No new peer can arrive.  Shut the live ones down (their blocking
        // reads fail) and join them outside the registry lock, which an
        // ending peer thread takes to remove itself.
        let live: Vec<_> = lock(&self.shared.peers).drain().map(|(_, peer)| peer).collect();
        for peer in &live {
            let _ = peer.stream.shutdown(Shutdown::Both);
        }
        for peer in live {
            let _ = peer.thread.join();
        }
        // Kill the server session: the reader's blocking read fails and the
        // thread exits, dropping its channel sender.
        let _ = self.server_stream.shutdown(Shutdown::Both);
        if let Some(t) = self.server_reader.take() {
            let _ = t.join();
        }
        // Drop our own sender; once every clone is gone the writer's recv
        // fails and it exits too.
        let (dummy, _) = channel();
        self.to_server = dummy;
        if let Some(t) = self.server_writer.take() {
            let _ = t.join();
        }
        self.collect_log()
    }
}

/// The server and status traffic of one honeypot call, held until the
/// honeypot lock is released and then sent by [`Outbox::send`].
#[derive(Default)]
struct Outbox {
    server: Vec<ClientServerMessage>,
    reports: Vec<StatusReport>,
}

impl Outbox {
    fn send(self, to_server: &Sender<ClientServerMessage>, status: &Mutex<Vec<StatusReport>>) {
        for msg in self.server {
            let _ = to_server.send(msg);
        }
        if !self.reports.is_empty() {
            lock(status).extend(self.reports);
        }
    }
}

impl ActionSink for Outbox {
    fn reply(&mut self, _msg: &PeerMessage) {
        // Only peer messages draw replies, and those go through `PeerSink`.
    }

    fn send_server(&mut self, msg: ClientServerMessage) {
        self.server.push(msg);
    }

    fn offer(&mut self, files: &[AdvertisedFile]) {
        self.server.push(offer_message(files));
    }

    fn report(&mut self, report: StatusReport) {
        self.reports.push(report);
    }
}

/// A peer connection's sink: replies are encoded straight into its write
/// buffer, everything else waits in the outbox.
struct PeerSink<'a, S> {
    framed: &'a mut FramedStream<S>,
    outbox: Outbox,
}

impl<S: Read + Write> ActionSink for PeerSink<'_, S> {
    fn reply(&mut self, msg: &PeerMessage) {
        self.framed.queue_peer_message(msg);
    }

    fn send_server(&mut self, msg: ClientServerMessage) {
        self.outbox.send_server(msg);
    }

    fn offer(&mut self, files: &[AdvertisedFile]) {
        self.outbox.offer(files);
    }

    fn report(&mut self, report: StatusReport) {
        self.outbox.report(report);
    }
}

fn serve_peer(
    stream: impl Read + Write,
    src_ip: Ipv4,
    conn: ConnId,
    shared: &Shared,
    to_server: &Sender<ClientServerMessage>,
) -> Result<(), NetError> {
    let mut framed = FramedStream::over(stream);
    loop {
        let msg = match framed.read_peer_message() {
            Ok(m) => m,
            Err(NetError::Closed) => return Ok(()),
            Err(e) => return Err(e),
        };
        let now = shared.now();
        if let PeerMessage::RequestParts { file_id, ranges } = &msg {
            // The honeypot only logs the request and hands out a content
            // generator; the blocks are produced here, straight into the
            // write buffer, one in flight at a time.
            let content = lock(&shared.honeypot).on_request_parts(now, conn, file_id);
            let Some(mut content) = content else { continue };
            for range in ranges {
                for start in (range.start..range.end).step_by(BLOCK_SIZE as usize) {
                    let end = range.end.min(start.saturating_add(BLOCK_SIZE as u32));
                    framed.queue_sending_part(file_id, PartRange::new(start, end), |block| {
                        content.fill_bytes(block)
                    });
                    framed.flush()?;
                }
            }
            continue;
        }
        let mut out = PeerSink { framed: &mut framed, outbox: Outbox::default() };
        lock(&shared.honeypot).on_peer_message(now, conn, src_ip, &msg, &mut out);
        out.outbox.send(to_server, &shared.status);
        framed.flush()?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::testing::{unhex, Script};
    use crate::NetServer;
    use edonkey_proto::codec::{decode_frame, encode_peer_message};
    use edonkey_proto::tags::{special, Tag};
    use edonkey_proto::{ClientId, FileId, UserId};
    use honeypot::{
        AdvertisedFile, ContentStrategy, HoneypotConfig, HoneypotId, IpHasher, QueryKind,
        ServerInfo,
    };
    use netsim::Rng;

    /// HELLO-ANSWER + ASK-SHARED-FILES as the parent build (one `write` per
    /// message) put them on the wire for `fixture_honeypot`.
    const HELLO_STEP: &str = "e3310000004cc7232063d3cdb74443adeba6e2e3bf7d7f000001361202000000\
         020100010800636c69656e742d30030100113c000000e3010000004e";

    fn fixture_file() -> FileId {
        FileId::from_seed(b"fixture-file")
    }

    fn fixture_honeypot(server_port: u16) -> Honeypot {
        let config = HoneypotConfig::fixed(
            HoneypotId(0),
            ContentStrategy::RandomContent,
            vec![AdvertisedFile::new(fixture_file(), "fixture file.avi", 1 << 20)],
        );
        Honeypot::new(
            config,
            ServerInfo::new("fixture", Ipv4::new(127, 0, 0, 1), server_port),
            IpHasher::from_seed(1),
            Rng::seed_from(2),
        )
    }

    fn hello() -> PeerMessage {
        PeerMessage::Hello {
            user_id: UserId::from_seed(b"fixture-peer"),
            client_id: ClientId(0x0100_007F),
            port: 4662,
            tags: vec![
                Tag::string(special::NAME, "fixture-peer"),
                Tag::u32(special::VERSION, 0x49),
            ],
        }
    }

    #[test]
    fn each_protocol_step_is_one_write_of_the_parents_bytes() {
        let mut honeypot = fixture_honeypot(4661);
        honeypot.connect(SimTime::ZERO, &mut Outbox::default());
        honeypot.on_server_message(
            SimTime::ZERO,
            &ClientServerMessage::IdChange { client_id: ClientId(0x0100_007F) },
            &mut Outbox::default(),
        );
        let shared = Shared::new(honeypot);
        let (to_server, _from_host) = channel();
        let block = BLOCK_SIZE as u32;
        let ranges = [0, 1, 2].map(|i| PartRange::new(i * block, (i + 1) * block));
        let mut script = Script::new(
            [
                hello(),
                PeerMessage::StartUpload { file_id: fixture_file() },
                PeerMessage::RequestParts { file_id: fixture_file(), ranges },
            ]
            .iter()
            .map(encode_peer_message),
        );
        serve_peer(&mut script, Ipv4::new(127, 0, 0, 1), ConnId(1), &shared, &to_server).unwrap();

        assert_eq!(script.writes.len(), 5, "HELLO step, START-UPLOAD step, three blocks");
        assert_eq!(script.writes[0], unhex(HELLO_STEP));
        assert_eq!(script.writes[1], encode_peer_message(&PeerMessage::AcceptUpload));
        for (written, range) in script.writes[2..].iter().zip(ranges) {
            let (raw, used) = decode_frame(written).unwrap();
            assert_eq!(used, written.len(), "one frame per write");
            let part = PeerMessage::decode_payload(raw.opcode, &raw.payload).unwrap();
            let PeerMessage::SendingPart { file_id, start, end, data } = &part else {
                panic!("expected SENDING-PART, got {part:?}")
            };
            assert_eq!((*file_id, *start, *end), (fixture_file(), range.start, range.end));
            assert!(data.iter().any(|&b| b != 0), "content is materialised");
            assert_eq!(*written, encode_peer_message(&part));
        }
        let kinds: Vec<_> =
            lock(&shared.honeypot).collect_log().records.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, [QueryKind::Hello, QueryKind::StartUpload, QueryKind::RequestPart]);
    }

    #[test]
    fn stop_ends_live_peers_before_the_final_cut() {
        let server = NetServer::start().unwrap();
        let host =
            HoneypotHost::start(fixture_honeypot(server.addr().port()), server.addr()).unwrap();
        assert!(host.wait_connected(Duration::from_secs(5)));

        // A peer mid-session: HELLO answered, connection held open.
        let mut peer = FramedStream::new(TcpStream::connect(host.peer_addr()).unwrap());
        peer.write_peer_message(&hello()).unwrap();
        assert!(matches!(peer.read_peer_message().unwrap(), PeerMessage::HelloAnswer { .. }));
        assert_eq!(peer.read_peer_message().unwrap(), PeerMessage::AskSharedFiles);
        assert_eq!(host.live_peers(), 1);

        let shared = host.shared.clone();
        let chunk = host.stop();
        assert_eq!(chunk.records.len(), 1, "the HELLO is in the final chunk");
        assert!(lock(&shared.peers).is_empty(), "no live peer outlives stop");
        assert_eq!(lock(&shared.honeypot).live_sessions(), 0, "its thread ran to the end");
        // Nothing can be logged behind the cut: the session is over for the
        // peer too, where it used to go on being served into a log nobody
        // would collect.
        let _ = peer.write_peer_message(&PeerMessage::StartUpload { file_id: fixture_file() });
        assert!(peer.read_peer_message().is_err());
        assert!(!lock(&shared.honeypot).log().has_pending());
        server.stop();
    }
}
