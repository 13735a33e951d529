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
//!   machine, and writes back the `Reply` actions.
//!
//! Time is wall-clock milliseconds since host start, mapped onto
//! [`netsim::SimTime`] so the log schema is identical to the simulation's.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use edonkey_proto::{ClientServerMessage, Ipv4};
use honeypot::{Action, ConnId, Honeypot, LogChunk, StatusReport};
use netsim::sync::lock;
use netsim::SimTime;

use crate::framing::{write_server_message_to, FramedStream, NetError};

/// A honeypot running over TCP.
pub struct HoneypotHost {
    honeypot: Arc<Mutex<Honeypot>>,
    peer_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    /// Set by [`stop`] before it tears down the server session, so the
    /// reader thread can tell a deliberate kill from the server dropping us.
    stopping: Arc<AtomicBool>,
    /// Latched by the reader thread when the server session dies while the
    /// host was *not* stopping.
    session_lost: Arc<AtomicBool>,
    started: Instant,
    accept_thread: Option<JoinHandle<()>>,
    server_reader: Option<JoinHandle<()>>,
    server_writer: Option<JoinHandle<()>>,
    to_server: Sender<ClientServerMessage>,
    /// A clone of the server-session stream, kept to force-shutdown the
    /// reader thread on stop.
    server_stream: TcpStream,
    status: Arc<Mutex<Vec<StatusReport>>>,
    live_peers: Arc<AtomicU64>,
}

impl HoneypotHost {
    /// Connects `honeypot` to the server at `server_addr` and starts
    /// listening for peers on an ephemeral loopback port.
    pub fn start(mut honeypot: Honeypot, server_addr: SocketAddr) -> Result<Self, NetError> {
        let started = Instant::now();
        let now = SimTime::ZERO;

        // Peer listener first: its port is announced in the login.
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let peer_addr = listener.local_addr()?;

        let server_stream = TcpStream::connect(server_addr)?;
        let mut server_framed = FramedStream::new(server_stream);
        let mut writer_stream = server_framed.try_clone_stream()?;
        let shutdown_stream = server_framed.try_clone_stream()?;

        let (to_server, from_host) = channel::<ClientServerMessage>();
        let status: Arc<Mutex<Vec<StatusReport>>> = Arc::new(Mutex::new(Vec::new()));

        // Kick off the login handshake.
        let connect_actions = honeypot.connect(now);
        let honeypot = Arc::new(Mutex::new(honeypot));
        route_actions(connect_actions, &to_server, &status);

        // Server writer: drains the channel onto the socket.
        let server_writer = std::thread::spawn(move || {
            while let Ok(msg) = from_host.recv() {
                // Patch the announced port into the login so peers can find
                // the real listener.
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
                if write_server_message_to(&mut writer_stream, &msg).is_err() {
                    break;
                }
            }
        });

        // Server reader: feeds server messages into the state machine. When
        // the session dies and we are *not* stopping, that is the server
        // dropping us mid-session: report it as a clean disconnect instead
        // of silently parking the host, so a supervisor can distinguish
        // crash from kill.
        let stopping = Arc::new(AtomicBool::new(false));
        let session_lost = Arc::new(AtomicBool::new(false));
        let reader_honeypot = honeypot.clone();
        let reader_sender = to_server.clone();
        let reader_status = status.clone();
        let reader_started = started;
        let reader_stopping = stopping.clone();
        let reader_lost = session_lost.clone();
        let server_reader = std::thread::spawn(move || {
            while let Ok(msg) = server_framed.read_server_message(true) {
                let now = SimTime::from_millis(reader_started.elapsed().as_millis() as u64);
                let actions = lock(&reader_honeypot).on_server_message(now, &msg);
                route_actions(actions, &reader_sender, &reader_status);
            }
            if !reader_stopping.load(Ordering::SeqCst) {
                reader_lost.store(true, Ordering::SeqCst);
                let now = SimTime::from_millis(reader_started.elapsed().as_millis() as u64);
                let actions = lock(&reader_honeypot).on_disconnected(now);
                route_actions(actions, &reader_sender, &reader_status);
            }
        });

        // Peer accept loop.
        let shutdown = Arc::new(AtomicBool::new(false));
        let live_peers = Arc::new(AtomicU64::new(0));
        let accept_shutdown = shutdown.clone();
        let accept_honeypot = honeypot.clone();
        let accept_sender = to_server.clone();
        let accept_status = status.clone();
        let accept_live = live_peers.clone();
        let next_conn = AtomicU64::new(1);
        let accept_thread = std::thread::spawn(move || {
            // Transient accept errors (EMFILE/ENFILE when peers flood in,
            // ECONNABORTED, EINTR) must not kill the listener: back off and
            // retry, escalating while the condition persists and resetting
            // on the next successful accept.
            let mut accept_errors: u32 = 0;
            for conn in listener.incoming() {
                if accept_shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match conn {
                    Ok(s) => {
                        accept_errors = 0;
                        s
                    }
                    Err(_) => {
                        accept_errors = accept_errors.saturating_add(1);
                        let pause = (5u64 << accept_errors.min(6)).min(250);
                        std::thread::sleep(std::time::Duration::from_millis(pause));
                        continue;
                    }
                };
                let conn_id = ConnId(next_conn.fetch_add(1, Ordering::Relaxed));
                let hp = accept_honeypot.clone();
                let sender = accept_sender.clone();
                let status = accept_status.clone();
                let live = accept_live.clone();
                live.fetch_add(1, Ordering::Relaxed);
                std::thread::spawn(move || {
                    let _ = serve_peer(stream, conn_id, &hp, &sender, &status, started);
                    lock(&hp).on_peer_disconnected(conn_id);
                    live.fetch_sub(1, Ordering::Relaxed);
                });
            }
        });

        Ok(HoneypotHost {
            honeypot,
            peer_addr,
            shutdown,
            stopping,
            session_lost,
            started,
            accept_thread: Some(accept_thread),
            server_reader: Some(server_reader),
            server_writer: Some(server_writer),
            to_server,
            server_stream: shutdown_stream,
            status,
            live_peers,
        })
    }

    /// The address peers connect to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer_addr
    }

    /// Milliseconds since host start, as the log's time base.
    pub fn now(&self) -> SimTime {
        SimTime::from_millis(self.started.elapsed().as_millis() as u64)
    }

    /// Waits until the honeypot reports Connected (the login round trip
    /// completed), up to `timeout`.
    pub fn wait_connected(&self, timeout: std::time::Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if matches!(lock(&self.honeypot).status(), honeypot::HoneypotStatus::Connected { .. }) {
                return true;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        false
    }

    /// Sends a keep-alive OFFER-FILES now.
    pub fn keepalive(&self) {
        let now = self.now();
        let actions = lock(&self.honeypot).keepalive(now);
        route_actions(actions, &self.to_server, &self.status);
    }

    /// Collects the honeypot's buffered log.
    pub fn collect_log(&self) -> LogChunk {
        lock(&self.honeypot).collect_log()
    }

    /// Collects the buffered log only if it holds a record or a shared
    /// list.  A chunk's tables carry what was interned since the previous
    /// *cut*, so a periodic uploader that skips empty collections must not
    /// cut them in the first place — this is its entry point.
    pub fn collect_pending_log(&self) -> Option<LogChunk> {
        let mut hp = lock(&self.honeypot);
        hp.log().has_pending().then(|| hp.collect_log())
    }

    /// Status reports seen so far.
    pub fn status_reports(&self) -> Vec<StatusReport> {
        lock(&self.status).clone()
    }

    /// Currently connected peer count.
    pub fn live_peers(&self) -> u64 {
        self.live_peers.load(Ordering::Relaxed)
    }

    /// True if the server session died while the host was *not* being
    /// stopped (the server crashed or dropped us mid-session). The honeypot
    /// has already been transitioned to `Disconnected` and a status report
    /// pushed, so a supervisor can relaunch rather than hang.
    pub fn server_session_lost(&self) -> bool {
        self.session_lost.load(Ordering::SeqCst)
    }

    /// Stops the host: collects the final log chunk, closes the listener,
    /// tears down the server session and joins the service threads.
    pub fn stop(mut self) -> LogChunk {
        let chunk = self.collect_log();
        self.stopping.store(true, Ordering::SeqCst);
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throw-away connection, then join
        // the accept loop (its per-peer threads exit when their peers
        // disconnect).
        let _ = TcpStream::connect(self.peer_addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        // Kill the server session: the reader's blocking read fails and the
        // thread exits, dropping its channel sender.
        let _ = self.server_stream.shutdown(std::net::Shutdown::Both);
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
        chunk
    }
}

fn route_actions(
    actions: Vec<Action>,
    to_server: &Sender<ClientServerMessage>,
    status: &Mutex<Vec<StatusReport>>,
) {
    for a in actions {
        match a {
            Action::SendServer(msg) => {
                let _ = to_server.send(msg);
            }
            Action::Report(r) => lock(status).push(r),
            Action::Reply(_) => {
                debug_assert!(false, "replies are handled by the peer thread");
            }
        }
    }
}

fn serve_peer(
    stream: TcpStream,
    conn: ConnId,
    honeypot: &Mutex<Honeypot>,
    to_server: &Sender<ClientServerMessage>,
    status: &Mutex<Vec<StatusReport>>,
    started: Instant,
) -> Result<(), NetError> {
    let src_ip = match stream.peer_addr()?.ip() {
        std::net::IpAddr::V4(v4) => Ipv4::from(v4),
        std::net::IpAddr::V6(_) => Ipv4::new(127, 0, 0, 1),
    };
    let mut framed = FramedStream::new(stream);
    loop {
        let msg = match framed.read_peer_message() {
            Ok(m) => m,
            Err(NetError::Closed) => return Ok(()),
            Err(e) => return Err(e),
        };
        let now = SimTime::from_millis(started.elapsed().as_millis() as u64);
        let actions = lock(honeypot).on_peer_message(now, conn, src_ip, &msg);
        for a in actions {
            match a {
                Action::Reply(reply) => framed.write_peer_message(&reply)?,
                Action::SendServer(m) => {
                    let _ = to_server.send(m);
                }
                Action::Report(r) => lock(status).push(r),
            }
        }
    }
}
