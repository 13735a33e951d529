//! The honeypot peer: a fake eDonkey client that advertises files, logs the
//! queries it receives, and answers (or not) according to its content
//! strategy — the modified-aMule client of paper §III-B, reimplemented as a
//! transport-agnostic state machine.
//!
//! The honeypot never touches a socket or the simulator directly: every
//! entry point takes what arrived and writes what the host (the
//! discrete-event world, or the real-TCP adapter in `edonkey-net`) must do
//! into a caller-owned [`ActionSink`].  Replies are lent, not handed over:
//! the HELLO-ANSWER is built once per server session and SENDING-PART lives
//! on the stack, so a host that only inspects or encodes them allocates
//! nothing per message.  One honeypot implementation therefore runs
//! identically in simulation and over the network.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use edonkey_proto::tags::{self, special, Tag};
use edonkey_proto::{ClientId, ClientServerMessage, FileId, Ipv4, PeerMessage, UserId};
use netsim::{Rng, SimTime};

use crate::anonymize::IpHasher;
use crate::log::{FileIdx, HoneypotLog, QueryKind, QueryRecord, FILE_NONE};
use crate::strategy::{AdvertisedFile, ContentStrategy, FileStrategy};
use crate::types::{HoneypotId, HoneypotStatus, IdStatus, ServerInfo, StatusReport};

/// Opaque identifier of one peer connection, assigned by the host
/// transport.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ConnId(pub u64);

/// Where the honeypot's entry points write what the host must do on its
/// behalf.  Every call happens inside the entry point, in the order the
/// honeypot acts.
pub trait ActionSink {
    /// Send `msg` back on the connection the triggering message arrived on.
    /// It is lent: a host that keeps it must clone it.
    fn reply(&mut self, msg: &PeerMessage);
    /// Send `msg` to the honeypot's server.
    fn send_server(&mut self, msg: ClientServerMessage);
    /// Publish `files` to the server as one OFFER-FILES.  `files` is always
    /// a run of the honeypot's append-only shared list: the whole list (at
    /// ID-CHANGE and keep-alive) or its newly adopted tail.
    fn offer(&mut self, files: &[AdvertisedFile]);
    /// Report status to the manager.
    fn report(&mut self, report: StatusReport);
}

/// What the host must do on the honeypot's behalf, as a value: the
/// `Vec<Action>` sink records every call, cloning lent replies and
/// building each offer as the OFFER-FILES the wire carries.
#[derive(Clone, PartialEq, Debug)]
pub enum Action {
    /// Send a message back on the connection the triggering message arrived
    /// on.
    Reply(PeerMessage),
    /// Send a message to the honeypot's server.
    SendServer(ClientServerMessage),
    /// Report status to the manager.
    Report(StatusReport),
}

impl ActionSink for Vec<Action> {
    fn reply(&mut self, msg: &PeerMessage) {
        self.push(Action::Reply(msg.clone()));
    }

    fn send_server(&mut self, msg: ClientServerMessage) {
        self.push(Action::SendServer(msg));
    }

    fn offer(&mut self, files: &[AdvertisedFile]) {
        self.push(Action::SendServer(offer_message(files)));
    }

    fn report(&mut self, report: StatusReport) {
        self.push(Action::Report(report));
    }
}

/// The OFFER-FILES message publishing `files` to the server.
pub fn offer_message(files: &[AdvertisedFile]) -> ClientServerMessage {
    ClientServerMessage::OfferFiles {
        files: files
            .iter()
            .map(|f| edonkey_proto::PublishedFile::new(f.id, &f.name, f.size))
            .collect(),
    }
}

/// The HELLO-ANSWER of a honeypot whose server session granted `client_id`.
fn hello_answer(user_id: UserId, config: &HoneypotConfig, client_id: ClientId) -> PeerMessage {
    PeerMessage::HelloAnswer {
        user_id,
        client_id,
        port: config.port,
        tags: vec![
            Tag::string(special::NAME, config.client_name.clone()),
            Tag::u32(special::VERSION, 0x3c),
        ],
    }
}

/// Static configuration of one honeypot.
#[derive(Clone, Debug)]
pub struct HoneypotConfig {
    pub id: HoneypotId,
    pub content: ContentStrategy,
    pub files: FileStrategy,
    /// Ask every contacting peer for its shared-file list (always on for
    /// the greedy measurement; on in the distributed one too, since the
    /// paper's Table I reports distinct files for both).
    pub ask_shared_files: bool,
    /// Generate actual random bytes in SENDING-PART replies.  On for the
    /// TCP substrate; off in simulation, where block payloads would only
    /// burn memory (peers there model corruption detection statistically).
    pub materialize_content: bool,
    /// TCP port advertised in HELLO-ANSWER.
    pub port: u16,
    /// Client name shown to peers.
    pub client_name: String,
}

impl HoneypotConfig {
    /// A baseline configuration advertising a fixed file list.
    pub fn fixed(id: HoneypotId, content: ContentStrategy, files: Vec<AdvertisedFile>) -> Self {
        HoneypotConfig {
            id,
            content,
            files: FileStrategy::Fixed(files),
            ask_shared_files: true,
            materialize_content: false,
            port: 4662,
            client_name: format!("client-{}", id.0),
        }
    }
}

/// Per-connection session state (metadata captured from HELLO, used to
/// annotate subsequent log records on the same connection).
#[derive(Clone, Debug)]
struct PeerSession {
    ip_hash: crate::anonymize::IpHash,
    port: u16,
    id_status: IdStatus,
    user_id: UserId,
    name_idx: u32,
    version: u32,
}

/// An advertised file: its position in the shared list and its index in
/// the file table of log period `period`.
#[derive(Clone, Copy, Debug)]
struct Listed {
    pos: u32,
    file: FileIdx,
    period: u32,
}

/// The honeypot state machine.
pub struct Honeypot {
    config: HoneypotConfig,
    user_id: UserId,
    ip_hasher: IpHasher,
    rng: Rng,
    log: HoneypotLog,
    shared: Vec<AdvertisedFile>,
    shared_ids: HashMap<FileId, Listed>,
    sessions: HashMap<ConnId, PeerSession>,
    status: HoneypotStatus,
    server: ServerInfo,
    /// The HELLO-ANSWER every HELLO is answered with, rebuilt at each
    /// ID-CHANGE (it carries the granted client ID).
    hello_answer: PeerMessage,
}

impl Honeypot {
    /// Creates a honeypot bound (but not yet connected) to `server`.
    ///
    /// `ip_hasher` must be shared by all honeypots of the measurement so
    /// step-1 anonymisation stays coherent (see [`crate::anonymize`]).
    pub fn new(config: HoneypotConfig, server: ServerInfo, ip_hasher: IpHasher, rng: Rng) -> Self {
        let user_id = UserId::from_seed(format!("honeypot-{}", config.id.0).as_bytes());
        let mut hp = Honeypot {
            hello_answer: hello_answer(user_id, &config, ClientId(0)),
            user_id,
            log: HoneypotLog::new(config.id, server.clone()),
            shared: Vec::new(),
            shared_ids: HashMap::new(),
            sessions: HashMap::new(),
            status: HoneypotStatus::Pending,
            server,
            ip_hasher,
            rng,
            config,
        };
        for f in hp.config.files.initial_files().to_vec() {
            if !hp.shared_full() {
                let file = hp.log.files.intern(f.id, &f.name, f.size);
                hp.add_shared(f.id, &f.name, f.size, file);
            }
        }
        hp
    }

    fn shared_full(&self) -> bool {
        self.shared.len() >= self.config.files.max_files()
    }

    /// Appends a file, interned in the current log period as `file`, to
    /// the shared list unless it is listed already or the list is full.
    fn add_shared(&mut self, id: FileId, name: &str, size: u64, file: FileIdx) {
        if self.shared_full() {
            return;
        }
        let pos = self.shared.len() as u32;
        if let Entry::Vacant(e) = self.shared_ids.entry(id) {
            e.insert(Listed { pos, file, period: self.log.period() });
            self.shared.push(AdvertisedFile::new(id, name, size));
        }
    }

    /// The log index of `id`: an advertised file's comes from the shared
    /// list (re-interned with its advertised name and size on its first
    /// use in a new period), any other file is interned bare.
    fn file_index(
        shared_ids: &mut HashMap<FileId, Listed>,
        shared: &[AdvertisedFile],
        log: &mut HoneypotLog,
        id: FileId,
    ) -> FileIdx {
        let Some(listed) = shared_ids.get_mut(&id) else {
            return log.files.intern(id, "", 0);
        };
        if listed.period != log.period() {
            let f = &shared[listed.pos as usize];
            listed.file = log.files.intern(id, &f.name, f.size);
            listed.period = log.period();
        }
        listed.file
    }

    /// The currently advertised files.
    pub fn shared_files(&self) -> &[AdvertisedFile] {
        &self.shared
    }

    /// Whether this honeypot advertises `id`.
    pub fn advertises(&self, id: &FileId) -> bool {
        self.shared_ids.contains_key(id)
    }

    pub fn id(&self) -> HoneypotId {
        self.config.id
    }

    pub fn content_strategy(&self) -> ContentStrategy {
        self.config.content
    }

    pub fn status(&self) -> HoneypotStatus {
        self.status
    }

    pub fn server(&self) -> &ServerInfo {
        &self.server
    }

    /// Read access to the in-progress log (tests, live monitoring).
    pub fn log(&self) -> &HoneypotLog {
        &self.log
    }

    /// Hands the buffered log data to the manager (periodic collection).
    pub fn collect_log(&mut self) -> crate::log::LogChunk {
        self.log.take_chunk()
    }

    /// Reports the current status to the manager.
    fn report_status(&self, now: SimTime, out: &mut impl ActionSink) {
        out.report(StatusReport { honeypot: self.config.id, at: now, status: self.status });
    }

    /// Begins a (re)connection to the server: sends the LOGIN-REQUEST the
    /// host must deliver.
    pub fn connect(&mut self, now: SimTime, out: &mut impl ActionSink) {
        self.status = HoneypotStatus::Disconnected;
        self.sessions.clear();
        let login = ClientServerMessage::LoginRequest {
            user_id: self.user_id,
            client_id: ClientId(0),
            port: self.config.port,
            tags: vec![
                Tag::string(special::NAME, self.config.client_name.clone()),
                Tag::u32(special::VERSION, 0x3c),
                Tag::u32(special::PORT, u32::from(self.config.port)),
            ],
        };
        let _ = now;
        out.send_server(login);
    }

    /// Handles a message from the server.
    pub fn on_server_message(
        &mut self,
        now: SimTime,
        msg: &ClientServerMessage,
        out: &mut impl ActionSink,
    ) {
        match msg {
            ClientServerMessage::IdChange { client_id } => {
                self.status = HoneypotStatus::Connected { client_id: *client_id };
                self.hello_answer = hello_answer(self.user_id, &self.config, *client_id);
                // Advertise immediately after the session is granted
                // (paper §III-B, "File display").
                out.offer(&self.shared);
                self.report_status(now, out);
            }
            ClientServerMessage::ServerMessage { .. }
            | ClientServerMessage::ServerStatus { .. }
            | ClientServerMessage::FoundSources { .. } => {}
            // Client→server messages arriving here indicate a host bug.
            other => {
                debug_assert!(false, "honeypot received client-side message {other:?}");
            }
        }
    }

    /// Periodic keep-alive: re-offers the shared list so the server keeps
    /// listing the honeypot as a provider.  The list is lent whole; the
    /// server skips what this session already offered.
    pub fn keepalive(&mut self, _now: SimTime, out: &mut impl ActionSink) {
        if matches!(self.status, HoneypotStatus::Connected { .. }) {
            out.offer(&self.shared);
        }
    }

    /// Signals loss of the server connection.
    pub fn on_disconnected(&mut self, now: SimTime, out: &mut impl ActionSink) {
        self.status = HoneypotStatus::Disconnected;
        self.sessions.clear();
        self.report_status(now, out);
    }

    /// Kills the honeypot (failure injection in tests/simulations).
    pub fn kill(&mut self, now: SimTime, out: &mut impl ActionSink) {
        self.status = HoneypotStatus::Dead;
        self.sessions.clear();
        self.report_status(now, out);
    }

    /// Handles one message from a peer connection.
    ///
    /// `src_ip` is the connection's source address as seen by the
    /// transport; it is hashed before any storage (step-1 anonymisation).
    pub fn on_peer_message(
        &mut self,
        now: SimTime,
        conn: ConnId,
        src_ip: Ipv4,
        msg: &PeerMessage,
        out: &mut impl ActionSink,
    ) {
        if !matches!(self.status, HoneypotStatus::Connected { .. }) {
            return;
        }
        match msg {
            PeerMessage::Hello { user_id, client_id, port, tags } => {
                let name = tags::get_string(tags, special::NAME).unwrap_or("");
                let version = tags::get_u32(tags, special::VERSION).unwrap_or(0);
                let name_idx = self.log.intern_name(name);
                let session = PeerSession {
                    ip_hash: self.ip_hasher.hash(src_ip),
                    port: *port,
                    id_status: IdStatus::of(*client_id),
                    user_id: *user_id,
                    name_idx,
                    version,
                };
                self.log.push(QueryRecord {
                    at: now,
                    kind: QueryKind::Hello,
                    peer: session.ip_hash,
                    port: session.port,
                    id_status: session.id_status,
                    user_id: session.user_id,
                    name: name_idx,
                    version,
                    file: FILE_NONE,
                });
                self.sessions.insert(conn, session);
                out.reply(&self.hello_answer);
                if self.config.ask_shared_files {
                    out.reply(&PeerMessage::AskSharedFiles);
                }
            }
            PeerMessage::StartUpload { file_id } => {
                let Some(session) = self.sessions.get(&conn) else {
                    // START-UPLOAD without HELLO: protocol violation; drop.
                    return;
                };
                let file_idx =
                    Self::file_index(&mut self.shared_ids, &self.shared, &mut self.log, *file_id);
                self.log.push(QueryRecord {
                    at: now,
                    kind: QueryKind::StartUpload,
                    peer: session.ip_hash,
                    port: session.port,
                    id_status: session.id_status,
                    user_id: session.user_id,
                    name: session.name_idx,
                    version: session.version,
                    file: file_idx,
                });
                // Always accept: the honeypot wants to see part requests
                // (paper Fig. 1: START-UPLOAD → ACCEPT-UPLOAD).
                out.reply(&PeerMessage::AcceptUpload);
            }
            PeerMessage::RequestParts { file_id, ranges } => {
                if !self.log_request_parts(now, conn, file_id) {
                    return;
                }
                let mut content =
                    self.config.materialize_content.then(|| self.rng.substream("content"));
                for rg in ranges.iter().filter(|rg| !rg.is_empty()) {
                    let mut data = Vec::new();
                    if let Some(content) = &mut content {
                        data.resize(rg.len() as usize, 0);
                        content.fill_bytes(&mut data);
                    }
                    out.reply(&PeerMessage::SendingPart {
                        file_id: *file_id,
                        start: rg.start,
                        end: rg.end,
                        data,
                    });
                }
            }
            PeerMessage::AskSharedFilesAnswer { files } => {
                let Some(session) = self.sessions.get(&conn) else {
                    return;
                };
                let ip_hash = session.ip_hash;
                let before = self.shared.len();
                let adopting = self.config.files.adopting(now);
                // The list goes straight into the shared-arena columns: no
                // per-record `Vec` on this hot path.  Each file costs one
                // file-table lookup; adoption reuses its index.
                self.log.shared_lists.begin(now, ip_hash);
                for f in files {
                    let name = f.name().unwrap_or("");
                    let size = f.size().unwrap_or(0);
                    let idx = self.log.files.intern(f.file_id, name, size);
                    self.log.shared_lists.append_file(idx);
                    if adopting {
                        self.add_shared(f.file_id, name, size, idx);
                    }
                }
                // Publish only the newly adopted files; OFFER-FILES is
                // additive on the server side.
                if self.shared.len() > before {
                    out.offer(&self.shared[before..]);
                }
            }
            PeerMessage::FileRequest { file_id } => {
                if let Some(listed) = self.shared_ids.get(file_id) {
                    out.reply(&PeerMessage::FileRequestAnswer {
                        file_id: *file_id,
                        name: self.shared[listed.pos as usize].name.clone(),
                    });
                }
            }
            // Messages a provider-side honeypot ignores.
            PeerMessage::HelloAnswer { .. }
            | PeerMessage::AcceptUpload
            | PeerMessage::QueueRank { .. }
            | PeerMessage::SendingPart { .. }
            | PeerMessage::AskSharedFiles
            | PeerMessage::FileRequestAnswer { .. } => {}
        }
    }

    /// Logs one REQUEST-PARTS; true if it is answered with content (there is
    /// a session and the strategy is random-content).
    fn log_request_parts(&mut self, now: SimTime, conn: ConnId, file_id: &FileId) -> bool {
        if !matches!(self.status, HoneypotStatus::Connected { .. }) {
            return false;
        }
        let Some(session) = self.sessions.get(&conn) else {
            return false;
        };
        let file_idx =
            Self::file_index(&mut self.shared_ids, &self.shared, &mut self.log, *file_id);
        self.log.push(QueryRecord {
            at: now,
            kind: QueryKind::RequestPart,
            peer: session.ip_hash,
            port: session.port,
            id_status: session.id_status,
            user_id: session.user_id,
            name: session.name_idx,
            version: session.version,
            file: file_idx,
        });
        self.config.content == ContentStrategy::RandomContent
    }

    /// REQUEST-PARTS for a transport that streams its answer: logs the
    /// request like [`Honeypot::on_peer_message`] and, unless the honeypot
    /// stays silent, returns the generator the content comes from.  It is a
    /// stream of its own, so the transport can produce the blocks one at a
    /// time after it has let go of the honeypot.
    pub fn on_request_parts(
        &mut self,
        now: SimTime,
        conn: ConnId,
        file_id: &FileId,
    ) -> Option<Rng> {
        self.log_request_parts(now, conn, file_id).then(|| self.rng.substream("content"))
    }

    /// Forgets a peer connection (transport closed it).
    pub fn on_peer_disconnected(&mut self, conn: ConnId) {
        self.sessions.remove(&conn);
    }

    /// Number of live peer sessions.
    pub fn live_sessions(&self) -> usize {
        self.sessions.len()
    }
}

impl std::fmt::Debug for Honeypot {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.debug_struct("Honeypot")
            .field("id", &self.config.id)
            .field("status", &self.status)
            .field("shared_files", &self.shared.len())
            .field("records", &self.log.records.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::PartRange;

    fn server() -> ServerInfo {
        ServerInfo::new("srv", Ipv4::new(195, 0, 0, 1), 4661)
    }

    fn advertised() -> Vec<AdvertisedFile> {
        vec![
            AdvertisedFile::new(FileId::from_seed(b"movie"), "movie.avi", 700 << 20),
            AdvertisedFile::new(FileId::from_seed(b"song"), "song.mp3", 5 << 20),
        ]
    }

    fn honeypot(content: ContentStrategy) -> Honeypot {
        let config = HoneypotConfig::fixed(HoneypotId(0), content, advertised());
        Honeypot::new(config, server(), IpHasher::from_seed(1), Rng::seed_from(2))
    }

    fn connected(content: ContentStrategy) -> Honeypot {
        let mut hp = honeypot(content);
        let mut actions = Vec::new();
        hp.connect(SimTime::ZERO, &mut actions);
        assert!(matches!(actions[0], Action::SendServer(ClientServerMessage::LoginRequest { .. })));
        let mut actions = Vec::new();
        hp.on_server_message(
            SimTime::from_secs(1),
            &ClientServerMessage::IdChange { client_id: ClientId(0x5000_0000) },
            &mut actions,
        );
        assert!(
            matches!(&actions[0], Action::SendServer(ClientServerMessage::OfferFiles { files }) if files.len() == 2),
            "connect must advertise the shared list"
        );
        assert!(matches!(actions[1], Action::Report(_)));
        hp
    }

    fn hello(user: &[u8]) -> PeerMessage {
        PeerMessage::Hello {
            user_id: UserId::from_seed(user),
            client_id: ClientId(0x5101_0101),
            port: 4662,
            tags: vec![Tag::string(special::NAME, "eMule user"), Tag::u32(special::VERSION, 0x49)],
        }
    }

    #[test]
    fn hello_is_logged_and_answered() {
        let mut hp = connected(ContentStrategy::NoContent);
        let t = SimTime::from_secs(10);
        let mut actions = Vec::new();
        hp.on_peer_message(t, ConnId(1), Ipv4::new(81, 1, 1, 1), &hello(b"peer-1"), &mut actions);
        assert!(matches!(actions[0], Action::Reply(PeerMessage::HelloAnswer { .. })));
        assert!(matches!(actions[1], Action::Reply(PeerMessage::AskSharedFiles)));
        assert_eq!(hp.log().count_kind(QueryKind::Hello), 1);
        let rec = hp.log().records[0];
        assert_eq!(rec.at, t);
        assert_eq!(rec.id_status, IdStatus::High);
        assert_eq!(rec.file, FILE_NONE);
        assert_eq!(hp.log().peer_names[rec.name as usize], "eMule user");
    }

    #[test]
    fn ip_never_stored_raw() {
        let mut hp = connected(ContentStrategy::NoContent);
        let ip = Ipv4::new(81, 2, 3, 4);
        hp.on_peer_message(SimTime::ZERO, ConnId(1), ip, &hello(b"p"), &mut Vec::new());
        let rec = hp.log().records[0];
        assert_eq!(rec.peer, IpHasher::from_seed(1).hash(ip), "stored value is the salted hash");
        assert_ne!(&rec.peer.0[..4], &ip.octets()[..], "raw IP must not leak into the hash prefix");
    }

    #[test]
    fn start_upload_accepted_and_logged() {
        let mut hp = connected(ContentStrategy::NoContent);
        let ip = Ipv4::new(81, 1, 1, 1);
        hp.on_peer_message(SimTime::ZERO, ConnId(1), ip, &hello(b"p"), &mut Vec::new());
        let file_id = FileId::from_seed(b"movie");
        let mut actions = Vec::new();
        hp.on_peer_message(
            SimTime::from_secs(2),
            ConnId(1),
            ip,
            &PeerMessage::StartUpload { file_id },
            &mut actions,
        );
        assert_eq!(actions, vec![Action::Reply(PeerMessage::AcceptUpload)]);
        assert_eq!(hp.log().count_kind(QueryKind::StartUpload), 1);
        let rec = hp.log().records.last().unwrap();
        assert_eq!(hp.log().files.id(rec.file), file_id);
    }

    /// START-UPLOAD and REQUEST-PARTS find an advertised file through the
    /// shared list and intern any other file bare; either way a record
    /// names the file its message asked for.
    #[test]
    fn queries_log_the_file_they_name() {
        let mut hp = connected(ContentStrategy::NoContent);
        let ip = Ipv4::new(81, 1, 1, 1);
        hp.on_peer_message(SimTime::ZERO, ConnId(1), ip, &hello(b"p"), &mut Vec::new());
        let [movie, song, other] = [&b"movie"[..], b"song", b"other"].map(FileId::from_seed);
        let steps = [
            PeerMessage::StartUpload { file_id: movie },
            PeerMessage::StartUpload { file_id: song },
            request(song),
            request(song),
            request(movie),
            PeerMessage::StartUpload { file_id: other },
            request(other),
            request(movie),
        ];
        for (i, msg) in steps.iter().enumerate() {
            hp.on_peer_message(SimTime::from_secs(i as u64), ConnId(1), ip, msg, &mut Vec::new());
        }
        let logged: Vec<FileId> =
            hp.log().records[1..].iter().map(|r| hp.log().files.id(r.file)).collect();
        assert_eq!(logged, [movie, song, song, song, movie, other, other, movie]);
        assert_eq!(hp.log().files.name(hp.log().records[1].file), "movie.avi");
        let bare = hp.log().records[6].file;
        assert_eq!((hp.log().files.name(bare), hp.log().files.size(bare)), ("", 0));
        assert_eq!(hp.log().files.len(), 3, "an advertised file is never interned twice");
    }

    #[test]
    fn start_upload_without_hello_dropped() {
        let mut hp = connected(ContentStrategy::NoContent);
        let mut actions = Vec::new();
        hp.on_peer_message(
            SimTime::ZERO,
            ConnId(9),
            Ipv4::new(1, 1, 1, 1),
            &PeerMessage::StartUpload { file_id: FileId::from_seed(b"movie") },
            &mut actions,
        );
        assert!(actions.is_empty());
        assert_eq!(hp.log().records.len(), 0);
    }

    fn request(file: FileId) -> PeerMessage {
        PeerMessage::RequestParts {
            file_id: file,
            ranges: [
                PartRange::new(0, 184_320),
                PartRange::new(184_320, 368_640),
                PartRange::new(0, 0),
            ],
        }
    }

    #[test]
    fn no_content_honeypot_stays_silent_on_part_requests() {
        let mut hp = connected(ContentStrategy::NoContent);
        let ip = Ipv4::new(81, 1, 1, 1);
        hp.on_peer_message(SimTime::ZERO, ConnId(1), ip, &hello(b"p"), &mut Vec::new());
        let mut actions = Vec::new();
        hp.on_peer_message(
            SimTime::from_secs(3),
            ConnId(1),
            ip,
            &request(FileId::from_seed(b"movie")),
            &mut actions,
        );
        assert!(actions.is_empty(), "no-content honeypots do not reply to part requests");
        assert_eq!(hp.log().count_kind(QueryKind::RequestPart), 1, "…but they log them");
    }

    #[test]
    fn random_content_honeypot_sends_blocks() {
        let mut hp = connected(ContentStrategy::RandomContent);
        let ip = Ipv4::new(81, 1, 1, 1);
        hp.on_peer_message(SimTime::ZERO, ConnId(1), ip, &hello(b"p"), &mut Vec::new());
        let mut actions = Vec::new();
        hp.on_peer_message(
            SimTime::from_secs(3),
            ConnId(1),
            ip,
            &request(FileId::from_seed(b"movie")),
            &mut actions,
        );
        assert_eq!(actions.len(), 2, "one SENDING-PART per non-empty range");
        for a in &actions {
            assert!(matches!(a, Action::Reply(PeerMessage::SendingPart { .. })));
        }
    }

    #[test]
    fn materialized_content_is_random_bytes_of_right_length() {
        let mut config =
            HoneypotConfig::fixed(HoneypotId(1), ContentStrategy::RandomContent, advertised());
        config.materialize_content = true;
        let mut hp = Honeypot::new(config, server(), IpHasher::from_seed(1), Rng::seed_from(7));
        hp.connect(SimTime::ZERO, &mut Vec::new());
        hp.on_server_message(
            SimTime::ZERO,
            &ClientServerMessage::IdChange { client_id: ClientId(0x5000_0000) },
            &mut Vec::new(),
        );
        let ip = Ipv4::new(81, 1, 1, 1);
        hp.on_peer_message(SimTime::ZERO, ConnId(1), ip, &hello(b"p"), &mut Vec::new());
        let mut actions = Vec::new();
        hp.on_peer_message(
            SimTime::ZERO,
            ConnId(1),
            ip,
            &request(FileId::from_seed(b"movie")),
            &mut actions,
        );
        let Action::Reply(PeerMessage::SendingPart { data, start, end, .. }) = &actions[0] else {
            panic!("expected SENDING-PART");
        };
        assert_eq!(data.len() as u32, end - start);
        assert!(data.iter().any(|&b| b != 0));
    }

    #[test]
    fn greedy_adopts_during_window_only() {
        let seeds = vec![AdvertisedFile::new(FileId::from_seed(b"seed"), "seed", 1)];
        let config = HoneypotConfig {
            id: HoneypotId(0),
            content: ContentStrategy::NoContent,
            files: FileStrategy::Greedy {
                seeds,
                adopt_until: SimTime::from_days(1),
                max_files: 100,
            },
            ask_shared_files: true,
            materialize_content: false,
            port: 4662,
            client_name: "hp".into(),
        };
        let mut hp = Honeypot::new(config, server(), IpHasher::from_seed(1), Rng::seed_from(2));
        hp.connect(SimTime::ZERO, &mut Vec::new());
        hp.on_server_message(
            SimTime::ZERO,
            &ClientServerMessage::IdChange { client_id: ClientId(0x5000_0000) },
            &mut Vec::new(),
        );
        let ip = Ipv4::new(81, 1, 1, 1);
        hp.on_peer_message(SimTime::from_hours(1), ConnId(1), ip, &hello(b"p"), &mut Vec::new());
        let answer = PeerMessage::AskSharedFilesAnswer {
            files: vec![
                edonkey_proto::PublishedFile::new(FileId::from_seed(b"x"), "x.avi", 100),
                edonkey_proto::PublishedFile::new(FileId::from_seed(b"y"), "y.mp3", 50),
            ],
        };
        let mut actions = Vec::new();
        hp.on_peer_message(SimTime::from_hours(2), ConnId(1), ip, &answer, &mut actions);
        assert_eq!(hp.shared_files().len(), 3, "adopted both files");
        assert!(
            matches!(&actions[0], Action::SendServer(ClientServerMessage::OfferFiles { files }) if files.len() == 2),
            "newly adopted files are published"
        );
        // Re-announcing the same list adopts nothing new.
        let mut actions = Vec::new();
        hp.on_peer_message(SimTime::from_hours(3), ConnId(1), ip, &answer, &mut actions);
        assert!(actions.is_empty());
        // After the window, lists are recorded but not adopted.
        hp.on_peer_message(SimTime::from_days(2), ConnId(1), ip, &hello(b"p"), &mut Vec::new());
        let late = PeerMessage::AskSharedFilesAnswer {
            files: vec![edonkey_proto::PublishedFile::new(FileId::from_seed(b"z"), "z", 9)],
        };
        let mut actions = Vec::new();
        hp.on_peer_message(SimTime::from_days(2), ConnId(1), ip, &late, &mut actions);
        assert!(actions.is_empty());
        assert_eq!(hp.shared_files().len(), 3);
        assert_eq!(hp.log().shared_lists.len(), 3, "all lists recorded regardless");
    }

    #[test]
    fn shared_list_cap_respected() {
        let seeds = vec![AdvertisedFile::new(FileId::from_seed(b"seed"), "seed", 1)];
        let config = HoneypotConfig {
            id: HoneypotId(0),
            content: ContentStrategy::NoContent,
            files: FileStrategy::Greedy { seeds, adopt_until: SimTime::from_days(1), max_files: 2 },
            ask_shared_files: true,
            materialize_content: false,
            port: 4662,
            client_name: "hp".into(),
        };
        let mut hp = Honeypot::new(config, server(), IpHasher::from_seed(1), Rng::seed_from(2));
        hp.connect(SimTime::ZERO, &mut Vec::new());
        hp.on_server_message(
            SimTime::ZERO,
            &ClientServerMessage::IdChange { client_id: ClientId(0x5000_0000) },
            &mut Vec::new(),
        );
        let ip = Ipv4::new(81, 1, 1, 1);
        hp.on_peer_message(SimTime::ZERO, ConnId(1), ip, &hello(b"p"), &mut Vec::new());
        let answer = PeerMessage::AskSharedFilesAnswer {
            files: (0..10)
                .map(|i| {
                    edonkey_proto::PublishedFile::new(
                        FileId::from_seed(format!("f{i}").as_bytes()),
                        "f",
                        1,
                    )
                })
                .collect(),
        };
        hp.on_peer_message(SimTime::from_hours(1), ConnId(1), ip, &answer, &mut Vec::new());
        assert_eq!(hp.shared_files().len(), 2, "cap holds");
    }

    #[test]
    fn dead_honeypot_ignores_peers() {
        let mut hp = connected(ContentStrategy::NoContent);
        hp.kill(SimTime::from_secs(5), &mut Vec::new());
        let mut actions = Vec::new();
        hp.on_peer_message(
            SimTime::from_secs(6),
            ConnId(1),
            Ipv4::new(1, 1, 1, 1),
            &hello(b"p"),
            &mut actions,
        );
        assert!(actions.is_empty());
        assert_eq!(hp.log().records.len(), 0);
        assert!(hp.status().needs_relaunch());
    }

    #[test]
    fn relaunch_after_death_works() {
        let mut hp = connected(ContentStrategy::NoContent);
        hp.kill(SimTime::from_secs(5), &mut Vec::new());
        let mut actions = Vec::new();
        hp.connect(SimTime::from_secs(60), &mut actions);
        assert!(matches!(actions[0], Action::SendServer(ClientServerMessage::LoginRequest { .. })));
        hp.on_server_message(
            SimTime::from_secs(61),
            &ClientServerMessage::IdChange { client_id: ClientId(0x5000_0000) },
            &mut Vec::new(),
        );
        assert!(matches!(hp.status(), HoneypotStatus::Connected { .. }));
    }

    #[test]
    fn hello_answer_carries_the_latest_granted_id() {
        let answered_id = |hp: &mut Honeypot, conn: u64| {
            let ip = Ipv4::new(81, 1, 1, 1);
            let mut actions = Vec::new();
            hp.on_peer_message(SimTime::ZERO, ConnId(conn), ip, &hello(b"p"), &mut actions);
            let Action::Reply(PeerMessage::HelloAnswer { client_id, .. }) = actions[0] else {
                panic!("expected HELLO-ANSWER, got {actions:?}");
            };
            client_id
        };
        let mut hp = connected(ContentStrategy::NoContent);
        assert_eq!(answered_id(&mut hp, 1), ClientId(0x5000_0000));
        hp.kill(SimTime::from_secs(5), &mut Vec::new());
        hp.connect(SimTime::from_secs(60), &mut Vec::new());
        let fresh = ClientId(0x6100_0000);
        hp.on_server_message(
            SimTime::from_secs(61),
            &ClientServerMessage::IdChange { client_id: fresh },
            &mut Vec::new(),
        );
        assert_eq!(answered_id(&mut hp, 2), fresh, "the answer is rebuilt at every ID-CHANGE");
    }

    #[test]
    fn keepalive_reoffers_when_connected_only() {
        let mut hp = honeypot(ContentStrategy::NoContent);
        let mut actions = Vec::new();
        hp.keepalive(SimTime::ZERO, &mut actions);
        assert!(actions.is_empty(), "not connected yet");
        let mut hp = connected(ContentStrategy::NoContent);
        let mut actions = Vec::new();
        hp.keepalive(SimTime::from_mins(30), &mut actions);
        assert!(matches!(&actions[0], Action::SendServer(ClientServerMessage::OfferFiles { .. })));
    }

    #[test]
    fn file_request_answered_for_advertised_files_only() {
        let mut hp = connected(ContentStrategy::NoContent);
        let ip = Ipv4::new(81, 1, 1, 1);
        hp.on_peer_message(SimTime::ZERO, ConnId(1), ip, &hello(b"p"), &mut Vec::new());
        let known = FileId::from_seed(b"movie");
        let mut actions = Vec::new();
        hp.on_peer_message(
            SimTime::ZERO,
            ConnId(1),
            ip,
            &PeerMessage::FileRequest { file_id: known },
            &mut actions,
        );
        assert!(matches!(
            &actions[0],
            Action::Reply(PeerMessage::FileRequestAnswer { name, .. }) if name == "movie.avi"
        ));
        let unknown = FileId::from_seed(b"nope");
        let mut actions = Vec::new();
        hp.on_peer_message(
            SimTime::ZERO,
            ConnId(1),
            ip,
            &PeerMessage::FileRequest { file_id: unknown },
            &mut actions,
        );
        assert!(actions.is_empty());
    }

    #[test]
    fn disconnect_clears_sessions() {
        let mut hp = connected(ContentStrategy::NoContent);
        let ip = Ipv4::new(81, 1, 1, 1);
        hp.on_peer_message(SimTime::ZERO, ConnId(1), ip, &hello(b"p"), &mut Vec::new());
        assert_eq!(hp.live_sessions(), 1);
        hp.on_peer_disconnected(ConnId(1));
        assert_eq!(hp.live_sessions(), 0);
    }

    #[test]
    fn a_session_opened_before_a_cut_logs_its_name_after_it() {
        let mut hp = connected(ContentStrategy::NoContent);
        let ip = Ipv4::new(81, 1, 1, 1);
        let named = |name: &str| PeerMessage::Hello {
            user_id: UserId::from_seed(name.as_bytes()),
            client_id: ClientId(0x5101_0101),
            port: 4662,
            tags: vec![Tag::string(special::NAME, name)],
        };
        hp.on_peer_message(SimTime::ZERO, ConnId(1), ip, &named("first"), &mut Vec::new());
        hp.on_peer_message(SimTime::ZERO, ConnId(2), ip, &named("second"), &mut Vec::new());
        hp.collect_log();
        // Only the second session queries after the cut; its name is the
        // period's first.
        let upload = PeerMessage::StartUpload { file_id: FileId::from_seed(b"movie") };
        hp.on_peer_message(SimTime::from_secs(5), ConnId(2), ip, &upload, &mut Vec::new());
        let chunk = hp.collect_log();
        assert_eq!(chunk.peer_names, ["second"]);
        assert_eq!(chunk.peer_names[chunk.records[0].name as usize], "second");
        assert_eq!(chunk.files.name(chunk.records[0].file), "movie.avi");
        assert_eq!(chunk.check_indices(), Ok(()));
    }

    #[test]
    fn an_advertised_file_queried_in_three_periods_merges_to_one_entry() {
        let mut hp = connected(ContentStrategy::NoContent);
        let mut mgr = crate::Manager::new(vec![crate::HoneypotSpec {
            id: HoneypotId(0),
            content: ContentStrategy::NoContent,
            server: server(),
        }]);
        let ip = Ipv4::new(81, 1, 1, 1);
        let song = FileId::from_seed(b"song");
        for period in 0..3u64 {
            let at = SimTime::from_hours(period);
            hp.on_peer_message(at, ConnId(period), ip, &hello(b"p"), &mut Vec::new());
            hp.on_peer_message(at, ConnId(period), ip, &request(song), &mut Vec::new());
            let chunk = hp.collect_log();
            let file = chunk.records[1].file;
            assert_eq!((chunk.files.id(file), chunk.files.name(file)), (song, "song.mp3"));
            mgr.collect(chunk);
        }
        let merged = mgr.finalize(SimTime::from_days(1), 2, 1);
        assert_eq!(merged.files.len(), 2, "the two advertised files, once each");
        let parts: Vec<u32> = merged
            .records
            .iter()
            .filter(|r| r.kind() == QueryKind::RequestPart)
            .map(|r| r.file)
            .collect();
        assert_eq!(parts.len(), 3);
        assert!(parts.iter().all(|&f| merged.files.id(f) == song));
    }

    #[test]
    fn after_a_cut_the_honeypot_keeps_only_client_names() {
        let mut hp = connected(ContentStrategy::NoContent);
        for i in 0..60u32 {
            let ip = Ipv4(0x5100_0000 + i);
            let hello = PeerMessage::Hello {
                user_id: UserId::from_seed(&i.to_le_bytes()),
                client_id: ClientId(0x5101_0101),
                port: 4662,
                tags: vec![Tag::string(special::NAME, format!("client {}", i % 3))],
            };
            let listing = PeerMessage::AskSharedFilesAnswer {
                files: vec![edonkey_proto::PublishedFile::new(
                    FileId::from_seed(&i.to_be_bytes()),
                    "listed.avi",
                    1,
                )],
            };
            let (at, conn) = (SimTime::from_secs(u64::from(i)), ConnId(u64::from(i)));
            for msg in [hello, request(FileId::from_seed(&[i as u8])), listing] {
                hp.on_peer_message(at, conn, ip, &msg, &mut Vec::new());
            }
        }
        assert!(hp.log().files.len() > 60);
        hp.collect_log();
        assert!(hp.log().files.is_empty(), "no file entry outlives the cut");
        assert!(hp.log().peer_names.is_empty());
        assert_eq!(hp.log().run_names(), 3, "the name map holds the distinct client names");
    }

    #[test]
    fn log_collection_is_incremental() {
        let mut hp = connected(ContentStrategy::NoContent);
        let ip = Ipv4::new(81, 1, 1, 1);
        hp.on_peer_message(SimTime::ZERO, ConnId(1), ip, &hello(b"p1"), &mut Vec::new());
        let chunk1 = hp.collect_log();
        assert_eq!(chunk1.records.len(), 1);
        hp.on_peer_message(SimTime::from_secs(9), ConnId(2), ip, &hello(b"p2"), &mut Vec::new());
        let chunk2 = hp.collect_log();
        assert_eq!(chunk2.records.len(), 1, "only new records in the second chunk");
    }
}
