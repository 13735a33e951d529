//! The eDonkey index server as a transport-agnostic state machine.
//!
//! The paper's honeypots are found only through a large public server; its
//! role in the measurement is narrow but essential: grant client IDs,
//! index OFFER-FILES advertisements, and answer GET-SOURCES with provider
//! lists.  [`IndexServer`] implements exactly that (plus SEARCH-REQUEST and
//! the user/file counters of SERVER-STATUS), keyed by session token and
//! `FileId`, speaking the typed protocol messages.
//!
//! Like [`crate::Honeypot`], the server never touches a socket: the
//! discrete-event world (`edonkey-sim`) and the threaded TCP server in
//! `edonkey-net` both drive this one implementation.  The time argument of
//! every entry point only stamps capture records.
//!
//! With a [`ServerCapture`] attached (the "ten weeks in the life of an
//! eDonkey server" modality), every handled query additionally emits one
//! compact [`ServerRecord`] — pure observation, no effect on any answer the
//! server gives.

use std::collections::HashMap;

use edonkey_proto::{ClientId, ClientServerMessage, FileId, PeerAddr, PublishedFile, SearchExpr};
use netsim::SimTime;

use crate::anonymize::IpHash;
use crate::capture::ServerCapture;
use crate::serverlog::{ServerQueryKind, ServerRecord};
use crate::strategy::AdvertisedFile;

/// The all-zero file digest used when a record concerns no file.
const NO_FILE: FileId = FileId([0; 16]);

/// A connected client's registration.
#[derive(Clone, Debug)]
struct Registration {
    addr: PeerAddr,
    /// Files this client currently offers.
    offered: Vec<FileId>,
}

/// One indexed file: its published metadata (from the offer that first
/// indexed it) and the sessions offering it, never empty.
#[derive(Clone, PartialEq, Eq, Debug)]
struct IndexedFile {
    name: String,
    size: u64,
    providers: Vec<u64>,
}

/// The index server.
#[derive(Default)]
pub struct IndexServer {
    /// Every file with at least one provider.  A file leaves the index,
    /// metadata and all, with its last provider, so a long-running server
    /// holds only what is offered now.
    files: HashMap<FileId, IndexedFile>,
    /// Connected clients by session token.
    clients: HashMap<u64, Registration>,
    /// The low ID granted last (0 before the first).
    last_low_id: u32,
    /// Optional server-side query capture (observation only).
    capture: Option<ServerCapture>,
}

impl IndexServer {
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a query capture: from now on every handled query emits one
    /// server-side record.
    pub fn attach_capture(&mut self, capture: ServerCapture) {
        self.capture = Some(capture);
    }

    /// Detaches the capture (to finish it after the run).
    pub fn take_capture(&mut self) -> Option<ServerCapture> {
        self.capture.take()
    }

    /// Whether a capture is attached.
    #[inline]
    pub fn capture_enabled(&self) -> bool {
        self.capture.is_some()
    }

    /// Emits one capture record (no-op without a capture attached).
    #[allow(clippy::too_many_arguments)]
    fn capture_emit(
        &mut self,
        at: SimTime,
        kind: ServerQueryKind,
        session: u64,
        addr: Option<PeerAddr>,
        file: FileId,
        payload: u32,
        flag: u8,
    ) {
        let Some(cap) = self.capture.as_mut() else { return };
        let (peer, port) = match addr {
            Some(a) => (cap.hash_ip(a.ip), a.port),
            None => (IpHash([0; 16]), 0),
        };
        cap.emit(&ServerRecord { at, kind, peer, port, flag, file, session, payload });
    }

    /// Handles a LOGIN-REQUEST from the client at `addr` (session token
    /// `session`); returns the ID-CHANGE answer.
    ///
    /// Clients dialling in from a publicly reachable address receive their
    /// IP as a high ID; `reachable = false` models NATed clients and yields
    /// a low ID.
    ///
    /// A login over a still-live session supersedes the previous
    /// incarnation: its offers are withdrawn first (otherwise the index
    /// would keep provider entries the final disconnect can never clean).
    pub fn login(
        &mut self,
        now: SimTime,
        session: u64,
        addr: PeerAddr,
        reachable: bool,
    ) -> ClientServerMessage {
        if self.clients.contains_key(&session) {
            self.disconnect(now, session);
        }
        let client_id = if reachable {
            ClientId::high_from_ip(addr.ip)
        } else {
            self.last_low_id = self.last_low_id % (edonkey_proto::ids::LOW_ID_LIMIT - 1) + 1;
            ClientId::low(self.last_low_id)
        };
        self.clients.insert(session, Registration { addr, offered: Vec::new() });
        self.capture_emit(
            now,
            ServerQueryKind::Login,
            session,
            Some(addr),
            NO_FILE,
            0,
            u8::from(client_id.is_high()),
        );
        ClientServerMessage::IdChange { client_id }
    }

    /// Handles OFFER-FILES: merges the published files into the session's
    /// offer set and the global index (additive, like real servers treat
    /// keep-alive offers).  Name and size are indexed as the wire carries
    /// them, the size clamped to its u32 tag.
    ///
    /// Returns how many leading files were skipped as already offered: the
    /// longest run of `files` that repeats this session's offer set in
    /// order, compared by id.  Skipping them changes nothing, since each is
    /// already listed under this session.  A honeypot's keep-alive re-offers
    /// its whole append-only shared list, so it pays only for the files
    /// added since its last offer.
    pub fn offer_files(&mut self, now: SimTime, session: u64, files: &[AdvertisedFile]) -> usize {
        let first = files.first().map_or(NO_FILE, |f| f.id);
        let Some(reg) = self.clients.get_mut(&session) else {
            // Not logged in: real servers drop such packets (the capture
            // still sees them arrive).
            self.capture_emit(
                now,
                ServerQueryKind::OfferFiles,
                session,
                None,
                first,
                files.len() as u32,
                0,
            );
            return 0;
        };
        let addr = reg.addr;
        let skipped = reg.offered.iter().zip(files).take_while(|(id, f)| **id == f.id).count();
        for f in &files[skipped..] {
            // `reg.offered` and the provider lists move in lock-step (here
            // and in `disconnect`), so "already offered" is read off the
            // file's provider list — a handful of honeypots — instead of
            // scanning the client's whole offer set per file.
            let entry = self.files.entry(f.id).or_insert_with(|| IndexedFile {
                name: f.name.clone(),
                size: f.size.min(u64::from(u32::MAX)),
                providers: Vec::new(),
            });
            if !entry.providers.contains(&session) {
                entry.providers.push(session);
                reg.offered.push(f.id);
            }
        }
        self.capture_emit(
            now,
            ServerQueryKind::OfferFiles,
            session,
            Some(addr),
            first,
            files.len() as u32,
            1,
        );
        skipped
    }

    /// Records an OFFER-FILES the server receives but deliberately does
    /// *not* index (the simulation keeps genuine peers out of the provider
    /// index — honeypots are the only sources under measurement — yet a
    /// real server would handle these queries, so the capture must see
    /// them).  No-op without a capture attached.
    pub fn log_offer_only(
        &mut self,
        now: SimTime,
        session: u64,
        addr: PeerAddr,
        n_files: u32,
        first: FileId,
    ) {
        self.capture_emit(now, ServerQueryKind::OfferFiles, session, Some(addr), first, n_files, 0);
    }

    /// Handles GET-SOURCES: returns FOUND-SOURCES with the providers'
    /// addresses, one per providing session.
    pub fn get_sources(
        &mut self,
        now: SimTime,
        session: u64,
        file_id: FileId,
    ) -> ClientServerMessage {
        let sources: Vec<PeerAddr> = self
            .provider_sessions(&file_id)
            .iter()
            .filter_map(|s| self.clients.get(s))
            .map(|r| r.addr)
            .collect();
        let addr = self.clients.get(&session).map(|r| r.addr);
        self.capture_emit(
            now,
            ServerQueryKind::GetSources,
            session,
            addr,
            file_id,
            sources.len() as u32,
            0,
        );
        ClientServerMessage::FoundSources { file_id, sources }
    }

    /// Provider session tokens for a file (the simulation's fast path,
    /// avoiding address round-trips).
    #[inline]
    pub fn provider_sessions(&self, file_id: &FileId) -> &[u64] {
        self.files.get(file_id).map_or(&[], |f| f.providers.as_slice())
    }

    /// Answers a SEARCH-REQUEST: indexed files matching the expression,
    /// capped at `limit` results like real servers.  A file's type is
    /// classified from its extension.  When more files match, the answer
    /// holds the `limit` smallest ids, so two servers indexing the same
    /// offers answer alike.
    pub fn search(
        &mut self,
        now: SimTime,
        session: u64,
        expr: &SearchExpr,
        limit: usize,
    ) -> ClientServerMessage {
        let mut matches: Vec<(&FileId, &IndexedFile)> = self
            .files
            .iter()
            .filter(|(_, f)| {
                let file_type = match f.name.rsplit('.').next() {
                    Some("avi") | Some("mpg") | Some("mkv") => "Video",
                    Some("mp3") | Some("ogg") => "Audio",
                    Some("iso") | Some("zip") | Some("rar") => "Archive",
                    _ => "Document",
                };
                expr.matches(&f.name, f.size, file_type)
            })
            .collect();
        matches.sort_unstable_by_key(|(fid, _)| **fid);
        let files: Vec<PublishedFile> = matches
            .into_iter()
            .take(limit)
            .map(|(fid, f)| PublishedFile::new(*fid, &f.name, f.size))
            .collect();
        let addr = self.clients.get(&session).map(|r| r.addr);
        self.capture_emit(
            now,
            ServerQueryKind::Search,
            session,
            addr,
            NO_FILE,
            files.len() as u32,
            0,
        );
        ClientServerMessage::SearchResult { files }
    }

    /// Disconnects a session, dropping its offers from the index.
    pub fn disconnect(&mut self, now: SimTime, session: u64) {
        if let Some(reg) = self.clients.remove(&session) {
            let withdrawn = reg.offered.len() as u32;
            for f in reg.offered {
                if let Some(entry) = self.files.get_mut(&f) {
                    entry.providers.retain(|&s| s != session);
                    if entry.providers.is_empty() {
                        self.files.remove(&f);
                    }
                }
            }
            self.capture_emit(
                now,
                ServerQueryKind::Disconnect,
                session,
                Some(reg.addr),
                NO_FILE,
                withdrawn,
                1,
            );
        }
    }

    /// SERVER-STATUS snapshot.  With a capture attached, the snapshot is
    /// itself recorded (users in `payload`, indexed files in `session` —
    /// the snapshot has no session of its own).
    pub fn status(&mut self, now: SimTime) -> ClientServerMessage {
        let users = self.clients.len() as u32;
        let files = self.files.len() as u32;
        self.capture_emit(now, ServerQueryKind::Status, u64::from(files), None, NO_FILE, users, 0);
        ClientServerMessage::ServerStatus { users, files }
    }

    /// Number of connected clients.
    pub fn clients(&self) -> usize {
        self.clients.len()
    }

    /// Number of indexed files.
    pub fn indexed_files(&self) -> usize {
        self.files.len()
    }
}

impl std::fmt::Debug for IndexServer {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.debug_struct("IndexServer")
            .field("clients", &self.clients.len())
            .field("indexed_files", &self.files.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serverlog::ServerLogReader;
    use edonkey_proto::Ipv4;

    const T0: SimTime = SimTime::ZERO;

    fn addr(last: u8) -> PeerAddr {
        PeerAddr::new(Ipv4::new(80, 1, 1, last), 4662)
    }

    fn offer(ids: &[FileId]) -> Vec<AdvertisedFile> {
        ids.iter().map(|id| AdvertisedFile::new(*id, "f", 10)).collect()
    }

    fn capture_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("idxsrv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn login_grants_high_id_to_reachable_clients() {
        let mut s = IndexServer::new();
        let msg = s.login(T0, 1, addr(5), true);
        let ClientServerMessage::IdChange { client_id } = msg else { panic!() };
        assert!(client_id.is_high());
        assert_eq!(client_id.ip(), Some(addr(5).ip));
    }

    #[test]
    fn login_grants_distinct_low_ids_to_nated_clients() {
        let mut s = IndexServer::new();
        let ClientServerMessage::IdChange { client_id: a } = s.login(T0, 1, addr(5), false) else {
            panic!()
        };
        let ClientServerMessage::IdChange { client_id: b } = s.login(T0, 2, addr(6), false) else {
            panic!()
        };
        assert!(a.is_low() && b.is_low());
        assert_eq!(a, ClientId::low(1), "low IDs start at 1");
        assert_ne!(a, b);
    }

    #[test]
    fn offers_build_the_index_and_sources_return_providers() {
        let mut s = IndexServer::new();
        let f = FileId::from_seed(b"f");
        s.login(T0, 1, addr(1), true);
        s.login(T0, 2, addr(2), true);
        s.offer_files(T0, 1, &offer(&[f]));
        s.offer_files(T0, 2, &offer(&[f]));
        let ClientServerMessage::FoundSources { sources, .. } = s.get_sources(T0, 3, f) else {
            panic!()
        };
        assert_eq!(sources.len(), 2);
        assert!(sources.contains(&addr(1)) && sources.contains(&addr(2)));
        assert_eq!(s.provider_sessions(&f), &[1, 2]);
    }

    #[test]
    fn offers_are_idempotent_and_additive() {
        let mut s = IndexServer::new();
        let f1 = FileId::from_seed(b"a");
        let f2 = FileId::from_seed(b"b");
        s.login(T0, 1, addr(1), true);
        assert_eq!(s.offer_files(T0, 1, &offer(&[f1])), 0);
        // Keep-alive with one new file: the offered head is skipped.
        assert_eq!(s.offer_files(T0, 1, &offer(&[f1, f2])), 1);
        assert_eq!(s.provider_sessions(&f1).len(), 1, "no duplicate provider entries");
        assert_eq!(s.indexed_files(), 2);
        // Out of order, nothing is skipped, and nothing changes either.
        assert_eq!(s.offer_files(T0, 1, &offer(&[f2, f1])), 0);
        assert_eq!(s.clients[&1].offered, [f1, f2]);
        assert_eq!(s.provider_sessions(&f2), &[1]);
    }

    #[test]
    fn indexed_size_is_clamped_to_the_u32_tag() {
        let mut s = IndexServer::new();
        s.login(T0, 1, addr(1), true);
        let big = FileId::from_seed(b"big");
        s.offer_files(T0, 1, &[AdvertisedFile::new(big, "big.iso", 5 << 32)]);
        assert_eq!((s.files[&big].name.as_str(), s.files[&big].size), ("big.iso", 0xFFFF_FFFF));
    }

    #[test]
    fn unknown_file_has_no_sources() {
        let mut s = IndexServer::new();
        let ClientServerMessage::FoundSources { sources, .. } =
            s.get_sources(T0, 1, FileId::from_seed(b"nope"))
        else {
            panic!()
        };
        assert!(sources.is_empty());
    }

    #[test]
    fn offers_from_unlogged_sessions_dropped() {
        let mut s = IndexServer::new();
        s.offer_files(T0, 99, &offer(&[FileId::from_seed(b"f")]));
        assert_eq!(s.indexed_files(), 0);
    }

    #[test]
    fn disconnect_withdraws_offers() {
        let mut s = IndexServer::new();
        let f = FileId::from_seed(b"f");
        s.login(T0, 1, addr(1), true);
        s.login(T0, 2, addr(2), true);
        s.offer_files(T0, 1, &offer(&[f]));
        s.offer_files(T0, 2, &offer(&[f]));
        s.disconnect(T0, 1);
        assert_eq!(s.provider_sessions(&f), &[2]);
        assert_eq!(s.clients(), 1);
        s.disconnect(T0, 2);
        assert_eq!(s.indexed_files(), 0, "empty provider lists pruned");
        assert!(s.files.is_empty(), "metadata leaves with the last provider");
    }

    #[test]
    fn relogin_of_live_session_supersedes_previous_incarnation() {
        let mut s = IndexServer::new();
        let f = FileId::from_seed(b"f");
        s.login(T0, 1, addr(1), true);
        s.offer_files(T0, 1, &offer(&[f]));
        assert_eq!(s.provider_sessions(&f), &[1]);
        // Same session logs in again (crash + relaunch reusing the token):
        // the old incarnation's offers must be withdrawn, not leaked.
        s.login(T0, 1, addr(1), true);
        assert_eq!(s.clients(), 1);
        assert_eq!(s.indexed_files(), 0, "stale offers withdrawn on re-login");
        assert!(s.provider_sessions(&f).is_empty());
        // The fresh incarnation starts clean and can offer again.
        s.offer_files(T0, 1, &offer(&[f]));
        assert_eq!(s.provider_sessions(&f), &[1]);
        s.disconnect(T0, 1);
        assert_eq!(s.indexed_files(), 0, "no double-entry to clean twice");
    }

    /// What one captured session left behind: the index before the
    /// disconnect, and every capture record including it.
    struct OfferOutcome {
        files: HashMap<FileId, IndexedFile>,
        records: Vec<ServerRecord>,
    }

    /// Runs `offers` OFFER-FILES of the same `n`-file list through one
    /// captured session, then disconnects.
    fn offer_repeatedly(tag: &str, n: u32, offers: usize) -> OfferOutcome {
        let dir = capture_dir(tag);
        let mut s = IndexServer::new();
        s.attach_capture(ServerCapture::create(&dir, 4_096, 1_000_000).unwrap());
        let ids: Vec<FileId> = (0..n).map(|i| FileId::from_seed(&i.to_le_bytes())).collect();
        s.login(T0, 1, addr(1), true);
        for _ in 0..offers {
            s.offer_files(T0, 1, &offer(&ids));
        }
        let files = s.files.clone();
        s.disconnect(T0, 1);
        s.take_capture().unwrap().finish().unwrap();
        let mut reader = ServerLogReader::open(&dir).unwrap();
        let records = std::iter::from_fn(|| reader.next()).collect();
        let _ = std::fs::remove_dir_all(&dir);
        OfferOutcome { files, records }
    }

    #[test]
    fn reoffering_a_large_list_changes_nothing() {
        let once = offer_repeatedly("once", 3000, 1);
        let twice = offer_repeatedly("twice", 3000, 2);
        assert_eq!(once.files.len(), 3000);
        assert!(once.files.values().all(|f| f.providers == [1]));
        assert_eq!(twice.files, once.files, "no duplicate provider entries, no new files");
        // login, offer(s), disconnect — the keep-alive is captured like the
        // first offer, and the disconnect withdraws each file once.
        let (rec1, rec2) = (&once.records, &twice.records);
        assert_eq!((rec1.len(), rec2.len()), (3, 4));
        assert_eq!(rec2[2], rec2[1], "a re-offer is captured exactly like the first offer");
        assert_eq!(rec2[1], rec1[1]);
        assert_eq!(rec1[2].payload, 3000, "withdrawn count");
        assert_eq!(rec2[3], rec1[2], "the disconnect is unchanged by the re-offer");
    }

    #[test]
    fn disconnect_relogin_reoffer_registers_every_file_again() {
        let mut s = IndexServer::new();
        let ids: Vec<FileId> = (0..200u32).map(|i| FileId::from_seed(&i.to_le_bytes())).collect();
        s.login(T0, 1, addr(1), true);
        s.login(T0, 2, addr(2), true);
        s.offer_files(T0, 1, &offer(&ids));
        s.offer_files(T0, 2, &offer(&ids[..50]));
        s.disconnect(T0, 1);
        assert_eq!(s.indexed_files(), 50, "only the other provider's files remain");
        s.login(T0, 1, addr(1), true);
        s.offer_files(T0, 1, &offer(&ids));
        assert_eq!(s.indexed_files(), 200);
        assert!(ids.iter().all(|f| s.provider_sessions(f).contains(&1)));
        assert_eq!(s.provider_sessions(&ids[0]), &[2, 1]);
        assert_eq!(s.clients[&1].offered, ids, "offer set rebuilt in offer order");
    }

    #[test]
    fn search_finds_matching_indexed_files() {
        let mut s = IndexServer::new();
        s.login(T0, 1, addr(1), true);
        let ubuntu = FileId::from_seed(b"u");
        s.offer_files(
            T0,
            1,
            &[
                AdvertisedFile::new(ubuntu, "ubuntu.8.10.iso", 700 << 20),
                AdvertisedFile::new(FileId::from_seed(b"m"), "some.song.mp3", 5 << 20),
            ],
        );
        let expr = SearchExpr::keyword("ubuntu");
        let ClientServerMessage::SearchResult { files } = s.search(T0, 2, &expr, 100) else {
            panic!()
        };
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].name(), Some("ubuntu.8.10.iso"));
        // Withdrawn offers disappear from results.
        s.disconnect(T0, 1);
        let ClientServerMessage::SearchResult { files } = s.search(T0, 2, &expr, 100) else {
            panic!()
        };
        assert!(files.is_empty());
        // A file offered again after its last provider left is indexed
        // under its new name.
        s.login(T0, 1, addr(1), true);
        s.offer_files(T0, 1, &[AdvertisedFile::new(ubuntu, "ubuntu.9.04.iso", 700 << 20)]);
        let ClientServerMessage::SearchResult { files } = s.search(T0, 2, &expr, 100) else {
            panic!()
        };
        assert_eq!(files[0].name(), Some("ubuntu.9.04.iso"));
    }

    #[test]
    fn search_respects_result_limit() {
        let mut s = IndexServer::new();
        s.login(T0, 1, addr(1), true);
        let files: Vec<AdvertisedFile> = (0..50)
            .map(|i| {
                AdvertisedFile::new(
                    FileId::from_seed(format!("f{i}").as_bytes()),
                    format!("linux.{i}.iso"),
                    1,
                )
            })
            .collect();
        s.offer_files(T0, 1, &files);
        let ClientServerMessage::SearchResult { files } =
            s.search(T0, 1, &SearchExpr::keyword("linux"), 10)
        else {
            panic!()
        };
        assert_eq!(files.len(), 10);
    }

    /// Servers holding the same offers answer a capped SEARCH with the same
    /// files: the smallest ids, in ascending order, whatever order each
    /// server's index happens to iterate in.
    #[test]
    fn capped_search_answers_alike_on_every_server() {
        let ids: Vec<FileId> =
            (0..20).map(|i| FileId::from_seed(format!("film-{i}").as_bytes())).collect();
        let files: Vec<AdvertisedFile> =
            ids.iter().map(|id| AdvertisedFile::new(*id, "film.avi", 1)).collect();
        let answer = |order: &[AdvertisedFile]| {
            let mut s = IndexServer::new();
            s.login(T0, 1, addr(1), true);
            s.offer_files(T0, 1, order);
            let ClientServerMessage::SearchResult { files } =
                s.search(T0, 1, &SearchExpr::keyword("film"), 3)
            else {
                panic!()
            };
            files.iter().map(|f| f.file_id).collect::<Vec<_>>()
        };
        let mut smallest = ids.clone();
        smallest.sort_unstable();
        smallest.truncate(3);
        let reversed: Vec<AdvertisedFile> = files.iter().rev().cloned().collect();
        for server in 0..10 {
            let order = if server % 2 == 0 { &files } else { &reversed };
            assert_eq!(answer(order), smallest, "server {server}");
        }
    }

    #[test]
    fn status_reports_counts() {
        let mut s = IndexServer::new();
        s.login(T0, 1, addr(1), true);
        s.offer_files(T0, 1, &offer(&[FileId::from_seed(b"f")]));
        let ClientServerMessage::ServerStatus { users, files } = s.status(T0) else { panic!() };
        assert_eq!((users, files), (1, 1));
    }

    #[test]
    fn capture_records_every_handled_query() {
        let dir = capture_dir("cap");
        let mut s = IndexServer::new();
        s.attach_capture(ServerCapture::create(&dir, 4_096, 1_000_000).unwrap());
        assert!(s.capture_enabled());

        let f = FileId::from_seed(b"f");
        let t1 = SimTime::from_secs(1);
        s.login(T0, 1, addr(1), true);
        s.offer_files(T0, 1, &offer(&[f]));
        s.search(t1, 1, &SearchExpr::keyword("f"), 10);
        s.get_sources(t1, 1, f);
        s.log_offer_only(t1, 7, addr(9), 3, f);
        s.status(t1);
        s.disconnect(t1, 1);

        let stats = s.take_capture().unwrap().finish().unwrap();
        assert_eq!(stats.records, 7);
        let mut reader = ServerLogReader::open(&dir).unwrap();
        let mut kinds = Vec::new();
        let mut records = Vec::new();
        while let Some(r) = reader.next() {
            kinds.push(r.kind);
            records.push(r);
        }
        assert!(!reader.truncated());
        assert_eq!(
            kinds,
            vec![
                ServerQueryKind::Login,
                ServerQueryKind::OfferFiles,
                ServerQueryKind::Search,
                ServerQueryKind::GetSources,
                ServerQueryKind::OfferFiles,
                ServerQueryKind::Status,
                ServerQueryKind::Disconnect,
            ]
        );
        assert_eq!(records[0].flag, 1, "high-ID login");
        assert_eq!(records[1].payload, 1, "one file offered");
        assert_eq!(records[3].file, f);
        assert_eq!(records[3].payload, 1, "one source");
        assert_eq!(records[4].flag, 0, "offer-only is not indexed");
        assert_eq!(records[5].payload, 1, "one user at status time");
        assert_eq!(records[6].payload, 1, "one offer withdrawn");
        // Same hasher ⇒ login and offer share the peer digest; status has none.
        assert_eq!(records[0].peer, records[1].peer);
        assert_eq!(records[5].peer, IpHash([0; 16]));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
