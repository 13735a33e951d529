//! The measurement manager (paper §III-A).
//!
//! The manager (1) launches honeypots and assigns each to a server,
//! (2) tells them which files to advertise, (3) monitors their status and
//! flags dead ones for relaunch, and (4) periodically collects their log
//! chunks, merging them into one coherent dataset while performing step-2
//! anonymisation (hash → dense integer) on the fly.  At the end of a
//! measurement, [`Manager::finalize`] applies file-name word anonymisation
//! and emits the [`MeasurementLog`].
//!
//! Jobs (3) and (4) share no state, so they are two types: the
//! [`SupervisionBook`] (status and relaunch accounting) and the
//! [`Manager`] proper (the merge).  Whoever drives the measurement may
//! hold them on different threads or behind different locks, so a long
//! merge never blocks supervision.

use std::collections::{BTreeSet, HashMap};

use netsim::SimTime;

use crate::anonymize::{AnonMap, AnonPeerId, NameAnonymizer};
use crate::log::{FileTable, LogChunk, FILE_NONE};
use crate::measurement::{
    AnonClient, AnonRecord, AnonSharedList, ClientTable, HoneypotMeta, MeasurementLog,
    MAX_HONEYPOTS,
};
use crate::strategy::ContentStrategy;
use crate::types::{HoneypotId, HoneypotStatus, ServerInfo, StatusReport};

/// Launch specification for one honeypot.
#[derive(Clone, Debug)]
pub struct HoneypotSpec {
    pub id: HoneypotId,
    pub content: ContentStrategy,
    pub server: ServerInfo,
}

/// # Panics
/// If the specs' IDs are not the dense sequence `0..n` (the platform
/// indexes honeypots by ID everywhere).
fn assert_dense(specs: &[HoneypotSpec]) {
    for (i, s) in specs.iter().enumerate() {
        assert_eq!(s.id.0 as usize, i, "honeypot IDs must be dense and ordered");
    }
}

/// The manager's supervision book: each honeypot's last reported status
/// and the relaunches issued.
#[derive(Debug)]
pub struct SupervisionBook {
    status: Vec<HoneypotStatus>,
    relaunches: u64,
}

impl SupervisionBook {
    /// A book for the given honeypots, every one `Pending` a first launch.
    ///
    /// # Panics
    /// If the specs' IDs are not the dense sequence `0..n`.
    pub fn new(specs: &[HoneypotSpec]) -> Self {
        assert_dense(specs);
        SupervisionBook { status: vec![HoneypotStatus::Pending; specs.len()], relaunches: 0 }
    }

    /// Ingests a status report from a honeypot.
    pub fn on_status(&mut self, report: StatusReport) {
        self.status[report.honeypot.0 as usize] = report.status;
    }

    /// Current status of a honeypot.
    pub fn status_of(&self, id: HoneypotId) -> HoneypotStatus {
        self.status[id.0 as usize]
    }

    /// The periodic status check: honeypots that must be (re)launched
    /// (paper: "This makes it possible to re-launch dead honeypots …  The
    /// manager regularly checks the status of each honeypot").
    ///
    /// This is a pure query — polling it repeatedly never changes any
    /// accounting.  Call [`SupervisionBook::mark_relaunched`] once a
    /// relaunch is actually issued for an id.
    pub fn needing_relaunch(&self) -> Vec<HoneypotId> {
        (0..self.status.len() as u32)
            .map(HoneypotId)
            .filter(|&id| self.status_of(id).needs_relaunch())
            .collect()
    }

    /// Records that a (re)launch was issued for `id`: a first launch from
    /// `Pending` is free, everything else counts as one relaunch.  The
    /// status moves to `Pending` ("launch in flight"), so a supervision
    /// loop that polls [`SupervisionBook::needing_relaunch`] between
    /// issuing the relaunch and the honeypot's first status report cannot
    /// count the same incident twice.
    pub fn mark_relaunched(&mut self, id: HoneypotId) {
        let idx = id.0 as usize;
        if !matches!(self.status[idx], HoneypotStatus::Pending) {
            self.relaunches += 1;
        }
        self.status[idx] = HoneypotStatus::Pending;
    }

    /// Number of relaunches issued so far (diagnostics).
    pub fn relaunch_count(&self) -> u64 {
        self.relaunches
    }
}

/// The manager's merge: collected chunks in, one anonymised
/// [`MeasurementLog`] out.
pub struct Manager {
    honeypots: Vec<HoneypotMeta>,
    // Step-2 anonymisation and table unification.
    anon: AnonMap,
    records: Vec<AnonRecord>,
    clients: ClientTable,
    shared_lists: Vec<AnonSharedList>,
    peer_names: Vec<String>,
    peer_name_index: HashMap<String, u32>,
    files: FileTable,
    /// Word counts of every name in `files`, counted as each name enters.
    words: NameAnonymizer,
    chunks_collected: u64,
    /// Per-honeypot upload sequence numbers already merged (networked
    /// collection may re-deliver a chunk after an ack is lost).
    collected_seqs: Vec<BTreeSet<u64>>,
}

impl Manager {
    /// Creates the merge for the given honeypots.
    ///
    /// # Panics
    /// If the specs' IDs are not the dense sequence `0..n`, or there are
    /// more than [`MAX_HONEYPOTS`].
    pub fn new(specs: Vec<HoneypotSpec>) -> Self {
        assert_dense(&specs);
        assert!(specs.len() <= MAX_HONEYPOTS, "at most {MAX_HONEYPOTS} honeypots");
        let n = specs.len();
        Manager {
            honeypots: specs
                .into_iter()
                .map(|s| HoneypotMeta { id: s.id, content: s.content, server: s.server })
                .collect(),
            anon: AnonMap::new(),
            records: Vec::new(),
            clients: ClientTable::default(),
            shared_lists: Vec::new(),
            peer_names: Vec::new(),
            peer_name_index: HashMap::new(),
            files: FileTable::new(),
            words: NameAnonymizer::new(),
            chunks_collected: 0,
            collected_seqs: vec![BTreeSet::new(); n],
        }
    }

    fn intern_peer_name(&mut self, name: String) -> u32 {
        if let Some(&idx) = self.peer_name_index.get(&name) {
            return idx;
        }
        let idx = self.peer_names.len() as u32;
        self.peer_names.push(name.clone());
        self.peer_name_index.insert(name, idx);
        idx
    }

    /// Ingests one collected log chunk, translating its chunk-local
    /// interned indices into the global tables and applying step-2
    /// anonymisation.
    ///
    /// # Panics
    /// If a record or shared list refers past the chunk's own tables
    /// (see [`LogChunk::check_indices`]; wire decoders reject such chunks).
    pub fn collect(&mut self, chunk: LogChunk) {
        self.chunks_collected += 1;
        // Translate the chunk's name and file tables into global indices,
        // counting the words of each name the global file table gains.
        let name_map: Vec<u32> =
            chunk.peer_names.into_iter().map(|n| self.intern_peer_name(n)).collect();
        let file_map: Vec<u32> = (0..chunk.files.len() as u32)
            .map(|i| {
                let fresh = self.files.len() as u32;
                let name = chunk.files.name(i);
                let idx = self.files.intern(chunk.files.id(i), name, chunk.files.size(i));
                if idx == fresh {
                    self.words.count(name);
                }
                idx
            })
            .collect();
        self.records.reserve(chunk.records.len());
        self.shared_lists.reserve(chunk.shared_lists.len());
        // Step-2 ids first, in record order: the pass below then knows
        // every record's client-table slot up front, so the loads of
        // consecutive records overlap instead of queueing behind each
        // record's hash lookup.
        let peers: Vec<AnonPeerId> =
            chunk.records.iter().map(|r| self.anon.intern(r.peer)).collect();
        for (r, peer) in chunk.records.into_iter().zip(peers) {
            let client = AnonClient {
                port: r.port,
                id_status: r.id_status,
                user_id: r.user_id,
                name: name_map[r.name as usize],
                version: r.version,
            };
            let file = if r.file == FILE_NONE { FILE_NONE } else { file_map[r.file as usize] };
            let new_client = self.clients.push(peer, client);
            // A time or honeypot id too wide for the record stays out of
            // range (and `validate` says so) rather than wrapping.
            self.records.push(AnonRecord::new(
                r.at,
                peer,
                file,
                chunk.honeypot.0,
                r.kind,
                new_client,
            ));
        }
        for l in chunk.shared_lists.iter() {
            self.shared_lists.push(AnonSharedList {
                at: l.at,
                honeypot: chunk.honeypot,
                peer: self.anon.intern(l.peer),
                files: l.files.iter().map(|&f| file_map[f as usize]).collect(),
            });
        }
    }

    /// Ingests a chunk tagged with its per-honeypot upload sequence number,
    /// dropping duplicates: the networked collection path retransmits a
    /// chunk when its ack is lost, and exactly-once merging must hold
    /// regardless.  Returns whether the chunk was merged (`false` =
    /// duplicate).
    pub fn collect_sequenced(&mut self, seq: u64, chunk: LogChunk) -> bool {
        let idx = chunk.honeypot.0 as usize;
        if !self.collected_seqs[idx].insert(seq) {
            return false;
        }
        self.collect(chunk);
        true
    }

    /// Highest upload sequence number merged for `id` (`None` before the
    /// first sequenced chunk).  The control plane resumes an agent's upload
    /// stream from the next number after a reconnect.
    pub fn collected_seq_high(&self, id: HoneypotId) -> Option<u64> {
        self.collected_seqs[id.0 as usize].iter().next_back().copied()
    }

    /// Number of chunks collected so far.
    pub fn chunks_collected(&self) -> u64 {
        self.chunks_collected
    }

    /// Distinct peers seen so far (live view of the step-2 dictionary).
    pub fn distinct_peers(&self) -> usize {
        self.anon.len()
    }

    /// Completes the measurement: applies file-name word anonymisation and
    /// returns the merged dataset.
    ///
    /// * `duration` — the configured measurement horizon;
    /// * `shared_files_final` — the advertised-list size at the end (Table
    ///   I reports it);
    /// * `name_threshold` — words occurring fewer than this many times
    ///   across all observed file names are replaced by integer tokens.
    pub fn finalize(
        mut self,
        duration: SimTime,
        shared_files_final: u32,
        name_threshold: u32,
    ) -> MeasurementLog {
        let frozen = self.words.freeze(name_threshold);
        self.files.map_names(|name, out| frozen.anonymize_into(name, out));

        MeasurementLog {
            honeypots: self.honeypots,
            records: self.records,
            clients: self.clients.into_entries(),
            shared_lists: self.shared_lists,
            peer_names: self.peer_names,
            files: self.files,
            distinct_peers: self.anon.len() as u32,
            duration,
            shared_files_final,
        }
    }
}

impl std::fmt::Debug for Manager {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fm.debug_struct("Manager")
            .field("honeypots", &self.honeypots.len())
            .field("records", &self.records.len())
            .field("distinct_peers", &self.anon.len())
            .field("chunks", &self.chunks_collected)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::anonymize::{AnonPeerId, IpHash, IpHasher};
    use crate::log::{HoneypotLog, QueryKind, QueryRecord, SharedLists};
    use crate::types::IdStatus;
    use edonkey_proto::{ClientId, FileId, Ipv4, UserId};

    /// The query trace of the client-table test's merged log.
    const TRACE: &str = concat!(
        "#timestamp_ms\thoneypot\tkind\tpeer\tport\tid_status\tuser_hash\tclient_name\tversion\tfile_hash\n",
        "1000\t0\tHELLO\t0\t4662\thigh\t01010101010101010101010101010101\teMule\t73\t-\n",
        "2000\t0\tSTART-UPLOAD\t0\t4662\thigh\t01010101010101010101010101010101\teMule\t73\tf0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0\n",
        "3000\t1\tSTART-UPLOAD\t0\t4662\thigh\t01010101010101010101010101010101\teMule\t73\tf0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0\n",
        "4000\t1\tHELLO\t1\t4662\tlow\t02020202020202020202020202020202\taMule\t34\t-\n",
        "5000\t2\tSTART-UPLOAD\t0\t4672\thigh\t01010101010101010101010101010101\teMule\t73\tf0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0\n",
        "6000\t2\tSTART-UPLOAD\t0\t4672\tlow\t01010101010101010101010101010101\teMule\t73\tf0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0\n",
        "7000\t2\tSTART-UPLOAD\t0\t4672\tlow\t01010101010101010101010101010101\teMule\t80\tf0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0\n",
        "8000\t2\tHELLO\t1\t4662\tlow\t03030303030303030303030303030303\taMule\t34\t-\n",
        "9000\t2\tSTART-UPLOAD\t1\t4662\tlow\t02020202020202020202020202020202\taMule\t34\tf0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0\n",
        "10000\t2\tSTART-UPLOAD\t1\t4662\tlow\t02020202020202020202020202020202\tlphant\t34\tf0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0\n",
        "11000\t2\tSTART-UPLOAD\t1\t4662\tlow\t02020202020202020202020202020202\tlphant\t34\tf0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0\n",
    );

    fn server() -> ServerInfo {
        ServerInfo::new("srv", Ipv4::new(9, 9, 9, 9), 4661)
    }

    fn specs(n: u32) -> Vec<HoneypotSpec> {
        (0..n)
            .map(|i| HoneypotSpec {
                id: HoneypotId(i),
                content: if i % 2 == 0 {
                    ContentStrategy::NoContent
                } else {
                    ContentStrategy::RandomContent
                },
                server: server(),
            })
            .collect()
    }

    fn chunk_with_peers(hp: u32, ips: &[Ipv4]) -> LogChunk {
        let hasher = IpHasher::from_seed(7);
        let mut log = HoneypotLog::new(HoneypotId(hp), server());
        let name = log.intern_name("eMule");
        let file = log.files.intern(FileId::from_seed(b"f"), "some file.avi", 100);
        for (i, ip) in ips.iter().enumerate() {
            log.push(QueryRecord {
                at: SimTime::from_secs(i as u64),
                kind: QueryKind::Hello,
                peer: hasher.hash(*ip),
                port: 4662,
                id_status: IdStatus::High,
                user_id: UserId::from_seed(b"u"),
                name,
                version: 1,
                file: FILE_NONE,
            });
            log.push(QueryRecord {
                at: SimTime::from_secs(i as u64 + 1),
                kind: QueryKind::StartUpload,
                peer: hasher.hash(*ip),
                port: 4662,
                id_status: IdStatus::High,
                user_id: UserId::from_seed(b"u"),
                name,
                version: 1,
                file,
            });
        }
        log.shared_lists.push(SimTime::from_secs(99), hasher.hash(ips[0]), [file]);
        log.take_chunk()
    }

    #[test]
    fn step2_is_coherent_across_honeypots() {
        let mut mgr = Manager::new(specs(2));
        let shared_ip = Ipv4::new(10, 0, 0, 1);
        mgr.collect(chunk_with_peers(0, &[shared_ip, Ipv4::new(10, 0, 0, 2)]));
        mgr.collect(chunk_with_peers(1, &[shared_ip, Ipv4::new(10, 0, 0, 3)]));
        assert_eq!(mgr.distinct_peers(), 3, "shared IP counted once");
        let log = mgr.finalize(SimTime::from_days(1), 4, 1);
        // The shared peer got id 0 (first seen) in both honeypots' records.
        let hp0_first = log.records.iter().find(|r| r.honeypot() == 0).unwrap();
        let hp1_first = log.records.iter().find(|r| r.honeypot() == 1).unwrap();
        assert_eq!(hp0_first.peer, hp1_first.peer);
        assert_eq!(hp0_first.peer, AnonPeerId(0));
        assert!(log.validate().is_empty());
    }

    #[test]
    fn merged_clients_change_only_with_an_attribute_and_survive_save_and_load() {
        use IdStatus::{High, Low};
        let hasher = IpHasher::from_seed(7);
        let (a, b) = (Ipv4::new(10, 0, 0, 1), Ipv4::new(10, 0, 0, 2));
        // Per honeypot: (at s, address, user id byte, port, id status,
        // client name, version, queries the file).
        type Query = (u64, Ipv4, u8, u16, IdStatus, &'static str, u32, bool);
        let honeypots: [&[Query]; 3] = [
            &[
                (1, a, 1, 4662, High, "eMule", 0x49, false),
                (2, a, 1, 4662, High, "eMule", 0x49, true),
            ],
            &[
                (3, a, 1, 4662, High, "eMule", 0x49, true),
                (4, b, 2, 4662, Low, "aMule", 0x22, false),
            ],
            &[
                (5, a, 1, 4672, High, "eMule", 0x49, true),
                (6, a, 1, 4672, Low, "eMule", 0x49, true),
                (7, a, 1, 4672, Low, "eMule", 0x50, true),
                // A second user behind b's address, then the first again.
                (8, b, 3, 4662, Low, "aMule", 0x22, false),
                (9, b, 2, 4662, Low, "aMule", 0x22, true),
                (10, b, 2, 4662, Low, "lphant", 0x22, true),
                (11, b, 2, 4662, Low, "lphant", 0x22, true),
            ],
        ];
        let mut mgr = Manager::new(specs(3));
        for (hp, queries) in honeypots.iter().enumerate() {
            let mut log = HoneypotLog::new(HoneypotId(hp as u32), server());
            for &(at, ip, user, port, id_status, name, version, with_file) in *queries {
                let name = log.intern_name(name);
                let file = if with_file {
                    log.files.intern(FileId([0xf0; 16]), "f.avi", 7)
                } else {
                    FILE_NONE
                };
                log.push(QueryRecord {
                    at: SimTime::from_secs(at),
                    kind: if with_file { QueryKind::StartUpload } else { QueryKind::Hello },
                    peer: hasher.hash(ip),
                    port,
                    id_status,
                    user_id: UserId([user; 16]),
                    name,
                    version,
                    file,
                });
            }
            mgr.collect(log.take_chunk());
        }
        let merged = mgr.finalize(SimTime::from_days(1), 1, 1);
        assert!(merged.validate().is_empty(), "{:?}", merged.validate());
        // Across honeypots a peer keeps its entry; any one attribute changed
        // (port, id status, version, user, name) costs one; a returning user
        // gets a fresh one, since only the peer's latest entry is compared.
        let starts: Vec<bool> = merged.records.iter().map(|r| r.new_client()).collect();
        let (t, f) = (true, false);
        assert_eq!(starts, [t, f, f, t, t, t, t, t, t, t, f]);
        assert_eq!(merged.clients.len(), 8);

        let path =
            std::env::temp_dir().join(format!("edhp-manager-{}-clients.edhp", std::process::id()));
        crate::storage::save(&merged, &path).unwrap();
        let back = crate::storage::load(&path);
        std::fs::remove_file(&path).ok();
        let back = back.unwrap();
        assert_eq!(format!("{back:?}"), format!("{merged:?}"));

        let mut trace = Vec::new();
        crate::export::write_query_trace(&back, &mut trace).unwrap();
        assert_eq!(String::from_utf8(trace).unwrap(), TRACE);
    }

    #[test]
    fn ids_are_dense_in_first_seen_order() {
        let mut mgr = Manager::new(specs(1));
        mgr.collect(chunk_with_peers(0, &[Ipv4::new(1, 1, 1, 1), Ipv4::new(2, 2, 2, 2)]));
        let log = mgr.finalize(SimTime::from_days(1), 4, 1);
        let peers: Vec<u32> = log.records.iter().map(|r| r.peer.0).collect();
        assert_eq!(peers, vec![0, 0, 1, 1]);
        assert_eq!(log.distinct_peers, 2);
    }

    #[test]
    fn relaunch_tracking() {
        let mut mgr = SupervisionBook::new(&specs(3));
        // Everything pending → all need a first launch, none counted as
        // relaunch.
        assert_eq!(mgr.needing_relaunch().len(), 3);
        assert_eq!(mgr.relaunch_count(), 0);
        for id in mgr.needing_relaunch() {
            mgr.mark_relaunched(id);
        }
        assert_eq!(mgr.relaunch_count(), 0, "first launches are not relaunches");
        for i in 0..3 {
            mgr.on_status(StatusReport {
                honeypot: HoneypotId(i),
                at: SimTime::from_secs(5),
                status: HoneypotStatus::Connected { client_id: ClientId(0x5000_0000) },
            });
        }
        assert!(mgr.needing_relaunch().is_empty());
        mgr.on_status(StatusReport {
            honeypot: HoneypotId(1),
            at: SimTime::from_secs(9),
            status: HoneypotStatus::Dead,
        });
        assert_eq!(mgr.needing_relaunch(), vec![HoneypotId(1)]);
        assert_eq!(mgr.status_of(HoneypotId(1)), HoneypotStatus::Dead);
        // The query is pure: polling does not count anything.
        assert_eq!(mgr.needing_relaunch(), vec![HoneypotId(1)]);
        assert_eq!(mgr.relaunch_count(), 0);
        mgr.mark_relaunched(HoneypotId(1));
        assert_eq!(mgr.relaunch_count(), 1);
        assert_eq!(mgr.status_of(HoneypotId(1)), HoneypotStatus::Pending);
        // A supervision poll between the relaunch and the honeypot's first
        // status report must not double-count the same incident.
        assert_eq!(mgr.needing_relaunch(), vec![HoneypotId(1)]);
        mgr.mark_relaunched(HoneypotId(1));
        assert_eq!(mgr.relaunch_count(), 1, "repeated marks on a pending launch are free");
    }

    #[test]
    fn sequenced_collection_dedups_redelivered_chunks() {
        let mut mgr = Manager::new(specs(2));
        let chunk = chunk_with_peers(0, &[Ipv4::new(10, 0, 0, 1)]);
        assert_eq!(mgr.collected_seq_high(HoneypotId(0)), None);
        assert!(mgr.collect_sequenced(0, chunk.clone()));
        assert!(!mgr.collect_sequenced(0, chunk.clone()), "redelivery dropped");
        assert!(mgr.collect_sequenced(1, chunk_with_peers(0, &[Ipv4::new(10, 0, 0, 2)])));
        assert!(mgr.collect_sequenced(7, chunk_with_peers(1, &[Ipv4::new(10, 0, 0, 3)])));
        assert_eq!(mgr.chunks_collected(), 3, "duplicates never reach the merge");
        assert_eq!(mgr.collected_seq_high(HoneypotId(0)), Some(1));
        assert_eq!(mgr.collected_seq_high(HoneypotId(1)), Some(7));
        let log = mgr.finalize(SimTime::from_days(1), 4, 1);
        assert!(log.validate().is_empty());
    }

    fn sparse_specs() -> Vec<HoneypotSpec> {
        vec![HoneypotSpec {
            id: HoneypotId(5),
            content: ContentStrategy::NoContent,
            server: server(),
        }]
    }

    #[test]
    #[should_panic(expected = "dense and ordered")]
    fn non_dense_ids_rejected() {
        let _ = Manager::new(sparse_specs());
    }

    #[test]
    #[should_panic(expected = "dense and ordered")]
    fn non_dense_ids_rejected_by_the_book() {
        let _ = SupervisionBook::new(&sparse_specs());
    }

    /// The word counts the merge kept as names arrived must freeze exactly
    /// like a count over the final table, the historical `finalize` pass.
    fn assert_counts_match_final_table(mgr: &Manager, threshold: u32, case: &str) {
        let mut oracle = NameAnonymizer::new();
        for i in 0..mgr.files.len() as u32 {
            oracle.count(mgr.files.name(i));
        }
        let oracle = oracle.freeze(threshold);
        let counted = mgr.words.clone().freeze(threshold);
        assert_eq!(counted.replaced_words(), oracle.replaced_words(), "{case}");
        for i in 0..mgr.files.len() as u32 {
            let name = mgr.files.name(i);
            assert_eq!(counted.anonymize(name), oracle.anonymize(name), "{case}: {name:?}");
            for word in name.split(|c: char| !c.is_alphanumeric()).filter(|w| !w.is_empty()) {
                assert_eq!(counted.is_public(word), oracle.is_public(word), "{case}: {word:?}");
            }
        }
    }

    #[test]
    fn file_tables_unify_and_names_anonymise() {
        let mut mgr = Manager::new(specs(2));
        mgr.collect(chunk_with_peers(0, &[Ipv4::new(1, 1, 1, 1)]));
        mgr.collect(chunk_with_peers(1, &[Ipv4::new(2, 2, 2, 2)]));
        assert_eq!(mgr.chunks_collected(), 2);
        // Threshold 5: every word of "some file.avi" is rare (appears once
        // in the unified table) and gets tokenised.
        let log = mgr.finalize(SimTime::from_days(1), 4, 5);
        assert_eq!(log.files.len(), 1, "same FileId unified across honeypots");
        let name = log.files.name(0);
        assert!(!name.contains("some"), "rare words tokenised: {name}");
        assert!(name.contains('.') && name.contains(' '), "separators kept: {name}");
    }

    #[test]
    fn shared_lists_carry_global_indices() {
        let mut mgr = Manager::new(specs(1));
        mgr.collect(chunk_with_peers(0, &[Ipv4::new(1, 1, 1, 1)]));
        let log = mgr.finalize(SimTime::from_days(2), 3, 1);
        assert_eq!(log.shared_lists.len(), 1);
        assert_eq!(log.shared_lists[0].files, vec![0]);
        assert_eq!(log.duration, SimTime::from_days(2));
        assert_eq!(log.shared_files_final, 3);
    }

    /// A log whose tables grow for the whole run and whose chunks snapshot
    /// them whole: the differential oracle for [`HoneypotLog::take_chunk`].
    struct RunLongLog {
        honeypot: HoneypotId,
        records: Vec<QueryRecord>,
        shared_lists: SharedLists,
        peer_names: Vec<String>,
        name_index: HashMap<String, u32>,
        files: FileTable,
    }

    impl RunLongLog {
        fn snapshot_chunk(&mut self) -> LogChunk {
            LogChunk {
                honeypot: self.honeypot,
                server: server(),
                records: std::mem::take(&mut self.records),
                shared_lists: std::mem::take(&mut self.shared_lists),
                peer_names: self.peer_names.clone(),
                files: self.files.clone(),
            }
        }
    }

    /// What the differential test does to a log; indices are whatever the
    /// log hands out (run-long names, period-local or run-long files).
    trait TestLog {
        fn name(&mut self, name: &str) -> u32;
        fn file(&mut self, id: FileId, name: &str, size: u64) -> u32;
        fn push(&mut self, record: QueryRecord);
        fn lists(&mut self) -> &mut SharedLists;
    }

    impl TestLog for HoneypotLog {
        fn name(&mut self, name: &str) -> u32 {
            self.intern_name(name)
        }
        fn file(&mut self, id: FileId, name: &str, size: u64) -> u32 {
            self.files.intern(id, name, size)
        }
        fn push(&mut self, record: QueryRecord) {
            HoneypotLog::push(self, record)
        }
        fn lists(&mut self) -> &mut SharedLists {
            &mut self.shared_lists
        }
    }

    impl TestLog for RunLongLog {
        fn name(&mut self, name: &str) -> u32 {
            let next = self.peer_names.len() as u32;
            *self.name_index.entry(name.to_string()).or_insert_with(|| {
                self.peer_names.push(name.to_string());
                next
            })
        }
        fn file(&mut self, id: FileId, name: &str, size: u64) -> u32 {
            self.files.intern(id, name, size)
        }
        fn push(&mut self, record: QueryRecord) {
            self.records.push(record)
        }
        fn lists(&mut self) -> &mut SharedLists {
            &mut self.shared_lists
        }
    }

    /// A per-period log and its run-long twin, driven by the same
    /// operations.
    struct Twin {
        period: HoneypotLog,
        run_long: RunLongLog,
        /// The client name of an open session on both sides (their name
        /// indices), which outlives cuts like a peer session does.
        session: Option<(u32, u32)>,
        /// Chunks collected so far.
        sent: u64,
    }

    impl Twin {
        fn new(hp: u32) -> Self {
            Twin {
                period: HoneypotLog::new(HoneypotId(hp), server()),
                run_long: RunLongLog {
                    honeypot: HoneypotId(hp),
                    records: Vec::new(),
                    shared_lists: SharedLists::new(),
                    peer_names: Vec::new(),
                    name_index: HashMap::new(),
                    files: FileTable::new(),
                },
                session: None,
                sent: 0,
            }
        }

        /// Runs `f` on both sides; it is told which side it runs on.
        fn each(&mut self, f: impl Fn(&mut dyn TestLog, bool)) {
            f(&mut self.period, true);
            f(&mut self.run_long, false);
        }

        /// Collects both sides; the period chunk must stand on its own and
        /// never outgrow the snapshot.  `sent` keeps each period chunk
        /// with its per-honeypot sequence number.
        fn collect_into(
            &mut self,
            period: &mut Manager,
            run_long: &mut Manager,
            sent: &mut Vec<(u64, LogChunk)>,
            seed: u64,
        ) {
            let chunk = self.period.take_chunk();
            let whole = self.run_long.snapshot_chunk();
            assert_eq!(chunk.check_indices(), Ok(()), "seed {seed}");
            for i in 0..chunk.files.len() as u32 {
                assert_eq!(chunk.files.lookup(&chunk.files.id(i)), Some(i), "seed {seed}");
            }
            assert!(chunk.files.len() <= whole.files.len(), "seed {seed}");
            assert!(chunk.peer_names.len() <= whole.peer_names.len(), "seed {seed}");
            assert!(self.period.files.is_empty() && self.period.peer_names.is_empty());
            self.sent += 1;
            sent.push((self.sent, chunk.clone()));
            period.collect(chunk);
            run_long.collect(whole);
        }
    }

    /// A START-UPLOAD for `file`, or a HELLO when there is none.
    fn record(at: SimTime, peer: IpHash, name: u32, file: u32) -> QueryRecord {
        QueryRecord {
            at,
            kind: if file == FILE_NONE { QueryKind::Hello } else { QueryKind::StartUpload },
            peer,
            port: 4662,
            id_status: IdStatus::High,
            user_id: UserId::from_seed(b"u"),
            name,
            version: 1,
            file,
        }
    }

    fn pool_file(i: u64) -> (FileId, String, u64) {
        (FileId::from_seed(&i.to_le_bytes()), format!("file {i}.avi"), 1000 + i)
    }

    /// Pool file `i` under the name some peer gives it: usually its own,
    /// sometimes another, so "the first-seen name wins" is exercised.
    fn pool_file_named(i: u64, alias: bool) -> (FileId, String, u64) {
        let (id, name, size) = pool_file(i);
        (id, if alias { format!("alias {i}.mkv") } else { name }, size)
    }

    /// One seeded interleaving of interning, logging and collection on 1–3
    /// honeypots, merged once through per-period chunks and once through
    /// whole-table snapshots of a run-long log.
    fn differential_case(seed: u64) {
        let mut rng = netsim::Rng::seed_from(seed);
        let hasher = IpHasher::from_seed(11);
        let n_hp = 1 + rng.below(3) as u32;
        let mut twins: Vec<Twin> = (0..n_hp).map(Twin::new).collect();
        let mut period = Manager::new(specs(n_hp));
        let mut run_long = Manager::new(specs(n_hp));
        let mut sent = Vec::new();
        for step in 0..400u64 {
            let twin = &mut twins[rng.below(u64::from(n_hp)) as usize];
            let name = format!("client {}", rng.below(12));
            let (id, file_name, size) = pool_file_named(rng.below(60), rng.chance(0.3));
            let peer = hasher.hash(Ipv4(rng.below(25) as u32));
            let at = SimTime::from_secs(step);
            match rng.below(11) {
                0 => twin.each(|log, _| {
                    log.name(&name);
                }),
                1 => twin.each(|log, _| {
                    log.file(id, &file_name, size);
                }),
                2..=5 => {
                    let with_file = rng.chance(0.6);
                    let session = twin.session.filter(|_| rng.chance(0.5));
                    twin.each(|log, is_period| {
                        let name = match session {
                            Some((p, r)) => {
                                if is_period {
                                    p
                                } else {
                                    r
                                }
                            }
                            None => log.name(&name),
                        };
                        let file =
                            if with_file { log.file(id, &file_name, size) } else { FILE_NONE };
                        log.push(record(at, peer, name, file));
                    });
                }
                6 => {
                    let p = twin.period.intern_name(&name);
                    twin.session = Some((p, twin.run_long.name(&name)));
                }
                7 | 8 => {
                    let listed: Vec<(u64, bool)> =
                        (0..rng.below(6)).map(|_| (rng.below(60), rng.chance(0.3))).collect();
                    twin.each(|log, _| {
                        let mut files = Vec::new();
                        for &(i, alias) in &listed {
                            let (id, name, size) = pool_file_named(i, alias);
                            files.push(log.file(id, &name, size));
                        }
                        log.lists().push(at, peer, files);
                    });
                }
                _ => twin.collect_into(&mut period, &mut run_long, &mut sent, seed),
            }
        }
        for twin in &mut twins {
            twin.collect_into(&mut period, &mut run_long, &mut sent, seed);
        }
        // The period chunks once more, shuffled and with repeats, through
        // the sequenced path.
        let mut redelivered = Manager::new(specs(n_hp));
        let mut order: Vec<usize> = (0..sent.len()).collect();
        order.extend((0..sent.len() / 2).map(|_| rng.below(sent.len() as u64) as usize));
        rng.shuffle(&mut order);
        for i in order {
            let (seq, chunk) = &sent[i];
            redelivered.collect_sequenced(*seq, chunk.clone());
        }
        assert_eq!(redelivered.chunks_collected(), sent.len() as u64, "seed {seed}");
        for (mgr, side) in
            [(&period, "period"), (&run_long, "run-long"), (&redelivered, "shuffled")]
        {
            assert_counts_match_final_table(mgr, 2, &format!("seed {seed}, {side}"));
        }
        let a = period.finalize(SimTime::from_days(1), 4, 2);
        let b = run_long.finalize(SimTime::from_days(1), 4, 2);
        assert_eq!(a.records, b.records, "seed {seed}");
        assert_eq!(a.clients, b.clients, "seed {seed}");
        assert_eq!(a.shared_lists, b.shared_lists, "seed {seed}");
        assert_eq!(a.peer_names, b.peer_names, "seed {seed}");
        assert_eq!(a.files, b.files, "seed {seed}: file table order");
        assert_eq!(a.distinct_peers, b.distinct_peers, "seed {seed}");
    }

    #[test]
    fn compact_chunks_merge_exactly_like_snapshot_chunks() {
        for seed in 0..300 {
            // Name the seed whatever failed, an index panic included.
            std::panic::catch_unwind(|| differential_case(seed))
                .unwrap_or_else(|_| panic!("period and run-long chunks diverge at seed {seed}"));
        }
    }

    #[test]
    fn advertised_but_never_queried_files_reach_the_global_table() {
        let mut log = HoneypotLog::new(HoneypotId(0), server());
        for i in 0..3 {
            let (id, name, size) = pool_file(i);
            log.files.intern(id, &name, size);
        }
        let mut mgr = Manager::new(specs(1));
        mgr.collect(log.take_chunk());
        // Only file 1 is ever queried, a collection later: that period
        // re-interns it, so its index is the period's own.
        let name = log.intern_name("eMule");
        let peer = IpHasher::from_seed(7).hash(Ipv4::new(1, 1, 1, 1));
        let (id, file_name, size) = pool_file(1);
        let file = log.files.intern(id, &file_name, size);
        assert_eq!(file, 0, "the period's table starts empty");
        log.push(record(SimTime::from_secs(5), peer, name, file));
        let chunk = log.take_chunk();
        assert_eq!(chunk.files.len(), 1, "the later chunk carries the one re-interned file");
        mgr.collect(chunk);
        let merged = mgr.finalize(SimTime::from_days(1), 3, 1);
        assert_eq!(merged.files.len(), 3);
        assert_eq!(merged.files.id(merged.records[0].file), pool_file(1).0);
    }

    #[test]
    fn compact_chunks_resolve_when_delivered_out_of_order_and_twice() {
        let mut log = HoneypotLog::new(HoneypotId(0), server());
        let peer = IpHasher::from_seed(7).hash(Ipv4::new(1, 1, 1, 1));
        let mut chunks = Vec::new();
        // Chunk k queries files k and k-1: every chunk after the first
        // refers to one old entry and one new one.
        for k in 0..4u64 {
            for i in [k, k.saturating_sub(1)] {
                let (id, file_name, size) = pool_file(i);
                let name = log.intern_name(&format!("client {i}"));
                let file = log.files.intern(id, &file_name, size);
                log.push(record(SimTime::from_secs(i), peer, name, file));
            }
            chunks.push(log.take_chunk());
        }
        let mut mgr = Manager::new(specs(1));
        for seq in [2usize, 0, 3, 2, 1, 0] {
            mgr.collect_sequenced(seq as u64, chunks[seq].clone());
        }
        assert_eq!(mgr.chunks_collected(), 4, "duplicates dropped");
        assert_counts_match_final_table(&mgr, 2, "out of order and twice");
        let merged = mgr.finalize(SimTime::from_days(1), 4, 1);
        assert_eq!(merged.files.len(), 4);
        assert_eq!(merged.records.len(), 8);
        for (r, client) in merged.records_with_clients() {
            // Each record was logged at `secs == file pool index` by a
            // client named after it.
            let i = r.at().as_secs() as u64;
            assert_eq!(merged.files.id(r.file), pool_file(i).0);
            assert_eq!(merged.peer_names[client.name as usize], format!("client {i}"));
        }
    }
}
