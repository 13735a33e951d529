//! The merged, fully anonymised measurement dataset the manager produces.
//!
//! After the manager has collected every honeypot's log chunks, it performs
//! step-2 anonymisation (hash → dense integer, coherent across logs),
//! unifies the per-honeypot name/file tables into global ones, and applies
//! word-frequency anonymisation to file names.  The result,
//! [`MeasurementLog`], is what the analysis crate consumes to regenerate
//! every table and figure of the paper.

use edonkey_proto::UserId;
use netsim::SimTime;

use crate::anonymize::AnonPeerId;
use crate::log::{FileIdx, FileTable, NameIdx, QueryKind};
use crate::strategy::ContentStrategy;
use crate::types::{HoneypotId, IdStatus, ServerInfo};

/// Static description of one honeypot within the merged dataset.
#[derive(Clone, Debug)]
pub struct HoneypotMeta {
    pub id: HoneypotId,
    pub content: ContentStrategy,
    pub server: ServerInfo,
}

/// Most honeypots one measurement may hold: a record keeps its honeypot
/// in 14 bits, and `storage::load` rejects a file that claims more.
pub const MAX_HONEYPOTS: usize = 10_000;

/// A record's time, in ms, is below this (≈ 4,400 years).  The time has
/// 47 bits of the record's stamp; their largest value, this one, is where
/// [`AnonRecord::new`] puts a time that does not fit, so it is out of
/// range too.
pub const RECORD_TIME_LIMIT_MS: u64 = AT_MASK;

// The stamp's bit map, low to high: time in ms (47), honeypot (14),
// kind (2), new client (1).
const AT_MASK: u64 = (1 << 47) - 1;
const HONEYPOT_SHIFT: u32 = 47;
const HONEYPOT_MAX: u32 = (1 << 14) - 1;
const KIND_SHIFT: u32 = 61;
const NEW_CLIENT_SHIFT: u32 = 63;

/// One fully anonymised query record.  `peer` and `file` are plain
/// fields; the time, honeypot and kind share one word, read through
/// [`AnonRecord::at`], [`AnonRecord::honeypot`] and [`AnonRecord::kind`].
///
/// What the querying client said of itself in its HELLO is not here
/// either: it is its peer's latest entry of [`MeasurementLog::clients`]
/// at this point of the record order, and [`AnonRecord::new_client`]
/// marks the records that appended an entry.
/// [`MeasurementLog::records_with_clients`] pairs each record with its
/// entry.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct AnonRecord {
    stamp: u64,
    /// Step-2 anonymised peer identifier.
    pub peer: AnonPeerId,
    /// Index into [`MeasurementLog::files`]; [`crate::log::FILE_NONE`] for
    /// HELLO records.
    pub file: FileIdx,
}

// The merged log is the largest thing in memory; keep its records at 16
// bytes.
const _: () = assert!(std::mem::size_of::<AnonRecord>() == 16);

impl AnonRecord {
    /// Packs a record.  A time from [`RECORD_TIME_LIMIT_MS`] on is kept as
    /// that limit and a honeypot past 14 bits as 0x3FFF: both stay out of
    /// range, and [`MeasurementLog::validate`] reports them, instead of
    /// wrapping onto a real time or honeypot.
    pub fn new(
        at: SimTime,
        peer: AnonPeerId,
        file: FileIdx,
        honeypot: u32,
        kind: QueryKind,
        new_client: bool,
    ) -> Self {
        let kind: u64 = match kind {
            QueryKind::Hello => 0,
            QueryKind::StartUpload => 1,
            QueryKind::RequestPart => 2,
        };
        let stamp = at.as_millis().min(AT_MASK)
            | (u64::from(honeypot.min(HONEYPOT_MAX)) << HONEYPOT_SHIFT)
            | (kind << KIND_SHIFT)
            | (u64::from(new_client) << NEW_CLIENT_SHIFT);
        AnonRecord { stamp, peer, file }
    }

    /// When the honeypot logged the query.
    pub fn at(&self) -> SimTime {
        SimTime::from_millis(self.stamp & AT_MASK)
    }

    /// `HoneypotId.0` of the honeypot that logged the query (below
    /// [`MAX_HONEYPOTS`] in a valid log).
    pub fn honeypot(&self) -> u16 {
        ((self.stamp >> HONEYPOT_SHIFT) as u32 & HONEYPOT_MAX) as u16
    }

    pub fn kind(&self) -> QueryKind {
        match (self.stamp >> KIND_SHIFT) & 0b11 {
            0 => QueryKind::Hello,
            1 => QueryKind::StartUpload,
            _ => QueryKind::RequestPart,
        }
    }

    /// Whether this record appended its peer's entry to
    /// [`MeasurementLog::clients`] (the peer's first record, or its HELLO
    /// attributes changed).
    pub fn new_client(&self) -> bool {
        self.stamp >> NEW_CLIENT_SHIFT != 0
    }
}

impl std::fmt::Debug for AnonRecord {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnonRecord")
            .field("at", &self.at())
            .field("peer", &self.peer)
            .field("file", &self.file)
            .field("honeypot", &self.honeypot())
            .field("kind", &self.kind())
            .field("new_client", &self.new_client())
            .finish()
    }
}

/// The HELLO attributes of a querying client, as one entry of
/// [`MeasurementLog::clients`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AnonClient {
    pub port: u16,
    pub id_status: IdStatus,
    pub user_id: UserId,
    /// Index into [`MeasurementLog::peer_names`].
    pub name: NameIdx,
    pub version: u32,
}

/// A log's client table under construction, and the one rule that fills
/// it: a record reuses its peer's latest entry when all five attributes
/// equal it, and appends a new entry otherwise.  No hashing: a peer's
/// attributes rarely change, so one comparison per record finds the entry.
#[derive(Debug, Default)]
pub struct ClientTable {
    entries: Vec<AnonClient>,
    /// Per peer (indexed by the dense `AnonPeerId`), its latest entry;
    /// `NO_ENTRY` before its first record.
    latest: Vec<u32>,
}

const NO_ENTRY: u32 = u32::MAX;

impl ClientTable {
    /// Takes the attributes of the next record, a record of `peer`, and
    /// returns whether they start a new entry (the record's
    /// [`AnonRecord::new_client`]): they do unless they equal the peer's
    /// latest entry.  Grows the per-peer table to `peer`, so callers
    /// bound `peer` first.
    pub fn push(&mut self, peer: AnonPeerId, client: AnonClient) -> bool {
        let p = peer.0 as usize;
        if p >= self.latest.len() {
            self.latest.resize(p + 1, NO_ENTRY);
        }
        let latest = self.latest[p];
        if latest != NO_ENTRY && self.entries[latest as usize] == client {
            return false;
        }
        self.latest[p] = self.entries.len() as u32;
        self.entries.push(client);
        true
    }

    /// The entries appended so far, in order.
    pub fn into_entries(self) -> Vec<AnonClient> {
        self.entries
    }
}

/// One anonymised shared-file list observation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AnonSharedList {
    pub at: SimTime,
    pub honeypot: HoneypotId,
    pub peer: AnonPeerId,
    pub files: Vec<FileIdx>,
}

/// The merged measurement dataset.
#[derive(Clone, Debug, Default)]
pub struct MeasurementLog {
    /// Participating honeypots, indexed by `HoneypotId.0`.
    pub honeypots: Vec<HoneypotMeta>,
    /// Every logged query, in collection order (honeypot-major, then
    /// chronological within a honeypot's chunks).
    pub records: Vec<AnonRecord>,
    /// The records' client attributes, one entry per record that starts
    /// one ([`AnonRecord::new_client`]), in record order; filled by
    /// [`ClientTable::push`].
    pub clients: Vec<AnonClient>,
    /// Every shared-file list retrieved from peers.
    pub shared_lists: Vec<AnonSharedList>,
    /// Global interned peer client names.
    pub peer_names: Vec<String>,
    /// Global deduplicated file table (names already word-anonymised).
    pub files: FileTable,
    /// Number of distinct peers (== number of step-2 integers assigned).
    pub distinct_peers: u32,
    /// Measurement duration (the configured horizon).
    pub duration: SimTime,
    /// Number of files advertised by the honeypots at the end of the
    /// measurement (Table I's "number of shared files").
    pub shared_files_final: u32,
}

impl MeasurementLog {
    /// Records of a given kind.
    pub fn records_of(&self, kind: QueryKind) -> impl Iterator<Item = &AnonRecord> {
        self.records.iter().filter(move |r| r.kind() == kind)
    }

    /// Honeypot IDs using the given content strategy.
    pub fn honeypots_with(&self, content: ContentStrategy) -> Vec<HoneypotId> {
        self.honeypots.iter().filter(|h| h.content == content).map(|h| h.id).collect()
    }

    /// Total number of query records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of distinct files observed (queried or listed).
    pub fn distinct_files(&self) -> usize {
        self.files.len()
    }

    /// Total size of distinct observed files in bytes (Table I's "space
    /// used by distinct files").
    pub fn distinct_files_size(&self) -> u64 {
        self.files.total_size()
    }

    /// Every record in order, with the HELLO attributes of the client that
    /// sent it: its peer's entry as of that record.  The walk replays
    /// [`ClientTable::push`]: one per-peer latest entry, moved on at each
    /// [`AnonRecord::new_client`] record.
    ///
    /// # Panics
    /// When a record's peer has no entry yet, or the records start more
    /// entries than [`MeasurementLog::clients`] holds (both of which
    /// [`MeasurementLog::validate`] reports).
    pub fn records_with_clients(&self) -> impl Iterator<Item = (&AnonRecord, &AnonClient)> {
        let mut latest = vec![NO_ENTRY; self.distinct_peers as usize];
        let mut next = 0;
        self.records.iter().map(move |r| {
            let p = r.peer.0 as usize;
            if p >= latest.len() {
                latest.resize(p + 1, NO_ENTRY);
            }
            let entry = &mut latest[p];
            if r.new_client() {
                *entry = next;
                next += 1;
            }
            (r, &self.clients[*entry as usize])
        })
    }

    /// Sanity checks of the dataset's internal invariants; returns a list
    /// of violations (empty when consistent).  Used by integration tests
    /// and by the experiment runner before analysis.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let n_names = self.peer_names.len() as u32;
        let n_files = self.files.len() as u32;
        // Which peers have a client entry so far, and how many entries the
        // records start.
        let mut has_entry = vec![false; self.distinct_peers as usize];
        let mut new_clients = 0usize;
        // Step-2 ids are dense: the highest one seen is the count − 1.
        let mut peers_seen = 0u32;
        for (i, c) in self.clients.iter().enumerate() {
            if c.name >= n_names {
                problems.push(format!("client {i}: name index {} out of range", c.name));
            }
            if problems.len() > 20 {
                problems.push("… further problems suppressed".into());
                return problems;
            }
        }
        for (i, r) in self.records.iter().enumerate() {
            peers_seen = peers_seen.max(r.peer.0.saturating_add(1));
            if r.peer.0 >= self.distinct_peers {
                problems.push(format!("record {i}: peer id {} out of range", r.peer.0));
            }
            new_clients += usize::from(r.new_client());
            if let Some(has) = has_entry.get_mut(r.peer.0 as usize) {
                *has |= r.new_client();
                if !*has {
                    problems.push(format!("record {i}: peer {} has no client entry yet", r.peer.0));
                }
            }
            if r.at().as_millis() >= RECORD_TIME_LIMIT_MS {
                problems.push(format!("record {i}: time {} ms out of range", r.at().as_millis()));
            }
            if r.file != crate::log::FILE_NONE && r.file >= n_files {
                problems.push(format!("record {i}: file index {} out of range", r.file));
            }
            if r.kind() == QueryKind::Hello && r.file != crate::log::FILE_NONE {
                problems.push(format!("record {i}: HELLO with a file index"));
            }
            if (r.honeypot() as usize) >= self.honeypots.len() {
                problems.push(format!("record {i}: honeypot {} unknown", r.honeypot()));
            }
            if problems.len() > 20 {
                problems.push("… further problems suppressed".into());
                return problems;
            }
        }
        for (i, l) in self.shared_lists.iter().enumerate() {
            peers_seen = peers_seen.max(l.peer.0.saturating_add(1));
            if l.peer.0 >= self.distinct_peers {
                problems.push(format!("shared list {i}: peer id out of range"));
            }
            if l.files.iter().any(|&f| f >= n_files) {
                problems.push(format!("shared list {i}: file index out of range"));
            }
            if (l.honeypot.0 as usize) >= self.honeypots.len() {
                problems.push(format!("shared list {i}: honeypot {} unknown", l.honeypot.0));
            }
            if problems.len() > 20 {
                problems.push("… further problems suppressed".into());
                return problems;
            }
        }
        if new_clients != self.clients.len() {
            problems.push(format!(
                "{new_clients} records start a client entry, but there are {} entries",
                self.clients.len()
            ));
        }
        if peers_seen != self.distinct_peers {
            problems.push(format!(
                "distinct_peers is {}, but the peer ids in use are 0..{peers_seen}",
                self.distinct_peers
            ));
        }
        problems
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::FILE_NONE;
    use edonkey_proto::Ipv4;

    fn meta(id: u32, content: ContentStrategy) -> HoneypotMeta {
        HoneypotMeta {
            id: HoneypotId(id),
            content,
            server: ServerInfo::new("s", Ipv4::new(1, 1, 1, 1), 4661),
        }
    }

    fn record(peer: u32, kind: QueryKind, file: FileIdx, new_client: bool) -> AnonRecord {
        AnonRecord::new(SimTime::ZERO, AnonPeerId(peer), file, 0, kind, new_client)
    }

    fn client(port: u16) -> AnonClient {
        AnonClient {
            port,
            id_status: IdStatus::High,
            user_id: UserId::from_seed(b"u"),
            name: 0,
            version: 0,
        }
    }

    fn base_log() -> MeasurementLog {
        let mut files = FileTable::new();
        files.intern(edonkey_proto::FileId::from_seed(b"f"), "f", 10);
        MeasurementLog {
            honeypots: vec![
                meta(0, ContentStrategy::NoContent),
                meta(1, ContentStrategy::RandomContent),
            ],
            records: vec![
                record(0, QueryKind::Hello, FILE_NONE, true),
                record(0, QueryKind::StartUpload, 0, false),
                record(1, QueryKind::RequestPart, 0, true),
            ],
            clients: vec![client(4662), client(4663)],
            shared_lists: vec![AnonSharedList {
                at: SimTime::ZERO,
                honeypot: HoneypotId(0),
                peer: AnonPeerId(1),
                files: vec![0],
            }],
            peer_names: vec!["eMule".into()],
            files,
            distinct_peers: 2,
            duration: SimTime::from_days(1),
            shared_files_final: 4,
        }
    }

    #[test]
    fn valid_log_passes_validation() {
        assert!(base_log().validate().is_empty());
    }

    #[test]
    fn out_of_range_peer_detected() {
        let mut log = base_log();
        log.records.push(record(99, QueryKind::Hello, FILE_NONE, false));
        assert!(!log.validate().is_empty());
    }

    #[test]
    fn the_stamp_keeps_time_honeypot_kind_and_new_client_apart() {
        let kinds = [QueryKind::Hello, QueryKind::StartUpload, QueryKind::RequestPart];
        for at in [0, 1, 86_400_000, RECORD_TIME_LIMIT_MS - 1, (1 << 47) - 1] {
            for honeypot in [0, 1, 9_999] {
                for kind in kinds {
                    for new_client in [false, true] {
                        let r = AnonRecord::new(
                            SimTime::from_millis(at),
                            AnonPeerId(u32::MAX),
                            u32::MAX - 1,
                            honeypot,
                            kind,
                            new_client,
                        );
                        let fields = (r.at().as_millis(), r.honeypot(), r.kind(), r.new_client());
                        assert_eq!(fields, (at, honeypot as u16, kind, new_client));
                        assert_eq!((r.peer, r.file), (AnonPeerId(u32::MAX), u32::MAX - 1));
                    }
                }
            }
        }
    }

    #[test]
    fn a_time_or_honeypot_too_wide_is_kept_out_of_range() {
        let mut log = base_log();
        let r = log.records[0];
        let wide = |at: u64, honeypot: u32| {
            AnonRecord::new(SimTime::from_millis(at), r.peer, r.file, honeypot, r.kind(), true)
        };
        for at in [1 << 47, u64::MAX] {
            assert_eq!(wide(at, 0).at().as_millis(), RECORD_TIME_LIMIT_MS);
            assert_eq!(wide(at, 0).honeypot(), 0, "the time must not spill into the honeypot");
        }
        assert_eq!(wide(0, 1 << 14).honeypot(), 0x3FFF);
        assert_eq!(wide(0, u32::MAX).honeypot(), 0x3FFF);
        assert_eq!(wide(0, u32::MAX).kind(), QueryKind::Hello, "nor the honeypot into the kind");

        log.records[0] = wide(1 << 47, 0);
        assert_eq!(
            log.validate(),
            [format!("record 0: time {RECORD_TIME_LIMIT_MS} ms out of range")]
        );
        log.records[0] = wide(RECORD_TIME_LIMIT_MS - 1, 0);
        assert!(log.validate().is_empty());
        log.records[0] = wide(0, u32::MAX);
        assert_eq!(log.validate(), ["record 0: honeypot 16383 unknown"]);
    }

    fn with_new_client(log: &mut MeasurementLog, i: usize, new_client: bool) {
        let r = log.records[i];
        log.records[i] = AnonRecord::new(r.at(), r.peer, r.file, 0, r.kind(), new_client);
    }

    #[test]
    fn client_indices_and_their_names_are_checked() {
        // An extra `new_client` bit points every later record of the peer
        // one entry further, past the table's end.
        let mut log = base_log();
        with_new_client(&mut log, 1, true);
        assert_eq!(log.validate(), ["3 records start a client entry, but there are 2 entries"]);
        let mut log = base_log();
        log.clients[0].name = 1;
        assert!(log.validate().iter().any(|p| p.contains("client 0: name index 1")));
    }

    #[test]
    fn every_record_needs_an_entry_and_every_entry_a_record() {
        let mut log = base_log();
        with_new_client(&mut log, 0, false);
        assert_eq!(
            log.validate(),
            [
                "record 0: peer 0 has no client entry yet",
                "record 1: peer 0 has no client entry yet",
                "1 records start a client entry, but there are 2 entries",
            ]
        );
        let mut log = base_log();
        log.clients.pop();
        assert_eq!(log.validate(), ["2 records start a client entry, but there are 1 entries"]);
    }

    #[test]
    fn records_read_their_peers_latest_entry_in_order() {
        let mut log = base_log();
        log.records.push(record(0, QueryKind::Hello, FILE_NONE, true));
        log.records.push(record(1, QueryKind::Hello, FILE_NONE, false));
        log.records.push(record(0, QueryKind::Hello, FILE_NONE, false));
        log.clients.push(client(7));
        assert!(log.validate().is_empty(), "{:?}", log.validate());
        let ports: Vec<u16> = log.records_with_clients().map(|(_, c)| c.port).collect();
        assert_eq!(ports, [4662, 4662, 4663, 7, 4663, 7]);
        assert!(log.records_with_clients().map(|(r, _)| r).eq(&log.records));
    }

    #[test]
    fn distinct_peers_must_be_the_highest_peer_id_plus_one() {
        for wrong in [1, 3] {
            let mut log = base_log();
            log.distinct_peers = wrong;
            assert!(!log.validate().is_empty(), "distinct_peers {wrong}");
        }
        // Peer 1 appears only in a shared list; it still counts.
        let mut log = base_log();
        log.records.pop();
        log.clients.pop();
        assert!(log.validate().is_empty());
        log.shared_lists.clear();
        assert!(log.validate().iter().any(|p| p.contains("peer ids in use are 0..1")));
    }

    #[test]
    fn a_peer_reuses_its_latest_client_entry_until_an_attribute_changes() {
        let mut table = ClientTable::default();
        let (a, b) = (AnonPeerId(0), AnonPeerId(2));
        assert!(table.push(a, client(1)));
        assert!(!table.push(a, client(1)));
        assert!(table.push(b, client(1)), "equal attributes, another peer");
        assert!(table.push(a, client(2)));
        assert!(table.push(a, client(1)), "only the latest entry is reused");
        assert!(!table.push(b, client(1)));
        assert_eq!(table.into_entries(), vec![client(1), client(1), client(2), client(1)]);
    }

    #[test]
    fn hello_with_file_detected() {
        let mut log = base_log();
        log.records.push(record(0, QueryKind::Hello, 0, false));
        assert!(log.validate().iter().any(|p| p.contains("HELLO with a file")));
    }

    #[test]
    fn strategy_grouping() {
        let log = base_log();
        assert_eq!(log.honeypots_with(ContentStrategy::NoContent), vec![HoneypotId(0)]);
        assert_eq!(log.honeypots_with(ContentStrategy::RandomContent), vec![HoneypotId(1)]);
    }

    #[test]
    fn kind_filter_and_stats() {
        let log = base_log();
        assert_eq!(log.records_of(QueryKind::Hello).count(), 1);
        assert_eq!(log.len(), 3);
        assert_eq!(log.distinct_files(), 1);
        assert_eq!(log.distinct_files_size(), 10);
    }
}
