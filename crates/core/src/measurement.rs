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

/// Most honeypots one measurement may hold: [`AnonRecord::honeypot`] is a
/// `u16`, and `storage::load` rejects a file that claims more.
pub const MAX_HONEYPOTS: usize = 10_000;

/// One fully anonymised query record.  What the querying client said of
/// itself in its HELLO is not repeated here: [`AnonRecord::client`] points
/// at an entry of [`MeasurementLog::clients`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AnonRecord {
    pub at: SimTime,
    /// Step-2 anonymised peer identifier.
    pub peer: AnonPeerId,
    /// Index into [`MeasurementLog::files`]; [`crate::log::FILE_NONE`] for
    /// HELLO records.
    pub file: FileIdx,
    /// Index into [`MeasurementLog::clients`].
    pub client: u32,
    /// `HoneypotId.0` of the honeypot that logged the query (below
    /// [`MAX_HONEYPOTS`]).
    pub honeypot: u16,
    pub kind: QueryKind,
}

// The merged log is the largest thing in memory; keep its records at 24
// bytes.
const _: () = assert!(std::mem::size_of::<AnonRecord>() == 24);

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
    /// Returns the entry a record of `peer` with attributes `client`
    /// points at, appending one when the peer's latest entry differs.
    /// Grows the per-peer table to `peer`, so callers bound `peer` first.
    pub fn push(&mut self, peer: AnonPeerId, client: AnonClient) -> u32 {
        let p = peer.0 as usize;
        if p >= self.latest.len() {
            self.latest.resize(p + 1, NO_ENTRY);
        }
        let latest = self.latest[p];
        if latest != NO_ENTRY && self.entries[latest as usize] == client {
            return latest;
        }
        let entry = self.entries.len() as u32;
        self.entries.push(client);
        self.latest[p] = entry;
        entry
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
    /// The records' client attributes, filled by [`ClientTable::push`].
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
        self.records.iter().filter(move |r| r.kind == kind)
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

    /// The HELLO attributes of the client that sent `r`.
    pub fn client_of(&self, r: &AnonRecord) -> &AnonClient {
        &self.clients[r.client as usize]
    }

    /// Sanity checks of the dataset's internal invariants; returns a list
    /// of violations (empty when consistent).  Used by integration tests
    /// and by the experiment runner before analysis.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        let n_names = self.peer_names.len() as u32;
        let n_files = self.files.len() as u32;
        let n_clients = self.clients.len() as u32;
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
            if r.client >= n_clients {
                problems.push(format!("record {i}: client index {} out of range", r.client));
            }
            if r.file != crate::log::FILE_NONE && r.file >= n_files {
                problems.push(format!("record {i}: file index {} out of range", r.file));
            }
            if r.kind == QueryKind::Hello && r.file != crate::log::FILE_NONE {
                problems.push(format!("record {i}: HELLO with a file index"));
            }
            if (r.honeypot as usize) >= self.honeypots.len() {
                problems.push(format!("record {i}: honeypot {} unknown", r.honeypot));
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

    fn record(peer: u32, kind: QueryKind, file: FileIdx) -> AnonRecord {
        AnonRecord { at: SimTime::ZERO, peer: AnonPeerId(peer), file, client: 0, honeypot: 0, kind }
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
                record(0, QueryKind::Hello, FILE_NONE),
                record(0, QueryKind::StartUpload, 0),
                record(1, QueryKind::RequestPart, 0),
            ],
            clients: vec![client(4662)],
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
        log.records.push(record(99, QueryKind::Hello, FILE_NONE));
        assert!(!log.validate().is_empty());
    }

    #[test]
    fn client_indices_and_their_names_are_checked() {
        let mut log = base_log();
        log.records[1].client = 1;
        assert!(log.validate().iter().any(|p| p.contains("client index 1 out of range")));
        let mut log = base_log();
        log.clients[0].name = 1;
        assert!(log.validate().iter().any(|p| p.contains("client 0: name index 1")));
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
        assert!(log.validate().is_empty());
        log.shared_lists.clear();
        assert!(log.validate().iter().any(|p| p.contains("peer ids in use are 0..1")));
    }

    #[test]
    fn a_peer_reuses_its_latest_client_entry_until_an_attribute_changes() {
        let mut table = ClientTable::default();
        let (a, b) = (AnonPeerId(0), AnonPeerId(2));
        assert_eq!(table.push(a, client(1)), 0);
        assert_eq!(table.push(a, client(1)), 0);
        assert_eq!(table.push(b, client(1)), 1, "equal attributes, another peer");
        assert_eq!(table.push(a, client(2)), 2);
        assert_eq!(table.push(a, client(1)), 3, "only the latest entry is reused");
        assert_eq!(table.push(b, client(1)), 1);
        assert_eq!(table.into_entries(), vec![client(1), client(1), client(2), client(1)]);
    }

    #[test]
    fn hello_with_file_detected() {
        let mut log = base_log();
        log.records.push(record(0, QueryKind::Hello, 0));
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
