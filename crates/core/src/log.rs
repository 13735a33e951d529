//! Query-log schema.
//!
//! Each honeypot records the message types the paper names — `HELLO`,
//! `START-UPLOAD` and `REQUEST-PART` — together with the peer metadata the
//! eDonkey protocol exposes (hashed IP, port, name, user hash, client
//! version, high/low ID status), the server the honeypot is connected to,
//! and the reception timestamp (paper §III-B).  It also records the
//! shared-file lists retrieved from contacting peers, which Table I's
//! "distinct files" statistics and the greedy strategy both consume.
//!
//! Logs are kept compact: peer names are interned into a string table and
//! file metadata into a [`FileTable`] whose names share one buffer.  A
//! [`HoneypotLog`] holds one collection period only: [`HoneypotLog::take_chunk`]
//! hands the period's records, shared lists and tables to the manager as a
//! [`LogChunk`] and starts the next period empty, so a honeypot's memory is
//! bounded by the collection window, not by the run.  A [`FileIdx`] is
//! valid only within the period it was interned in.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::OnceLock;

use edonkey_proto::{FileId, UserId};
use netsim::SimTime;

use crate::anonymize::IpHash;
use crate::types::{HoneypotId, IdStatus, ServerInfo};

/// The message types a honeypot logs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum QueryKind {
    Hello,
    StartUpload,
    RequestPart,
}

impl QueryKind {
    /// Paper-style display name.
    pub fn name(&self) -> &'static str {
        match self {
            QueryKind::Hello => "HELLO",
            QueryKind::StartUpload => "START-UPLOAD",
            QueryKind::RequestPart => "REQUEST-PART",
        }
    }
}

/// Index into a log's interned peer-name table.
pub type NameIdx = u32;

/// Index into a [`FileTable`]; `FILE_NONE` marks "no file" (HELLO records).
pub type FileIdx = u32;

/// Sentinel for records without an associated file.
pub const FILE_NONE: FileIdx = u32::MAX;

/// One logged query, as written by the honeypot (step-1 anonymised: the
/// peer IP appears only as its salted hash).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct QueryRecord {
    /// Reception timestamp.
    pub at: SimTime,
    /// Message type.
    pub kind: QueryKind,
    /// Step-1 anonymised peer IP.
    pub peer: IpHash,
    /// Peer TCP port.
    pub port: u16,
    /// High/low ID status.
    pub id_status: IdStatus,
    /// Peer user hash (stable across sessions).
    pub user_id: UserId,
    /// Interned peer client name.
    pub name: NameIdx,
    /// Client version tag value.
    pub version: u32,
    /// File the query concerns (`FILE_NONE` for HELLO).
    pub file: FileIdx,
}

/// Byte size of [`PackedQueryRecord`] — and of [`QueryRecord`] itself:
/// the layout audit below pins both, so a record costs 56 bytes in the
/// hot log vector and exactly 56 bytes in storage, no padding either way.
pub const PACKED_RECORD_BYTES: usize = 56;

/// The `#[repr(C)]`-stable compact storage form of a [`QueryRecord`].
///
/// `QueryRecord` lets rustc order fields freely (it packs to 56 bytes
/// today, but the layout is not a contract).  This form *is* a contract:
/// fields are declared largest-first so `repr(C)` yields zero padding,
/// enums are collapsed to their wire tags, and the struct converts to and
/// from the on-disk/wire byte order via [`Self::to_wire_bytes`] — which is
/// byte-identical to the field-by-field encoding the platform codec has
/// always produced (pinned by `platform::messages` tests).
#[repr(C)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PackedQueryRecord {
    /// Reception timestamp in milliseconds.
    pub at_ms: u64,
    /// Step-1 anonymised peer IP digest.
    pub peer: [u8; 16],
    /// Peer user hash.
    pub user_id: [u8; 16],
    /// Interned peer client name index.
    pub name: u32,
    /// Client version tag value.
    pub version: u32,
    /// File index ([`FILE_NONE`] for HELLO).
    pub file: u32,
    /// Peer TCP port.
    pub port: u16,
    /// Wire tag: 0 = HELLO, 1 = START-UPLOAD, 2 = REQUEST-PART.
    pub kind: u8,
    /// Wire tag: 0 = high ID, 1 = low ID.
    pub id_status: u8,
}

// The layout audit, enforced at compile time: the packed form has no
// padding, and the logical record is already as small as the packed one —
// shrinking further would mean dropping data the figures need.
const _: () = assert!(std::mem::size_of::<PackedQueryRecord>() == PACKED_RECORD_BYTES);
const _: () = assert!(std::mem::size_of::<QueryRecord>() == PACKED_RECORD_BYTES);
const _: () = assert!(std::mem::align_of::<PackedQueryRecord>() == 8);

impl PackedQueryRecord {
    /// Collapses a logical record into the storage form.
    pub fn pack(r: &QueryRecord) -> Self {
        PackedQueryRecord {
            at_ms: r.at.as_millis(),
            peer: r.peer.0,
            user_id: r.user_id.0,
            name: r.name,
            version: r.version,
            file: r.file,
            port: r.port,
            kind: match r.kind {
                QueryKind::Hello => 0,
                QueryKind::StartUpload => 1,
                QueryKind::RequestPart => 2,
            },
            id_status: match r.id_status {
                IdStatus::High => 0,
                IdStatus::Low => 1,
            },
        }
    }

    /// Expands back to the logical record; `None` on an invalid enum tag
    /// (corrupt storage).
    pub fn unpack(&self) -> Option<QueryRecord> {
        Some(QueryRecord {
            at: SimTime::from_millis(self.at_ms),
            kind: match self.kind {
                0 => QueryKind::Hello,
                1 => QueryKind::StartUpload,
                2 => QueryKind::RequestPart,
                _ => return None,
            },
            peer: IpHash(self.peer),
            port: self.port,
            id_status: match self.id_status {
                0 => IdStatus::High,
                1 => IdStatus::Low,
                _ => return None,
            },
            user_id: UserId(self.user_id),
            name: self.name,
            version: self.version,
            file: self.file,
        })
    }

    /// Serialises in the historical wire field order (at, kind, peer,
    /// port, id_status, user_id, name, version, file; little-endian
    /// integers) — the exact bytes the platform codec has emitted since
    /// the format's introduction.
    pub fn to_wire_bytes(&self) -> [u8; PACKED_RECORD_BYTES] {
        let mut b = [0u8; PACKED_RECORD_BYTES];
        b[0..8].copy_from_slice(&self.at_ms.to_le_bytes());
        b[8] = self.kind;
        b[9..25].copy_from_slice(&self.peer);
        b[25..27].copy_from_slice(&self.port.to_le_bytes());
        b[27] = self.id_status;
        b[28..44].copy_from_slice(&self.user_id);
        b[44..48].copy_from_slice(&self.name.to_le_bytes());
        b[48..52].copy_from_slice(&self.version.to_le_bytes());
        b[52..56].copy_from_slice(&self.file.to_le_bytes());
        b
    }

    /// Inverse of [`Self::to_wire_bytes`].
    pub fn from_wire_bytes(b: &[u8; PACKED_RECORD_BYTES]) -> Self {
        let arr = |lo: usize| -> [u8; 16] { b[lo..lo + 16].try_into().expect("fixed range") };
        PackedQueryRecord {
            at_ms: u64::from_le_bytes(b[0..8].try_into().expect("fixed range")),
            kind: b[8],
            peer: arr(9),
            port: u16::from_le_bytes(b[25..27].try_into().expect("fixed range")),
            id_status: b[27],
            user_id: arr(28),
            name: u32::from_le_bytes(b[44..48].try_into().expect("fixed range")),
            version: u32::from_le_bytes(b[48..52].try_into().expect("fixed range")),
            file: u32::from_le_bytes(b[52..56].try_into().expect("fixed range")),
        }
    }
}

/// Shared-file lists in struct-of-arrays form.
///
/// A month-scale measurement retrieves millions of shared lists; storing
/// each as its own record with an owned `Vec<FileIdx>` costs a heap
/// allocation (and an eventual cache miss) per list.  This container keeps
/// one backing arena of file indices shared by *all* lists, with parallel
/// `at`/`peer` columns and an offsets column: list `i` owns
/// `files[bounds[i]..bounds[i+1]]`.  Appending a list is a few `Vec`
/// pushes into already-warm tails, and iterating lists in log order walks
/// the arena sequentially.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SharedLists {
    at: Vec<SimTime>,
    peer: Vec<IpHash>,
    /// `bounds[i]..bounds[i+1]` delimits list `i`'s slice of `files`;
    /// always `len() + 1` entries, starting at 0.
    bounds: Vec<u32>,
    /// The shared arena of [`FileTable`] indices.
    files: Vec<FileIdx>,
}

impl Default for SharedLists {
    fn default() -> Self {
        SharedLists { at: Vec::new(), peer: Vec::new(), bounds: vec![0], files: Vec::new() }
    }
}

/// Borrowed view of one shared-file list inside a [`SharedLists`] arena.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SharedListView<'a> {
    pub at: SimTime,
    pub peer: IpHash,
    /// Indices into the log's [`FileTable`].
    pub files: &'a [FileIdx],
}

impl SharedLists {
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of lists recorded.
    pub fn len(&self) -> usize {
        self.at.len()
    }

    pub fn is_empty(&self) -> bool {
        self.at.is_empty()
    }

    /// Total number of file entries across all lists.
    pub fn total_files(&self) -> usize {
        self.files.len()
    }

    /// Appends a complete list.
    pub fn push(&mut self, at: SimTime, peer: IpHash, files: impl IntoIterator<Item = FileIdx>) {
        self.begin(at, peer);
        for f in files {
            self.append_file(f);
        }
    }

    /// Opens a new (initially empty) list; the honeypot's hot path interns
    /// file metadata and [`Self::append_file`]s each index without ever
    /// materialising a temporary `Vec`.
    pub fn begin(&mut self, at: SimTime, peer: IpHash) {
        self.at.push(at);
        self.peer.push(peer);
        self.bounds.push(self.files.len() as u32);
    }

    /// Appends one file index to the list opened by the last
    /// [`Self::begin`].
    pub fn append_file(&mut self, file: FileIdx) {
        debug_assert!(self.bounds.len() > 1, "append_file before begin");
        self.files.push(file);
        *self.bounds.last_mut().expect("bounds never empty") += 1;
    }

    /// The `i`-th list, in log order.
    pub fn get(&self, i: usize) -> SharedListView<'_> {
        let lo = self.bounds[i] as usize;
        let hi = self.bounds[i + 1] as usize;
        SharedListView { at: self.at[i], peer: self.peer[i], files: &self.files[lo..hi] }
    }

    /// Iterates lists in log order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = SharedListView<'_>> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

/// Deduplicated file metadata observed during a measurement.
///
/// The names live back to back in one buffer, so interning a new file,
/// merging a chunk and decoding a table allocate once per table, not once
/// per name.
#[derive(Clone, Default)]
pub struct FileTable {
    rows: Vec<FileRow>,
    /// Every name, back to back: name `i` ends at `rows[i].end` and starts
    /// where name `i - 1` ends.
    names: String,
    /// `FileId → index`, built on first [`Self::intern`] / [`Self::lookup`]:
    /// a table decoded by `storage::load` is only ever read by position,
    /// and hashing its ids was most of the cost of decoding it.
    index: OnceLock<HashMap<FileId, FileIdx>>,
}

/// One [`FileTable`] entry; its name is a range of the table's buffer.
#[derive(Clone, Copy, PartialEq, Eq)]
struct FileRow {
    id: FileId,
    size: u64,
    end: usize,
}

// Manual impls: the lookup index is a rebuildable cache (the storage codec
// does not write it), equality is defined by the table contents alone, and
// rendering a HashMap would make the Debug output — which tests compare
// across runs — depend on per-map iteration order.
impl PartialEq for FileTable {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.names == other.names
    }
}

impl Eq for FileTable {}

impl std::fmt::Debug for FileTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let all = 0..self.len() as FileIdx;
        f.debug_struct("FileTable")
            .field("ids", &all.clone().map(|i| self.id(i)).collect::<Vec<_>>())
            .field("names", &all.clone().map(|i| self.name(i)).collect::<Vec<_>>())
            .field("sizes", &all.map(|i| self.size(i)).collect::<Vec<_>>())
            .finish_non_exhaustive()
    }
}

impl FileTable {
    pub fn new() -> Self {
        Self::default()
    }

    fn index(&self) -> &HashMap<FileId, FileIdx> {
        self.index.get_or_init(|| {
            self.rows.iter().enumerate().map(|(i, row)| (row.id, i as FileIdx)).collect()
        })
    }

    /// Interns a file, keeping the first-seen name/size.  One hash per
    /// call; `name` is copied only for an id not yet in the table.
    pub fn intern(&mut self, id: FileId, name: &str, size: u64) -> FileIdx {
        self.index();
        let index = self.index.get_mut().expect("index built on the line above");
        let next = self.rows.len() as FileIdx;
        match index.entry(id) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                e.insert(next);
                self.names.push_str(name);
                self.rows.push(FileRow { id, size, end: self.names.len() });
                next
            }
        }
    }

    /// Appends an entry without hashing its id, for a decoder: a table
    /// built only this way leaves its lookup index unbuilt until someone
    /// asks for it, and its builder must reject it if
    /// [`Self::has_repeated_id`].
    pub(crate) fn push_row(&mut self, id: FileId, name: &str, size: u64) {
        debug_assert!(self.index.get().is_none(), "an index built before the push goes stale");
        self.names.push_str(name);
        self.rows.push(FileRow { id, size, end: self.names.len() });
    }

    /// True when two entries share an id, which no interned table can.
    pub(crate) fn has_repeated_id(&self) -> bool {
        let mut sorted: Vec<u128> =
            self.rows.iter().map(|row| u128::from_be_bytes(row.id.0)).collect();
        sorted.sort_unstable();
        sorted.windows(2).any(|w| w[0] == w[1])
    }

    /// Reserves room for `additional` more entries.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.rows.reserve(additional);
    }

    /// Looks a file up by ID.
    pub fn lookup(&self, id: &FileId) -> Option<FileIdx> {
        self.index().get(id).copied()
    }

    pub fn id(&self, idx: FileIdx) -> FileId {
        self.rows[idx as usize].id
    }

    pub fn name(&self, idx: FileIdx) -> &str {
        let i = idx as usize;
        let start = if i == 0 { 0 } else { self.rows[i - 1].end };
        &self.names[start..self.rows[i].end]
    }

    pub fn size(&self, idx: FileIdx) -> u64 {
        self.rows[idx as usize].size
    }

    /// Number of distinct files.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Total size of all distinct files (Table I's "space used by distinct
    /// files").
    pub fn total_size(&self) -> u64 {
        self.rows.iter().map(|row| row.size).sum()
    }

    /// Rewrites every stored name through `f`, which appends a name's
    /// rewrite to the buffer it is handed (the manager's file-name
    /// anonymisation pass).
    ///
    /// The rewrites run on [`netsim::par::par_map`], each worker writing
    /// its contiguous share of the names into one buffer, which the
    /// calling thread appends to the new name buffer.  The names go in
    /// rounds of 32,768, so the workers' buffers stay small beside the
    /// table.  The result is the same for any worker count.
    pub fn map_names(&mut self, f: impl Fn(&str, &mut String) + Sync) {
        let mut names = String::with_capacity(self.names.len());
        let mut ends = Vec::with_capacity(self.len());
        for first in (0..self.len()).step_by(REWRITE_ROUND) {
            let round = first..self.len().min(first + REWRITE_ROUND);
            let rewritten = netsim::par::par_map(netsim::par::shares(round.len()), |share| {
                let share = first + share.start..first + share.end;
                let start = if share.start == 0 { 0 } else { self.rows[share.start - 1].end };
                let mut buf = String::with_capacity(self.rows[share.end - 1].end - start);
                let ends: Vec<usize> = share
                    .map(|i| {
                        f(self.name(i as FileIdx), &mut buf);
                        buf.len()
                    })
                    .collect();
                (buf, ends)
            });
            for (buf, share_ends) in rewritten {
                let base = names.len();
                names.push_str(&buf);
                ends.extend(share_ends.into_iter().map(|end| base + end));
            }
        }
        for (row, end) in self.rows.iter_mut().zip(ends) {
            row.end = end;
        }
        self.names = names;
    }
}

/// Names [`FileTable::map_names`] rewrites per round.
const REWRITE_ROUND: usize = 1 << 15;

/// One collection period of a honeypot's log.
///
/// The manager collects periodically (paper §III-A), so between two
/// collections a honeypot needs nothing older than the last one: records,
/// shared lists, the file table and the peer-name table all belong to the
/// current period, and [`Self::take_chunk`] hands them over whole.  Only
/// the client-name map outlives a cut, because peer sessions keep the
/// name index they were given at HELLO.
#[derive(Clone, Debug)]
pub struct HoneypotLog {
    pub honeypot: HoneypotId,
    /// Server the honeypot was connected to while recording.
    pub server: ServerInfo,
    /// This period's records; `name` and `file` index this period's
    /// `peer_names` and `files`.
    pub records: Vec<QueryRecord>,
    pub shared_lists: SharedLists,
    /// This period's peer client names, in first-use order.
    pub peer_names: Vec<String>,
    /// Files observed this period (advertised files, queried files,
    /// shared-list files).  A [`FileIdx`] is valid only within the period
    /// it was interned in.
    pub files: FileTable,
    /// Every client name of the run, by the run-long [`NameIdx`]
    /// [`Self::intern_name`] returns.
    names: Vec<RunName>,
    name_index: HashMap<String, NameIdx>,
    /// Number of cuts so far.
    period: u32,
}

/// A client name and where it sits in the current period's `peer_names`.
#[derive(Clone, Debug)]
struct RunName {
    name: String,
    /// The period `local` belongs to.
    period: u32,
    local: NameIdx,
}

impl HoneypotLog {
    pub fn new(honeypot: HoneypotId, server: ServerInfo) -> Self {
        HoneypotLog {
            honeypot,
            server,
            records: Vec::new(),
            shared_lists: SharedLists::new(),
            peer_names: Vec::new(),
            files: FileTable::new(),
            names: Vec::new(),
            name_index: HashMap::new(),
            period: 0,
        }
    }

    /// Interns a peer client name, returning its run-long index (what a
    /// session keeps across cuts; [`Self::push`] maps it to the period's
    /// numbering).  A new name joins the current period at once, so it
    /// travels in the next chunk even if no record refers to it.
    pub fn intern_name(&mut self, name: &str) -> NameIdx {
        if let Some(&idx) = self.name_index.get(name) {
            return idx;
        }
        let idx = self.names.len() as NameIdx;
        self.names.push(RunName {
            name: name.to_string(),
            period: self.period,
            local: self.peer_names.len() as NameIdx,
        });
        self.peer_names.push(name.to_string());
        self.name_index.insert(name.to_string(), idx);
        idx
    }

    /// Appends a query record whose `name` is a run-long index from
    /// [`Self::intern_name`] and whose `file` indexes this period's
    /// `files`.
    pub fn push(&mut self, mut record: QueryRecord) {
        let run = &mut self.names[record.name as usize];
        if run.period != self.period {
            run.period = self.period;
            run.local = self.peer_names.len() as NameIdx;
            self.peer_names.push(run.name.clone());
        }
        record.name = run.local;
        self.records.push(record);
    }

    /// The current collection period: how many chunks have been cut.
    pub(crate) fn period(&self) -> u32 {
        self.period
    }

    /// Distinct client names seen in the run (what a log keeps across cuts).
    #[cfg(test)]
    pub(crate) fn run_names(&self) -> usize {
        self.names.len()
    }

    /// True when records or shared lists await collection.
    pub fn has_pending(&self) -> bool {
        !self.records.is_empty() || !self.shared_lists.is_empty()
    }

    /// Number of records of a given kind.
    pub fn count_kind(&self, kind: QueryKind) -> usize {
        self.records.iter().filter(|r| r.kind == kind).count()
    }

    /// Closes the period: moves its records, shared lists and tables into
    /// a chunk and starts the next period empty — the honeypot keeps
    /// logging while the manager periodically collects (paper §III-A:
    /// "the manager periodically gathers the data collected by
    /// honeypots").  Nothing is copied or renumbered, so a cut costs O(1).
    ///
    /// The chunk is self-contained: its tables hold every entry the
    /// period interned, in interning order, which includes every entry its
    /// records and shared lists refer to.  A table entry new to the
    /// manager is always new to the honeypot that ships it (the honeypot's
    /// earlier chunks carried everything it saw before), and those entries
    /// ride in first-seen order, so merging a honeypot's chunks in cut
    /// order builds the manager's global tables in the order a run-long
    /// table would.
    pub fn take_chunk(&mut self) -> LogChunk {
        self.period += 1;
        LogChunk {
            honeypot: self.honeypot,
            server: self.server.clone(),
            records: std::mem::take(&mut self.records),
            shared_lists: std::mem::take(&mut self.shared_lists),
            peer_names: std::mem::take(&mut self.peer_names),
            files: std::mem::take(&mut self.files),
        }
    }
}

/// A collected batch of log data handed from a honeypot to the manager.
///
/// Self-contained: record and shared-list indices refer to the chunk's own
/// name/file tables, which are the tables of the collection period it
/// closes (see [`HoneypotLog::take_chunk`]) — never the honeypot's whole
/// history.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LogChunk {
    pub honeypot: HoneypotId,
    pub server: ServerInfo,
    pub records: Vec<QueryRecord>,
    pub shared_lists: SharedLists,
    pub peer_names: Vec<String>,
    pub files: FileTable,
}

impl LogChunk {
    /// Checks that every record and shared-list index falls inside the
    /// chunk's own tables — what [`crate::Manager::collect`] relies on.
    /// Chunks cut by [`HoneypotLog::take_chunk`] always pass; decoders of
    /// untrusted bytes must call this before handing a chunk on.
    pub fn check_indices(&self) -> Result<(), &'static str> {
        let (n_names, n_files) = (self.peer_names.len(), self.files.len());
        for r in &self.records {
            if r.name as usize >= n_names {
                return Err("record name index out of range");
            }
            if r.file != FILE_NONE && r.file as usize >= n_files {
                return Err("record file index out of range");
            }
        }
        if self.shared_lists.files.iter().any(|&f| f as usize >= n_files) {
            return Err("shared-list file index out of range");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::Ipv4;

    fn server() -> ServerInfo {
        ServerInfo::new("BigServer", Ipv4::new(195, 1, 2, 3), 4661)
    }

    fn sample_record(log: &mut HoneypotLog, kind: QueryKind) -> QueryRecord {
        let name = log.intern_name("eMule v0.49a");
        QueryRecord {
            at: SimTime::from_secs(12),
            kind,
            peer: IpHash([1; 16]),
            port: 4662,
            id_status: IdStatus::High,
            user_id: UserId::from_seed(b"u"),
            name,
            version: 0x49,
            file: FILE_NONE,
        }
    }

    #[test]
    fn interning_dedups_names() {
        let mut log = HoneypotLog::new(HoneypotId(0), server());
        let a = log.intern_name("eMule");
        let b = log.intern_name("aMule");
        let c = log.intern_name("eMule");
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_eq!(log.peer_names.len(), 2);
    }

    #[test]
    fn file_table_interns_and_sums() {
        let mut t = FileTable::new();
        let f1 = FileId::from_seed(b"a");
        let f2 = FileId::from_seed(b"b");
        let i1 = t.intern(f1, "a.avi", 700);
        let i2 = t.intern(f2, "b.mp3", 5);
        assert_eq!(t.intern(f1, "other-name.avi", 9999), i1, "first name/size win");
        assert_eq!(t.len(), 2);
        assert_eq!(t.total_size(), 705);
        assert_eq!(t.name(i1), "a.avi");
        assert_eq!(t.size(i2), 5);
        assert_eq!(t.lookup(&f2), Some(i2));
        assert_eq!(t.id(i1), f1);
    }

    #[test]
    fn file_table_index_rebuild() {
        // The .edhp container carries the id/name/size columns only: a
        // decoded table builds its lookup index on first use, from those
        // columns, and gets the mapping the writer's table had.
        let f = FileId::from_seed(b"x");
        let mut log = crate::MeasurementLog::default();
        log.files.intern(FileId::from_seed(b"w"), "w", 2);
        log.files.intern(f, "x", 1);
        let path = std::env::temp_dir().join(format!("edhp-log-index-{}.edhp", std::process::id()));
        crate::storage::save(&log, &path).unwrap();
        let back = crate::storage::load(&path).unwrap().files;
        std::fs::remove_file(&path).ok();
        let mut interned_first = back.clone();
        assert_eq!(back.lookup(&f), Some(1), "the first lookup builds the index");
        assert_eq!(back.lookup(&FileId::from_seed(b"absent")), None);
        assert_eq!(interned_first.intern(f, "x", 1), 1, "so does the first intern, and it dedups");
        assert_eq!(interned_first.intern(FileId::from_seed(b"y"), "y", 3), 2);
        assert_eq!(interned_first.len(), 3);
        assert_eq!(interned_first.lookup(&f), Some(1));
    }

    #[test]
    fn take_chunk_drains_records_and_carries_referenced_tables() {
        let mut log = HoneypotLog::new(HoneypotId(3), server());
        let r = sample_record(&mut log, QueryKind::Hello);
        log.push(r);
        log.intern_name("aMule 2.2");
        log.files.intern(FileId::from_seed(b"f"), "f.avi", 1);
        let chunk = log.take_chunk();
        assert_eq!(chunk.records.len(), 1);
        assert_eq!(chunk.honeypot, HoneypotId(3));
        assert_eq!(chunk.peer_names.len(), 2, "new names travel even when unreferenced");
        assert_eq!(chunk.files.len(), 1, "the period's file table travels whole");
        assert!(log.records.is_empty(), "records drained");
        assert!(log.peer_names.is_empty() && log.files.is_empty(), "the next period starts empty");
        assert_eq!(log.period(), 1);
        // A second chunk carries exactly the one old name its record refers
        // to, renumbered to the period's own table when the record is pushed.
        let mut r2 = sample_record(&mut log, QueryKind::StartUpload);
        r2.name = log.intern_name("aMule 2.2");
        assert_eq!(r2.name, 1, "intern_name returns the run-long index");
        log.push(r2);
        assert_eq!(log.records[0].name, 0, "push maps it to the period's numbering");
        let chunk2 = log.take_chunk();
        assert_eq!(chunk2.peer_names, vec!["aMule 2.2".to_string()]);
        assert_eq!(chunk2.records[0].name, 0);
        assert!(chunk2.files.is_empty());
        assert_eq!(chunk2.check_indices(), Ok(()));
    }

    /// Across several rounds and any worker count, every name is rewritten
    /// in place, in order, at its exact length.
    #[test]
    fn map_names_rewrites_each_name_in_place() {
        let n = 2 * REWRITE_ROUND + 7;
        let mut table = FileTable::new();
        for i in 0..n {
            let name = format!("file.{i}.{}", "x".repeat(i % 5));
            table.intern(FileId::from_seed(name.as_bytes()), &name, i as u64);
        }
        let rewrite = |name: &str, out: &mut String| {
            out.push('<');
            out.push_str(&name.to_uppercase());
            out.push('>');
        };
        let mut first: Option<FileTable> = None;
        for workers in [1, 2, 3, 8] {
            let mut t = table.clone();
            netsim::par::with_workers(workers, || t.map_names(rewrite));
            let mut total = 0;
            for i in 0..n as FileIdx {
                let want = format!("<{}>", table.name(i).to_uppercase());
                assert_eq!(t.name(i), want, "{workers} workers, name {i}");
                total += want.len();
            }
            assert_eq!(t.names.len(), total, "one buffer, the names back to back");
            for i in 0..n as FileIdx {
                assert_eq!((t.id(i), t.size(i)), (table.id(i), table.size(i)));
            }
            match &first {
                Some(first) => assert_eq!(&t, first, "{workers} workers"),
                None => first = Some(t),
            }
        }
    }

    #[test]
    fn file_table_debug_lists_each_name() {
        let mut t = FileTable::new();
        t.intern(FileId([1; 16]), "a b.avi", 7);
        t.intern(FileId([2; 16]), "", 0);
        t.intern(FileId([3; 16]), "é.mp3", 9);
        assert_eq!(
            format!("{t:?}"),
            "FileTable { ids: [FileId(01010101010101010101010101010101), \
             FileId(02020202020202020202020202020202), \
             FileId(03030303030303030303030303030303)], \
             names: [\"a b.avi\", \"\", \"é.mp3\"], sizes: [7, 0, 9], .. }"
        );
    }

    #[test]
    fn quiet_period_chunk_is_empty() {
        let mut log = HoneypotLog::new(HoneypotId(0), server());
        log.files.intern(FileId::from_seed(b"advertised"), "advertised.avi", 1);
        let r = sample_record(&mut log, QueryKind::Hello);
        log.push(r);
        let first = log.take_chunk();
        assert_eq!(first.files.len(), 1, "advertised-but-never-queried file travels once");
        assert!(!log.has_pending());
        let quiet = log.take_chunk();
        assert!(quiet.records.is_empty() && quiet.shared_lists.is_empty());
        assert!(
            quiet.peer_names.is_empty() && quiet.files.is_empty(),
            "nothing new, nothing referenced: empty tables"
        );
    }

    #[test]
    fn chunk_tables_are_ascending_subsequences_with_local_indices() {
        let mut log = HoneypotLog::new(HoneypotId(0), server());
        let ids: Vec<FileId> = (0..6u8).map(|i| FileId::from_seed(&[i])).collect();
        for (i, id) in ids.iter().enumerate() {
            log.files.intern(*id, &format!("f{i}"), i as u64);
        }
        log.take_chunk();
        // Refer to earlier files 4 and 1 (in that order), then a new one:
        // the period interns each on first use, so its table holds them in
        // that order and every index is period-local from the start.
        let mut r = sample_record(&mut log, QueryKind::RequestPart);
        r.file = log.files.intern(ids[4], "f4", 4);
        log.push(r);
        let listed = [ids[1], ids[4]].map(|id| log.files.intern(id, "renamed", 0));
        log.shared_lists.push(SimTime::from_secs(1), IpHash([2; 16]), listed);
        let fresh = log.files.intern(FileId::from_seed(b"new"), "new", 9);
        log.shared_lists.push(SimTime::from_secs(2), IpHash([2; 16]), [fresh]);
        let chunk = log.take_chunk();
        let carried: Vec<FileId> =
            (0..chunk.files.len() as u32).map(|i| chunk.files.id(i)).collect();
        assert_eq!(carried, vec![ids[4], ids[1], FileId::from_seed(b"new")]);
        assert_eq!(chunk.records[0].file, 0);
        assert_eq!(chunk.shared_lists.get(0).files, &[1, 0]);
        assert_eq!(chunk.shared_lists.get(1).files, &[2]);
        assert_eq!(chunk.files.name(0), "f4");
        assert_eq!(chunk.files.name(1), "renamed", "the period's first-seen name");
        assert_eq!(chunk.files.size(2), 9);
        assert_eq!(chunk.check_indices(), Ok(()));
    }

    #[test]
    fn check_indices_flags_each_dangling_reference() {
        let mut log = HoneypotLog::new(HoneypotId(0), server());
        let file = log.files.intern(FileId::from_seed(b"f"), "f", 1);
        let mut r = sample_record(&mut log, QueryKind::StartUpload);
        r.file = file;
        log.push(r);
        log.shared_lists.push(SimTime::ZERO, IpHash([1; 16]), [file]);
        let good = log.take_chunk();
        assert_eq!(good.check_indices(), Ok(()));

        let mut bad = good.clone();
        bad.records[0].name = 1;
        assert_eq!(bad.check_indices(), Err("record name index out of range"));
        let mut bad = good.clone();
        bad.records[0].file = 1;
        assert_eq!(bad.check_indices(), Err("record file index out of range"));
        let mut bad = good;
        bad.files = FileTable::new();
        bad.records[0].file = FILE_NONE;
        assert_eq!(bad.check_indices(), Err("shared-list file index out of range"));
    }

    #[test]
    fn packed_record_round_trips() {
        let mut log = HoneypotLog::new(HoneypotId(0), server());
        for kind in [QueryKind::Hello, QueryKind::StartUpload, QueryKind::RequestPart] {
            for id_status in [IdStatus::High, IdStatus::Low] {
                let mut r = sample_record(&mut log, kind);
                r.id_status = id_status;
                r.file = if kind == QueryKind::Hello { FILE_NONE } else { 7 };
                let p = PackedQueryRecord::pack(&r);
                assert_eq!(p.unpack(), Some(r), "pack/unpack must be lossless");
                let bytes = p.to_wire_bytes();
                assert_eq!(PackedQueryRecord::from_wire_bytes(&bytes), p, "byte round trip");
            }
        }
    }

    #[test]
    fn packed_record_rejects_corrupt_tags() {
        let mut log = HoneypotLog::new(HoneypotId(0), server());
        let mut p = PackedQueryRecord::pack(&sample_record(&mut log, QueryKind::Hello));
        p.kind = 9;
        assert_eq!(p.unpack(), None);
        p.kind = 0;
        p.id_status = 9;
        assert_eq!(p.unpack(), None);
    }

    #[test]
    fn packed_record_wire_layout_is_pinned() {
        // The byte offsets are the storage contract; a change here is a
        // format break and must bump the platform codec version instead.
        let r = QueryRecord {
            at: SimTime::from_millis(0x0102_0304_0506_0708),
            kind: QueryKind::StartUpload,
            peer: IpHash([0xAA; 16]),
            port: 0xBEEF,
            id_status: IdStatus::Low,
            user_id: UserId([0xBB; 16]),
            name: 0x11121314,
            version: 0x21222324,
            file: 0x31323334,
        };
        let b = PackedQueryRecord::pack(&r).to_wire_bytes();
        assert_eq!(&b[0..8], &0x0102_0304_0506_0708u64.to_le_bytes());
        assert_eq!(b[8], 1, "START-UPLOAD tag");
        assert_eq!(&b[9..25], &[0xAA; 16]);
        assert_eq!(&b[25..27], &0xBEEFu16.to_le_bytes());
        assert_eq!(b[27], 1, "low-ID tag");
        assert_eq!(&b[28..44], &[0xBB; 16]);
        assert_eq!(&b[44..48], &0x11121314u32.to_le_bytes());
        assert_eq!(&b[48..52], &0x21222324u32.to_le_bytes());
        assert_eq!(&b[52..56], &0x31323334u32.to_le_bytes());
    }

    #[test]
    fn shared_lists_arena_round_trips() {
        let mut lists = SharedLists::new();
        lists.push(SimTime::from_secs(1), IpHash([1; 16]), [3, 4, 5]);
        lists.begin(SimTime::from_secs(2), IpHash([2; 16]));
        lists.push(SimTime::from_secs(3), IpHash([3; 16]), [9]);
        assert_eq!(lists.len(), 3);
        assert_eq!(lists.total_files(), 4);
        assert_eq!(lists.get(0).files, &[3, 4, 5]);
        assert_eq!(lists.get(1).files, &[] as &[FileIdx], "begin with no files is an empty list");
        assert_eq!(lists.get(2).at, SimTime::from_secs(3));
        assert_eq!(lists.get(2).peer, IpHash([3; 16]));
        let collected: Vec<&[FileIdx]> = lists.iter().map(|v| v.files).collect();
        let expected: Vec<&[FileIdx]> = vec![&[3, 4, 5], &[], &[9]];
        assert_eq!(collected, expected);
    }

    #[test]
    fn shared_lists_append_extends_open_list() {
        let mut lists = SharedLists::new();
        lists.begin(SimTime::ZERO, IpHash([0; 16]));
        lists.append_file(7);
        lists.append_file(8);
        lists.push(SimTime::from_secs(1), IpHash([1; 16]), []);
        assert_eq!(lists.get(0).files, &[7, 8]);
        assert_eq!(lists.get(1).files, &[] as &[FileIdx]);
        // Draining via take leaves a valid empty arena behind.
        let taken = std::mem::take(&mut lists);
        assert_eq!(taken.len(), 2);
        assert!(lists.is_empty());
        lists.push(SimTime::from_secs(2), IpHash([2; 16]), [1]);
        assert_eq!(lists.get(0).files, &[1]);
    }

    #[test]
    fn count_kind_filters() {
        let mut log = HoneypotLog::new(HoneypotId(0), server());
        for kind in [QueryKind::Hello, QueryKind::Hello, QueryKind::RequestPart] {
            let r = sample_record(&mut log, kind);
            log.push(r);
        }
        assert_eq!(log.count_kind(QueryKind::Hello), 2);
        assert_eq!(log.count_kind(QueryKind::RequestPart), 1);
        assert_eq!(log.count_kind(QueryKind::StartUpload), 0);
    }

    #[test]
    fn query_kind_names() {
        assert_eq!(QueryKind::Hello.name(), "HELLO");
        assert_eq!(QueryKind::StartUpload.name(), "START-UPLOAD");
        assert_eq!(QueryKind::RequestPart.name(), "REQUEST-PART");
    }
}
