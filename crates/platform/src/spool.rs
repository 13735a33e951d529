//! Durable write-ahead spool: CRC-framed, segmented, torn-tail safe.
//!
//! The paper's honeypots ran for weeks between log collections; a crash
//! must never silently lose a chunk the manager has not acknowledged.  A
//! [`Spool`] is a directory of append-only segment files.  Every record is
//! written *before* it touches the wire and trimmed only after the
//! receiving side acknowledged it, so the set of records on disk is always
//! a superset of the unacknowledged in-flight data:
//!
//! * **append** — a framed record (`magic, seq, len, payload, crc`) goes to
//!   the active segment; segments rotate at a size threshold;
//! * **trim** — once `seq` is acked, every record at or below it is
//!   dropped, and segments whose records are all acked are deleted;
//! * **recovery** — on open, segments are scanned in order; the first torn
//!   or corrupt record truncates its segment at the last valid byte and
//!   drops every later segment, so recovery always yields a clean *prefix*
//!   of what was appended — a half-written tail is detected, never merged;
//! * **replay** — the recovery set is read back from the segments on
//!   demand ([`Spool::for_each_record`], [`Spool::replay`]), one segment
//!   in memory at a time.
//!
//! The spool is *the disk plus an index*: it keeps no payload byte in
//! memory, only each segment's first/last sequence and size, the last
//! appended sequence and the trim frontier.  Resident memory is
//! O(segments), never O(bytes made durable).
//!
//! The same structure serves two masters: each agent spools encoded
//! `LogUpload` payloads before transport, and the manager daemon appends
//! every *merged* chunk to a spool-backed WAL before acking it (see
//! [`crate::checkpoint`]), which is what makes the ack → trim handshake
//! safe end to end: an acked chunk is durable on the manager side.
//!
//! Durability is against process death (data reaches the kernel on every
//! append), not power loss — matching what the chaos harness exercises.
//! A sidecar `.lock` file gives the spool single-writer semantics across
//! the brief window where a relaunched incarnation overlaps the old one.

use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use edonkey_proto::control::{crc32, Crc32};

use crate::diskfault::{DiskFaultKind, DiskFaults};
use crate::obs::{HistogramHandle, Registry};

/// First byte of every spool record.
pub const SPOOL_MAGIC: u8 = 0xD5;
/// Upper bound on a record payload; anything larger is corruption.
pub const MAX_SPOOL_PAYLOAD: usize = 64 << 20;

const HEADER_LEN: usize = 1 + 8 + 4; // magic, seq (LE), payload len (LE)
const TRAILER_LEN: usize = 4; // crc32 (LE) over header + payload
const LOCK_WAIT: Duration = Duration::from_secs(2);

/// Spool tuning.
#[derive(Clone, Copy, Debug)]
pub struct SpoolConfig {
    /// Rotate the active segment once it reaches this many bytes.
    pub segment_max_bytes: u64,
}

impl Default for SpoolConfig {
    fn default() -> Self {
        SpoolConfig { segment_max_bytes: 256 << 10 }
    }
}

/// One durable record: a sequence number and an opaque payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpoolRecord {
    pub seq: u64,
    pub payload: Vec<u8>,
}

/// Index entry of one segment file.
#[derive(Debug)]
struct Segment {
    /// Sequence of the segment's first record; names the file.
    first_seq: u64,
    /// Highest record seq in the segment (`None` for a fresh empty one).
    last_seq: Option<u64>,
    /// Bytes in the file, a torn tail included (rotation must see them).
    bytes: u64,
}

/// A directory-backed write-ahead spool.  See the module docs for the
/// contract.
#[derive(Debug)]
pub struct Spool {
    dir: PathBuf,
    cfg: SpoolConfig,
    /// Live segments, oldest first; the writer appends to the back.
    segments: VecDeque<Segment>,
    /// Highest sequence appended and not yet trimmed.
    last_seq: Option<u64>,
    /// Trim frontier: records at or below it are acknowledged and never
    /// replayed by this instance, even where a partially acked segment
    /// still holds them on disk.
    trimmed: Option<u64>,
    writer: Option<File>,
    /// The record being written; reused so a steady-state append
    /// allocates nothing.
    scratch: Vec<u8>,
    locked: bool,
    faults: DiskFaults,
    /// Set when an injected short write left a half-record on the tail;
    /// only a reopen (which truncates the tear) may append again.
    torn: bool,
}

impl Spool {
    /// Opens (creating if needed) the spool at `dir` with default tuning.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Spool> {
        Spool::open_with(dir, SpoolConfig::default())
    }

    /// Opens the spool, scanning and repairing existing segments: torn
    /// tails are truncated in place, and segments after the first damaged
    /// one are deleted (they would follow a hole).  The surviving records
    /// are available from [`Spool::for_each_record`].
    pub fn open_with(dir: impl Into<PathBuf>, cfg: SpoolConfig) -> io::Result<Spool> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let locked = acquire_lock(&dir)?;

        let mut first_seqs: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir)? {
            let name = entry?.file_name();
            if let Some(first_seq) = name.to_str().and_then(parse_segment_name) {
                first_seqs.push(first_seq);
            }
        }
        first_seqs.sort_unstable();

        let mut segments = VecDeque::new();
        let mut prev_seq: Option<u64> = None;
        let mut damaged = false;
        for first_seq in first_seqs {
            let path = dir.join(segment_name(first_seq));
            if damaged {
                // Everything after a damaged segment would follow a hole in
                // the sequence; recovery keeps a prefix, so drop it.
                fs::remove_file(&path)?;
                continue;
            }
            let data = fs::read(&path)?;
            let scan = scan_records(&data, prev_seq, |_, _| {});
            damaged = scan.valid_len < data.len() as u64;
            if scan.valid_len == 0 {
                fs::remove_file(&path)?;
                continue;
            }
            if damaged {
                let f = OpenOptions::new().write(true).open(&path)?;
                f.set_len(scan.valid_len)?;
                f.sync_all().ok();
            }
            prev_seq = scan.last_seq;
            segments.push_back(Segment { first_seq, last_seq: prev_seq, bytes: scan.valid_len });
        }

        Ok(Spool {
            dir,
            cfg,
            segments,
            last_seq: prev_seq,
            trimmed: None,
            writer: None,
            scratch: Vec::new(),
            locked,
            faults: DiskFaults::none(),
            torn: false,
        })
    }

    /// Attaches a shared write-fault injector; every subsequent `append`
    /// consults it.  Used by the chaos harness to model a full or failing
    /// disk without touching the real filesystem.
    pub fn set_faults(&mut self, faults: DiskFaults) {
        self.faults = faults;
    }

    /// The spool directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Highest sequence number spooled and not yet trimmed.
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq
    }

    /// Streams every record on disk that has not been trimmed to `f`,
    /// oldest first, reading one segment at a time.  After `open` this is
    /// the recovery set (it may include records whose ack was lost in the
    /// crash; the receiver re-acks those by sequence).  Like recovery it
    /// yields a clean prefix: it stops at the first record that is torn
    /// or fails its checksum.
    pub fn for_each_record(&self, mut f: impl FnMut(u64, &[u8])) -> io::Result<()> {
        let mut prev_seq: Option<u64> = None;
        for seg in &self.segments {
            if seg.last_seq.is_none() {
                continue; // a tail holding nothing but a failed write
            }
            let data = fs::read(self.segment_path(seg.first_seq))?;
            let scan = scan_records(&data, prev_seq, |seq, payload| {
                if self.trimmed.is_none_or(|t| seq > t) {
                    f(seq, payload);
                }
            });
            if scan.last_seq != seg.last_seq {
                break; // damaged since it was indexed; later segments follow a hole
            }
            prev_seq = scan.last_seq;
        }
        Ok(())
    }

    /// [`Spool::for_each_record`] collected into owned records.
    pub fn replay(&self) -> io::Result<Vec<SpoolRecord>> {
        let mut records = Vec::new();
        self.for_each_record(|seq, payload| {
            records.push(SpoolRecord { seq, payload: payload.to_vec() })
        })?;
        Ok(records)
    }

    /// Appends one record durably (the write reaches the kernel before
    /// this returns).  `seq` must be strictly greater than every sequence
    /// already spooled.
    pub fn append(&mut self, seq: u64, payload: &[u8]) -> io::Result<()> {
        let t0 = Instant::now();
        let result = self.append_inner(seq, payload);
        // Observability only: the append-latency distribution (success or
        // failure) for the live registry; never alters the result.
        spool_append_hist().record((t0.elapsed().as_micros() as u64).max(1));
        result
    }

    fn append_inner(&mut self, seq: u64, payload: &[u8]) -> io::Result<()> {
        if payload.len() > MAX_SPOOL_PAYLOAD {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "spool payload too large"));
        }
        if let Some(last) = self.last_seq {
            if seq <= last {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("spool seq {seq} not after {last}"),
                ));
            }
        }
        if self.torn {
            return Err(io::Error::other(
                "spool tail torn by earlier failed write; reopen to repair",
            ));
        }
        let record_len = (HEADER_LEN + payload.len() + TRAILER_LEN) as u64;
        if self.segments.back().is_some_and(|seg| seg.bytes == 0) {
            // A failed first write left a byte-less tail.  Replace it: a
            // segment is always named after its first record, and no empty
            // one is left mid-spool to block trimming.
            let seg = self.segments.pop_back().expect("tail checked");
            self.writer = None;
            fs::remove_file(self.segment_path(seg.first_seq))?;
        }
        let rotate = match self.segments.back() {
            Some(seg) => seg.bytes + record_len > self.cfg.segment_max_bytes,
            None => true,
        };
        if rotate {
            let path = self.segment_path(seq);
            self.writer = Some(OpenOptions::new().create_new(true).append(true).open(path)?);
            self.segments.push_back(Segment { first_seq: seq, last_seq: None, bytes: 0 });
        } else if self.writer.is_none() {
            // Re-open the tail segment (first append after `open`).
            let seg = self.segments.back().expect("tail segment");
            let path = self.segment_path(seg.first_seq);
            self.writer = Some(OpenOptions::new().append(true).open(path)?);
        }
        encode_record(&mut self.scratch, seq, payload);
        let writer = self.writer.as_mut().expect("active segment writer");
        let seg = self.segments.back_mut().expect("active segment");
        if let Some(kind) = self.faults.check() {
            if kind == DiskFaultKind::ShortWrite {
                // Model a torn write: a prefix of the record reaches the
                // disk before the failure.  The bytes still occupy the
                // segment (rotation math must see them); only a reopen
                // scan repairs the tail, so refuse further appends.
                let cut = self.scratch.len() / 2;
                let _ = writer.write_all(&self.scratch[..cut]);
                seg.bytes += cut as u64;
                self.torn = true;
            }
            return Err(kind.to_error());
        }
        writer.write_all(&self.scratch)?;
        seg.bytes += record_len;
        seg.last_seq = Some(seq);
        self.last_seq = Some(seq);
        Ok(())
    }

    /// Drops every record with `seq <= acked` and deletes segments whose
    /// records are all acked.  A partially-acked segment stays on disk;
    /// its acked records are not replayed by this instance, and are simply
    /// re-acked by sequence when a reopened spool replays them.
    pub fn trim_acked(&mut self, acked: u64) -> io::Result<()> {
        if self.last_seq.is_some_and(|last| last > acked) {
            self.trimmed = self.trimmed.max(Some(acked));
        } else {
            // Everything spooled is acknowledged: every segment goes, so no
            // stale record is left for the frontier to hide.
            self.last_seq = None;
            self.trimmed = None;
        }
        while self.segments.front().is_some_and(|s| s.last_seq.is_some_and(|last| last <= acked)) {
            let seg = self.segments.pop_front().expect("front checked");
            if self.segments.is_empty() {
                self.writer = None; // never hold a handle to a deleted file
            }
            fs::remove_file(self.segment_path(seg.first_seq))?;
        }
        Ok(())
    }

    fn segment_path(&self, first_seq: u64) -> PathBuf {
        self.dir.join(segment_name(first_seq))
    }
}

/// Process-wide spool append-latency histogram, resolved once.
fn spool_append_hist() -> &'static HistogramHandle {
    static HIST: std::sync::OnceLock<HistogramHandle> = std::sync::OnceLock::new();
    HIST.get_or_init(|| Registry::global().histogram("spool_append_micros"))
}

impl Drop for Spool {
    fn drop(&mut self) {
        if self.locked {
            let _ = fs::remove_file(self.dir.join(".lock"));
        }
    }
}

/// Encodes one framed record into `out` (cleared first), checksumming
/// header and payload as they are copied in.
fn encode_record(out: &mut Vec<u8>, seq: u64, payload: &[u8]) {
    out.clear();
    out.reserve(HEADER_LEN + payload.len() + TRAILER_LEN);
    out.push(SPOOL_MAGIC);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    let mut crc = Crc32::new();
    crc.update(out);
    out.extend_from_slice(payload);
    crc.update(payload);
    out.extend_from_slice(&crc.finish().to_le_bytes());
}

struct Scan {
    /// Sequence of the last valid record (`None` when there is none).
    last_seq: Option<u64>,
    /// Byte length of the valid prefix; anything beyond is torn/corrupt.
    valid_len: u64,
}

/// Walks a segment's bytes, handing each valid record to `f` and stopping
/// at the first one that is torn (runs past the end), malformed (bad
/// magic, oversized, CRC mismatch) or out of order.  Never panics: every
/// branch is a bounds-checked slice.
fn scan_records(data: &[u8], prev_seq: Option<u64>, mut f: impl FnMut(u64, &[u8])) -> Scan {
    let mut last_seq = None;
    let mut pos = 0usize;
    while pos < data.len() {
        let rest = &data[pos..];
        if rest.len() < HEADER_LEN + TRAILER_LEN || rest[0] != SPOOL_MAGIC {
            break;
        }
        let seq = u64::from_le_bytes(rest[1..9].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(rest[9..13].try_into().expect("4 bytes")) as usize;
        if len > MAX_SPOOL_PAYLOAD {
            break;
        }
        let total = HEADER_LEN + len + TRAILER_LEN;
        if rest.len() < total {
            break; // torn tail: the record runs past the end of the file
        }
        let stored = u32::from_le_bytes(rest[total - 4..total].try_into().expect("4 bytes"));
        if crc32(&rest[..total - 4]) != stored {
            break;
        }
        if last_seq.or(prev_seq).is_some_and(|p| seq <= p) {
            break; // sequence must be strictly increasing
        }
        f(seq, &rest[HEADER_LEN..HEADER_LEN + len]);
        last_seq = Some(seq);
        pos += total;
    }
    Scan { last_seq, valid_len: pos as u64 }
}

fn segment_name(first_seq: u64) -> String {
    format!("spool-{first_seq:016x}.seg")
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("spool-")?.strip_suffix(".seg")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Takes the spool's advisory lock, waiting briefly and then stealing a
/// stale one (the previous holder crashed without its `Drop` running).
fn acquire_lock(dir: &Path) -> io::Result<bool> {
    let path = dir.join(".lock");
    let deadline = Instant::now() + LOCK_WAIT;
    loop {
        match OpenOptions::new().write(true).create_new(true).open(&path) {
            Ok(mut f) => {
                let _ = writeln!(f, "{}", std::process::id());
                return Ok(true);
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                if Instant::now() >= deadline {
                    let _ = fs::remove_file(&path);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "edhp-spool-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn payload(i: u64) -> Vec<u8> {
        (0..(8 + i % 32)).map(|b| (b as u8).wrapping_mul(31).wrapping_add(i as u8)).collect()
    }

    fn replayed_seqs(spool: &Spool) -> Vec<u64> {
        spool.replay().unwrap().iter().map(|r| r.seq).collect()
    }

    #[test]
    fn append_trim_replay_round_trip() {
        let dir = tmpdir("roundtrip");
        {
            let mut spool = Spool::open(&dir).unwrap();
            for seq in 0..5u64 {
                spool.append(seq, &payload(seq)).unwrap();
            }
            spool.trim_acked(1).unwrap();
            assert_eq!(spool.replay().unwrap().len(), 3);
        }
        let spool = Spool::open(&dir).unwrap();
        // Seqs 0-1 may survive on disk (their segment also holds 2-4); the
        // replay set must at least cover everything unacked, in order.
        let seqs = replayed_seqs(&spool);
        assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        assert!(seqs.contains(&2) && seqs.contains(&3) && seqs.contains(&4));
        for r in spool.replay().unwrap() {
            assert_eq!(r.payload, payload(r.seq));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fully_acked_segments_are_deleted() {
        let dir = tmpdir("trimseg");
        let cfg = SpoolConfig { segment_max_bytes: 64 };
        let mut spool = Spool::open_with(&dir, cfg).unwrap();
        for seq in 0..10u64 {
            spool.append(seq, &payload(seq)).unwrap();
        }
        assert!(spool.segments.len() > 1, "small segments must rotate");
        spool.trim_acked(9).unwrap();
        assert!(spool.replay().unwrap().is_empty());
        assert!(spool.segments.is_empty());
        let leftover = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
            .count();
        assert_eq!(leftover, 0);
        drop(spool);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_truncated_not_merged() {
        let dir = tmpdir("torn");
        {
            let mut spool = Spool::open(&dir).unwrap();
            for seq in 0..3u64 {
                spool.append(seq, &payload(seq)).unwrap();
            }
        }
        // Tear the last record in half.
        let seg = dir.join(segment_name(0));
        let data = fs::read(&seg).unwrap();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(data.len() as u64 - 7).unwrap();
        drop(f);

        let spool = Spool::open(&dir).unwrap();
        let seqs = replayed_seqs(&spool);
        assert_eq!(seqs, vec![0, 1]);
        // The file itself was repaired: reopening again sees a clean file.
        drop(spool);
        let spool = Spool::open(&dir).unwrap();
        assert_eq!(spool.replay().unwrap().len(), 2);
        drop(spool);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_truncates_and_drops_later_segments() {
        let dir = tmpdir("corrupt");
        let cfg = SpoolConfig { segment_max_bytes: 48 };
        {
            let mut spool = Spool::open_with(&dir, cfg).unwrap();
            for seq in 0..6u64 {
                spool.append(seq, &payload(seq)).unwrap();
            }
            assert!(spool.segments.len() >= 2);
        }
        // Flip a payload bit in the very first record of the first segment.
        let seg = dir.join(segment_name(0));
        let mut data = fs::read(&seg).unwrap();
        data[HEADER_LEN] ^= 0x40;
        fs::write(&seg, &data).unwrap();

        let spool = Spool::open_with(&dir, cfg).unwrap();
        assert!(spool.replay().unwrap().is_empty(), "corrupt head yields an empty prefix");
        drop(spool);
        // Later segments were deleted: only a hole-free prefix survives.
        let segs = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".seg"))
            .count();
        assert_eq!(segs, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_after_recovery_continues_the_stream() {
        let dir = tmpdir("continue");
        {
            let mut spool = Spool::open(&dir).unwrap();
            spool.append(0, &payload(0)).unwrap();
            spool.append(1, &payload(1)).unwrap();
        }
        let mut spool = Spool::open(&dir).unwrap();
        assert_eq!(spool.last_seq(), Some(1));
        assert!(spool.append(1, &payload(1)).is_err(), "non-monotonic seq rejected");
        spool.append(2, &payload(2)).unwrap();
        drop(spool);
        let spool = Spool::open(&dir).unwrap();
        let seqs = replayed_seqs(&spool);
        assert_eq!(seqs, vec![0, 1, 2]);
        drop(spool);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncation_at_every_byte_yields_a_clean_prefix() {
        // Property (exhaustive, not sampled): however many trailing bytes a
        // crash tears off the segment, recovery either replays an exact
        // prefix of what was appended or nothing — never a panic, never a
        // record that was not written, never bytes that differ.
        let dir = tmpdir("everybyte");
        let expected: Vec<SpoolRecord> =
            (0..6u64).map(|seq| SpoolRecord { seq: seq * 3 + 1, payload: payload(seq) }).collect();
        {
            let mut spool = Spool::open(&dir).unwrap();
            for r in &expected {
                spool.append(r.seq, &r.payload).unwrap();
            }
        }
        let seg = dir.join(segment_name(expected[0].seq));
        let full = fs::read(&seg).unwrap();
        for cut in 0..=full.len() {
            fs::write(&seg, &full[..cut]).unwrap();
            let spool = Spool::open(&dir).unwrap();
            let got = spool.replay().unwrap();
            assert!(got.len() <= expected.len(), "cut at {cut}: extra records");
            assert_eq!(got, &expected[..got.len()], "cut at {cut}: not a prefix");
            drop(spool);
            // `open` repaired the file in place; restore the full bytes so
            // the next cut starts from the original image.
            fs::write(&seg, &full).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flips_never_panic_and_never_invent_records() {
        // Companion property: flip any single bit anywhere in the segment;
        // recovery must still return only records that were appended (a
        // flip in one payload byte must kill that record, not mutate it).
        let dir = tmpdir("bitflip");
        let expected: Vec<SpoolRecord> =
            (0..4u64).map(|seq| SpoolRecord { seq, payload: payload(seq) }).collect();
        {
            let mut spool = Spool::open(&dir).unwrap();
            for r in &expected {
                spool.append(r.seq, &r.payload).unwrap();
            }
        }
        let seg = dir.join(segment_name(0));
        let full = fs::read(&seg).unwrap();
        for i in 0..full.len() {
            let mut doctored = full.clone();
            doctored[i] ^= 0x10;
            fs::write(&seg, &doctored).unwrap();
            let spool = Spool::open(&dir).unwrap();
            for r in spool.replay().unwrap() {
                assert!(expected.contains(&r), "flip at byte {i} invented record seq {}", r.seq);
            }
            drop(spool);
            fs::write(&seg, &full).unwrap();
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_enospc_writes_nothing_and_clears() {
        let dir = tmpdir("enospc");
        let faults = DiskFaults::none();
        let mut spool = Spool::open(&dir).unwrap();
        spool.set_faults(faults.clone());
        spool.append(0, &payload(0)).unwrap();
        faults.inject(DiskFaultKind::Enospc, Some(2));
        assert!(spool.append(1, &payload(1)).is_err());
        assert!(spool.append(1, &payload(1)).is_err());
        assert_eq!(faults.injected(), 2);
        // The fault burst is spent; the same seq retries cleanly and the
        // failed attempts left no bytes behind.
        spool.append(1, &payload(1)).unwrap();
        drop(spool);
        let spool = Spool::open(&dir).unwrap();
        let seqs = replayed_seqs(&spool);
        assert_eq!(seqs, vec![0, 1]);
        drop(spool);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_short_write_tears_the_tail_and_reopen_repairs() {
        let dir = tmpdir("shortwrite");
        let faults = DiskFaults::none();
        let mut spool = Spool::open(&dir).unwrap();
        spool.set_faults(faults.clone());
        spool.append(0, &payload(0)).unwrap();
        faults.inject(DiskFaultKind::ShortWrite, Some(1));
        assert!(spool.append(1, &payload(1)).is_err());
        // The tail now holds half a record; appends stay refused until a
        // reopen truncates the tear.
        assert!(spool.append(2, &payload(2)).is_err());
        drop(spool);
        let mut spool = Spool::open(&dir).unwrap();
        let seqs = replayed_seqs(&spool);
        assert_eq!(seqs, vec![0], "torn record must not replay");
        spool.append(1, &payload(1)).unwrap();
        drop(spool);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Segment `spool-0000000000000003.seg` as the last mirror-keeping,
    /// bitwise-CRC build wrote it: `append(3, b"first record")`, then
    /// `append(7, &payload(7))`.
    #[rustfmt::skip]
    const PARENT_SEGMENT: [u8; 61] = [
        0xd5, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0c, 0x00, 0x00, 0x00, 0x66, 0x69, 0x72,
        0x73, 0x74, 0x20, 0x72, 0x65, 0x63, 0x6f, 0x72, 0x64, 0x9a, 0x70, 0xe0, 0x1c, 0xd5, 0x07, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0f, 0x00, 0x00, 0x00, 0x07, 0x26, 0x45, 0x64, 0x83, 0xa2,
        0xc1, 0xe0, 0xff, 0x1e, 0x3d, 0x5c, 0x7b, 0x9a, 0xb9, 0x84, 0x4f, 0x22, 0xe2,
    ];

    #[test]
    fn segment_written_by_the_parent_build_recovers_and_is_rewritten_identically() {
        let dir = tmpdir("fixture");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(segment_name(3)), PARENT_SEGMENT).unwrap();
        let expected = vec![
            SpoolRecord { seq: 3, payload: b"first record".to_vec() },
            SpoolRecord { seq: 7, payload: payload(7) },
        ];
        let spool = Spool::open(&dir).unwrap();
        assert_eq!(spool.replay().unwrap(), expected);
        assert_eq!(spool.last_seq(), Some(7));
        drop(spool);
        assert_eq!(fs::read(dir.join(segment_name(3))).unwrap(), PARENT_SEGMENT, "repair-free");
        let _ = fs::remove_dir_all(&dir);

        let mut spool = Spool::open(&dir).unwrap();
        for r in &expected {
            spool.append(r.seq, &r.payload).unwrap();
        }
        drop(spool);
        assert_eq!(fs::read(dir.join(segment_name(3))).unwrap(), PARENT_SEGMENT);
        let _ = fs::remove_dir_all(&dir);
    }

    /// The spool as it was before it became an index: every unacked
    /// payload mirrored in memory, the disk modelled as a list of segments.
    /// Kept as the oracle of the differential test below.
    struct Model {
        segment_max_bytes: u64,
        segments: Vec<ModelSegment>,
        unacked: Vec<SpoolRecord>,
        torn: bool,
    }

    #[derive(Default)]
    struct ModelSegment {
        /// Bytes in the file, a torn half-record included.
        bytes: u64,
        records: Vec<SpoolRecord>,
    }

    impl Model {
        fn append(&mut self, seq: u64, payload: &[u8], fault: Option<DiskFaultKind>) -> bool {
            if self.torn || self.unacked.last().is_some_and(|last| seq <= last.seq) {
                return false;
            }
            let len = (HEADER_LEN + payload.len() + TRAILER_LEN) as u64;
            if self.segments.last().is_some_and(|s| s.bytes == 0) {
                self.segments.pop();
            }
            let rotate =
                self.segments.last().is_none_or(|s| s.bytes + len > self.segment_max_bytes);
            if rotate {
                self.segments.push(ModelSegment::default());
            }
            let seg = self.segments.last_mut().unwrap();
            match fault {
                Some(DiskFaultKind::ShortWrite) => {
                    seg.bytes += len / 2;
                    self.torn = true;
                    false
                }
                Some(_) => false,
                None => {
                    let rec = SpoolRecord { seq, payload: payload.to_vec() };
                    seg.bytes += len;
                    seg.records.push(rec.clone());
                    self.unacked.push(rec);
                    true
                }
            }
        }

        fn trim_acked(&mut self, acked: u64) {
            self.unacked.retain(|r| r.seq > acked);
            let keep_from = self
                .segments
                .iter()
                .position(|s| s.records.last().is_none_or(|last| last.seq > acked))
                .unwrap_or(self.segments.len());
            self.segments.drain(..keep_from);
        }

        /// What `Spool::open` recovers: the torn tail cut off, record-less
        /// segments deleted, everything left on disk unacked again.
        fn reopen(&mut self) {
            self.segments.retain(|s| !s.records.is_empty());
            for s in &mut self.segments {
                s.bytes = s
                    .records
                    .iter()
                    .map(|r| (HEADER_LEN + r.payload.len() + TRAILER_LEN) as u64)
                    .sum();
            }
            self.unacked = self.segments.iter().flat_map(|s| s.records.iter().cloned()).collect();
            self.torn = false;
        }
    }

    #[test]
    fn index_only_spool_matches_the_mirrored_model() {
        use netsim::Rng;
        // Stale records (acked, but kept on disk by a partially acked
        // segment) that a reopen brought back; the comparison after every
        // step proves they were hidden until then.
        let mut resurrected = 0usize;
        for seed in 0..300u64 {
            let mut rng = Rng::seed_from(seed ^ 0x5B00_1D1F);
            let dir = tmpdir(&format!("model-{seed}"));
            // Some records are larger than the smaller segment sizes.
            let cfg = SpoolConfig { segment_max_bytes: *rng.choose(&[48, 64, 128, 300]) };
            let faults = DiskFaults::none();
            let mut spool = Spool::open_with(&dir, cfg).unwrap();
            spool.set_faults(faults.clone());
            let mut model = Model {
                segment_max_bytes: cfg.segment_max_bytes,
                segments: Vec::new(),
                unacked: Vec::new(),
                torn: false,
            };
            let mut next_seq = rng.below(3);
            for step in 0..40 {
                let at = format!("seed {seed} step {step}");
                match rng.below(100) {
                    0..=54 => {
                        let stale = next_seq > 0 && rng.chance(0.05);
                        let seq = if stale { rng.below(next_seq) } else { next_seq };
                        let mut payload = vec![0u8; rng.below(61) as usize];
                        rng.fill_bytes(&mut payload);
                        let fault = rng.chance(0.15).then(|| {
                            *rng.choose(&[
                                DiskFaultKind::Enospc,
                                DiskFaultKind::Eio,
                                DiskFaultKind::ShortWrite,
                            ])
                        });
                        if let Some(kind) = fault {
                            faults.inject(kind, Some(1));
                        }
                        let consumed_before = faults.injected();
                        let ok = spool.append(seq, &payload).is_ok();
                        faults.clear();
                        // A refused seq or a torn tail fails before the
                        // disk (and so the injector) is reached.
                        let hit = fault.filter(|_| faults.injected() > consumed_before);
                        assert_eq!(ok, model.append(seq, &payload, hit), "{at}: append {seq}");
                        if ok {
                            next_seq = seq + 1 + rng.below(3);
                        }
                    }
                    55..=79 => {
                        let acked = rng.below(next_seq + 2);
                        spool.trim_acked(acked).unwrap();
                        model.trim_acked(acked);
                    }
                    _ => {
                        drop(spool);
                        spool = Spool::open_with(&dir, cfg).unwrap();
                        spool.set_faults(faults.clone());
                        let hidden = model.unacked.len();
                        model.reopen();
                        resurrected += model.unacked.len() - hidden;
                    }
                }
                assert_eq!(spool.replay().unwrap(), model.unacked, "{at}");
                assert_eq!(spool.last_seq(), model.unacked.last().map(|r| r.seq), "{at}");
                assert_eq!(spool.segments.len(), model.segments.len(), "{at}: segments");
            }
            drop(spool);
            let _ = fs::remove_dir_all(&dir);
        }
        assert!(resurrected > 100, "only {resurrected} stale records ever came back");
    }

    #[test]
    fn failed_first_write_of_an_oversized_record_retries_cleanly() {
        // The record alone exceeds the segment size, so the retry rotates
        // again — onto the name of the empty file the failed write left.
        let dir = tmpdir("oversized");
        let faults = DiskFaults::none();
        let mut spool = Spool::open_with(&dir, SpoolConfig { segment_max_bytes: 16 }).unwrap();
        spool.set_faults(faults.clone());
        faults.inject(DiskFaultKind::Enospc, Some(1));
        assert!(spool.append(0, &payload(0)).is_err());
        spool.append(0, &payload(0)).unwrap();
        spool.append(1, &payload(1)).unwrap();
        assert_eq!(replayed_seqs(&spool), vec![0, 1]);
        drop(spool);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_lock_is_stolen() {
        let dir = tmpdir("lock");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join(".lock"), b"stale").unwrap();
        let t0 = Instant::now();
        let spool = Spool::open(&dir).unwrap();
        assert!(t0.elapsed() >= LOCK_WAIT, "must wait before stealing");
        drop(spool);
        assert!(!dir.join(".lock").exists(), "lock released on drop");
        let _ = fs::remove_dir_all(&dir);
    }
}
