//! Server-side capture log — the "ten weeks in the life of an eDonkey
//! server" modality (Aidouni, Latapy & Magnien's sibling measurement).
//!
//! Where [`crate::log`] records what *honeypots* see, this module records
//! what the *index server* handles: every LOGIN, OFFER-FILES, SEARCH,
//! GET-SOURCES, DISCONNECT and SERVER-STATUS query, as a compact
//! fixed-width record.  A ten-simulated-week capture produces tens of
//! millions of records, so the storage pipeline is built around two
//! constraints:
//!
//! * **bounded memory** — [`ServerLogWriter`] buffers at most one frame of
//!   records (a few thousand); everything else streams to disk, and
//!   [`ServerLogReader`] streams back one segment file at a time.  Peak
//!   RSS is a function of the frame and segment sizes, never of the
//!   capture length;
//! * **crash tolerance** — the capture is a [`crate::spool`]: each
//!   compressed frame is one CRC-framed spool record whose sequence is the
//!   frame number, segments rotate at a byte budget, and a torn tail or a
//!   flipped bit ends the read-back at the last intact frame (the spool's
//!   clean-prefix rule) instead of corrupting it.  Write faults come from
//!   the spool's [`DiskFaults`] handle.
//!
//! The writer buffers [`ServerRecord`]s (56 bytes each, pinned below) and
//! the frame codec is the storage contract.  On disk, frames are
//! compressed column-wise — timestamps and session tokens as zig-zag
//! delta varints, counters as varints, 16-byte digests through a
//! frame-local dictionary — which lands well under the 56-byte raw
//! record cost without any external compression dependency.

use std::io;
use std::path::Path;

use edonkey_proto::FileId;
use netsim::SimTime;

use crate::anonymize::IpHash;
use crate::spool::{framed_len, DiskFaults, Spool, SpoolConfig, SpoolReader};

/// The query types the server-side capture distinguishes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
#[repr(u8)]
pub enum ServerQueryKind {
    Login,
    OfferFiles,
    Search,
    GetSources,
    Disconnect,
    Status,
}

/// All kinds, in wire-tag order (index == tag).
pub const SERVER_QUERY_KINDS: [ServerQueryKind; 6] = [
    ServerQueryKind::Login,
    ServerQueryKind::OfferFiles,
    ServerQueryKind::Search,
    ServerQueryKind::GetSources,
    ServerQueryKind::Disconnect,
    ServerQueryKind::Status,
];

impl ServerQueryKind {
    /// Wire tag (also the index into per-kind count arrays).
    pub fn tag(self) -> u8 {
        self as u8
    }

    /// Inverse of [`Self::tag`]; `None` on an invalid tag.
    pub fn from_tag(tag: u8) -> Option<Self> {
        SERVER_QUERY_KINDS.get(tag as usize).copied()
    }

    /// Paper-style display name.
    pub fn name(self) -> &'static str {
        match self {
            ServerQueryKind::Login => "LOGIN",
            ServerQueryKind::OfferFiles => "OFFER-FILES",
            ServerQueryKind::Search => "SEARCH",
            ServerQueryKind::GetSources => "GET-SOURCES",
            ServerQueryKind::Disconnect => "DISCONNECT",
            ServerQueryKind::Status => "STATUS",
        }
    }
}

/// Session tokens at or above this value denote genuine peers in the
/// capture; below it they are measurement infrastructure (honeypot
/// sessions are their honeypot index, STATUS snapshots use session 0).
/// Shared between the simulator (which mints the tokens) and the analysis
/// crate (which filters on them), so it lives here in the schema.
pub const SERVER_PEER_SESSION_BASE: u64 = 1 << 32;

/// One server-handled query (step-1 anonymised: the client IP appears
/// only as its salted hash, the same [`crate::anonymize::IpHasher`] the
/// honeypots use — peer-distinctness is therefore comparable across the
/// two modalities).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ServerRecord {
    /// Reception timestamp.
    pub at: SimTime,
    /// Query type.
    pub kind: ServerQueryKind,
    /// Step-1 anonymised client IP (all-zero when the query carried no
    /// usable client identity, e.g. STATUS snapshots or dropped packets).
    pub peer: IpHash,
    /// Client TCP port (0 when unknown).
    pub port: u16,
    /// Kind-specific flag: LOGIN → 1 if a high ID was granted;
    /// OFFER-FILES → 1 if the session was registered (0 = dropped or
    /// capture-only); DISCONNECT → 1 for a peer session.
    pub flag: u8,
    /// File the query concerns (GET-SOURCES, first file of OFFER-FILES);
    /// all-zero when none.
    pub file: FileId,
    /// Session token; for STATUS records this field carries the indexed
    /// file count instead (the snapshot has no session).
    pub session: u64,
    /// Kind-specific count: OFFER-FILES → files published, SEARCH →
    /// results returned, GET-SOURCES → sources returned, DISCONNECT →
    /// offers withdrawn, STATUS → connected users.
    pub payload: u32,
}

/// Byte size of a [`ServerRecord`] (the same 56-byte budget as the
/// honeypot side's `PackedQueryRecord`): what a capture would cost
/// uncompressed.
pub const SERVER_RECORD_BYTES: usize = 56;

const _: () = assert!(std::mem::size_of::<ServerRecord>() == SERVER_RECORD_BYTES);

// ---------------------------------------------------------------------------
// Varint / zig-zag primitives (LEB128).

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = *buf.get(*pos)?;
        *pos += 1;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None // over-long encoding: corrupt
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// Frame codec: column-wise, schema-aware compression.

/// Encodes one frame of records into `out` (cleared first).
///
/// Column order: count, at-deltas (milliseconds, zig-zag varint, first
/// absolute), kind tags, flag bytes, port varints, payload varints,
/// session deltas (zig-zag varint, first absolute), then peer and file
/// digests each as a varint index into the frame-local dictionary of
/// digests in first-seen order — an index equal to the current dictionary
/// size introduces a novel digest and is followed by its 16 raw bytes.
pub(crate) fn encode_frame(records: &[ServerRecord], out: &mut Vec<u8>) {
    out.clear();
    put_varint(out, records.len() as u64);
    encode_delta_column(records.iter().map(|r| r.at.as_millis()), out);
    out.extend(records.iter().map(|r| r.kind.tag()));
    out.extend(records.iter().map(|r| r.flag));
    for r in records {
        put_varint(out, u64::from(r.port));
    }
    for r in records {
        put_varint(out, u64::from(r.payload));
    }
    encode_delta_column(records.iter().map(|r| r.session), out);
    encode_digest_column(records.iter().map(|r| &r.peer.0), out);
    encode_digest_column(records.iter().map(|r| &r.file.0), out);
}

fn encode_delta_column(values: impl Iterator<Item = u64>, out: &mut Vec<u8>) {
    let mut prev = None;
    for v in values {
        put_varint(out, prev.map_or(v, |p: u64| zigzag(v.wrapping_sub(p) as i64)));
        prev = Some(v);
    }
}

fn encode_digest_column<'a>(digests: impl Iterator<Item = &'a [u8; 16]>, out: &mut Vec<u8>) {
    let mut dict = std::collections::HashMap::new();
    for d in digests {
        let novel = dict.len() as u64;
        let idx = *dict.entry(*d).or_insert(novel);
        put_varint(out, idx);
        if idx == novel {
            out.extend_from_slice(d);
        }
    }
}

/// Decodes one delta column in place via `set`; `None` on corruption.
fn decode_delta_column(
    buf: &[u8],
    pos: &mut usize,
    records: &mut [ServerRecord],
    set: fn(&mut ServerRecord, u64),
) -> Option<()> {
    let mut prev = None;
    for r in records.iter_mut() {
        let v = get_varint(buf, pos)?;
        let value = prev.map_or(v, |p: u64| p.wrapping_add(unzigzag(v) as u64));
        set(r, value);
        prev = Some(value);
    }
    Some(())
}

/// Decodes one digest column in place via `set`; `None` on corruption.
fn decode_digest_column(
    buf: &[u8],
    pos: &mut usize,
    records: &mut [ServerRecord],
    set: fn(&mut ServerRecord, [u8; 16]),
) -> Option<()> {
    let mut dict: Vec<[u8; 16]> = Vec::new();
    for r in records.iter_mut() {
        let idx = get_varint(buf, pos)? as usize;
        let digest = match idx.cmp(&dict.len()) {
            std::cmp::Ordering::Less => dict[idx],
            std::cmp::Ordering::Equal => {
                let d: [u8; 16] = buf.get(*pos..*pos + 16)?.try_into().expect("fixed range");
                *pos += 16;
                dict.push(d);
                d
            }
            std::cmp::Ordering::Greater => return None, // forward reference: corrupt
        };
        set(r, digest);
    }
    Some(())
}

/// Decodes one frame; `None` on any structural corruption, an invalid
/// kind tag included.
pub(crate) fn decode_frame(buf: &[u8]) -> Option<Vec<ServerRecord>> {
    let mut pos = 0usize;
    let count = get_varint(buf, &mut pos)? as usize;
    if count > MAX_FRAME_RECORDS {
        return None;
    }
    let blank = ServerRecord {
        at: SimTime::ZERO,
        kind: ServerQueryKind::Login,
        peer: IpHash([0; 16]),
        port: 0,
        flag: 0,
        file: FileId([0; 16]),
        session: 0,
        payload: 0,
    };
    let mut records = vec![blank; count];
    decode_delta_column(buf, &mut pos, &mut records, |r, v| r.at = SimTime::from_millis(v))?;
    for r in records.iter_mut() {
        r.kind = ServerQueryKind::from_tag(*buf.get(pos)?)?;
        pos += 1;
    }
    for r in records.iter_mut() {
        r.flag = *buf.get(pos)?;
        pos += 1;
    }
    for r in records.iter_mut() {
        r.port = u16::try_from(get_varint(buf, &mut pos)?).ok()?;
    }
    for r in records.iter_mut() {
        r.payload = u32::try_from(get_varint(buf, &mut pos)?).ok()?;
    }
    decode_delta_column(buf, &mut pos, &mut records, |r, v| r.session = v)?;
    decode_digest_column(buf, &mut pos, &mut records, |r, d| r.peer = IpHash(d))?;
    decode_digest_column(buf, &mut pos, &mut records, |r, d| r.file = FileId(d))?;
    if pos != buf.len() {
        return None; // trailing garbage inside a CRC-clean frame: corrupt
    }
    Some(records)
}

// ---------------------------------------------------------------------------
// The capture on disk: a spool of frames.

/// Upper bound on records per frame a reader will accept (corruption
/// guard; writers stay far below it).
pub const MAX_FRAME_RECORDS: usize = 1 << 20;

/// Capture-wide statistics returned by [`ServerLogWriter::finish`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerLogStats {
    /// Segment files written.
    pub segments: u32,
    /// Records captured.
    pub records: u64,
    /// Records × 56: what the capture would cost uncompressed.
    pub raw_bytes: u64,
    /// Bytes written: the compressed frames plus their spool framing.
    pub compressed_bytes: u64,
}

impl ServerLogStats {
    /// Mean on-disk cost per record.
    pub fn bytes_per_record(&self) -> f64 {
        self.compressed_bytes as f64 / self.records.max(1) as f64
    }
}

/// Streaming, segment-rotated, compressed server-log writer.
///
/// Memory use is one frame of records plus one encode buffer, regardless
/// of capture length.  Each full frame is appended to the capture's
/// [`Spool`] as the record whose sequence is the frame number.
pub struct ServerLogWriter {
    spool: Spool,
    frame_records: usize,
    frame: Vec<ServerRecord>,
    scratch: Vec<u8>,
    stats: ServerLogStats,
}

impl ServerLogWriter {
    /// Opens a fresh capture under `dir` (created if absent) whose
    /// segments rotate at `segment_max_bytes`.  A previous capture there
    /// is deleted first, so a rerun can never interleave two captures.
    pub fn create(dir: &Path, frame_records: usize, segment_max_bytes: u64) -> io::Result<Self> {
        let mut spool = Spool::open_with(dir, SpoolConfig { segment_max_bytes })?;
        spool.trim_acked(u64::MAX)?;
        Ok(ServerLogWriter {
            spool,
            frame_records: frame_records.clamp(1, MAX_FRAME_RECORDS),
            frame: Vec::new(),
            scratch: Vec::new(),
            stats: ServerLogStats::default(),
        })
    }

    /// Attaches a shared write-fault injector: every later frame flush
    /// consults it (see [`Spool::set_faults`]).
    pub fn set_faults(&mut self, faults: DiskFaults) {
        self.spool.set_faults(faults);
    }

    /// Statistics accumulated so far (what [`Self::finish`] would return
    /// for the already-flushed portion).  Lets a capture that must stop
    /// early — e.g. on a write failure — still report what made it out.
    pub fn stats(&self) -> ServerLogStats {
        ServerLogStats { segments: self.spool.segment_count() as u32, ..self.stats }
    }

    /// Appends one record (buffered; durable after [`Self::finish`] or
    /// the enclosing frame flush).
    pub fn push(&mut self, record: &ServerRecord) -> io::Result<()> {
        self.frame.push(*record);
        if self.frame.len() >= self.frame_records {
            self.flush_frame()?;
        }
        Ok(())
    }

    /// Appends the buffered frame as the next spool record.  A failed
    /// append keeps the frame buffered, so the next flush retries it.
    fn flush_frame(&mut self) -> io::Result<()> {
        if self.frame.is_empty() {
            return Ok(());
        }
        encode_frame(&self.frame, &mut self.scratch);
        let seq = self.spool.last_seq().map_or(0, |last| last + 1);
        self.spool.append(seq, &self.scratch)?;
        self.stats.records += self.frame.len() as u64;
        self.stats.raw_bytes += (self.frame.len() * SERVER_RECORD_BYTES) as u64;
        self.stats.compressed_bytes += framed_len(self.scratch.len());
        self.frame.clear();
        Ok(())
    }

    /// Flushes the tail frame, closes the capture and returns its
    /// statistics.
    pub fn finish(mut self) -> io::Result<ServerLogStats> {
        self.flush_frame()?;
        Ok(self.stats())
    }

    /// Records buffered or written so far.
    pub fn records(&self) -> u64 {
        self.stats.records + self.frame.len() as u64
    }
}

/// Streaming reader over a capture directory.
///
/// Iterates records in capture order, one segment file and one decoded
/// frame in memory at a time.  It reads the spool's clean prefix: a torn
/// tail or corrupt frame ends iteration cleanly at the last intact frame
/// with [`Self::truncated`] set.
pub struct ServerLogReader {
    frames: SpoolReader,
    frame: Vec<ServerRecord>,
    frame_pos: usize,
    truncated: bool,
}

impl ServerLogReader {
    /// Opens the capture under `dir`.
    pub fn open(dir: &Path) -> io::Result<Self> {
        Ok(ServerLogReader {
            frames: SpoolReader::open(dir)?,
            frame: Vec::new(),
            frame_pos: 0,
            truncated: false,
        })
    }

    /// Whether iteration stopped early on a torn or corrupt tail.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// The next record, or `None` at end of capture (clean or truncated —
    /// check [`Self::truncated`]).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<ServerRecord> {
        while self.frame_pos == self.frame.len() {
            if self.truncated {
                return None;
            }
            match self.frames.next_record() {
                Ok(Some((_, block))) => match decode_frame(block) {
                    Some(frame) => {
                        self.frame = frame;
                        self.frame_pos = 0;
                    }
                    None => self.truncated = true,
                },
                Ok(None) => {
                    self.truncated = self.frames.damaged();
                    return None;
                }
                Err(_) => self.truncated = true,
            }
        }
        let r = self.frame[self.frame_pos];
        self.frame_pos += 1;
        Some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spool::DiskFaultKind;
    use std::fs;
    use std::path::PathBuf;

    fn sample(i: u64) -> ServerRecord {
        let kind = SERVER_QUERY_KINDS[(i % 6) as usize];
        ServerRecord {
            at: SimTime::from_millis(1_000 * i),
            kind,
            peer: IpHash([(i % 7) as u8; 16]),
            port: 4662 + (i % 3) as u16,
            flag: (i % 2) as u8,
            file: FileId([(i % 4) as u8; 16]),
            session: SERVER_PEER_SESSION_BASE + i / 3,
            payload: (i * 13 % 97) as u32,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("edsl-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn segment_files(dir: &Path) -> Vec<PathBuf> {
        let mut files: Vec<PathBuf> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "seg"))
            .collect();
        files.sort();
        files
    }

    fn only_segment(dir: &Path) -> PathBuf {
        let files = segment_files(dir);
        assert_eq!(files.len(), 1, "one segment expected");
        files[0].clone()
    }

    fn read_all(dir: &Path) -> (Vec<ServerRecord>, bool) {
        let mut reader = ServerLogReader::open(dir).unwrap();
        let mut out = Vec::new();
        while let Some(r) = reader.next() {
            out.push(r);
        }
        (out, reader.truncated())
    }

    #[test]
    fn kind_tags_round_trip() {
        for kind in SERVER_QUERY_KINDS {
            assert_eq!(ServerQueryKind::from_tag(kind.tag()), Some(kind));
            assert!(!kind.name().is_empty());
        }
        assert_eq!(ServerQueryKind::from_tag(6), None);
    }

    #[test]
    fn packed_record_round_trips() {
        let records: Vec<ServerRecord> = (0..24).map(sample).collect();
        let mut buf = Vec::new();
        for r in &records {
            encode_frame(std::slice::from_ref(r), &mut buf);
            assert_eq!(decode_frame(&buf), Some(vec![*r]), "a one-record frame is lossless");
        }
        encode_frame(&records, &mut buf);
        assert_eq!(decode_frame(&buf), Some(records), "encode/decode must be lossless");
    }

    #[test]
    fn packed_record_rejects_corrupt_tag() {
        let mut buf = Vec::new();
        encode_frame(&[sample(0)], &mut buf);
        // The kind column follows the count and the one timestamp varint.
        let mut kind_at = Vec::new();
        put_varint(&mut kind_at, 1);
        put_varint(&mut kind_at, sample(0).at.as_millis());
        assert_eq!(buf[kind_at.len()], sample(0).kind.tag());
        buf[kind_at.len()] = 9;
        assert_eq!(decode_frame(&buf), None);
    }

    #[test]
    fn varint_round_trips() {
        let mut buf = Vec::new();
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for &v in &values {
            put_varint(&mut buf, v);
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
        }
        assert_eq!(pos, buf.len());
        for v in [-1i64, 0, 1, i64::MIN, i64::MAX, -123456] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn frame_codec_round_trips_and_compresses() {
        let records: Vec<ServerRecord> = (0..5_000).map(sample).collect();
        let mut buf = Vec::new();
        encode_frame(&records, &mut buf);
        assert_eq!(decode_frame(&buf).as_deref(), Some(&records[..]));
        assert!(
            buf.len() < records.len() * SERVER_RECORD_BYTES / 2,
            "frame must compress at least 2x on realistic columns ({} vs {})",
            buf.len(),
            records.len() * SERVER_RECORD_BYTES
        );
        // Structural corruption is rejected, not mis-decoded.
        assert_eq!(decode_frame(&buf[..buf.len() - 1]), None, "truncated frame");
        let empty: &[ServerRecord] = &[];
        encode_frame(empty, &mut buf);
        assert_eq!(decode_frame(&buf).as_deref(), Some(empty));
    }

    #[test]
    fn writer_reader_round_trip_with_rotation() {
        let dir = tmp_dir("roundtrip");
        let n = 10_000u64;
        let mut w = ServerLogWriter::create(&dir, 256, 4_096).unwrap();
        for i in 0..n {
            w.push(&sample(i)).unwrap();
        }
        assert_eq!(w.records(), n);
        let stats = w.finish().unwrap();
        assert_eq!(stats.records, n);
        assert!(stats.segments > 1, "4 KiB segments must rotate");
        assert_eq!(stats.segments as usize, segment_files(&dir).len());
        assert_eq!(stats.raw_bytes, n * SERVER_RECORD_BYTES as u64);
        assert!(
            stats.bytes_per_record() < SERVER_RECORD_BYTES as f64 / 2.0,
            "compression too weak: {} B/record",
            stats.bytes_per_record()
        );
        let on_disk: u64 = segment_files(&dir).iter().map(|p| fs::metadata(p).unwrap().len()).sum();
        assert_eq!(stats.compressed_bytes, on_disk, "every byte written is accounted");
        let (read, truncated) = read_all(&dir);
        assert!(!truncated);
        assert_eq!(read.len() as u64, n);
        for (i, r) in read.iter().enumerate() {
            assert_eq!(*r, sample(i as u64), "record {i}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_cleanly() {
        let dir = tmp_dir("torn");
        let mut w = ServerLogWriter::create(&dir, 100, u64::MAX).unwrap();
        for i in 0..1_000 {
            w.push(&sample(i)).unwrap();
        }
        w.finish().unwrap();
        // Tear the single segment's tail mid-frame.
        let seg = only_segment(&dir);
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 37]).unwrap();
        let (read, truncated) = read_all(&dir);
        assert!(truncated, "torn tail must be reported");
        assert_eq!(read.len(), 900, "all intact frames survive");
        assert_eq!(read[899], sample(899));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bit_flip_truncates_at_crc() {
        let dir = tmp_dir("flip");
        let mut w = ServerLogWriter::create(&dir, 100, u64::MAX).unwrap();
        for i in 0..300 {
            w.push(&sample(i)).unwrap();
        }
        w.finish().unwrap();
        let seg = only_segment(&dir);
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();
        let (read, truncated) = read_all(&dir);
        assert!(truncated);
        assert!(read.len() < 300, "corrupt frame must not be served");
        assert_eq!(read.len() % 100, 0, "only whole intact frames survive");
        for (i, r) in read.iter().enumerate() {
            assert_eq!(*r, sample(i as u64));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_fault_fails_one_flush_then_recovers() {
        let dir = tmp_dir("wfault");
        let faults = DiskFaults::none();
        let mut w = ServerLogWriter::create(&dir, 10, u64::MAX).unwrap();
        w.set_faults(faults.clone());
        for i in 0..10 {
            w.push(&sample(i)).unwrap();
        }
        faults.inject(DiskFaultKind::Enospc, Some(1));
        // Filling the next frame hits the armed fault at its flush
        // boundary, before a byte is written.
        for i in 10..19 {
            w.push(&sample(i)).unwrap();
        }
        assert!(w.push(&sample(19)).is_err(), "armed fault must surface");
        assert_eq!(w.stats().records, 10, "only the first frame landed");
        // The fault is one-shot: the buffered frame flushes at the next
        // boundary and nothing on disk was damaged.
        w.push(&sample(20)).unwrap();
        let stats = w.finish().unwrap();
        assert_eq!(stats.records, 21);
        assert_eq!(faults.injected(), 1);
        let (read, truncated) = read_all(&dir);
        assert!(!truncated);
        assert_eq!(read.len(), 21);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_capture_reads_empty() {
        let dir = tmp_dir("empty");
        let w = ServerLogWriter::create(&dir, 16, 100).unwrap();
        let stats = w.finish().unwrap();
        assert_eq!((stats.segments, stats.records), (0, 0));
        assert_eq!(stats.bytes_per_record(), 0.0);
        let (read, truncated) = read_all(&dir);
        assert!(read.is_empty() && !truncated);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_removes_stale_segments() {
        let dir = tmp_dir("stale");
        let mut w = ServerLogWriter::create(&dir, 16, 100).unwrap();
        for i in 0..500 {
            w.push(&sample(i)).unwrap();
        }
        w.finish().unwrap();
        // A fresh capture over the same directory must not inherit the old
        // run's segments.
        let mut w = ServerLogWriter::create(&dir, 16, 100).unwrap();
        w.push(&sample(0)).unwrap();
        w.finish().unwrap();
        let (read, truncated) = read_all(&dir);
        assert!(!truncated);
        assert_eq!(read.len(), 1);
        assert_eq!(segment_files(&dir).len(), 1, "the old run's segments are gone");
        let _ = fs::remove_dir_all(&dir);
    }
}
