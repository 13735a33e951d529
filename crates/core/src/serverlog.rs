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
//!   records (a few thousand); everything else streams to disk through
//!   chunk-rotated segment files, and [`ServerLogReader`] streams back one
//!   frame at a time.  Peak RSS is a function of the frame size, never of
//!   the capture length;
//! * **crash tolerance** — segments are sequences of CRC-framed blocks
//!   (the PR 4 spool discipline): a torn tail or a flipped bit truncates
//!   the capture at the last intact frame instead of corrupting it.
//!
//! Records follow the PR 7 `PackedQueryRecord` discipline: the logical
//! [`ServerRecord`] has a `#[repr(C)]` storage twin,
//! [`PackedServerRecord`], whose size is pinned at compile time and
//! which the writer buffers one frame of.  No packed record is written
//! whole: the frame codec is the storage contract.  On disk, frames are
//! compressed column-wise — timestamps and session
//! tokens as zig-zag delta varints, counters as varints, 16-byte digests
//! with a same-as-previous flag — which lands well under the 56-byte raw
//! record cost without any external compression dependency.

use std::fs;
use std::io::{self, BufRead, Read, Write};
use std::path::{Path, PathBuf};

use edonkey_proto::control::crc32;
use edonkey_proto::FileId;
use netsim::SimTime;

use crate::anonymize::IpHash;

/// The query types the server-side capture distinguishes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
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
        match self {
            ServerQueryKind::Login => 0,
            ServerQueryKind::OfferFiles => 1,
            ServerQueryKind::Search => 2,
            ServerQueryKind::GetSources => 3,
            ServerQueryKind::Disconnect => 4,
            ServerQueryKind::Status => 5,
        }
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

/// Byte size of [`PackedServerRecord`] — and of [`ServerRecord`]: the
/// layout audit below pins both (the same 56-byte budget as the honeypot
/// side's `PackedQueryRecord`).
pub const PACKED_SERVER_RECORD_BYTES: usize = 56;

/// The `#[repr(C)]`-stable compact storage form of a [`ServerRecord`]:
/// fields largest-first so `repr(C)` yields zero padding, enums collapsed
/// to wire tags.
#[repr(C)]
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PackedServerRecord {
    /// Reception timestamp in milliseconds.
    pub at_ms: u64,
    /// Step-1 anonymised client IP digest.
    pub peer: [u8; 16],
    /// File digest (zeroed when none).
    pub file: [u8; 16],
    /// Session token (indexed-file count for STATUS).
    pub session: u64,
    /// Kind-specific count.
    pub payload: u32,
    /// Client TCP port.
    pub port: u16,
    /// Wire tag (see [`ServerQueryKind::tag`]).
    pub kind: u8,
    /// Kind-specific flag.
    pub flag: u8,
}

const _: () = assert!(std::mem::size_of::<PackedServerRecord>() == PACKED_SERVER_RECORD_BYTES);
const _: () = assert!(std::mem::size_of::<ServerRecord>() == PACKED_SERVER_RECORD_BYTES);
const _: () = assert!(std::mem::align_of::<PackedServerRecord>() == 8);

impl PackedServerRecord {
    /// Collapses a logical record into the storage form.
    pub fn pack(r: &ServerRecord) -> Self {
        PackedServerRecord {
            at_ms: r.at.as_millis(),
            peer: r.peer.0,
            file: r.file.0,
            session: r.session,
            payload: r.payload,
            port: r.port,
            kind: r.kind.tag(),
            flag: r.flag,
        }
    }

    /// Expands back to the logical record; `None` on an invalid kind tag
    /// (corrupt storage).
    pub fn unpack(&self) -> Option<ServerRecord> {
        Some(ServerRecord {
            at: SimTime::from_millis(self.at_ms),
            kind: ServerQueryKind::from_tag(self.kind)?,
            peer: IpHash(self.peer),
            port: self.port,
            flag: self.flag,
            file: FileId(self.file),
            session: self.session,
            payload: self.payload,
        })
    }
}

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

/// Encodes one frame of packed records into `out` (cleared first).
///
/// Column order: count, at-deltas (zig-zag varint, first absolute), kind
/// bytes, flag bytes, port varints, payload varints, session deltas
/// (zig-zag varint, first absolute), then peer and file digests each as a
/// varint index into the frame-local dictionary of digests in first-seen
/// order — an index equal to the current dictionary size introduces a
/// novel digest and is followed by its 16 raw bytes.
fn encode_frame(records: &[PackedServerRecord], out: &mut Vec<u8>) {
    out.clear();
    put_varint(out, records.len() as u64);
    let mut prev_at = 0u64;
    for (i, r) in records.iter().enumerate() {
        if i == 0 {
            put_varint(out, r.at_ms);
        } else {
            put_varint(out, zigzag(r.at_ms.wrapping_sub(prev_at) as i64));
        }
        prev_at = r.at_ms;
    }
    for r in records {
        out.push(r.kind);
    }
    for r in records {
        out.push(r.flag);
    }
    for r in records {
        put_varint(out, u64::from(r.port));
    }
    for r in records {
        put_varint(out, u64::from(r.payload));
    }
    let mut prev_session = 0u64;
    for (i, r) in records.iter().enumerate() {
        if i == 0 {
            put_varint(out, r.session);
        } else {
            put_varint(out, zigzag(r.session.wrapping_sub(prev_session) as i64));
        }
        prev_session = r.session;
    }
    encode_digest_column(records.iter().map(|r| &r.peer), out);
    encode_digest_column(records.iter().map(|r| &r.file), out);
}

fn encode_digest_column<'a>(digests: impl Iterator<Item = &'a [u8; 16]>, out: &mut Vec<u8>) {
    let mut dict: std::collections::HashMap<[u8; 16], u64> = std::collections::HashMap::new();
    for d in digests {
        if let Some(&idx) = dict.get(d) {
            put_varint(out, idx);
        } else {
            let idx = dict.len() as u64;
            put_varint(out, idx);
            out.extend_from_slice(d);
            dict.insert(*d, idx);
        }
    }
}

/// Decodes one digest column in place via `set`; `None` on corruption.
fn decode_digest_column(
    buf: &[u8],
    pos: &mut usize,
    records: &mut [PackedServerRecord],
    set: fn(&mut PackedServerRecord, [u8; 16]),
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

/// Decodes one frame; `None` on any structural corruption.
fn decode_frame(buf: &[u8]) -> Option<Vec<PackedServerRecord>> {
    let mut pos = 0usize;
    let count = get_varint(buf, &mut pos)? as usize;
    if count > MAX_FRAME_RECORDS {
        return None;
    }
    let mut records = vec![
        PackedServerRecord {
            at_ms: 0,
            peer: [0; 16],
            file: [0; 16],
            session: 0,
            payload: 0,
            port: 0,
            kind: 0,
            flag: 0,
        };
        count
    ];
    let mut prev = 0u64;
    for (i, r) in records.iter_mut().enumerate() {
        let v = get_varint(buf, &mut pos)?;
        r.at_ms = if i == 0 { v } else { prev.wrapping_add(unzigzag(v) as u64) };
        prev = r.at_ms;
    }
    for r in records.iter_mut() {
        r.kind = *buf.get(pos)?;
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
    prev = 0;
    for (i, r) in records.iter_mut().enumerate() {
        let v = get_varint(buf, &mut pos)?;
        r.session = if i == 0 { v } else { prev.wrapping_add(unzigzag(v) as u64) };
        prev = r.session;
    }
    decode_digest_column(buf, &mut pos, &mut records, |r, d| r.peer = d)?;
    decode_digest_column(buf, &mut pos, &mut records, |r, d| r.file = d)?;
    if pos != buf.len() {
        return None; // trailing garbage inside a CRC-clean frame: corrupt
    }
    Some(records)
}

// ---------------------------------------------------------------------------
// Segment files.

/// Segment file magic.
pub const SEGMENT_MAGIC: [u8; 4] = *b"EDSL";
/// Segment format version.
pub const SEGMENT_VERSION: u32 = 1;
/// Upper bound on records per frame a reader will accept (corruption
/// guard; writers stay far below it).
pub const MAX_FRAME_RECORDS: usize = 1 << 20;
/// Upper bound on a frame's encoded byte length a reader will accept.
const MAX_FRAME_BYTES: u32 = 128 << 20;

fn segment_name(index: u32) -> String {
    format!("seg-{index:05}.edsl")
}

/// Capture-wide statistics returned by [`ServerLogWriter::finish`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerLogStats {
    /// Segment files written.
    pub segments: u32,
    /// Records captured.
    pub records: u64,
    /// Records × 56: what the capture would cost uncompressed.
    pub raw_bytes: u64,
    /// Bytes actually written (headers + frames).
    pub compressed_bytes: u64,
}

impl ServerLogStats {
    /// Mean on-disk cost per record.
    pub fn bytes_per_record(&self) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        self.compressed_bytes as f64 / self.records as f64
    }
}

/// Streaming, chunk-rotated, compressed server-log writer.
///
/// Memory use is one frame of records plus one encode buffer, regardless
/// of capture length.  Frames are flushed as `[len:u32][crc32:u32][block]`
/// into `seg-NNNNN.edsl` files that rotate every
/// `segment_records` records.
pub struct ServerLogWriter {
    dir: PathBuf,
    frame_records: usize,
    segment_records: u64,
    frame: Vec<PackedServerRecord>,
    out: Option<io::BufWriter<fs::File>>,
    seg_records: u64,
    scratch: Vec<u8>,
    stats: ServerLogStats,
    fail_next_flush: bool,
}

impl ServerLogWriter {
    /// Opens a fresh capture under `dir` (created if absent; stale
    /// `.edsl` segments from a previous capture are removed so a rerun
    /// can never interleave two captures).
    pub fn create(dir: &Path, frame_records: usize, segment_records: u64) -> io::Result<Self> {
        fs::create_dir_all(dir)?;
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if entry.path().extension().is_some_and(|e| e == "edsl") {
                fs::remove_file(entry.path())?;
            }
        }
        Ok(ServerLogWriter {
            dir: dir.to_path_buf(),
            frame_records: frame_records.clamp(1, MAX_FRAME_RECORDS),
            segment_records: segment_records.max(1),
            frame: Vec::new(),
            out: None,
            seg_records: 0,
            scratch: Vec::new(),
            stats: ServerLogStats::default(),
            fail_next_flush: false,
        })
    }

    /// Test/chaos hook: the next frame flush fails with an injected I/O
    /// error before any byte is written.  Self-contained so the fault can
    /// be exercised without a real full disk.
    pub fn inject_write_fault(&mut self) {
        self.fail_next_flush = true;
    }

    /// Statistics accumulated so far (what [`Self::finish`] would return
    /// for the already-flushed portion).  Lets a capture that must stop
    /// early — e.g. on a write failure — still report what made it out.
    pub fn stats(&self) -> ServerLogStats {
        self.stats
    }

    /// Appends one record (buffered; durable after [`Self::finish`] or
    /// the enclosing frame flush).
    pub fn push(&mut self, record: &ServerRecord) -> io::Result<()> {
        self.frame.push(PackedServerRecord::pack(record));
        if self.frame.len() >= self.frame_records {
            self.flush_frame()?;
        }
        Ok(())
    }

    fn flush_frame(&mut self) -> io::Result<()> {
        if self.frame.is_empty() {
            return Ok(());
        }
        if self.fail_next_flush {
            self.fail_next_flush = false;
            return Err(io::Error::other("injected serverlog write fault"));
        }
        if self.out.is_none() {
            let path = self.dir.join(segment_name(self.stats.segments));
            let mut w = io::BufWriter::new(fs::File::create(path)?);
            w.write_all(&SEGMENT_MAGIC)?;
            w.write_all(&SEGMENT_VERSION.to_le_bytes())?;
            w.write_all(&self.stats.segments.to_le_bytes())?;
            self.stats.compressed_bytes += 12;
            self.stats.segments += 1;
            self.out = Some(w);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        encode_frame(&self.frame, &mut scratch);
        let crc = crc32(&scratch);
        let out = self.out.as_mut().expect("segment just ensured");
        out.write_all(&(scratch.len() as u32).to_le_bytes())?;
        out.write_all(&crc.to_le_bytes())?;
        out.write_all(&scratch)?;
        self.stats.records += self.frame.len() as u64;
        self.stats.raw_bytes += (self.frame.len() * PACKED_SERVER_RECORD_BYTES) as u64;
        self.stats.compressed_bytes += 8 + scratch.len() as u64;
        self.seg_records += self.frame.len() as u64;
        self.frame.clear();
        self.scratch = scratch;
        if self.seg_records >= self.segment_records {
            let mut w = self.out.take().expect("segment open");
            w.flush()?;
            self.seg_records = 0;
        }
        Ok(())
    }

    /// Flushes the tail frame, closes the current segment and returns the
    /// capture statistics.
    pub fn finish(mut self) -> io::Result<ServerLogStats> {
        self.flush_frame()?;
        if let Some(mut w) = self.out.take() {
            w.flush()?;
        }
        Ok(self.stats)
    }

    /// Records buffered or written so far.
    pub fn records(&self) -> u64 {
        self.stats.records + self.frame.len() as u64
    }
}

/// Streaming reader over a capture directory.
///
/// Iterates records in capture order, one decoded frame in memory at a
/// time.  A torn tail or corrupt frame ends iteration cleanly at the last
/// intact frame with [`Self::truncated`] set — the PR 4 spool recovery
/// contract.
pub struct ServerLogReader {
    segments: Vec<PathBuf>,
    next_segment: usize,
    cur: Option<io::BufReader<fs::File>>,
    frame: Vec<ServerRecord>,
    frame_pos: usize,
    truncated: bool,
    records_read: u64,
    skip_corrupt: bool,
    corrupt_frames: u64,
}

impl ServerLogReader {
    /// Opens the capture under `dir`.
    pub fn open(dir: &Path) -> io::Result<Self> {
        let mut segments: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "edsl"))
            .collect();
        segments.sort();
        Ok(ServerLogReader {
            segments,
            next_segment: 0,
            cur: None,
            frame: Vec::new(),
            frame_pos: 0,
            truncated: false,
            records_read: 0,
            skip_corrupt: false,
            corrupt_frames: 0,
        })
    }

    /// Switches to resilient mode: an *interior* frame whose CRC or
    /// contents fail is skipped (counted in [`Self::corrupt_frames`]) and
    /// iteration resumes at the next frame boundary, instead of truncating
    /// the capture there.  A torn tail — a frame whose bytes physically run
    /// out, or a header too damaged to find the next boundary — still
    /// truncates, because there is nothing to resync on.
    pub fn set_skip_corrupt(&mut self, on: bool) {
        self.skip_corrupt = on;
    }

    /// Interior frames dropped in resilient mode (see
    /// [`Self::set_skip_corrupt`]).
    pub fn corrupt_frames(&self) -> u64 {
        self.corrupt_frames
    }

    /// Whether iteration stopped early on a torn or corrupt tail.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Records yielded so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// The next record, or `None` at end of capture (clean or truncated —
    /// check [`Self::truncated`]).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<ServerRecord> {
        loop {
            if self.frame_pos < self.frame.len() {
                let r = self.frame[self.frame_pos];
                self.frame_pos += 1;
                self.records_read += 1;
                return Some(r);
            }
            if self.truncated {
                return None;
            }
            if !self.load_next_frame() {
                return None;
            }
        }
    }

    /// Reads the next frame into `self.frame`; `false` at end of capture.
    fn load_next_frame(&mut self) -> bool {
        loop {
            if self.cur.is_none() {
                if self.next_segment >= self.segments.len() {
                    return false;
                }
                let path = &self.segments[self.next_segment];
                self.next_segment += 1;
                let Ok(file) = fs::File::open(path) else {
                    self.truncated = true;
                    return false;
                };
                let mut reader = io::BufReader::new(file);
                let mut header = [0u8; 12];
                if reader.read_exact(&mut header).is_err()
                    || header[0..4] != SEGMENT_MAGIC
                    || u32::from_le_bytes(header[4..8].try_into().expect("fixed range"))
                        != SEGMENT_VERSION
                {
                    self.truncated = true;
                    return false;
                }
                self.cur = Some(reader);
            }
            let reader = self.cur.as_mut().expect("segment just ensured");
            // End of this segment?  (Clean EOF exactly at a frame boundary.)
            match reader.fill_buf() {
                Ok([]) => {
                    self.cur = None;
                    continue;
                }
                Ok(_) => {}
                Err(_) => {
                    self.truncated = true;
                    return false;
                }
            }
            let mut head = [0u8; 8];
            if reader.read_exact(&mut head).is_err() {
                self.truncated = true; // torn mid-header
                return false;
            }
            let len = u32::from_le_bytes(head[0..4].try_into().expect("fixed range"));
            let crc_expected = u32::from_le_bytes(head[4..8].try_into().expect("fixed range"));
            if len > MAX_FRAME_BYTES {
                self.truncated = true;
                return false;
            }
            let mut block = vec![0u8; len as usize];
            if reader.read_exact(&mut block).is_err() {
                self.truncated = true; // torn mid-frame
                return false;
            }
            if crc32(&block) != crc_expected {
                // Bit flip inside a fully-present frame: the length header
                // was sane, so the next boundary is known — resilient mode
                // can drop just this frame and carry on.
                if self.skip_corrupt {
                    self.corrupt_frames += 1;
                    continue;
                }
                self.truncated = true;
                return false;
            }
            let Some(packed) = decode_frame(&block) else {
                if self.skip_corrupt {
                    self.corrupt_frames += 1;
                    continue;
                }
                self.truncated = true;
                return false;
            };
            self.frame.clear();
            let mut bad_record = false;
            for p in &packed {
                let Some(r) = p.unpack() else {
                    bad_record = true;
                    break;
                };
                self.frame.push(r);
            }
            if bad_record {
                self.frame.clear();
                if self.skip_corrupt {
                    self.corrupt_frames += 1;
                    continue;
                }
                self.truncated = true;
                return false;
            }
            self.frame_pos = 0;
            if self.frame.is_empty() {
                continue; // an empty frame is legal, just pointless
            }
            return true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for i in 0..24 {
            let r = sample(i);
            let p = PackedServerRecord::pack(&r);
            assert_eq!(p.unpack(), Some(r), "pack/unpack must be lossless");
        }
    }

    #[test]
    fn packed_record_rejects_corrupt_tag() {
        let mut p = PackedServerRecord::pack(&sample(0));
        p.kind = 9;
        assert_eq!(p.unpack(), None);
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
        let records: Vec<PackedServerRecord> =
            (0..5_000).map(|i| PackedServerRecord::pack(&sample(i))).collect();
        let mut buf = Vec::new();
        encode_frame(&records, &mut buf);
        assert_eq!(decode_frame(&buf).as_deref(), Some(&records[..]));
        assert!(
            buf.len() < records.len() * PACKED_SERVER_RECORD_BYTES / 2,
            "frame must compress at least 2x on realistic columns ({} vs {})",
            buf.len(),
            records.len() * PACKED_SERVER_RECORD_BYTES
        );
        // Structural corruption is rejected, not mis-decoded.
        assert_eq!(decode_frame(&buf[..buf.len() - 1]), None, "truncated frame");
        let empty: &[PackedServerRecord] = &[];
        encode_frame(empty, &mut buf);
        assert_eq!(decode_frame(&buf).as_deref(), Some(empty));
    }

    #[test]
    fn writer_reader_round_trip_with_rotation() {
        let dir = tmp_dir("roundtrip");
        let n = 10_000u64;
        let mut w = ServerLogWriter::create(&dir, 256, 2_000).unwrap();
        for i in 0..n {
            w.push(&sample(i)).unwrap();
        }
        assert_eq!(w.records(), n);
        let stats = w.finish().unwrap();
        assert_eq!(stats.records, n);
        assert_eq!(stats.segments, 5, "2k-record segments over 10k records");
        assert_eq!(stats.raw_bytes, n * PACKED_SERVER_RECORD_BYTES as u64);
        assert!(
            stats.bytes_per_record() < PACKED_SERVER_RECORD_BYTES as f64 / 2.0,
            "compression too weak: {} B/record",
            stats.bytes_per_record()
        );
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
        let seg = dir.join(segment_name(0));
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
        let seg = dir.join(segment_name(0));
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
    fn interior_bit_flip_is_skipped_in_resilient_mode() {
        let dir = tmp_dir("flip-skip");
        let mut w = ServerLogWriter::create(&dir, 100, u64::MAX).unwrap();
        for i in 0..300 {
            w.push(&sample(i)).unwrap();
        }
        w.finish().unwrap();
        // Flip one byte inside the *second* frame's block — interior
        // damage with intact frames on both sides.
        let seg = dir.join(segment_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        // Frame layout after the 12-byte segment header: [len][crc][block].
        let first_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
        let second_block_at = 12 + 8 + first_len + 8;
        bytes[second_block_at + 10] ^= 0x40;
        fs::write(&seg, &bytes).unwrap();

        // Default mode: the capture truncates at the damaged frame.
        let (read, truncated) = read_all(&dir);
        assert!(truncated);
        assert_eq!(read.len(), 100, "default mode stops before the bad frame");

        // Resilient mode: the frame is detected, counted and skipped; the
        // third frame is still served.
        let mut reader = ServerLogReader::open(&dir).unwrap();
        reader.set_skip_corrupt(true);
        let mut read = Vec::new();
        while let Some(r) = reader.next() {
            read.push(r);
        }
        assert!(!reader.truncated(), "interior damage must not truncate");
        assert_eq!(reader.corrupt_frames(), 1, "the flip is surfaced, not silent");
        assert_eq!(read.len(), 200, "both intact frames survive");
        for (i, r) in read.iter().enumerate() {
            let expect = if i < 100 { i as u64 } else { i as u64 + 100 };
            assert_eq!(*r, sample(expect));
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_write_fault_fails_one_flush_then_recovers() {
        let dir = tmp_dir("wfault");
        let mut w = ServerLogWriter::create(&dir, 10, u64::MAX).unwrap();
        for i in 0..10 {
            w.push(&sample(i)).unwrap();
        }
        w.inject_write_fault();
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
        let _ = fs::remove_dir_all(&dir);
    }
}
