//! On-disk persistence of merged measurement logs.
//!
//! The paper's manager "merges and unifies the collected log files"; a
//! month-scale measurement is worth keeping.  [`save`]/[`load`] implement a
//! compact, versioned little-endian binary format (a full-scale distributed
//! log of ~10⁷ records serialises in seconds and reloads for re-analysis
//! without re-running the measurement).
//!
//! The format is strict: a magic header, a version, length-prefixed
//! sections and a 16-byte trailer, with nothing after it.  **[`load`]
//! returns only validated logs**: every count is bounded by the file's
//! length before anything is reserved for it, and every record and
//! shared-list index is range-checked as it is decoded (the conditions of
//! [`MeasurementLog::validate`]), so a truncated, padded or bit-flipped
//! file fails cleanly instead of producing a quietly wrong dataset — and
//! callers need no validation pass of their own.
//!
//! A record on disk carries its client's HELLO attributes inline (48
//! bytes); in memory they live once per change in
//! [`MeasurementLog::clients`].  [`save`] writes each record from the
//! record plus its client entry
//! ([`MeasurementLog::records_with_clients`]), and [`load`] hands the
//! attributes to [`ClientTable::push`], the rule the manager's merge
//! applies, so a loaded log equals the log saved field for field.
//!
//! Both directions move the fixed-stride sections (records, shared-list
//! indices) a block of `BLOCK_RECORDS` records at a time: a few hundred
//! `read`/`write` calls per file, never the whole file in memory.

use std::fs::File;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::Path;

use edonkey_proto::{FileId, Ipv4, UserId};
use netsim::SimTime;

use crate::anonymize::AnonPeerId;
use crate::log::{FileTable, QueryKind, FILE_NONE};
use crate::measurement::{
    AnonClient, AnonRecord, AnonSharedList, ClientTable, HoneypotMeta, MeasurementLog,
    MAX_HONEYPOTS, RECORD_TIME_LIMIT_MS,
};
use crate::strategy::ContentStrategy;
use crate::types::{HoneypotId, IdStatus, ServerInfo};

#[cfg(test)]
mod reference;
#[cfg(test)]
mod tests;

/// File magic: "EDHP".
const MAGIC: [u8; 4] = *b"EDHP";
/// Current format version.  Public because run-cache keys incorporate it:
/// bumping the format must invalidate every cached entry.
pub const VERSION: u32 = 1;

/// Magic + version.
const HEADER_BYTES: usize = 8;
/// `distinct_peers` u32, `duration` u64, `shared_files_final` u32.
const TRAILER_BYTES: usize = 16;
/// One record: `at` u64, `honeypot` u32, `kind` u8, `peer` u32, `port` u16,
/// `id_status` u8, `user_id` 16 bytes, `name` u32, `version` u32, `file` u32.
const RECORD_BYTES: usize = 48;
/// A shared list's fixed part: `at` u64, `honeypot` u32, `peer` u32 and the
/// u32 count of the file indices that follow.
const LIST_HEADER_BYTES: usize = 20;
/// Smallest honeypot entry (empty server name).
const HONEYPOT_MIN_BYTES: usize = 15;
/// Smallest file-table entry (empty name).
const FILE_MIN_BYTES: usize = 28;
/// Records per buffer-full, in both directions.
const BLOCK_RECORDS: usize = 4096;
const BLOCK_BYTES: usize = BLOCK_RECORDS * RECORD_BYTES;
/// Longest string [`load`] accepts.
const STRING_LIMIT: usize = 1 << 16;

/// Errors of the storage layer.
#[derive(Debug)]
pub enum StorageError {
    Io(io::Error),
    /// Not an EDHP file.
    BadMagic,
    /// Format version not understood.
    UnsupportedVersion(u32),
    /// Structurally invalid content.
    Corrupt(&'static str),
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(fm, "io error: {e}"),
            StorageError::BadMagic => write!(fm, "not an EDHP measurement file"),
            StorageError::UnsupportedVersion(v) => write!(fm, "unsupported format version {v}"),
            StorageError::Corrupt(what) => write!(fm, "corrupt measurement file: {what}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

fn le_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b.try_into().expect("a 4-byte field"))
}

fn le_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b.try_into().expect("an 8-byte field"))
}

/// Writes one record and its client's attributes at their fixed offsets.
fn encode_record(r: &AnonRecord, c: &AnonClient, b: &mut [u8; RECORD_BYTES]) {
    b[0..8].copy_from_slice(&r.at().as_millis().to_le_bytes());
    b[8..12].copy_from_slice(&u32::from(r.honeypot()).to_le_bytes());
    b[12] = match r.kind() {
        QueryKind::Hello => 0,
        QueryKind::StartUpload => 1,
        QueryKind::RequestPart => 2,
    };
    b[13..17].copy_from_slice(&r.peer.0.to_le_bytes());
    b[17..19].copy_from_slice(&c.port.to_le_bytes());
    b[19] = match c.id_status {
        IdStatus::Low => 0,
        IdStatus::High => 1,
    };
    b[20..36].copy_from_slice(&c.user_id.0);
    b[36..40].copy_from_slice(&c.name.to_le_bytes());
    b[40..44].copy_from_slice(&c.version.to_le_bytes());
    b[44..48].copy_from_slice(&r.file.to_le_bytes());
}

/// One record as the file holds it: the record's own fields, at their
/// on-disk widths, and its client's attributes.
struct DiskRecord {
    at: SimTime,
    honeypot: u32,
    kind: QueryKind,
    peer: AnonPeerId,
    file: u32,
    client: AnonClient,
}

/// Reads one record back.  The two enum bytes are all that can be wrong
/// with a record on its own; [`load`] checks its indices.
fn decode_record(b: &[u8; RECORD_BYTES]) -> Result<DiskRecord, StorageError> {
    Ok(DiskRecord {
        at: SimTime::from_millis(le_u64(&b[0..8])),
        honeypot: le_u32(&b[8..12]),
        kind: match b[12] {
            0 => QueryKind::Hello,
            1 => QueryKind::StartUpload,
            2 => QueryKind::RequestPart,
            _ => return Err(StorageError::Corrupt("unknown query kind")),
        },
        peer: AnonPeerId(le_u32(&b[13..17])),
        file: le_u32(&b[44..48]),
        client: AnonClient {
            port: u16::from_le_bytes([b[17], b[18]]),
            id_status: match b[19] {
                0 => IdStatus::Low,
                1 => IdStatus::High,
                _ => return Err(StorageError::Corrupt("id status byte is neither 0 nor 1")),
            },
            user_id: UserId(b[20..36].try_into().expect("a 16-byte field")),
            name: le_u32(&b[36..40]),
            version: le_u32(&b[40..44]),
        },
    })
}

fn write_string(w: &mut impl Write, s: &str) -> io::Result<()> {
    w.write_all(&(s.len() as u32).to_le_bytes())?;
    w.write_all(s.as_bytes())
}

/// Encodes `items` at a fixed stride of `N` bytes into `block` and writes
/// them a block at a time (a full block bypasses the writer's own buffer).
fn write_each<T, const N: usize>(
    w: &mut impl Write,
    block: &mut [u8],
    items: &[T],
    mut encode: impl FnMut(&T, &mut [u8; N]),
) -> io::Result<()> {
    for chunk in items.chunks(block.len() / N) {
        let slots = &mut block[..chunk.len() * N];
        for (item, slot) in chunk.iter().zip(slots.chunks_exact_mut(N)) {
            encode(item, slot.try_into().expect("chunks_exact_mut yields N bytes"));
        }
        w.write_all(slots)?;
    }
    Ok(())
}

/// Serialises a measurement log to `path`.
pub fn save(log: &MeasurementLog, path: &Path) -> Result<(), StorageError> {
    let mut w = BufWriter::with_capacity(BLOCK_BYTES, File::create(path)?);
    let mut block = vec![0u8; BLOCK_BYTES];
    w.write_all(&MAGIC)?;
    w.write_all(&VERSION.to_le_bytes())?;

    w.write_all(&(log.honeypots.len() as u32).to_le_bytes())?;
    for h in &log.honeypots {
        w.write_all(&h.id.0.to_le_bytes())?;
        w.write_all(&[match h.content {
            ContentStrategy::NoContent => 0,
            ContentStrategy::RandomContent => 1,
        }])?;
        write_string(&mut w, &h.server.name)?;
        w.write_all(&h.server.ip.0.to_le_bytes())?;
        w.write_all(&h.server.port.to_le_bytes())?;
    }

    w.write_all(&(log.peer_names.len() as u32).to_le_bytes())?;
    for n in &log.peer_names {
        write_string(&mut w, n)?;
    }

    w.write_all(&(log.files.len() as u32).to_le_bytes())?;
    for i in 0..log.files.len() as u32 {
        w.write_all(&log.files.id(i).0)?;
        write_string(&mut w, log.files.name(i))?;
        w.write_all(&log.files.size(i).to_le_bytes())?;
    }

    w.write_all(&(log.records.len() as u64).to_le_bytes())?;
    let mut records = log.records_with_clients();
    write_each(&mut w, &mut block, &log.records, |_, slot| {
        let (r, c) = records.next().expect("one client per record");
        encode_record(r, c, slot)
    })?;

    w.write_all(&(log.shared_lists.len() as u64).to_le_bytes())?;
    for l in &log.shared_lists {
        w.write_all(&l.at.as_millis().to_le_bytes())?;
        w.write_all(&l.honeypot.0.to_le_bytes())?;
        w.write_all(&l.peer.0.to_le_bytes())?;
        w.write_all(&(l.files.len() as u32).to_le_bytes())?;
        write_each(&mut w, &mut block, &l.files, |f, slot: &mut [u8; 4]| *slot = f.to_le_bytes())?;
    }

    w.write_all(&log.distinct_peers.to_le_bytes())?;
    w.write_all(&log.duration.as_millis().to_le_bytes())?;
    w.write_all(&log.shared_files_final.to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// The sections between header and trailer, a block at a time.
type Sections = BufReader<io::Take<File>>;

/// Section bytes not yet consumed, buffered or not.
fn bytes_left(r: &Sections) -> u64 {
    r.buffer().len() as u64 + r.get_ref().limit()
}

fn array<const N: usize>(r: &mut Sections) -> Result<[u8; N], StorageError> {
    let mut b = [0u8; N];
    r.read_exact(&mut b)?;
    Ok(b)
}

fn string(r: &mut Sections) -> Result<String, StorageError> {
    str_in(r, &mut Vec::new()).map(str::to_owned)
}

/// Reads one length-prefixed string into `buf` and lends it.
fn str_in<'b>(r: &mut Sections, buf: &'b mut Vec<u8>) -> Result<&'b str, StorageError> {
    let len = u32::from_le_bytes(array(r)?) as usize;
    if len > STRING_LIMIT {
        return Err(StorageError::Corrupt("string length exceeds limit"));
    }
    buf.resize(len, 0);
    r.read_exact(buf)?;
    std::str::from_utf8(buf).map_err(|_| StorageError::Corrupt("invalid UTF-8"))
}

/// Reads an `N`-byte element count and accepts it only if the rest of the
/// file can hold that many elements of at least `min_bytes` each, so
/// nothing `load` reserves exceeds the file's own length.
fn count<const N: usize>(
    r: &mut Sections,
    min_bytes: usize,
    what: &'static str,
) -> Result<usize, StorageError> {
    let mut wide = [0u8; 8];
    wide[..N].copy_from_slice(&array::<N>(r)?);
    let n = u64::from_le_bytes(wide);
    if n > bytes_left(r) / min_bytes as u64 {
        return Err(StorageError::Corrupt(what));
    }
    Ok(n as usize)
}

/// Decodes `count` items of a fixed stride of `N` bytes straight out of
/// the reader's block; only an item that straddles two blocks is copied.
fn read_each<const N: usize>(
    r: &mut Sections,
    count: usize,
    mut decode: impl FnMut(&[u8; N]) -> Result<(), StorageError>,
) -> Result<(), StorageError> {
    let mut left = count;
    while left > 0 {
        let whole = left.min(r.fill_buf()?.len() / N);
        for item in r.buffer()[..whole * N].chunks_exact(N) {
            decode(item.try_into().expect("chunks_exact yields N bytes"))?;
        }
        r.consume(whole * N);
        left -= whole;
        if whole == 0 {
            decode(&array(r)?)?;
            left -= 1;
        }
    }
    Ok(())
}

/// Deserialises a measurement log from `path`.  An `Ok` log is valid:
/// [`MeasurementLog::validate`] would find nothing.
pub fn load(path: &Path) -> Result<MeasurementLog, StorageError> {
    let mut file = File::open(path)?;
    let mut header = [0u8; HEADER_BYTES];
    file.read_exact(&mut header)?;
    if header[..4] != MAGIC {
        return Err(StorageError::BadMagic);
    }
    let version = le_u32(&header[4..]);
    if version != VERSION {
        return Err(StorageError::UnsupportedVersion(version));
    }

    // The trailer first, before a buffered reader owns the file position:
    // the index checks need `distinct_peers`, and where the trailer starts
    // bounds every count that follows.
    let trailer_at = file.seek(SeekFrom::End(-(TRAILER_BYTES as i64)))?;
    let sections = trailer_at
        .checked_sub(HEADER_BYTES as u64)
        .ok_or(StorageError::Corrupt("file ends before the trailer"))?;
    let mut trailer = [0u8; TRAILER_BYTES];
    file.read_exact(&mut trailer)?;
    file.seek(SeekFrom::Start(HEADER_BYTES as u64))?;
    let distinct_peers = le_u32(&trailer[0..4]);
    let r = &mut BufReader::with_capacity(BLOCK_BYTES, file.take(sections));

    let n_hp = count::<4>(r, HONEYPOT_MIN_BYTES, "honeypot count exceeds the file's length")?;
    if n_hp > MAX_HONEYPOTS {
        return Err(StorageError::Corrupt("implausible honeypot count"));
    }
    let mut honeypots = Vec::with_capacity(n_hp);
    for _ in 0..n_hp {
        let id = HoneypotId(u32::from_le_bytes(array(r)?));
        let content = match array::<1>(r)?[0] {
            0 => ContentStrategy::NoContent,
            1 => ContentStrategy::RandomContent,
            _ => return Err(StorageError::Corrupt("unknown content strategy")),
        };
        let name = string(r)?;
        let ip = Ipv4(u32::from_le_bytes(array(r)?));
        let port = u16::from_le_bytes(array(r)?);
        honeypots.push(HoneypotMeta { id, content, server: ServerInfo::new(name, ip, port) });
    }

    let n_names = count::<4>(r, 4, "peer-name count exceeds the file's length")?;
    let mut peer_names = Vec::with_capacity(n_names);
    for _ in 0..n_names {
        peer_names.push(string(r)?);
    }

    let n_files = count::<4>(r, FILE_MIN_BYTES, "file count exceeds the file's length")?;
    let mut files = FileTable::new();
    files.reserve(n_files);
    let mut scratch = Vec::new();
    for _ in 0..n_files {
        let id = FileId(array(r)?);
        let name = str_in(r, &mut scratch)?;
        files.push_row(id, name, u64::from_le_bytes(array(r)?));
    }
    if files.has_repeated_id() {
        return Err(StorageError::Corrupt("duplicate file ids"));
    }

    // Every peer id below `distinct_peers` appears in a record or a list
    // (checked below), so the sections hold at least a list header per
    // peer.  Bounding the count here bounds the client table's per-peer
    // vector, which grows to the highest peer id decoded.
    if u64::from(distinct_peers) > bytes_left(r) / LIST_HEADER_BYTES as u64 {
        return Err(StorageError::Corrupt("distinct-peer count exceeds the file's length"));
    }
    let mut peers_seen = 0u32;

    // `MeasurementLog::validate`'s conditions on a record, its client
    // entry and a shared list, applied as each is decoded.
    let (n_hp, n_names, n_files) = (n_hp as u32, n_names as u32, n_files as u32);
    let record_in_range = |r: &DiskRecord| {
        r.peer.0 < distinct_peers
            && r.client.name < n_names
            && (r.file == FILE_NONE || (r.file < n_files && r.kind != QueryKind::Hello))
            && r.honeypot < n_hp
    };

    let n_records = count::<8>(r, RECORD_BYTES, "record count exceeds the file's length")?;
    let mut records = Vec::with_capacity(n_records);
    let mut clients = ClientTable::default();
    read_each(r, n_records, |b| {
        let r = decode_record(b)?;
        if !record_in_range(&r) {
            return Err(StorageError::Corrupt("record index out of range"));
        }
        if r.at.as_millis() >= RECORD_TIME_LIMIT_MS {
            return Err(StorageError::Corrupt("record time out of range"));
        }
        peers_seen = peers_seen.max(r.peer.0 + 1);
        let new_client = clients.push(r.peer, r.client);
        records.push(AnonRecord::new(r.at, r.peer, r.file, r.honeypot, r.kind, new_client));
        Ok(())
    })?;

    let n_lists = count::<8>(r, LIST_HEADER_BYTES, "shared-list count exceeds the file's length")?;
    let mut shared_lists = Vec::with_capacity(n_lists);
    for _ in 0..n_lists {
        let at = SimTime::from_millis(u64::from_le_bytes(array(r)?));
        let honeypot = HoneypotId(u32::from_le_bytes(array(r)?));
        let peer = AnonPeerId(u32::from_le_bytes(array(r)?));
        let n = count::<4>(r, 4, "shared list runs past the end of the file")?;
        if peer.0 >= distinct_peers || n > n_files as usize {
            return Err(StorageError::Corrupt("shared-list peer id or length out of range"));
        }
        if honeypot.0 >= n_hp {
            return Err(StorageError::Corrupt("shared-list honeypot out of range"));
        }
        peers_seen = peers_seen.max(peer.0 + 1);
        let mut files = Vec::with_capacity(n);
        read_each(r, n, |b| {
            let file = u32::from_le_bytes(*b);
            if file >= n_files {
                return Err(StorageError::Corrupt("shared-list file index out of range"));
            }
            files.push(file);
            Ok(())
        })?;
        shared_lists.push(AnonSharedList { at, honeypot, peer, files });
    }
    if peers_seen != distinct_peers {
        return Err(StorageError::Corrupt("distinct-peer count is not the highest peer id + 1"));
    }

    if bytes_left(r) != 0 {
        return Err(StorageError::Corrupt("bytes after the trailer"));
    }
    Ok(MeasurementLog {
        honeypots,
        records,
        clients: clients.into_entries(),
        shared_lists,
        peer_names,
        files,
        distinct_peers,
        duration: SimTime::from_millis(le_u64(&trailer[4..12])),
        shared_files_final: le_u32(&trailer[12..16]),
    })
}
