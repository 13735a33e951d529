//! The field-at-a-time reader and writer `storage` had before the block
//! codec, kept as the reference the differential and mutation tests
//! compare against.  Unchanged but for three things: the record and list
//! vectors are reserved for at most 2¹⁶ entries instead of 2²⁴ (capacity
//! only — an inflated count would otherwise map 800 MB per sweep case),
//! the functions work on byte slices instead of paths, and records reach
//! the in-memory log through [`ClientTable::push`] once the trailer has
//! bounded their peer ids, as the log's layout requires.
//!
//! It keeps the old reader's three silent acceptances on purpose: any
//! `id_status` byte other than 1 reads as `Low`, bytes after the trailer
//! are ignored, and counts are capped by a guess rather than by the input's
//! length.

use std::io::{self, Read, Write};

use edonkey_proto::{FileId, Ipv4, UserId};
use netsim::SimTime;

use super::{StorageError, MAGIC, VERSION};
use crate::anonymize::AnonPeerId;
use crate::log::{FileTable, QueryKind};
use crate::measurement::{
    AnonClient, AnonRecord, AnonSharedList, ClientTable, HoneypotMeta, MeasurementLog,
};
use crate::strategy::ContentStrategy;
use crate::types::{HoneypotId, IdStatus, ServerInfo};

struct Out<W: Write> {
    w: W,
}

impl<W: Write> Out<W> {
    fn u8(&mut self, v: u8) -> io::Result<()> {
        self.w.write_all(&[v])
    }
    fn u16(&mut self, v: u16) -> io::Result<()> {
        self.w.write_all(&v.to_le_bytes())
    }
    fn u32(&mut self, v: u32) -> io::Result<()> {
        self.w.write_all(&v.to_le_bytes())
    }
    fn u64(&mut self, v: u64) -> io::Result<()> {
        self.w.write_all(&v.to_le_bytes())
    }
    fn bytes(&mut self, v: &[u8]) -> io::Result<()> {
        self.w.write_all(v)
    }
    fn string(&mut self, s: &str) -> io::Result<()> {
        self.u32(s.len() as u32)?;
        self.bytes(s.as_bytes())
    }
}

struct In<R: Read> {
    r: R,
}

impl<R: Read> In<R> {
    fn u8(&mut self) -> Result<u8, StorageError> {
        let mut b = [0u8; 1];
        self.r.read_exact(&mut b)?;
        Ok(b[0])
    }
    fn u16(&mut self) -> Result<u16, StorageError> {
        let mut b = [0u8; 2];
        self.r.read_exact(&mut b)?;
        Ok(u16::from_le_bytes(b))
    }
    fn u32(&mut self) -> Result<u32, StorageError> {
        let mut b = [0u8; 4];
        self.r.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }
    fn u64(&mut self) -> Result<u64, StorageError> {
        let mut b = [0u8; 8];
        self.r.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
    fn hash(&mut self) -> Result<[u8; 16], StorageError> {
        let mut b = [0u8; 16];
        self.r.read_exact(&mut b)?;
        Ok(b)
    }
    fn string(&mut self, limit: usize) -> Result<String, StorageError> {
        let len = self.u32()? as usize;
        if len > limit {
            return Err(StorageError::Corrupt("string length exceeds limit"));
        }
        let mut buf = vec![0u8; len];
        self.r.read_exact(&mut buf)?;
        String::from_utf8(buf).map_err(|_| StorageError::Corrupt("invalid UTF-8"))
    }
}

fn kind_to_u8(k: QueryKind) -> u8 {
    match k {
        QueryKind::Hello => 0,
        QueryKind::StartUpload => 1,
        QueryKind::RequestPart => 2,
    }
}

fn kind_from_u8(v: u8) -> Result<QueryKind, StorageError> {
    Ok(match v {
        0 => QueryKind::Hello,
        1 => QueryKind::StartUpload,
        2 => QueryKind::RequestPart,
        _ => return Err(StorageError::Corrupt("unknown query kind")),
    })
}

/// The bytes `save` must produce for `log`.
pub fn save(log: &MeasurementLog) -> Vec<u8> {
    let mut bytes = Vec::new();
    write(log, &mut bytes).expect("writing to a Vec cannot fail");
    bytes
}

fn write(log: &MeasurementLog, w: &mut Vec<u8>) -> io::Result<()> {
    let mut out = Out { w };
    out.bytes(&MAGIC)?;
    out.u32(VERSION)?;

    out.u32(log.honeypots.len() as u32)?;
    for h in &log.honeypots {
        out.u32(h.id.0)?;
        out.u8(match h.content {
            ContentStrategy::NoContent => 0,
            ContentStrategy::RandomContent => 1,
        })?;
        out.string(&h.server.name)?;
        out.u32(h.server.ip.0)?;
        out.u16(h.server.port)?;
    }

    out.u32(log.peer_names.len() as u32)?;
    for n in &log.peer_names {
        out.string(n)?;
    }

    out.u32(log.files.len() as u32)?;
    for i in 0..log.files.len() as u32 {
        out.bytes(&log.files.id(i).0)?;
        out.string(log.files.name(i))?;
        out.u64(log.files.size(i))?;
    }

    out.u64(log.records.len() as u64)?;
    for (r, c) in log.records_with_clients() {
        out.u64(r.at().as_millis())?;
        out.u32(u32::from(r.honeypot()))?;
        out.u8(kind_to_u8(r.kind()))?;
        out.u32(r.peer.0)?;
        out.u16(c.port)?;
        out.u8(match c.id_status {
            IdStatus::High => 1,
            IdStatus::Low => 0,
        })?;
        out.bytes(&c.user_id.0)?;
        out.u32(c.name)?;
        out.u32(c.version)?;
        out.u32(r.file)?;
    }

    out.u64(log.shared_lists.len() as u64)?;
    for l in &log.shared_lists {
        out.u64(l.at.as_millis())?;
        out.u32(l.honeypot.0)?;
        out.u32(l.peer.0)?;
        out.u32(l.files.len() as u32)?;
        for &f in &l.files {
            out.u32(f)?;
        }
    }

    out.u32(log.distinct_peers)?;
    out.u64(log.duration.as_millis())?;
    out.u32(log.shared_files_final)?;
    Ok(())
}

/// Decodes `bytes` the way `load` used to, final `validate()` included.
pub fn load(bytes: &[u8]) -> Result<MeasurementLog, StorageError> {
    let mut inp = In { r: bytes };
    let mut magic = [0u8; 4];
    inp.r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(StorageError::BadMagic);
    }
    let version = inp.u32()?;
    if version != VERSION {
        return Err(StorageError::UnsupportedVersion(version));
    }

    let n_hp = inp.u32()? as usize;
    if n_hp > 10_000 {
        return Err(StorageError::Corrupt("implausible honeypot count"));
    }
    let mut honeypots = Vec::with_capacity(n_hp);
    for _ in 0..n_hp {
        let id = HoneypotId(inp.u32()?);
        let content = match inp.u8()? {
            0 => ContentStrategy::NoContent,
            1 => ContentStrategy::RandomContent,
            _ => return Err(StorageError::Corrupt("unknown content strategy")),
        };
        let name = inp.string(1 << 16)?;
        let ip = Ipv4(inp.u32()?);
        let port = inp.u16()?;
        honeypots.push(HoneypotMeta { id, content, server: ServerInfo::new(name, ip, port) });
    }

    let n_names = inp.u32()? as usize;
    let mut peer_names = Vec::with_capacity(n_names.min(1 << 20));
    for _ in 0..n_names {
        peer_names.push(inp.string(1 << 16)?);
    }

    let n_files = inp.u32()? as usize;
    let mut files = FileTable::new();
    for _ in 0..n_files {
        let id = FileId(inp.hash()?);
        let name = inp.string(1 << 16)?;
        let size = inp.u64()?;
        files.intern(id, &name, size);
    }
    if files.len() != n_files {
        return Err(StorageError::Corrupt("duplicate file ids"));
    }

    // Each record with its honeypot still at its on-disk width.
    let n_records = inp.u64()? as usize;
    let mut decoded = Vec::with_capacity(n_records.min(1 << 16));
    for _ in 0..n_records {
        let at = SimTime::from_millis(inp.u64()?);
        let honeypot = inp.u32()?;
        let kind = kind_from_u8(inp.u8()?)?;
        let peer = AnonPeerId(inp.u32()?);
        let client = AnonClient {
            port: inp.u16()?,
            id_status: if inp.u8()? == 1 { IdStatus::High } else { IdStatus::Low },
            user_id: UserId(inp.hash()?),
            name: inp.u32()?,
            version: inp.u32()?,
        };
        let file = inp.u32()?;
        decoded.push((at, peer, file, honeypot, kind, client));
    }

    let n_lists = inp.u64()? as usize;
    let mut shared_lists = Vec::with_capacity(n_lists.min(1 << 16));
    for _ in 0..n_lists {
        let at = SimTime::from_millis(inp.u64()?);
        let honeypot = HoneypotId(inp.u32()?);
        let peer = AnonPeerId(inp.u32()?);
        let n = inp.u32()? as usize;
        if n > n_files {
            return Err(StorageError::Corrupt("shared list longer than file table"));
        }
        let mut list = Vec::with_capacity(n);
        for _ in 0..n {
            list.push(inp.u32()?);
        }
        shared_lists.push(AnonSharedList { at, honeypot, peer, files: list });
    }

    let distinct_peers = inp.u32()?;
    let mut records = Vec::with_capacity(decoded.len());
    let mut clients = ClientTable::default();
    for (at, peer, file, honeypot, kind, client) in decoded {
        // `validate` would reject the peer; the client table must not grow
        // to a peer id the trailer does not cover.
        if peer.0 >= distinct_peers {
            return Err(StorageError::Corrupt("indices out of range after load"));
        }
        let new_client = clients.push(peer, client);
        records.push(AnonRecord::new(at, peer, file, honeypot, kind, new_client));
    }

    let log = MeasurementLog {
        honeypots,
        records,
        clients: clients.into_entries(),
        shared_lists,
        peer_names,
        files,
        distinct_peers,
        duration: SimTime::from_millis(inp.u64()?),
        shared_files_final: inp.u32()?,
    };
    let problems = log.validate();
    if !problems.is_empty() {
        return Err(StorageError::Corrupt("indices out of range after load"));
    }
    Ok(log)
}
