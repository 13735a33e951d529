//! Typed control-plane messages and their binary payload codec.
//!
//! Frames on the wire are [`edonkey_proto::control`] envelopes (magic,
//! version, opcode, length, CRC); this module defines what goes *inside*
//! the payload for each opcode.  Payloads are written and read with the
//! little-endian [`edonkey_proto::wire`] `Writer`/`Reader` the eDonkey
//! messages use: u32-length-prefixed strict UTF-8 strings (`str32`),
//! u32-counted vectors, fixed-width integers, explicit enum tags.  Nothing
//! here depends on a serialisation framework, so the codec behaves
//! identically under every build of the workspace.

use edonkey_proto::control::opcodes;
use edonkey_proto::wire::{Reader, Writer};
use edonkey_proto::{ClientId, FileId, Ipv4, ProtoError};
use honeypot::anonymize::IpHash;
use honeypot::log::{FileTable, LogChunk, PackedQueryRecord, SharedLists, PACKED_RECORD_BYTES};
use honeypot::{
    AdvertisedFile, ContentStrategy, FileStrategy, HoneypotId, HoneypotStatus, ServerInfo,
    StatusReport,
};
use netsim::SimTime;

/// Everything an agent needs to run its honeypot: the paper's manager
/// "launches the honeypots" and "specifies the list of files" (§III-A), so
/// the whole behaviour ships in one config push.
#[derive(Clone, Debug, PartialEq)]
pub struct AgentConfig {
    pub id: HoneypotId,
    pub content: ContentStrategy,
    pub files: FileStrategy,
    /// eDonkey server the honeypot must log into (loopback: the manager's
    /// `NetServer`).
    pub server: ServerInfo,
    /// Seed of the step-1 IP hasher.  All agents of one measurement share
    /// it, so the same peer hashes identically across honeypots.
    pub ip_salt: u64,
    /// Seed of the honeypot's private RNG stream.
    pub rng_seed: u64,
    /// Heartbeat period.
    pub heartbeat_ms: u64,
    /// Log-collection (upload) period.
    pub collect_ms: u64,
    /// Client name shown to eDonkey peers.
    pub client_name: String,
}

/// Bit meanings of the [`ControlMessage::Heartbeat`] `flags` byte.
pub mod heartbeat_flags {
    /// The agent's durable spool is failing writes; uploads continue from
    /// memory only (a crash now loses the in-memory window).
    pub const SPOOL_DEGRADED: u8 = 1 << 0;
}

/// A typed control-plane message (one per control opcode).
#[derive(Clone, Debug, PartialEq)]
pub enum ControlMessage {
    /// Agent → manager: first frame on a fresh connection.
    Register {
        agent: u32,
        /// 0 for the first launch; bumped by every relaunch.
        incarnation: u32,
        /// True when the agent reconnects with upload state to resume.
        resume: bool,
    },
    /// Manager → agent: registration accepted; uploads must continue at
    /// `next_seq` (exactly-once resume after reconnects and crashes) and
    /// the agent may keep up to `window` chunks in flight.
    RegisterAck { agent: u32, next_seq: u64, window: u32 },
    /// Manager → agent: full honeypot configuration.
    ConfigPush(AgentConfig),
    /// Agent → manager: liveness beacon.  `rtt_micros` piggybacks the RTT
    /// measured from the previous ack (0 = no sample yet); `flags` carries
    /// degraded-mode bits ([`heartbeat_flags`]) so agent-side disk trouble
    /// is visible in the platform metrics, not just in the agent's stderr.
    Heartbeat { agent: u32, seq: u64, sent_micros: u64, rtt_micros: u64, flags: u8 },
    /// Manager → agent: echoes the heartbeat's send timestamp.
    HeartbeatAck { seq: u64, echo_micros: u64 },
    /// Agent → manager: honeypot status change.
    Status(StatusReport),
    /// Agent → manager: the honeypot is serving peers on this port.
    Ready { agent: u32, peer_port: u16 },
    /// Agent → manager: one sequenced log chunk.
    LogUpload { agent: u32, seq: u64, chunk: LogChunk },
    /// Manager → agent: cumulative acknowledgement — every chunk with
    /// sequence `< next_seq` is merged and durable; the agent trims its
    /// window and spool up to that frontier.  `window` is the manager's
    /// *current* in-flight grant: under merge-queue pressure the daemon
    /// shrinks it below the registration grant (overload shedding through
    /// the existing ack path, no new message), and the agent must adopt
    /// it before filling the window again.
    ChunkAck { next_seq: u64, window: u32 },
    /// Manager → agent: re-send everything starting at `seq` (corrupt
    /// frame or a hole in the pipelined window; go-back-N).
    ChunkRetry { seq: u64 },
    /// Manager → agent: flush logs and exit cleanly.
    Shutdown,
    /// Agent → manager: clean exit; `final_seq` is the next sequence the
    /// agent would have used.
    Goodbye { agent: u32, final_seq: u64 },
}

impl ControlMessage {
    /// The control opcode this message travels under.
    pub fn opcode(&self) -> u8 {
        match self {
            ControlMessage::Register { .. } => opcodes::REGISTER,
            ControlMessage::RegisterAck { .. } => opcodes::REGISTER_ACK,
            ControlMessage::ConfigPush(_) => opcodes::CONFIG_PUSH,
            ControlMessage::Heartbeat { .. } => opcodes::HEARTBEAT,
            ControlMessage::HeartbeatAck { .. } => opcodes::HEARTBEAT_ACK,
            ControlMessage::Status(_) => opcodes::STATUS_REPORT,
            ControlMessage::Ready { .. } => opcodes::READY,
            ControlMessage::LogUpload { .. } => opcodes::LOG_CHUNK,
            ControlMessage::ChunkAck { .. } => opcodes::CHUNK_ACK,
            ControlMessage::ChunkRetry { .. } => opcodes::CHUNK_RETRY,
            ControlMessage::Shutdown => opcodes::SHUTDOWN,
            ControlMessage::Goodbye { .. } => opcodes::GOODBYE,
        }
    }

    /// Encodes the payload (without the frame envelope).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut w = Writer::new();
        match self {
            ControlMessage::Register { agent, incarnation, resume } => {
                w.u32(*agent);
                w.u32(*incarnation);
                w.u8(*resume as u8);
            }
            ControlMessage::RegisterAck { agent, next_seq, window } => {
                w.u32(*agent);
                w.u64(*next_seq);
                w.u32(*window);
            }
            ControlMessage::ConfigPush(cfg) => put_config(&mut w, cfg),
            ControlMessage::Heartbeat { agent, seq, sent_micros, rtt_micros, flags } => {
                w.u32(*agent);
                w.u64(*seq);
                w.u64(*sent_micros);
                w.u64(*rtt_micros);
                w.u8(*flags);
            }
            ControlMessage::HeartbeatAck { seq, echo_micros } => {
                w.u64(*seq);
                w.u64(*echo_micros);
            }
            ControlMessage::Status(report) => put_status_report(&mut w, report),
            ControlMessage::Ready { agent, peer_port } => {
                w.u32(*agent);
                w.u16(*peer_port);
            }
            ControlMessage::LogUpload { agent, seq, chunk } => {
                w.u32(*agent);
                w.u64(*seq);
                put_chunk(&mut w, chunk);
            }
            ControlMessage::ChunkAck { next_seq, window } => {
                w.u64(*next_seq);
                w.u32(*window);
            }
            ControlMessage::ChunkRetry { seq } => w.u64(*seq),
            ControlMessage::Shutdown => {}
            ControlMessage::Goodbye { agent, final_seq } => {
                w.u32(*agent);
                w.u64(*final_seq);
            }
        }
        w.into_bytes()
    }

    /// Encodes the message as one complete control frame.
    pub fn encode_frame(&self) -> Vec<u8> {
        edonkey_proto::control::encode_control_frame(self.opcode(), &self.encode_payload())
    }

    /// Decodes a payload received under `opcode`.
    pub fn decode(opcode: u8, payload: &[u8]) -> Result<ControlMessage, ProtoError> {
        let mut r = Reader::new(payload);
        let msg = match opcode {
            opcodes::REGISTER => ControlMessage::Register {
                agent: r.u32()?,
                incarnation: r.u32()?,
                resume: r.u8()? != 0,
            },
            opcodes::REGISTER_ACK => ControlMessage::RegisterAck {
                agent: r.u32()?,
                next_seq: r.u64()?,
                window: r.u32()?,
            },
            opcodes::CONFIG_PUSH => ControlMessage::ConfigPush(get_config(&mut r)?),
            opcodes::HEARTBEAT => ControlMessage::Heartbeat {
                agent: r.u32()?,
                seq: r.u64()?,
                sent_micros: r.u64()?,
                rtt_micros: r.u64()?,
                flags: r.u8()?,
            },
            opcodes::HEARTBEAT_ACK => {
                ControlMessage::HeartbeatAck { seq: r.u64()?, echo_micros: r.u64()? }
            }
            opcodes::STATUS_REPORT => ControlMessage::Status(get_status_report(&mut r)?),
            opcodes::READY => ControlMessage::Ready { agent: r.u32()?, peer_port: r.u16()? },
            opcodes::LOG_CHUNK => {
                let agent = r.u32()?;
                let seq = r.u64()?;
                let chunk = get_chunk(&mut r)?;
                ControlMessage::LogUpload { agent, seq, chunk }
            }
            opcodes::CHUNK_ACK => ControlMessage::ChunkAck { next_seq: r.u64()?, window: r.u32()? },
            opcodes::CHUNK_RETRY => ControlMessage::ChunkRetry { seq: r.u64()? },
            opcodes::SHUTDOWN => ControlMessage::Shutdown,
            opcodes::GOODBYE => ControlMessage::Goodbye { agent: r.u32()?, final_seq: r.u64()? },
            _ => return Err(ProtoError::UnknownOpcode { opcode, context: "control message" }),
        };
        r.expect_end()?;
        Ok(msg)
    }
}

// ---------------------------------------------------------------------------
// Composite encoders/decoders.

fn put_config(w: &mut Writer, cfg: &AgentConfig) {
    w.u32(cfg.id.0);
    w.u8(content_tag(cfg.content));
    put_file_strategy(w, &cfg.files);
    put_server(w, &cfg.server);
    w.u64(cfg.ip_salt);
    w.u64(cfg.rng_seed);
    w.u64(cfg.heartbeat_ms);
    w.u64(cfg.collect_ms);
    w.str32(&cfg.client_name);
}

fn get_config(r: &mut Reader) -> Result<AgentConfig, ProtoError> {
    Ok(AgentConfig {
        id: HoneypotId(r.u32()?),
        content: content_from(r.u8()?)?,
        files: get_file_strategy(r)?,
        server: get_server(r)?,
        ip_salt: r.u64()?,
        rng_seed: r.u64()?,
        heartbeat_ms: r.u64()?,
        collect_ms: r.u64()?,
        client_name: r.str32()?,
    })
}

fn content_tag(c: ContentStrategy) -> u8 {
    match c {
        ContentStrategy::NoContent => 0,
        ContentStrategy::RandomContent => 1,
    }
}

fn content_from(tag: u8) -> Result<ContentStrategy, ProtoError> {
    match tag {
        0 => Ok(ContentStrategy::NoContent),
        1 => Ok(ContentStrategy::RandomContent),
        _ => Err(ProtoError::Invalid("content strategy tag")),
    }
}

fn put_file_strategy(w: &mut Writer, s: &FileStrategy) {
    match s {
        FileStrategy::Fixed(files) => {
            w.u8(0);
            w.u32(files.len() as u32);
            for f in files {
                put_advertised(w, f);
            }
        }
        FileStrategy::Greedy { seeds, adopt_until, max_files } => {
            w.u8(1);
            w.u32(seeds.len() as u32);
            for f in seeds {
                put_advertised(w, f);
            }
            w.u64(adopt_until.as_millis());
            w.u64(*max_files as u64);
        }
    }
}

fn get_file_strategy(r: &mut Reader) -> Result<FileStrategy, ProtoError> {
    match r.u8()? {
        0 => {
            let n = r.u32()? as usize;
            let mut files = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                files.push(get_advertised(r)?);
            }
            Ok(FileStrategy::Fixed(files))
        }
        1 => {
            let n = r.u32()? as usize;
            let mut seeds = Vec::with_capacity(n.min(4096));
            for _ in 0..n {
                seeds.push(get_advertised(r)?);
            }
            let adopt_until = SimTime::from_millis(r.u64()?);
            let max_files = r.u64()? as usize;
            Ok(FileStrategy::Greedy { seeds, adopt_until, max_files })
        }
        _ => Err(ProtoError::Invalid("file strategy tag")),
    }
}

fn put_advertised(w: &mut Writer, f: &AdvertisedFile) {
    w.hash(&f.id.0);
    w.str32(&f.name);
    w.u64(f.size);
}

fn get_advertised(r: &mut Reader) -> Result<AdvertisedFile, ProtoError> {
    Ok(AdvertisedFile { id: FileId(r.hash()?), name: r.str32()?, size: r.u64()? })
}

fn put_server(w: &mut Writer, s: &ServerInfo) {
    w.str32(&s.name);
    w.u32(s.ip.0);
    w.u16(s.port);
}

fn get_server(r: &mut Reader) -> Result<ServerInfo, ProtoError> {
    let name = r.str32()?;
    let ip = Ipv4(r.u32()?);
    let port = r.u16()?;
    Ok(ServerInfo { name, ip, port })
}

fn put_status_report(w: &mut Writer, report: &StatusReport) {
    w.u32(report.honeypot.0);
    w.u64(report.at.as_millis());
    match report.status {
        HoneypotStatus::Pending => w.u8(0),
        HoneypotStatus::Connected { client_id } => {
            w.u8(1);
            w.u32(client_id.0);
        }
        HoneypotStatus::Disconnected => w.u8(2),
        HoneypotStatus::Dead => w.u8(3),
    }
}

fn get_status_report(r: &mut Reader) -> Result<StatusReport, ProtoError> {
    let honeypot = HoneypotId(r.u32()?);
    let at = SimTime::from_millis(r.u64()?);
    let status = match r.u8()? {
        0 => HoneypotStatus::Pending,
        1 => HoneypotStatus::Connected { client_id: ClientId(r.u32()?) },
        2 => HoneypotStatus::Disconnected,
        3 => HoneypotStatus::Dead,
        _ => return Err(ProtoError::Invalid("honeypot status tag")),
    };
    Ok(StatusReport { honeypot, at, status })
}

fn put_chunk(w: &mut Writer, chunk: &LogChunk) {
    w.u32(chunk.honeypot.0);
    put_server(w, &chunk.server);
    w.u32(chunk.records.len() as u32);
    for rec in &chunk.records {
        // The packed storage form's wire serialisation is byte-identical
        // to the historical field-by-field encoding (pinned by the
        // `record_encoding_matches_packed_wire_layout` test below).
        w.bytes(&PackedQueryRecord::pack(rec).to_wire_bytes());
    }
    w.u32(chunk.shared_lists.len() as u32);
    for l in chunk.shared_lists.iter() {
        w.u64(l.at.as_millis());
        w.hash(&l.peer.0);
        w.u32(l.files.len() as u32);
        for &f in l.files {
            w.u32(f);
        }
    }
    w.u32(chunk.peer_names.len() as u32);
    for n in &chunk.peer_names {
        w.str32(n);
    }
    w.u32(chunk.files.len() as u32);
    for i in 0..chunk.files.len() as u32 {
        w.hash(&chunk.files.id(i).0);
        w.str32(chunk.files.name(i));
        w.u64(chunk.files.size(i));
    }
}

fn get_chunk(r: &mut Reader) -> Result<LogChunk, ProtoError> {
    let honeypot = HoneypotId(r.u32()?);
    let server = get_server(r)?;
    let n_records = r.u32()? as usize;
    let mut records = Vec::with_capacity(n_records.min(1 << 20));
    for _ in 0..n_records {
        let bytes: [u8; PACKED_RECORD_BYTES] =
            r.take(PACKED_RECORD_BYTES)?.try_into().expect("fixed take");
        let packed = PackedQueryRecord::from_wire_bytes(&bytes);
        records.push(packed.unpack().ok_or(ProtoError::Invalid("record enum tag"))?);
    }
    let n_lists = r.u32()? as usize;
    let mut shared_lists = SharedLists::new();
    for _ in 0..n_lists {
        let at = SimTime::from_millis(r.u64()?);
        let peer = IpHash(r.hash()?);
        let n_files = r.u32()? as usize;
        shared_lists.begin(at, peer);
        for _ in 0..n_files {
            shared_lists.append_file(r.u32()?);
        }
    }
    let n_names = r.u32()? as usize;
    let mut peer_names = Vec::with_capacity(n_names.min(1 << 20));
    for _ in 0..n_names {
        peer_names.push(r.str32()?);
    }
    // Re-interning preserves table order only while ids are unique: a
    // repeated id would silently shorten the table and shift every later
    // index, so it is a malformed chunk, not a mergeable one.
    let mut files = FileTable::new();
    let n_files = r.u32()? as usize;
    for row in 0..n_files {
        let id = FileId(r.hash()?);
        let name = r.str32_ref()?;
        let size = r.u64()?;
        if files.intern(id, name, size) as usize != row {
            return Err(ProtoError::Invalid("repeated file id in chunk table"));
        }
    }
    let chunk = LogChunk { honeypot, server, records, shared_lists, peer_names, files };
    // A CRC-valid frame can still refer past its own tables; the merge
    // thread indexes them unchecked, so refuse here.
    chunk.check_indices().map_err(ProtoError::Invalid)?;
    Ok(chunk)
}

#[cfg(test)]
mod tests {
    use super::*;
    use edonkey_proto::codec::Framing;
    use edonkey_proto::control::{ControlEvent, ControlFraming};
    use edonkey_proto::UserId;
    use honeypot::log::{QueryRecord, FILE_NONE};
    use honeypot::{HoneypotLog, HoneypotSpec, IdStatus, Manager, QueryKind};

    fn hello(at_ms: u64, name: u32) -> QueryRecord {
        QueryRecord {
            at: SimTime::from_millis(at_ms),
            kind: QueryKind::Hello,
            peer: IpHash([7; 16]),
            port: 4662,
            id_status: IdStatus::High,
            user_id: UserId::from_seed(b"peer"),
            name,
            version: 0x49,
            file: FILE_NONE,
        }
    }

    fn sample_chunk() -> LogChunk {
        let server = ServerInfo::new("srv", Ipv4::new(127, 0, 0, 1), 4661);
        let mut log = HoneypotLog::new(HoneypotId(2), server);
        let name = log.intern_name("eMule v0.49");
        let file = log.files.intern(FileId::from_seed(b"f1"), "vacation video.avi", 700 << 20);
        log.files.intern(FileId::from_seed(b"f2"), "holiday.mp3", 5 << 20);
        log.push(hello(1234, name));
        log.push(QueryRecord {
            at: SimTime::from_millis(2345),
            kind: QueryKind::RequestPart,
            peer: IpHash([8; 16]),
            port: 4662,
            id_status: IdStatus::Low,
            user_id: UserId::from_seed(b"peer2"),
            name,
            version: 0x50,
            file,
        });
        log.shared_lists.push(SimTime::from_millis(999), IpHash([7; 16]), [file]);
        log.take_chunk()
    }

    fn roundtrip(msg: &ControlMessage) -> ControlMessage {
        let payload = msg.encode_payload();
        ControlMessage::decode(msg.opcode(), &payload).expect("decode")
    }

    /// The format-stability proof for the packed record: the bytes the
    /// codec emits are exactly the historical field-by-field encoding,
    /// reproduced here by hand.  Spooled chunks from older builds decode
    /// unchanged.
    #[test]
    fn record_encoding_matches_packed_wire_layout() {
        let rec = QueryRecord {
            at: SimTime::from_millis(0xDEAD_BEEF),
            kind: QueryKind::RequestPart,
            peer: IpHash([3; 16]),
            port: 4662,
            id_status: IdStatus::Low,
            user_id: UserId::from_seed(b"pin"),
            name: 5,
            version: 0x49,
            file: 12,
        };
        let mut legacy = Vec::new();
        legacy.extend_from_slice(&rec.at.as_millis().to_le_bytes());
        legacy.push(2); // REQUEST-PART tag
        legacy.extend_from_slice(&rec.peer.0);
        legacy.extend_from_slice(&rec.port.to_le_bytes());
        legacy.push(1); // low-ID tag
        legacy.extend_from_slice(&rec.user_id.0);
        legacy.extend_from_slice(&rec.name.to_le_bytes());
        legacy.extend_from_slice(&rec.version.to_le_bytes());
        legacy.extend_from_slice(&rec.file.to_le_bytes());
        assert_eq!(legacy.len(), PACKED_RECORD_BYTES);
        assert_eq!(PackedQueryRecord::pack(&rec).to_wire_bytes().as_slice(), &legacy[..]);
    }

    #[test]
    fn simple_messages_roundtrip() {
        for msg in [
            ControlMessage::Register { agent: 3, incarnation: 2, resume: true },
            ControlMessage::RegisterAck { agent: 3, next_seq: 17, window: 32 },
            ControlMessage::Heartbeat {
                agent: 1,
                seq: 9,
                sent_micros: 55,
                rtt_micros: 120,
                flags: heartbeat_flags::SPOOL_DEGRADED,
            },
            ControlMessage::HeartbeatAck { seq: 9, echo_micros: 55 },
            ControlMessage::Ready { agent: 0, peer_port: 40123 },
            ControlMessage::ChunkAck { next_seq: 4, window: 9 },
            ControlMessage::ChunkRetry { seq: 4 },
            ControlMessage::Shutdown,
            ControlMessage::Goodbye { agent: 2, final_seq: 8 },
            ControlMessage::Status(StatusReport {
                honeypot: HoneypotId(1),
                at: SimTime::from_millis(77),
                status: HoneypotStatus::Connected { client_id: ClientId(0x0A00_0001) },
            }),
            ControlMessage::Status(StatusReport {
                honeypot: HoneypotId(1),
                at: SimTime::from_millis(78),
                status: HoneypotStatus::Dead,
            }),
        ] {
            assert_eq!(roundtrip(&msg), msg);
        }
    }

    /// A `ConfigPush` for each `FileStrategy` arm.
    fn config_pushes() -> [ControlMessage; 2] {
        let seeds = vec![
            AdvertisedFile::new(FileId::from_seed(b"a"), "a.avi", 100),
            AdvertisedFile::new(FileId::from_seed(b"b"), "vacances été.mp3", 5_000_000),
        ];
        [
            FileStrategy::Fixed(seeds.clone()),
            FileStrategy::Greedy { seeds, adopt_until: SimTime::from_hours(24), max_files: 200 },
        ]
        .map(|files| {
            ControlMessage::ConfigPush(AgentConfig {
                id: HoneypotId(4),
                content: ContentStrategy::RandomContent,
                files,
                server: ServerInfo::new("live", Ipv4::new(127, 0, 0, 1), 5661),
                ip_salt: 0xDEAD,
                rng_seed: 0xBEEF,
                heartbeat_ms: 100,
                collect_ms: 250,
                client_name: "agent".into(),
            })
        })
    }

    #[test]
    fn config_roundtrips_both_strategies() {
        for msg in config_pushes() {
            assert_eq!(roundtrip(&msg), msg);
        }
    }

    /// Every variant but `LogUpload` (pinned by `PARENT_LOG_UPLOAD_FRAME`)
    /// and the frame the build before the shared `proto::wire` codec put
    /// on the wire for it.  A change to a field width or a string prefix
    /// that encode and decode make together passes every round trip; it
    /// fails here.
    #[test]
    fn every_variant_decodes_from_and_re_encodes_to_its_parent_frame() {
        let [fixed, greedy] = config_pushes();
        #[rustfmt::skip]
        let pinned: [(ControlMessage, &[u8]); 13] = [
            (ControlMessage::Register { agent: 3, incarnation: 2, resume: true }, &[
                0xec, 0x02, 0x01, 0x09, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x01,
                0x9d, 0x4b, 0x43, 0xd2,
            ]),
            (ControlMessage::RegisterAck { agent: 3, next_seq: 17, window: 32 }, &[
                0xec, 0x02, 0x02, 0x10, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x11, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x20, 0x00, 0x00, 0x00, 0x0a, 0xf1, 0xfc, 0xf2,
            ]),
            (fixed, &[
                0xec, 0x02, 0x03, 0x90, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x00,
                0x00, 0xbd, 0xe5, 0x2c, 0xb3, 0x1d, 0xe3, 0x3e, 0x46, 0x24, 0x5e, 0x05, 0xfb, 0xdb, 0xd6, 0xfb,
                0x24, 0x05, 0x00, 0x00, 0x00, 0x61, 0x2e, 0x61, 0x76, 0x69, 0x64, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x7a, 0xea, 0xfc, 0xb2, 0x81, 0x8e, 0x53, 0x3b, 0x38, 0x44, 0x33, 0xde, 0xa8, 0x09,
                0x92, 0xf5, 0x12, 0x00, 0x00, 0x00, 0x76, 0x61, 0x63, 0x61, 0x6e, 0x63, 0x65, 0x73, 0x20, 0xc3,
                0xa9, 0x74, 0xc3, 0xa9, 0x2e, 0x6d, 0x70, 0x33, 0x40, 0x4b, 0x4c, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x04, 0x00, 0x00, 0x00, 0x6c, 0x69, 0x76, 0x65, 0x01, 0x00, 0x00, 0x7f, 0x1d, 0x16, 0xad, 0xde,
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xef, 0xbe, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x64, 0x00,
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xfa, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00,
                0x00, 0x00, 0x61, 0x67, 0x65, 0x6e, 0x74, 0x4b, 0x7a, 0x47, 0x57,
            ]),
            (greedy, &[
                0xec, 0x02, 0x03, 0xa0, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x01, 0x01, 0x02, 0x00, 0x00,
                0x00, 0xbd, 0xe5, 0x2c, 0xb3, 0x1d, 0xe3, 0x3e, 0x46, 0x24, 0x5e, 0x05, 0xfb, 0xdb, 0xd6, 0xfb,
                0x24, 0x05, 0x00, 0x00, 0x00, 0x61, 0x2e, 0x61, 0x76, 0x69, 0x64, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x7a, 0xea, 0xfc, 0xb2, 0x81, 0x8e, 0x53, 0x3b, 0x38, 0x44, 0x33, 0xde, 0xa8, 0x09,
                0x92, 0xf5, 0x12, 0x00, 0x00, 0x00, 0x76, 0x61, 0x63, 0x61, 0x6e, 0x63, 0x65, 0x73, 0x20, 0xc3,
                0xa9, 0x74, 0xc3, 0xa9, 0x2e, 0x6d, 0x70, 0x33, 0x40, 0x4b, 0x4c, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x5c, 0x26, 0x05, 0x00, 0x00, 0x00, 0x00, 0xc8, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                0x04, 0x00, 0x00, 0x00, 0x6c, 0x69, 0x76, 0x65, 0x01, 0x00, 0x00, 0x7f, 0x1d, 0x16, 0xad, 0xde,
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xef, 0xbe, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x64, 0x00,
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xfa, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00,
                0x00, 0x00, 0x61, 0x67, 0x65, 0x6e, 0x74, 0x5f, 0x74, 0xed, 0x31,
            ]),
            (ControlMessage::Heartbeat { agent: 1, seq: 9, sent_micros: 55, rtt_micros: 120, flags: heartbeat_flags::SPOOL_DEGRADED }, &[
                0xec, 0x02, 0x10, 0x1d, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x37, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x78, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x01, 0x2c, 0x99, 0xcf, 0xc4,
            ]),
            (ControlMessage::HeartbeatAck { seq: 9, echo_micros: 55 }, &[
                0xec, 0x02, 0x11, 0x10, 0x00, 0x00, 0x00, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x37,
                0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xef, 0x1f, 0xc8, 0xbe,
            ]),
            (ControlMessage::Status(StatusReport {
                honeypot: HoneypotId(1),
                at: SimTime::from_millis(77),
                status: HoneypotStatus::Connected { client_id: ClientId(0x0A00_0001) },
            }), &[
                0xec, 0x02, 0x12, 0x11, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x4d, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x01, 0x01, 0x00, 0x00, 0x0a, 0xe0, 0x6c, 0xe1, 0xd1,
            ]),
            (ControlMessage::Status(StatusReport {
                honeypot: HoneypotId(1),
                at: SimTime::from_millis(78),
                status: HoneypotStatus::Dead,
            }), &[
                0xec, 0x02, 0x12, 0x0d, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x4e, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x03, 0x28, 0x16, 0xbb, 0x5d,
            ]),
            (ControlMessage::Ready { agent: 0, peer_port: 40123 }, &[
                0xec, 0x02, 0x13, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xbb, 0x9c, 0xbf, 0x09, 0x4a,
                0x4f,
            ]),
            (ControlMessage::ChunkAck { next_seq: 4, window: 9 }, &[
                0xec, 0x02, 0x21, 0x0c, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x09,
                0x00, 0x00, 0x00, 0x9a, 0xb2, 0xdb, 0x05,
            ]),
            (ControlMessage::ChunkRetry { seq: 4 }, &[
                0xec, 0x02, 0x22, 0x08, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x93,
                0xd1, 0x68, 0xe1,
            ]),
            (ControlMessage::Shutdown, &[
                0xec, 0x02, 0x31, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
            ]),
            (ControlMessage::Goodbye { agent: 2, final_seq: 8 }, &[
                0xec, 0x02, 0x32, 0x0c, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00,
                0x00, 0x00, 0x00, 0x45, 0x43, 0x0b, 0x44,
            ]),
        ];
        for (msg, frame) in pinned {
            let (event, used) = ControlFraming::default().split(frame).unwrap();
            assert_eq!(used, frame.len(), "{msg:?}");
            let ControlEvent::Frame { opcode, payload } = event else { panic!("{msg:?}: CRC") };
            assert_eq!(ControlMessage::decode(opcode, payload).unwrap(), msg);
            assert_eq!(msg.encode_frame(), frame, "{msg:?}");
        }
    }

    #[test]
    fn log_upload_roundtrips_chunk_exactly() {
        let chunk = sample_chunk();
        let msg = ControlMessage::LogUpload { agent: 2, seq: 5, chunk: chunk.clone() };
        let back = roundtrip(&msg);
        let ControlMessage::LogUpload { agent, seq, chunk: got } = back else {
            panic!("wrong variant");
        };
        assert_eq!((agent, seq), (2, 5));
        assert_eq!(got.honeypot, chunk.honeypot);
        assert_eq!(got.server, chunk.server);
        assert_eq!(got.records, chunk.records);
        assert_eq!(got.shared_lists, chunk.shared_lists);
        assert_eq!(got.peer_names, chunk.peer_names);
        assert_eq!(got.files.len(), chunk.files.len());
        for i in 0..chunk.files.len() as u32 {
            assert_eq!(got.files.id(i), chunk.files.id(i));
            assert_eq!(got.files.name(i), chunk.files.name(i));
            assert_eq!(got.files.size(i), chunk.files.size(i));
        }
        // The rebuilt table's lookup index must be live, not stale.
        assert_eq!(got.files.lookup(&chunk.files.id(0)), Some(0));
    }

    /// `LogUpload { agent: 2, seq: 5, chunk: sample_chunk() }` as framed by
    /// the last build with the bitwise CRC.
    #[rustfmt::skip]
    const PARENT_LOG_UPLOAD_FRAME: [u8; 300] = [
        0xec, 0x02, 0x20, 0x21, 0x01, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x73, 0x72, 0x76, 0x01, 0x00,
        0x00, 0x7f, 0x35, 0x12, 0x02, 0x00, 0x00, 0x00, 0xd2, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07,
        0x07, 0x36, 0x12, 0x00, 0xdc, 0x08, 0x5d, 0xb8, 0xeb, 0xc2, 0x95, 0x97, 0x27, 0xcc, 0x41, 0xc6,
        0xf9, 0xdf, 0xd3, 0x56, 0x00, 0x00, 0x00, 0x00, 0x49, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff,
        0x29, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x08, 0x08, 0x08, 0x08, 0x08, 0x08, 0x08,
        0x08, 0x08, 0x08, 0x08, 0x08, 0x08, 0x08, 0x08, 0x08, 0x36, 0x12, 0x01, 0x49, 0x31, 0x89, 0x2e,
        0x11, 0x0d, 0x7e, 0x4b, 0x75, 0xc7, 0x26, 0xfe, 0x6f, 0xc4, 0x96, 0x53, 0x00, 0x00, 0x00, 0x00,
        0x50, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0xe7, 0x03, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07, 0x07,
        0x07, 0x07, 0x07, 0x07, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
        0x0b, 0x00, 0x00, 0x00, 0x65, 0x4d, 0x75, 0x6c, 0x65, 0x20, 0x76, 0x30, 0x2e, 0x34, 0x39, 0x02,
        0x00, 0x00, 0x00, 0x1f, 0xe6, 0x37, 0xca, 0xa4, 0xf1, 0x5d, 0xad, 0x46, 0x0e, 0xad, 0xf1, 0xc8,
        0x31, 0xbf, 0xe6, 0x12, 0x00, 0x00, 0x00, 0x76, 0x61, 0x63, 0x61, 0x74, 0x69, 0x6f, 0x6e, 0x20,
        0x76, 0x69, 0x64, 0x65, 0x6f, 0x2e, 0x61, 0x76, 0x69, 0x00, 0x00, 0xc0, 0x2b, 0x00, 0x00, 0x00,
        0x00, 0x8c, 0xca, 0x2d, 0xad, 0xef, 0x45, 0xa4, 0x76, 0x31, 0xc4, 0xdc, 0x04, 0xd4, 0x01, 0x94,
        0x5f, 0x0b, 0x00, 0x00, 0x00, 0x68, 0x6f, 0x6c, 0x69, 0x64, 0x61, 0x79, 0x2e, 0x6d, 0x70, 0x33,
        0x00, 0x00, 0x50, 0x00, 0x00, 0x00, 0x00, 0x00, 0x90, 0x69, 0x38, 0xf1,
    ];

    #[test]
    fn frame_written_by_the_bitwise_crc_build_decodes_and_re_encodes_identically() {
        let (event, used) = ControlFraming::default().split(&PARENT_LOG_UPLOAD_FRAME).unwrap();
        assert_eq!(used, PARENT_LOG_UPLOAD_FRAME.len());
        let ControlEvent::Frame { opcode, payload } = event else {
            panic!("old frame fails the table CRC")
        };
        assert_eq!(opcode, opcodes::LOG_CHUNK);
        let got = ControlMessage::decode(opcode, payload).unwrap();
        let want = ControlMessage::LogUpload { agent: 2, seq: 5, chunk: sample_chunk() };
        assert_eq!(got.encode_payload(), want.encode_payload());
        assert_eq!(got.encode_frame(), PARENT_LOG_UPLOAD_FRAME);
    }

    fn decode_chunk(chunk: &LogChunk) -> Result<ControlMessage, ProtoError> {
        let msg = ControlMessage::LogUpload { agent: 2, seq: 0, chunk: chunk.clone() };
        ControlMessage::decode(opcodes::LOG_CHUNK, &msg.encode_payload())
    }

    #[test]
    fn record_name_index_past_chunk_table_rejected() {
        let mut chunk = sample_chunk();
        chunk.records[0].name = chunk.peer_names.len() as u32;
        assert!(matches!(decode_chunk(&chunk), Err(ProtoError::Invalid(_))));
    }

    #[test]
    fn record_file_index_past_chunk_table_rejected() {
        let mut chunk = sample_chunk();
        chunk.records[1].file = chunk.files.len() as u32;
        assert!(matches!(decode_chunk(&chunk), Err(ProtoError::Invalid(_))));
    }

    #[test]
    fn shared_list_file_index_past_chunk_table_rejected() {
        let mut chunk = sample_chunk();
        let (at, peer) = (SimTime::from_millis(5), IpHash([9; 16]));
        chunk.shared_lists.push(at, peer, [0, chunk.files.len() as u32]);
        assert!(matches!(decode_chunk(&chunk), Err(ProtoError::Invalid(_))));
    }

    #[test]
    fn repeated_file_id_in_chunk_table_rejected() {
        // `FileTable` cannot hold a repeated id, so doctor the bytes: the
        // second table row takes the first row's id.
        let chunk = sample_chunk();
        let msg = ControlMessage::LogUpload { agent: 2, seq: 0, chunk: chunk.clone() };
        let mut payload = msg.encode_payload();
        let second = chunk.files.id(1).0;
        let at = payload.windows(16).rposition(|w| w == second).expect("id on the wire");
        payload[at..at + 16].copy_from_slice(&chunk.files.id(0).0);
        assert!(matches!(
            ControlMessage::decode(opcodes::LOG_CHUNK, &payload),
            Err(ProtoError::Invalid("repeated file id in chunk table"))
        ));
    }

    /// The "decode never panics" property of the frame layer, carried one
    /// step further: whatever mutated LOG_CHUNK payload still decodes must
    /// also merge without panicking.  Seeded; a failure names its seed.
    #[test]
    fn decoded_chunks_never_panic_the_merge() {
        let clean =
            ControlMessage::LogUpload { agent: 2, seq: 0, chunk: sample_chunk() }.encode_payload();
        let spec = |id| HoneypotSpec {
            id: HoneypotId(id),
            content: ContentStrategy::NoContent,
            server: ServerInfo::new("srv", Ipv4::new(127, 0, 0, 1), 4661),
        };
        let mut merged = 0;
        for seed in 0..4000u64 {
            let mut rng = netsim::Rng::seed_from(seed);
            let mut payload = clean.clone();
            for _ in 0..1 + rng.below(3) {
                let at = rng.below(payload.len() as u64) as usize;
                // Small values land index and count fields just out of range.
                payload[at] =
                    if rng.chance(0.5) { rng.below(4) as u8 } else { rng.next_u32() as u8 };
            }
            let outcome = std::panic::catch_unwind(|| {
                let Ok(ControlMessage::LogUpload { chunk, .. }) =
                    ControlMessage::decode(opcodes::LOG_CHUNK, &payload)
                else {
                    return false;
                };
                let mut mgr = Manager::new((0..3).map(spec).collect());
                mgr.collect(chunk);
                mgr.finalize(SimTime::from_secs(60), 1, 1);
                true
            });
            merged += u32::from(outcome.unwrap_or_else(|_| panic!("seed {seed} panicked")));
        }
        assert!(merged > 100, "the sweep must reach the merge, not only the rejections");
    }

    #[test]
    fn chunk_size_follows_new_data_not_table_history() {
        let server = ServerInfo::new("srv", Ipv4::new(127, 0, 0, 1), 4661);
        let mut log = HoneypotLog::new(HoneypotId(0), server);
        let name = log.intern_name("eMule v0.49");
        log.push(hello(1, name));
        log.take_chunk();
        // The honeypot's table grows by 1,500 files (a greedy adoption
        // spree), all collected...
        for i in 0..1500u32 {
            log.files.intern(FileId::from_seed(&i.to_le_bytes()), "some adopted file.avi", 1 << 20);
        }
        let grown = log.take_chunk();
        assert_eq!(grown.files.len(), 1500);
        // ...after which one HELLO costs one HELLO.
        log.push(hello(2, name));
        let chunk = log.take_chunk();
        assert_eq!(chunk.files.len(), 0);
        assert_eq!(chunk.peer_names.len(), 1);
        let frame = ControlMessage::LogUpload { agent: 0, seq: 2, chunk }.encode_frame();
        assert!(frame.len() < 300, "one-HELLO chunk encodes to {} bytes", frame.len());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = ControlMessage::ChunkAck { next_seq: 1, window: 4 }.encode_payload();
        payload.push(0);
        assert!(matches!(
            ControlMessage::decode(opcodes::CHUNK_ACK, &payload),
            Err(ProtoError::TrailingBytes(1))
        ));
    }

    #[test]
    fn truncated_payload_rejected() {
        let payload =
            ControlMessage::RegisterAck { agent: 1, next_seq: 2, window: 8 }.encode_payload();
        assert!(matches!(
            ControlMessage::decode(opcodes::REGISTER_ACK, &payload[..payload.len() - 1]),
            Err(ProtoError::Truncated(_))
        ));
    }

    #[test]
    fn unknown_opcode_rejected() {
        // 0x30 is the retired relaunch order: no build may decode it again.
        for opcode in [0x7F, 0x30] {
            assert!(matches!(
                ControlMessage::decode(opcode, &[]),
                Err(ProtoError::UnknownOpcode { opcode: got, .. }) if got == opcode
            ));
        }
    }
}
