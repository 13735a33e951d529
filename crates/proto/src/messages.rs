//! Typed eDonkey messages and their payload encodings.
//!
//! Two directional message sets exist (see [`crate::opcodes`]):
//! [`ClientServerMessage`] for the TCP session between a client and an index
//! server, and [`PeerMessage`] for client↔client sessions.  The honeypot
//! platform logs exactly the peer messages the paper names — HELLO,
//! START-UPLOAD and REQUEST-PART — but the full set here is what a
//! well-behaved client needs to *pass for a normal peer* (paper §III-B).

use crate::error::ProtoError;
use crate::ids::{ClientId, FileId, Ipv4, PeerAddr, UserId};
use crate::opcodes::{client_server as cs, peer, server_client as sc};
use crate::search::SearchExpr;
use crate::tags::{special, Tag, TagName, TagValue};
use crate::wire::{Reader, Writer};

/// One file entry of an OFFER-FILES (or shared-files answer) list.
///
/// On the wire: file hash, client ID, port, then a tag list carrying at
/// least the name and size.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PublishedFile {
    pub file_id: FileId,
    /// Publisher's client ID as known to the server (0 while unpublished).
    pub client_id: ClientId,
    pub port: u16,
    pub tags: Vec<Tag>,
}

impl PublishedFile {
    /// Builds a minimal entry with name and size tags.
    pub fn new(file_id: FileId, name: &str, size: u64) -> Self {
        PublishedFile {
            file_id,
            client_id: ClientId(0),
            port: 0,
            tags: vec![
                Tag::string(special::NAME, name),
                Tag::u32(special::SIZE, size.min(u32::MAX as u64) as u32),
            ],
        }
    }

    /// Rewrites this entry into `PublishedFile::new(file_id, name, size)`.
    /// An entry `new` built keeps its name buffer, so a list can be
    /// refilled without allocating per file.
    pub fn set(&mut self, file_id: FileId, name: &str, size: u64) {
        use TagName::Special;
        match self.tags.as_mut_slice() {
            [Tag { name: Special(special::NAME), value: TagValue::String(n) }, Tag { name: Special(special::SIZE), value: TagValue::U32(s) }] =>
            {
                n.clear();
                n.push_str(name);
                *s = size.min(u32::MAX as u64) as u32;
                self.file_id = file_id;
                self.client_id = ClientId(0);
                self.port = 0;
            }
            _ => *self = Self::new(file_id, name, size),
        }
    }

    /// The advertised name, if present.
    pub fn name(&self) -> Option<&str> {
        crate::tags::get_string(&self.tags, special::NAME)
    }

    /// The advertised size in bytes, if present.
    pub fn size(&self) -> Option<u64> {
        crate::tags::get_u32(&self.tags, special::SIZE).map(u64::from)
    }

    fn encode(&self, w: &mut Writer) {
        w.hash(&self.file_id.0);
        w.u32(self.client_id.0);
        w.u16(self.port);
        Tag::encode_list(&self.tags, w);
    }

    fn decode(r: &mut Reader) -> Result<Self, ProtoError> {
        Ok(PublishedFile {
            file_id: FileId(r.hash()?),
            client_id: ClientId(r.u32()?),
            port: r.u16()?,
            tags: Tag::decode_list(r)?,
        })
    }

    fn encode_list(files: &[PublishedFile], w: &mut Writer) {
        w.u32(files.len() as u32);
        for f in files {
            f.encode(w);
        }
    }

    fn decode_list(r: &mut Reader) -> Result<Vec<PublishedFile>, ProtoError> {
        let n = r.u32()? as usize;
        if n > r.remaining() / 22 + 1 {
            return Err(ProtoError::Truncated("file list count exceeds payload"));
        }
        let mut out = Vec::with_capacity(n.min(4096));
        for _ in 0..n {
            out.push(PublishedFile::decode(r)?);
        }
        Ok(out)
    }
}

/// Messages on the client↔server TCP session.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ClientServerMessage {
    /// Client → server, first message: identify and request a session.
    LoginRequest { user_id: UserId, client_id: ClientId, port: u16, tags: Vec<Tag> },
    /// Server → client: the granted session client ID.
    IdChange { client_id: ClientId },
    /// Server → client: free-text notice.
    ServerMessage { text: String },
    /// Server → client: population statistics.
    ServerStatus { users: u32, files: u32 },
    /// Client → server: publish / keep-alive the shared-file list.
    OfferFiles { files: Vec<PublishedFile> },
    /// Client → server: who provides this file?
    GetSources { file_id: FileId },
    /// Server → client: the providers known for a file.
    FoundSources { file_id: FileId, sources: Vec<PeerAddr> },
    /// Client → server: keyword search.
    SearchRequest { expr: SearchExpr },
    /// Server → client: files matching a search.
    SearchResult { files: Vec<PublishedFile> },
}

impl ClientServerMessage {
    /// The opcode this message is framed with.
    pub fn opcode(&self) -> u8 {
        match self {
            ClientServerMessage::LoginRequest { .. } => cs::LOGIN_REQUEST,
            ClientServerMessage::IdChange { .. } => sc::ID_CHANGE,
            ClientServerMessage::ServerMessage { .. } => sc::SERVER_MESSAGE,
            ClientServerMessage::ServerStatus { .. } => sc::SERVER_STATUS,
            ClientServerMessage::OfferFiles { .. } => cs::OFFER_FILES,
            ClientServerMessage::GetSources { .. } => cs::GET_SOURCES,
            ClientServerMessage::FoundSources { .. } => sc::FOUND_SOURCES,
            ClientServerMessage::SearchRequest { .. } => cs::SEARCH_REQUEST,
            ClientServerMessage::SearchResult { .. } => sc::SEARCH_RESULT,
        }
    }

    /// Encodes the payload (everything after the opcode byte).
    pub fn encode_payload(&self, w: &mut Writer) {
        match self {
            ClientServerMessage::LoginRequest { user_id, client_id, port, tags } => {
                w.hash(&user_id.0);
                w.u32(client_id.0);
                w.u16(*port);
                Tag::encode_list(tags, w);
            }
            ClientServerMessage::IdChange { client_id } => w.u32(client_id.0),
            ClientServerMessage::ServerMessage { text } => w.str16(text),
            ClientServerMessage::ServerStatus { users, files } => {
                w.u32(*users);
                w.u32(*files);
            }
            ClientServerMessage::OfferFiles { files } => PublishedFile::encode_list(files, w),
            ClientServerMessage::GetSources { file_id } => w.hash(&file_id.0),
            ClientServerMessage::FoundSources { file_id, sources } => {
                w.hash(&file_id.0);
                w.u8(sources.len().min(u8::MAX as usize) as u8);
                for s in sources.iter().take(u8::MAX as usize) {
                    // IPv4 travels little-endian on the eDonkey wire.
                    w.u32(u32::from_le_bytes(s.ip.octets()));
                    w.u16(s.port);
                }
            }
            ClientServerMessage::SearchRequest { expr } => expr.encode(w),
            ClientServerMessage::SearchResult { files } => PublishedFile::encode_list(files, w),
        }
    }

    /// Decodes a payload given its opcode (direction-aware: `from_server`
    /// selects between the overlapping opcode spaces).
    pub fn decode_payload(
        opcode: u8,
        payload: &[u8],
        from_server: bool,
    ) -> Result<Self, ProtoError> {
        let mut r = Reader::new(payload);
        let msg = if from_server {
            match opcode {
                sc::ID_CHANGE => ClientServerMessage::IdChange { client_id: ClientId(r.u32()?) },
                sc::SERVER_MESSAGE => ClientServerMessage::ServerMessage { text: r.str16()? },
                sc::SERVER_STATUS => {
                    ClientServerMessage::ServerStatus { users: r.u32()?, files: r.u32()? }
                }
                sc::FOUND_SOURCES => {
                    let file_id = FileId(r.hash()?);
                    let n = r.u8()? as usize;
                    let mut sources = Vec::with_capacity(n);
                    for _ in 0..n {
                        let ip = Ipv4::from_octets(r.u32()?.to_le_bytes());
                        let port = r.u16()?;
                        sources.push(PeerAddr::new(ip, port));
                    }
                    ClientServerMessage::FoundSources { file_id, sources }
                }
                sc::SEARCH_RESULT => {
                    ClientServerMessage::SearchResult { files: PublishedFile::decode_list(&mut r)? }
                }
                other => {
                    return Err(ProtoError::UnknownOpcode {
                        opcode: other,
                        context: "server→client",
                    })
                }
            }
        } else {
            match opcode {
                cs::LOGIN_REQUEST => ClientServerMessage::LoginRequest {
                    user_id: UserId(r.hash()?),
                    client_id: ClientId(r.u32()?),
                    port: r.u16()?,
                    tags: Tag::decode_list(&mut r)?,
                },
                cs::OFFER_FILES => {
                    ClientServerMessage::OfferFiles { files: PublishedFile::decode_list(&mut r)? }
                }
                cs::GET_SOURCES => ClientServerMessage::GetSources { file_id: FileId(r.hash()?) },
                cs::SEARCH_REQUEST => {
                    ClientServerMessage::SearchRequest { expr: SearchExpr::decode(&mut r)? }
                }
                other => {
                    return Err(ProtoError::UnknownOpcode {
                        opcode: other,
                        context: "client→server",
                    })
                }
            }
        };
        r.expect_end()?;
        Ok(msg)
    }
}

/// One requested byte range, half-open `[start, end)`, as used by
/// REQUEST-PARTS.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PartRange {
    pub start: u32,
    pub end: u32,
}

impl PartRange {
    pub fn new(start: u32, end: u32) -> Self {
        PartRange { start, end }
    }

    /// Length of the range in bytes.
    pub fn len(&self) -> u32 {
        self.end.saturating_sub(self.start)
    }

    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// A SENDING-PART payload decoded in place: the content stays in the buffer
/// it arrived in.  A block is 180 KB, so a downloader that only stores or
/// counts the bytes should not pay for an owned [`PeerMessage`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SendingPartRef<'a> {
    pub file_id: FileId,
    pub start: u32,
    pub end: u32,
    pub data: &'a [u8],
}

impl<'a> SendingPartRef<'a> {
    /// Decodes the payload of a frame whose opcode is SENDING-PART.
    pub fn decode(payload: &'a [u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(payload);
        let file_id = FileId(r.hash()?);
        let start = r.u32()?;
        let end = r.u32()?;
        if end < start {
            return Err(ProtoError::Invalid("SENDING-PART end before start"));
        }
        let data = r.take(r.remaining())?;
        if data.len() as u64 != u64::from(end - start) {
            return Err(ProtoError::Invalid("SENDING-PART data length mismatch"));
        }
        Ok(SendingPartRef { file_id, start, end, data })
    }
}

fn sending_part_header(w: &mut Writer, file_id: &FileId, start: u32, end: u32) {
    w.hash(&file_id.0);
    w.u32(start);
    w.u32(end);
}

/// Encodes a SENDING-PART payload whose `range.len()` content bytes are
/// produced in place by `fill`, so the sender never holds a block outside
/// the buffer it leaves in.
pub fn encode_sending_part(
    w: &mut Writer,
    file_id: &FileId,
    range: PartRange,
    fill: impl FnOnce(&mut [u8]),
) {
    sending_part_header(w, file_id, range.start, range.end);
    w.fill(range.len() as usize, fill);
}

/// Messages on a client↔client (peer) session.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PeerMessage {
    /// Session opening: the downloading peer introduces itself.
    Hello { user_id: UserId, client_id: ClientId, port: u16, tags: Vec<Tag> },
    /// The provider's response to HELLO.
    HelloAnswer { user_id: UserId, client_id: ClientId, port: u16, tags: Vec<Tag> },
    /// Declare interest in downloading `file_id`.
    StartUpload { file_id: FileId },
    /// Provider grants an upload slot.
    AcceptUpload,
    /// Provider reports the requester's queue position instead.
    QueueRank { rank: u32 },
    /// Ask for up to three byte ranges of `file_id`.  eDonkey packs exactly
    /// three start/end pairs per message; unused slots are zero-length.
    RequestParts { file_id: FileId, ranges: [PartRange; 3] },
    /// One block of data in response.
    SendingPart { file_id: FileId, start: u32, end: u32, data: Vec<u8> },
    /// Ask the remote peer for its full shared-file list (greedy strategy).
    AskSharedFiles,
    /// The shared-file list (peers may refuse: empty answer).
    AskSharedFilesAnswer { files: Vec<PublishedFile> },
    /// Ask the provider for its name for a file ID.
    FileRequest { file_id: FileId },
    /// Provider's name for the file.
    FileRequestAnswer { file_id: FileId, name: String },
}

impl PeerMessage {
    /// The opcode this message is framed with.
    pub fn opcode(&self) -> u8 {
        match self {
            PeerMessage::Hello { .. } => peer::HELLO,
            PeerMessage::HelloAnswer { .. } => peer::HELLO_ANSWER,
            PeerMessage::StartUpload { .. } => peer::START_UPLOAD,
            PeerMessage::AcceptUpload => peer::ACCEPT_UPLOAD,
            PeerMessage::QueueRank { .. } => peer::QUEUE_RANK,
            PeerMessage::RequestParts { .. } => peer::REQUEST_PARTS,
            PeerMessage::SendingPart { .. } => peer::SENDING_PART,
            PeerMessage::AskSharedFiles => peer::ASK_SHARED_FILES,
            PeerMessage::AskSharedFilesAnswer { .. } => peer::ASK_SHARED_FILES_ANSWER,
            PeerMessage::FileRequest { .. } => peer::FILE_REQUEST,
            PeerMessage::FileRequestAnswer { .. } => peer::FILE_REQUEST_ANSWER,
        }
    }

    /// A short stable label used by log records and reports.
    pub fn kind_name(&self) -> &'static str {
        match self {
            PeerMessage::Hello { .. } => "HELLO",
            PeerMessage::HelloAnswer { .. } => "HELLO-ANSWER",
            PeerMessage::StartUpload { .. } => "START-UPLOAD",
            PeerMessage::AcceptUpload => "ACCEPT-UPLOAD",
            PeerMessage::QueueRank { .. } => "QUEUE-RANK",
            PeerMessage::RequestParts { .. } => "REQUEST-PART",
            PeerMessage::SendingPart { .. } => "SENDING-PART",
            PeerMessage::AskSharedFiles => "ASK-SHARED-FILES",
            PeerMessage::AskSharedFilesAnswer { .. } => "ASK-SHARED-FILES-ANSWER",
            PeerMessage::FileRequest { .. } => "FILE-REQUEST",
            PeerMessage::FileRequestAnswer { .. } => "FILE-REQUEST-ANSWER",
        }
    }

    /// Encodes the payload (everything after the opcode byte).
    pub fn encode_payload(&self, w: &mut Writer) {
        fn hello_body(
            w: &mut Writer,
            user_id: &UserId,
            client_id: &ClientId,
            port: u16,
            tags: &[Tag],
        ) {
            w.hash(&user_id.0);
            w.u32(client_id.0);
            w.u16(port);
            Tag::encode_list(tags, w);
        }
        match self {
            PeerMessage::Hello { user_id, client_id, port, tags } => {
                // HELLO carries a leading hash-size byte (16) — a quirk kept
                // from the original protocol so HELLO can be told apart from
                // a server LOGIN-REQUEST arriving on the wrong port.
                w.u8(16);
                hello_body(w, user_id, client_id, *port, tags);
            }
            PeerMessage::HelloAnswer { user_id, client_id, port, tags } => {
                hello_body(w, user_id, client_id, *port, tags);
            }
            PeerMessage::StartUpload { file_id } => w.hash(&file_id.0),
            PeerMessage::AcceptUpload => {}
            PeerMessage::QueueRank { rank } => w.u32(*rank),
            PeerMessage::RequestParts { file_id, ranges } => {
                w.hash(&file_id.0);
                for rg in ranges {
                    w.u32(rg.start);
                }
                for rg in ranges {
                    w.u32(rg.end);
                }
            }
            PeerMessage::SendingPart { file_id, start, end, data } => {
                sending_part_header(w, file_id, *start, *end);
                w.bytes(data);
            }
            PeerMessage::AskSharedFiles => {}
            PeerMessage::AskSharedFilesAnswer { files } => {
                w.u32(files.len() as u32);
                for f in files {
                    f.encode(w);
                }
            }
            PeerMessage::FileRequest { file_id } => w.hash(&file_id.0),
            PeerMessage::FileRequestAnswer { file_id, name } => {
                w.hash(&file_id.0);
                w.str16(name);
            }
        }
    }

    /// Decodes a peer-message payload given its opcode.
    pub fn decode_payload(opcode: u8, payload: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(payload);
        let msg = match opcode {
            peer::HELLO => {
                let hash_len = r.u8()?;
                if hash_len != 16 {
                    return Err(ProtoError::Invalid("HELLO hash-size byte must be 16"));
                }
                PeerMessage::Hello {
                    user_id: UserId(r.hash()?),
                    client_id: ClientId(r.u32()?),
                    port: r.u16()?,
                    tags: Tag::decode_list(&mut r)?,
                }
            }
            peer::HELLO_ANSWER => PeerMessage::HelloAnswer {
                user_id: UserId(r.hash()?),
                client_id: ClientId(r.u32()?),
                port: r.u16()?,
                tags: Tag::decode_list(&mut r)?,
            },
            peer::START_UPLOAD => PeerMessage::StartUpload { file_id: FileId(r.hash()?) },
            peer::ACCEPT_UPLOAD => PeerMessage::AcceptUpload,
            peer::QUEUE_RANK => PeerMessage::QueueRank { rank: r.u32()? },
            peer::REQUEST_PARTS => {
                let file_id = FileId(r.hash()?);
                let starts = [r.u32()?, r.u32()?, r.u32()?];
                let ends = [r.u32()?, r.u32()?, r.u32()?];
                let ranges = [
                    PartRange::new(starts[0], ends[0]),
                    PartRange::new(starts[1], ends[1]),
                    PartRange::new(starts[2], ends[2]),
                ];
                PeerMessage::RequestParts { file_id, ranges }
            }
            peer::SENDING_PART => {
                let part = SendingPartRef::decode(r.take(r.remaining())?)?;
                PeerMessage::SendingPart {
                    file_id: part.file_id,
                    start: part.start,
                    end: part.end,
                    data: part.data.to_vec(),
                }
            }
            peer::ASK_SHARED_FILES => PeerMessage::AskSharedFiles,
            peer::ASK_SHARED_FILES_ANSWER => {
                let n = r.u32()? as usize;
                if n > r.remaining() / 22 + 1 {
                    return Err(ProtoError::Truncated("shared list count exceeds payload"));
                }
                let mut files = Vec::with_capacity(n.min(4096));
                for _ in 0..n {
                    files.push(PublishedFile::decode(&mut r)?);
                }
                PeerMessage::AskSharedFilesAnswer { files }
            }
            peer::FILE_REQUEST => PeerMessage::FileRequest { file_id: FileId(r.hash()?) },
            peer::FILE_REQUEST_ANSWER => {
                PeerMessage::FileRequestAnswer { file_id: FileId(r.hash()?), name: r.str16()? }
            }
            other => {
                return Err(ProtoError::UnknownOpcode { opcode: other, context: "peer↔peer" })
            }
        };
        r.expect_end()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `set` leaves exactly what `new` builds, whatever the entry held.
    #[test]
    fn set_rewrites_an_entry_into_new() {
        let id = FileId::from_seed(b"f");
        let mut reused = PublishedFile::new(FileId::from_seed(b"old"), "a much longer old name", 7);
        reused.set(id, "x.avi", 5_000_000_000);
        assert_eq!(reused, PublishedFile::new(id, "x.avi", 5_000_000_000));
        let mut other = PublishedFile {
            file_id: FileId::from_seed(b"old"),
            client_id: ClientId(9),
            port: 4662,
            tags: vec![Tag::u32(special::SIZE, 1)],
        };
        other.set(id, "y.mp3", 3);
        assert_eq!(other, PublishedFile::new(id, "y.mp3", 3));
    }

    fn rt_peer(msg: &PeerMessage) -> PeerMessage {
        let mut w = Writer::new();
        msg.encode_payload(&mut w);
        let buf = w.into_bytes();
        PeerMessage::decode_payload(msg.opcode(), &buf).expect("decode")
    }

    fn rt_cs(msg: &ClientServerMessage, from_server: bool) -> ClientServerMessage {
        let mut w = Writer::new();
        msg.encode_payload(&mut w);
        let buf = w.into_bytes();
        ClientServerMessage::decode_payload(msg.opcode(), &buf, from_server).expect("decode")
    }

    fn sample_tags() -> Vec<Tag> {
        vec![Tag::string(special::NAME, "honeypot-12"), Tag::u32(special::VERSION, 0x3c)]
    }

    #[test]
    fn hello_round_trip() {
        let m = PeerMessage::Hello {
            user_id: UserId::from_seed(b"u"),
            client_id: ClientId(0x0a00_020f),
            port: 4662,
            tags: sample_tags(),
        };
        assert_eq!(rt_peer(&m), m);
        assert_eq!(m.kind_name(), "HELLO");
    }

    #[test]
    fn hello_answer_round_trip() {
        let m = PeerMessage::HelloAnswer {
            user_id: UserId::from_seed(b"v"),
            client_id: ClientId::low(7),
            port: 4672,
            tags: vec![],
        };
        assert_eq!(rt_peer(&m), m);
    }

    #[test]
    fn hello_with_bad_hash_size_rejected() {
        let m = PeerMessage::Hello {
            user_id: UserId::from_seed(b"u"),
            client_id: ClientId(1),
            port: 1,
            tags: vec![],
        };
        let mut w = Writer::new();
        m.encode_payload(&mut w);
        let mut buf = w.into_bytes();
        buf[0] = 15;
        assert!(PeerMessage::decode_payload(peer::HELLO, &buf).is_err());
    }

    #[test]
    fn start_upload_and_accept_round_trip() {
        let m = PeerMessage::StartUpload { file_id: FileId::from_seed(b"f") };
        assert_eq!(rt_peer(&m), m);
        assert_eq!(rt_peer(&PeerMessage::AcceptUpload), PeerMessage::AcceptUpload);
    }

    #[test]
    fn request_parts_round_trip_preserves_range_order() {
        let m = PeerMessage::RequestParts {
            file_id: FileId::from_seed(b"f"),
            ranges: [
                PartRange::new(0, 184_320),
                PartRange::new(184_320, 368_640),
                PartRange::new(0, 0),
            ],
        };
        assert_eq!(rt_peer(&m), m);
    }

    #[test]
    fn sending_part_round_trip() {
        let data = vec![0xAAu8; 1024];
        let m = PeerMessage::SendingPart {
            file_id: FileId::from_seed(b"f"),
            start: 100,
            end: 100 + data.len() as u32,
            data,
        };
        assert_eq!(rt_peer(&m), m);
    }

    #[test]
    fn sending_part_length_mismatch_rejected() {
        let mut w = Writer::new();
        w.hash(&FileId::from_seed(b"f").0);
        w.u32(0);
        w.u32(10); // declares 10 bytes …
        w.bytes(&[1, 2, 3]); // … but carries 3
        assert!(PeerMessage::decode_payload(peer::SENDING_PART, &w.into_bytes()).is_err());
    }

    #[test]
    fn shared_files_answer_round_trip() {
        let m = PeerMessage::AskSharedFilesAnswer {
            files: vec![
                PublishedFile::new(FileId::from_seed(b"a"), "a.avi", 734_003_200),
                PublishedFile::new(FileId::from_seed(b"b"), "b.mp3", 5_242_880),
            ],
        };
        assert_eq!(rt_peer(&m), m);
        assert_eq!(rt_peer(&PeerMessage::AskSharedFiles), PeerMessage::AskSharedFiles);
    }

    #[test]
    fn file_request_round_trip() {
        let id = FileId::from_seed(b"f");
        let m = PeerMessage::FileRequest { file_id: id };
        assert_eq!(rt_peer(&m), m);
        let m = PeerMessage::FileRequestAnswer { file_id: id, name: "x.iso".into() };
        assert_eq!(rt_peer(&m), m);
    }

    #[test]
    fn login_round_trip() {
        let m = ClientServerMessage::LoginRequest {
            user_id: UserId::from_seed(b"hp"),
            client_id: ClientId(0),
            port: 4662,
            tags: sample_tags(),
        };
        assert_eq!(rt_cs(&m, false), m);
    }

    #[test]
    fn offer_files_round_trip() {
        let m = ClientServerMessage::OfferFiles {
            files: vec![PublishedFile::new(FileId::from_seed(b"movie"), "movie.avi", 1 << 30)],
        };
        assert_eq!(rt_cs(&m, false), m);
    }

    #[test]
    fn sources_round_trip() {
        let m = ClientServerMessage::GetSources { file_id: FileId::from_seed(b"f") };
        assert_eq!(rt_cs(&m, false), m);
        let m = ClientServerMessage::FoundSources {
            file_id: FileId::from_seed(b"f"),
            sources: vec![
                PeerAddr::new(Ipv4::new(10, 1, 2, 3), 4662),
                PeerAddr::new(Ipv4::new(192, 0, 2, 99), 4711),
            ],
        };
        assert_eq!(rt_cs(&m, true), m);
    }

    #[test]
    fn search_round_trip() {
        let m = ClientServerMessage::SearchRequest {
            expr: crate::search::SearchExpr::phrase("ubuntu linux iso").unwrap(),
        };
        assert_eq!(rt_cs(&m, false), m);
        let m = ClientServerMessage::SearchResult {
            files: vec![PublishedFile::new(FileId::from_seed(b"u"), "ubuntu.iso", 700 << 20)],
        };
        assert_eq!(rt_cs(&m, true), m);
    }

    #[test]
    fn server_side_messages_round_trip() {
        let m = ClientServerMessage::IdChange { client_id: ClientId(0xDEAD_BEEF) };
        assert_eq!(rt_cs(&m, true), m);
        let m = ClientServerMessage::ServerMessage { text: "welcome".into() };
        assert_eq!(rt_cs(&m, true), m);
        let m = ClientServerMessage::ServerStatus { users: 1_000_000, files: 90_000_000 };
        assert_eq!(rt_cs(&m, true), m);
    }

    #[test]
    fn direction_matters_for_opcode_0x01() {
        let m = ClientServerMessage::LoginRequest {
            user_id: UserId::from_seed(b"u"),
            client_id: ClientId(0),
            port: 4662,
            tags: vec![],
        };
        let mut w = Writer::new();
        m.encode_payload(&mut w);
        let buf = w.into_bytes();
        // Interpreted as server→client, opcode 0x01 is unknown.
        assert!(ClientServerMessage::decode_payload(0x01, &buf, true).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let m = PeerMessage::StartUpload { file_id: FileId::from_seed(b"f") };
        let mut w = Writer::new();
        m.encode_payload(&mut w);
        let mut buf = w.into_bytes();
        buf.push(0xFF);
        assert!(matches!(
            PeerMessage::decode_payload(m.opcode(), &buf),
            Err(ProtoError::TrailingBytes(1))
        ));
    }

    #[test]
    fn part_range_len() {
        assert_eq!(PartRange::new(10, 30).len(), 20);
        assert!(PartRange::new(5, 5).is_empty());
        assert_eq!(PartRange::new(30, 10).len(), 0, "inverted range saturates");
    }
}
