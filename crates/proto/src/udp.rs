//! The eDonkey UDP side-protocol.
//!
//! Besides the TCP session with its home server, a 2008-era client polls
//! *other* servers over UDP: global source queries (so a honeypot can be
//! discovered by peers that are "not connected to the server", as the paper
//! notes in §III-B) and server status pings.  UDP datagrams use the same
//! `0xE3` marker but no length prefix — one datagram, one message.
//!
//! Opcodes (eMule protocol spec):
//!
//! ```text
//! 0x96 GLOB-STAT-REQ      challenge u32
//! 0x97 GLOB-STAT-RES      challenge u32, users u32, files u32
//! 0x9A GLOB-GET-SOURCES   one or more 16-byte file hashes
//! 0x9B GLOB-FOUND-SOURCES file hash, u8 count, count × (ip u32 LE, port u16)
//! ```

use crate::error::ProtoError;
use crate::ids::{FileId, Ipv4, PeerAddr};
use crate::opcodes::PROTO_EDONKEY;
use crate::wire::{Reader, Writer};

/// UDP opcodes.
pub mod opcodes {
    pub const GLOB_STAT_REQ: u8 = 0x96;
    pub const GLOB_STAT_RES: u8 = 0x97;
    pub const GLOB_GET_SOURCES: u8 = 0x9A;
    pub const GLOB_FOUND_SOURCES: u8 = 0x9B;
}

/// A UDP datagram message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum UdpMessage {
    /// Client → server: status ping with an anti-spoof challenge.
    GlobStatReq { challenge: u32 },
    /// Server → client: status answer echoing the challenge.
    GlobStatRes { challenge: u32, users: u32, files: u32 },
    /// Client → server: who provides these files?
    GlobGetSources { files: Vec<FileId> },
    /// Server → client: providers for one file.
    GlobFoundSources { file: FileId, sources: Vec<PeerAddr> },
}

impl UdpMessage {
    /// The message's opcode.
    pub fn opcode(&self) -> u8 {
        match self {
            UdpMessage::GlobStatReq { .. } => opcodes::GLOB_STAT_REQ,
            UdpMessage::GlobStatRes { .. } => opcodes::GLOB_STAT_RES,
            UdpMessage::GlobGetSources { .. } => opcodes::GLOB_GET_SOURCES,
            UdpMessage::GlobFoundSources { .. } => opcodes::GLOB_FOUND_SOURCES,
        }
    }

    /// Encodes the message into a datagram.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(PROTO_EDONKEY);
        w.u8(self.opcode());
        match self {
            UdpMessage::GlobStatReq { challenge } => w.u32(*challenge),
            UdpMessage::GlobStatRes { challenge, users, files } => {
                w.u32(*challenge);
                w.u32(*users);
                w.u32(*files);
            }
            UdpMessage::GlobGetSources { files } => {
                for f in files {
                    w.hash(&f.0);
                }
            }
            UdpMessage::GlobFoundSources { file, sources } => {
                w.hash(&file.0);
                w.u8(sources.len().min(u8::MAX as usize) as u8);
                for s in sources.iter().take(u8::MAX as usize) {
                    w.u32(u32::from_le_bytes(s.ip.octets()));
                    w.u16(s.port);
                }
            }
        }
        w.into_bytes()
    }

    /// Decodes one datagram.
    pub fn decode(datagram: &[u8]) -> Result<Self, ProtoError> {
        let mut r = Reader::new(datagram);
        let marker = r.u8()?;
        if marker != PROTO_EDONKEY {
            return Err(ProtoError::BadProtocolByte(marker));
        }
        let opcode = r.u8()?;
        let msg = match opcode {
            opcodes::GLOB_STAT_REQ => UdpMessage::GlobStatReq { challenge: r.u32()? },
            opcodes::GLOB_STAT_RES => {
                UdpMessage::GlobStatRes { challenge: r.u32()?, users: r.u32()?, files: r.u32()? }
            }
            opcodes::GLOB_GET_SOURCES => {
                if !r.remaining().is_multiple_of(16) || r.remaining() == 0 {
                    return Err(ProtoError::Invalid(
                        "GLOB-GET-SOURCES payload must be 1+ file hashes",
                    ));
                }
                let mut files = Vec::with_capacity(r.remaining() / 16);
                while r.remaining() > 0 {
                    files.push(FileId(r.hash()?));
                }
                UdpMessage::GlobGetSources { files }
            }
            opcodes::GLOB_FOUND_SOURCES => {
                let file = FileId(r.hash()?);
                let n = r.u8()? as usize;
                let mut sources = Vec::with_capacity(n);
                for _ in 0..n {
                    let ip = Ipv4::from_octets(r.u32()?.to_le_bytes());
                    let port = r.u16()?;
                    sources.push(PeerAddr::new(ip, port));
                }
                UdpMessage::GlobFoundSources { file, sources }
            }
            other => {
                return Err(ProtoError::UnknownOpcode { opcode: other, context: "udp" });
            }
        };
        r.expect_end()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(m: &UdpMessage) -> UdpMessage {
        UdpMessage::decode(&m.encode()).expect("decode")
    }

    #[test]
    fn stat_round_trip() {
        let m = UdpMessage::GlobStatReq { challenge: 0xDEAD_BEEF };
        assert_eq!(round_trip(&m), m);
        let m =
            UdpMessage::GlobStatRes { challenge: 0xDEAD_BEEF, users: 1_234_567, files: 89_000_000 };
        assert_eq!(round_trip(&m), m);
    }

    #[test]
    fn sources_round_trip() {
        let m = UdpMessage::GlobGetSources {
            files: vec![FileId::from_seed(b"a"), FileId::from_seed(b"b")],
        };
        assert_eq!(round_trip(&m), m);
        let m = UdpMessage::GlobFoundSources {
            file: FileId::from_seed(b"a"),
            sources: vec![
                PeerAddr::new(Ipv4::new(80, 1, 2, 3), 4662),
                PeerAddr::new(Ipv4::new(81, 4, 5, 6), 4672),
            ],
        };
        assert_eq!(round_trip(&m), m);
    }

    #[test]
    fn bad_marker_rejected() {
        let mut d = UdpMessage::GlobStatReq { challenge: 1 }.encode();
        d[0] = 0x42;
        assert!(matches!(UdpMessage::decode(&d), Err(ProtoError::BadProtocolByte(0x42))));
    }

    #[test]
    fn ragged_source_query_rejected() {
        let mut d = UdpMessage::GlobGetSources { files: vec![FileId::from_seed(b"a")] }.encode();
        d.push(0xFF); // 17 payload bytes: not a whole number of hashes
        assert!(UdpMessage::decode(&d).is_err());
        // Empty query is also invalid.
        assert!(UdpMessage::decode(&[0xE3, opcodes::GLOB_GET_SOURCES]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut d = UdpMessage::GlobStatReq { challenge: 1 }.encode();
        d.push(0);
        assert!(matches!(UdpMessage::decode(&d), Err(ProtoError::TrailingBytes(1))));
    }

    #[test]
    fn unknown_opcode_rejected() {
        assert!(matches!(
            UdpMessage::decode(&[0xE3, 0x11, 0, 0, 0, 0]),
            Err(ProtoError::UnknownOpcode { .. })
        ));
    }
}
