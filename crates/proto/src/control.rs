//! The honeypot **control-plane** codec: versioned, length-prefixed,
//! checksummed frames spoken between the measurement manager daemon and its
//! honeypot agents (paper §III-A — launch, monitor, relaunch, collect).
//!
//! This is deliberately *not* the eDonkey wire format: control traffic is
//! an internal protocol of the measurement platform, so it gets its own
//! marker byte, an explicit protocol version (agents and manager from
//! different builds must refuse to talk rather than misparse), and a CRC-32
//! over the payload so a corrupted log-chunk upload is detected at the
//! framing layer and re-requested instead of silently merged.
//!
//! Frame layout (integers little-endian):
//!
//! ```text
//! u8   marker   (0xEC)
//! u8   version  (CONTROL_VERSION)
//! u8   opcode
//! u32  length   (payload bytes)
//! [u8] payload
//! u32  crc32    (IEEE, over the payload only)
//! ```
//!
//! Streams decode with the shared [`crate::codec::FrameDecoder`] over
//! [`ControlFraming`].

use crate::codec::Framing;
use crate::error::ProtoError;

/// Marker byte of control frames (distinct from the eDonkey 0xE3/0xC5/0xD4
/// family).
pub const CONTROL_MAGIC: u8 = 0xEC;

/// Control-protocol version; bumped on any incompatible change.
///
/// * v1 — stop-and-wait chunk upload: one `LOG_CHUNK` in flight, every
///   chunk individually acknowledged.
/// * v2 — windowed, pipelined upload: `REGISTER_ACK` grants an upload
///   window, `CHUNK_ACK` carries the *cumulative* frontier (`next_seq`:
///   everything below it is merged and durable; the agent trims its spool
///   up to `next_seq - 1`).
pub const CONTROL_VERSION: u8 = 2;

/// Hard cap on a control payload (a log chunk of a month-scale collection
/// interval stays far below this).
pub const MAX_CONTROL_PAYLOAD: u32 = 64 << 20;

/// Control opcodes.  0x30 is retired: it carried an in-place relaunch
/// order that nothing ever sent (supervision relaunches a dead agent).
/// It stays unassigned, so a frame carrying it decodes as an unknown
/// opcode.
pub mod opcodes {
    /// Agent → manager: first frame after connect; carries the agent id.
    pub const REGISTER: u8 = 0x01;
    /// Manager → agent: registration accepted; carries the next expected
    /// upload sequence number (resume-after-reconnect) and the granted
    /// upload window (max chunks in flight).
    pub const REGISTER_ACK: u8 = 0x02;
    /// Manager → agent: full honeypot configuration (advertise list +
    /// content strategy + server assignment + intervals).
    pub const CONFIG_PUSH: u8 = 0x03;
    /// Agent → manager: liveness beacon.
    pub const HEARTBEAT: u8 = 0x10;
    /// Manager → agent: heartbeat echo (lets the agent measure RTT).
    pub const HEARTBEAT_ACK: u8 = 0x11;
    /// Agent → manager: honeypot status change (connected / disconnected /
    /// dead).
    pub const STATUS_REPORT: u8 = 0x12;
    /// Agent → manager: the honeypot is up; carries the TCP port its peer
    /// listener bound (the manager's traffic drivers need it).
    pub const READY: u8 = 0x13;
    /// Agent → manager: one sequenced log chunk.
    pub const LOG_CHUNK: u8 = 0x20;
    /// Manager → agent: cumulative acknowledgement — every chunk below the
    /// carried `next_seq` is merged and durable; the agent may discard its
    /// copies up to that frontier.
    pub const CHUNK_ACK: u8 = 0x21;
    /// Manager → agent: the upload stream is damaged at the given sequence
    /// number (corrupt frame or a hole in the window); re-send everything
    /// from it (go-back-N).
    pub const CHUNK_RETRY: u8 = 0x22;
    /// Manager → agent: flush logs and exit.
    pub const SHUTDOWN: u8 = 0x31;
    /// Agent → manager: final frame before a clean exit.
    pub const GOODBYE: u8 = 0x32;
}

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slice-by-8 lookup tables (8 KB): `CRC_TABLES[k][b]` is the CRC state
/// after byte `b` followed by `k` zero bytes, so eight input bytes fold
/// into the state with eight independent loads instead of 64 shift/xor
/// rounds.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC_POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

/// Streaming CRC-32 (IEEE 802.3, reflected, init/xorout `0xFFFF_FFFF` —
/// the classic zlib polynomial): feed the bytes in any number of pieces,
/// the result equals [`crc32`] over their concatenation.  Every durable
/// byte of the control plane passes through this on each hop (frame, spool,
/// WAL), so it is table-driven.
#[derive(Clone, Copy, Debug)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32 { state: !0 }
    }
}

impl Crc32 {
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds `data` into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        let t = &CRC_TABLES;
        let mut crc = self.state;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The checksum of everything fed so far (more may follow).
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot [`Crc32`].
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(data);
    crc.finish()
}

/// Encodes one control frame.
pub fn encode_control_frame(opcode: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(11 + payload.len());
    out.push(CONTROL_MAGIC);
    out.push(CONTROL_VERSION);
    out.push(opcode);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out
}

/// A complete control frame, borrowed from the buffer it arrived in.
///
/// Unlike an eDonkey frame it has two outcomes: a frame whose payload
/// fails its checksum is still framed correctly, so it is consumed and the
/// stream stays in sync — the receiver can ask for a retransmit.  Fatal
/// framing errors (bad marker or version, oversized length) come back as
/// `Err` from the decoder instead, and the connection must be dropped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ControlEvent<'a> {
    /// A complete, checksum-verified frame.
    Frame { opcode: u8, payload: &'a [u8] },
    /// A complete frame whose payload failed its CRC.  The receiver should
    /// request a retransmit keyed on its own protocol state (the opcode is
    /// the header's claim and may itself be unreliable on a corrupted
    /// link).
    Corrupt { opcode: u8 },
}

/// The control frame check: marker, version, a declared length within the
/// receiver's cap, and the CRC trailer.
///
/// A receiving endpoint may enforce a cap far below the protocol-wide
/// [`MAX_CONTROL_PAYLOAD`] (the daemon caps every connection at its
/// `max_frame_bytes`); the cap applies to the header's *declared* length,
/// so an oversized frame is rejected before any of its payload is
/// buffered.
#[derive(Clone, Copy, Debug)]
pub struct ControlFraming {
    max_payload: u32,
}

impl ControlFraming {
    /// A frame check accepting payloads up to `max_payload` bytes; the cap
    /// never loosens the protocol limit.
    pub fn capped(max_payload: u32) -> Self {
        ControlFraming { max_payload: max_payload.min(MAX_CONTROL_PAYLOAD) }
    }
}

impl Default for ControlFraming {
    fn default() -> Self {
        Self::capped(MAX_CONTROL_PAYLOAD)
    }
}

impl Framing for ControlFraming {
    const HEADER: usize = 7;
    type Frame<'a> = ControlEvent<'a>;

    fn frame_len(&self, header: &[u8]) -> Result<usize, ProtoError> {
        if header[0] != CONTROL_MAGIC {
            return Err(ProtoError::BadProtocolByte(header[0]));
        }
        if header[1] != CONTROL_VERSION {
            return Err(ProtoError::Invalid("unsupported control protocol version"));
        }
        let len = u32::from_le_bytes([header[3], header[4], header[5], header[6]]);
        if len > self.max_payload {
            return Err(ProtoError::OversizedFrame { declared: len, limit: self.max_payload });
        }
        Ok(Self::HEADER + len as usize + 4)
    }

    fn frame<'a>(&self, bytes: &'a [u8]) -> ControlEvent<'a> {
        let opcode = bytes[2];
        let (body, crc) = bytes.split_at(bytes.len() - 4);
        let payload = &body[Self::HEADER..];
        if crc32(payload) != u32::from_le_bytes([crc[0], crc[1], crc[2], crc[3]]) {
            return ControlEvent::Corrupt { opcode };
        }
        ControlEvent::Frame { opcode, payload }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::FrameDecoder;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The bit-at-a-time definition the tables are derived from: the
    /// oracle for the differential tests below.
    fn crc32_bitwise(data: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (CRC_POLY & mask);
            }
        }
        !crc
    }

    #[test]
    fn table_crc_matches_the_bitwise_oracle() {
        use netsim::Rng;
        // Every short length (the `chunks_exact(8)` remainder path) at
        // every offset into an 8-aligned buffer.
        let mut rng = Rng::seed_from(0xC8C3_2000);
        let mut buf = vec![0u8; 48];
        rng.fill_bytes(&mut buf);
        for offset in 0..8 {
            for len in 0..=32 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), crc32_bitwise(data), "offset {offset} len {len}");
            }
        }
        for seed in 0..2_000u64 {
            let mut rng = Rng::seed_from(seed);
            let offset = rng.below(8) as usize;
            let len = rng.below(4_097) as usize;
            let mut buf = vec![0u8; offset + len];
            rng.fill_bytes(&mut buf);
            let data = &buf[offset..];
            assert_eq!(crc32(data), crc32_bitwise(data), "seed {seed} offset {offset} len {len}");
        }
    }

    #[test]
    fn streaming_crc_is_independent_of_the_split_points() {
        use netsim::Rng;
        for seed in 0..2_000u64 {
            let mut rng = Rng::seed_from(seed ^ 0x5711_7000);
            let mut data = vec![0u8; rng.below(4_097) as usize];
            rng.fill_bytes(&mut data);
            let mut cuts: Vec<usize> =
                (0..rng.below(65)).map(|_| rng.below(data.len() as u64 + 1) as usize).collect();
            cuts.push(data.len());
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for &cut in &cuts {
                crc.update(&data[from..cut]);
                from = cut;
            }
            assert_eq!(crc.finish(), crc32(&data), "seed {seed} cuts {cuts:?}");
        }
    }

    fn decoder() -> FrameDecoder<ControlFraming> {
        FrameDecoder::with_framing(ControlFraming::default())
    }

    #[test]
    fn frame_round_trip() {
        let bytes = encode_control_frame(opcodes::LOG_CHUNK, b"hello chunk");
        let (event, used) = ControlFraming::default().split(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(
            event,
            ControlEvent::Frame { opcode: opcodes::LOG_CHUNK, payload: b"hello chunk" }
        );
    }

    #[test]
    fn corrupted_payload_is_flagged_but_consumed() {
        let mut bytes = encode_control_frame(opcodes::LOG_CHUNK, b"precious log data");
        bytes[9] ^= 0xFF; // flip a payload byte; header + CRC field intact
        let (event, used) = ControlFraming::default().split(&bytes).unwrap();
        assert_eq!(used, bytes.len(), "corrupt frame must be fully consumed");
        assert_eq!(event, ControlEvent::Corrupt { opcode: opcodes::LOG_CHUNK });
    }

    #[test]
    fn stream_survives_a_corrupt_frame() {
        let good = encode_control_frame(opcodes::HEARTBEAT, b"hb-1");
        let mut bad = encode_control_frame(opcodes::LOG_CHUNK, b"chunk data");
        let n = bad.len();
        bad[n - 5] ^= 0x55; // corrupt the last payload byte
        let tail = encode_control_frame(opcodes::HEARTBEAT, b"hb-2");

        let mut dec = decoder();
        dec.feed(&good);
        dec.feed(&bad);
        dec.feed(&tail);
        let hb = |payload| Some(ControlEvent::Frame { opcode: opcodes::HEARTBEAT, payload });
        assert_eq!(dec.next_borrowed().unwrap(), hb(b"hb-1"));
        assert_eq!(
            dec.next_borrowed().unwrap(),
            Some(ControlEvent::Corrupt { opcode: opcodes::LOG_CHUNK })
        );
        assert_eq!(dec.next_borrowed().unwrap(), hb(b"hb-2"));
        assert_eq!(dec.next_borrowed().unwrap(), None);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn incremental_decoding_handles_arbitrary_chunking() {
        let frames = [
            encode_control_frame(opcodes::REGISTER, b"agent-0"),
            encode_control_frame(opcodes::LOG_CHUNK, &vec![0xAB; 1000]),
            encode_control_frame(opcodes::GOODBYE, b""),
        ];
        let stream: Vec<u8> = frames.iter().flatten().copied().collect();
        for chunk in [1usize, 3, 7, 64, 500] {
            let mut dec = decoder();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                dec.feed(piece);
                while let Some(ev) = dec.next_borrowed().unwrap() {
                    let ControlEvent::Frame { opcode, .. } = ev else {
                        panic!("no corruption injected")
                    };
                    got.push(opcode);
                }
            }
            assert_eq!(
                got,
                vec![opcodes::REGISTER, opcodes::LOG_CHUNK, opcodes::GOODBYE],
                "chunk size {chunk}"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_fatal() {
        let split = |bytes: &[u8]| ControlFraming::default().split(bytes).map(|(_, used)| used);
        let mut bytes = encode_control_frame(opcodes::HEARTBEAT, b"x");
        bytes[0] = 0xE3; // an eDonkey frame is not a control frame
        assert!(matches!(split(&bytes), Err(ProtoError::BadProtocolByte(0xE3))));
        let mut bytes = encode_control_frame(opcodes::HEARTBEAT, b"x");
        bytes[1] = CONTROL_VERSION + 1;
        assert!(matches!(split(&bytes), Err(ProtoError::Invalid(_))));
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut bytes = encode_control_frame(opcodes::LOG_CHUNK, b"x");
        bytes[3..7].copy_from_slice(&(MAX_CONTROL_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            ControlFraming::default().split(&bytes),
            Err(ProtoError::OversizedFrame { .. })
        ));
    }

    #[test]
    fn per_decoder_cap_tightens_the_protocol_limit() {
        // A frame comfortably under the protocol-wide cap…
        let bytes = encode_control_frame(opcodes::LOG_CHUNK, &vec![7u8; 2048]);
        assert!(ControlFraming::default().split(&bytes).is_ok());
        // …is fatal on a decoder capped below it, from the declared length
        // alone (an attacker cannot make us buffer the body first).
        let mut dec = FrameDecoder::with_framing(ControlFraming::capped(1024));
        dec.feed(&bytes[..16]);
        assert!(matches!(dec.missing(), Err(ProtoError::OversizedFrame { limit: 1024, .. })));
        assert!(matches!(dec.next_borrowed(), Err(ProtoError::OversizedFrame { limit: 1024, .. })));
        // The cap never loosens the protocol limit.
        assert!(matches!(
            ControlFraming::capped(u32::MAX).split(&bytes),
            Ok((ControlEvent::Frame { .. }, _))
        ));
        let mut huge = bytes;
        huge[3..7].copy_from_slice(&(MAX_CONTROL_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            ControlFraming::capped(u32::MAX).split(&huge),
            Err(ProtoError::OversizedFrame { limit: MAX_CONTROL_PAYLOAD, .. })
        ));
    }

    #[test]
    fn truncation_asks_for_more_bytes() {
        let bytes = encode_control_frame(opcodes::LOG_CHUNK, b"partial");
        let mut dec = decoder();
        dec.feed(&bytes[..bytes.len() - 1]);
        assert_eq!(dec.missing().unwrap(), 1);
        assert_eq!(dec.next_borrowed().unwrap(), None, "incomplete frame: wait");
        dec.feed(&bytes[bytes.len() - 1..]);
        assert!(matches!(dec.next_borrowed().unwrap(), Some(ControlEvent::Frame { .. })));
    }
}
