//! Frame-level codec: turning typed messages into length-prefixed TCP frames
//! and back.
//!
//! Frame layout (all integers little-endian):
//!
//! ```text
//! u8   protocol marker  (0xE3 classic)
//! u32  length           (covers opcode byte + payload)
//! u8   opcode
//! [u8] payload
//! ```
//!
//! [`FrameDecoder`] is an incremental decoder suitable for a TCP stream: feed
//! it arbitrary chunks, pull out complete frames.  It is the stream decoder
//! of both wire protocols: a [`Framing`] supplies a protocol's frame check
//! ([`EdonkeyFraming`] here, [`crate::control::ControlFraming`] for the
//! control plane) and the decoder owns everything else.

use std::io::Read;

use crate::error::ProtoError;
use crate::ids::FileId;
use crate::messages::{encode_sending_part, ClientServerMessage, PartRange, PeerMessage};
use crate::opcodes::{peer, MAX_FRAME_LEN, PROTO_EDONKEY, PROTO_EMULE, PROTO_PACKED};
use crate::wire::Writer;

/// A raw, framing-validated frame: opcode plus opaque payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RawFrame {
    pub proto: u8,
    pub opcode: u8,
    pub payload: Vec<u8>,
}

/// A framing-validated frame borrowed from the buffer it was received in.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FrameRef<'a> {
    pub proto: u8,
    pub opcode: u8,
    pub payload: &'a [u8],
}

impl FrameRef<'_> {
    pub fn to_raw(&self) -> RawFrame {
        RawFrame { proto: self.proto, opcode: self.opcode, payload: self.payload.to_vec() }
    }
}

/// Appends one frame to `out`: the header, then whatever `payload` writes.
/// Frames accumulate, so every reply of one protocol step can leave in a
/// single `write`.
fn frame_into(out: &mut Vec<u8>, opcode: u8, payload: impl FnOnce(&mut Writer)) {
    let at = out.len();
    out.extend_from_slice(&[PROTO_EDONKEY, 0, 0, 0, 0, opcode]);
    let mut w = Writer::from_vec(std::mem::take(out));
    payload(&mut w);
    *out = w.into_bytes();
    let len = (out.len() - at - 5) as u32;
    out[at + 1..at + 5].copy_from_slice(&len.to_le_bytes());
}

/// Encodes one already-serialised payload into a full frame.
pub fn encode_frame(opcode: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(6 + payload.len());
    frame_into(&mut out, opcode, |w| w.bytes(payload));
    out
}

/// Appends a peer message to `out` as a full frame.
pub fn encode_peer_message_into(msg: &PeerMessage, out: &mut Vec<u8>) {
    frame_into(out, msg.opcode(), |w| msg.encode_payload(w));
}

/// Appends a client↔server message to `out` as a full frame.
pub fn encode_client_server_message_into(msg: &ClientServerMessage, out: &mut Vec<u8>) {
    frame_into(out, msg.opcode(), |w| msg.encode_payload(w));
}

/// Appends a SENDING-PART frame for `range` to `out`, its content produced
/// in place by `fill`.  The bytes equal [`encode_peer_message_into`] of the
/// owned message with the same content.
pub fn encode_sending_part_into(
    file_id: &FileId,
    range: PartRange,
    out: &mut Vec<u8>,
    fill: impl FnOnce(&mut [u8]),
) {
    frame_into(out, peer::SENDING_PART, |w| encode_sending_part(w, file_id, range, fill));
}

/// Encodes a peer message into a full frame.
pub fn encode_peer_message(msg: &PeerMessage) -> Vec<u8> {
    let mut out = Vec::new();
    encode_peer_message_into(msg, &mut out);
    out
}

/// Encodes a client↔server message into a full frame.
pub fn encode_client_server_message(msg: &ClientServerMessage) -> Vec<u8> {
    let mut out = Vec::new();
    encode_client_server_message_into(msg, &mut out);
    out
}

/// One wire protocol's frame check: all [`FrameDecoder`] needs to know of
/// a protocol.  The header carries the frame's length, so a frame is
/// complete exactly when that many bytes have arrived.
pub trait Framing {
    /// Length of the fixed header [`Framing::frame_len`] reads.
    const HEADER: usize;
    /// A complete frame, borrowed from the bytes it arrived in.
    type Frame<'a>;

    /// Checks the `HEADER` bytes of a frame and returns the frame's total
    /// length, header included.  An error is fatal for the stream: the
    /// next frame's start is unknown.
    fn frame_len(&self, header: &[u8]) -> Result<usize, ProtoError>;

    /// The frame held by `bytes`, which are exactly as long as
    /// [`Framing::frame_len`] said.
    fn frame<'a>(&self, bytes: &'a [u8]) -> Self::Frame<'a>;

    /// Decodes exactly one frame from the front of `data` without copying
    /// it, returning it and the number of bytes consumed.  `Truncated`
    /// means the frame has not fully arrived (use [`FrameDecoder`] for
    /// streams).
    fn split<'a>(&self, data: &'a [u8]) -> Result<(Self::Frame<'a>, usize), ProtoError> {
        let Some(header) = data.get(..Self::HEADER) else {
            return Err(ProtoError::Truncated("frame header"));
        };
        let total = self.frame_len(header)?;
        match data.get(..total) {
            Some(bytes) => Ok((self.frame(bytes), total)),
            None => Err(ProtoError::Truncated("frame body")),
        }
    }
}

/// The eDonkey frame check: a known protocol marker and a declared length
/// that covers the opcode byte and stays under [`MAX_FRAME_LEN`].
#[derive(Clone, Copy, Debug)]
pub struct EdonkeyFraming;

impl Framing for EdonkeyFraming {
    const HEADER: usize = 6;
    type Frame<'a> = FrameRef<'a>;

    fn frame_len(&self, header: &[u8]) -> Result<usize, ProtoError> {
        let proto = header[0];
        if proto != PROTO_EDONKEY && proto != PROTO_EMULE && proto != PROTO_PACKED {
            return Err(ProtoError::BadProtocolByte(proto));
        }
        let len = u32::from_le_bytes([header[1], header[2], header[3], header[4]]);
        if len == 0 {
            return Err(ProtoError::Invalid("frame length must cover the opcode byte"));
        }
        if len > MAX_FRAME_LEN {
            return Err(ProtoError::OversizedFrame { declared: len, limit: MAX_FRAME_LEN });
        }
        Ok(5 + len as usize)
    }

    fn frame<'a>(&self, bytes: &'a [u8]) -> FrameRef<'a> {
        FrameRef { proto: bytes[0], opcode: bytes[5], payload: &bytes[6..] }
    }
}

/// Decodes exactly one frame from `data`, returning it and the number of
/// bytes consumed.  Fails on partial input (use [`FrameDecoder`] for
/// streams).
pub fn decode_frame(data: &[u8]) -> Result<(RawFrame, usize), ProtoError> {
    let (frame, used) = EdonkeyFraming.split(data)?;
    Ok((frame.to_raw(), used))
}

/// What [`FrameDecoder::read_from`] asks its source for when the frame at
/// the front needs less (or its header has not arrived).
const MIN_READ: usize = 4 * 1024;
/// The most one read asks for — and so the most a declared length can make
/// the buffer grow ahead of the bytes themselves; fits a SENDING-PART block.
const MAX_READ: usize = 256 * 1024;

/// Incremental frame decoder for byte streams.
///
/// ```
/// use edonkey_proto::codec::{encode_peer_message, FrameDecoder};
/// use edonkey_proto::messages::PeerMessage;
///
/// let frame = encode_peer_message(&PeerMessage::AskSharedFiles);
/// let mut dec = FrameDecoder::new();
/// dec.feed(&frame[..3]);          // partial chunk: nothing ready yet
/// assert!(dec.next_frame().unwrap().is_none());
/// dec.feed(&frame[3..]);
/// let raw = dec.next_frame().unwrap().unwrap();
/// assert_eq!(PeerMessage::decode_payload(raw.opcode, &raw.payload).unwrap(),
///            PeerMessage::AskSharedFiles);
/// ```
///
/// A socket reader skips both copies of that: [`FrameDecoder::read_from`]
/// receives straight into the decoder's buffer and
/// [`FrameDecoder::next_borrowed`] lends the frame out of it.
///
/// The decoder is generic over the protocol's [`Framing`]; `new` builds
/// the eDonkey one, [`FrameDecoder::with_framing`] any other.
#[derive(Debug)]
pub struct FrameDecoder<F = EdonkeyFraming> {
    framing: F,
    /// Storage, initialised over its whole length; `buf[start..end]` holds
    /// the received, not-yet-decoded bytes.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl FrameDecoder {
    pub fn new() -> Self {
        Self::with_framing(EdonkeyFraming)
    }

    /// Pulls the next complete frame as an owned copy; see
    /// [`FrameDecoder::next_borrowed`].
    pub fn next_frame(&mut self) -> Result<Option<RawFrame>, ProtoError> {
        Ok(self.next_borrowed()?.map(|frame| frame.to_raw()))
    }
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl<F: Framing> FrameDecoder<F> {
    /// An empty decoder for the protocol `framing` checks.
    pub fn with_framing(framing: F) -> Self {
        FrameDecoder { framing, buf: Vec::new(), start: 0, end: 0 }
    }

    /// Makes `buf[end..end + n]` valid.  The pending bytes move to the
    /// front before the storage grows, so it never holds a dead prefix;
    /// `exact` growth keeps a socket reader's buffer at what its frames
    /// need, amortised growth keeps a run of small `feed`s linear.
    fn make_room(&mut self, n: usize, exact: bool) {
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        if self.buf.len() - self.end >= n {
            return;
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        let needed = self.end + n;
        if self.buf.len() < needed {
            if exact {
                self.buf.reserve_exact(needed - self.buf.len());
            }
            self.buf.resize(needed, 0);
        }
    }

    /// Appends received bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.make_room(data.len(), false);
        self.buf[self.end..self.end + data.len()].copy_from_slice(data);
        self.end += data.len();
    }

    /// Receives from `src` straight into the buffer with one `read`, sized
    /// to what the frame at the front still misses: a large frame ends
    /// where its last read ends, so nothing is ever moved to make room for
    /// the next one.  Returns the byte count, 0 at end of stream.
    pub fn read_from(&mut self, src: &mut impl Read) -> std::io::Result<usize> {
        let want = self.missing().unwrap_or(0).clamp(MIN_READ, MAX_READ);
        self.make_room(want, true);
        let n = src.read(&mut self.buf[self.end..self.end + want])?;
        self.end += n;
        Ok(n)
    }

    /// Number of buffered, not-yet-decoded bytes.
    pub fn buffered(&self) -> usize {
        self.end - self.start
    }

    /// Allocated size of the buffer (diagnostics).
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Bytes still to arrive before the frame at the front is complete: 0
    /// when [`FrameDecoder::next_borrowed`] would return it.  Fails like
    /// `next_borrowed` on a fatal framing error.
    pub fn missing(&self) -> Result<usize, ProtoError> {
        let pending = &self.buf[self.start..self.end];
        match pending.get(..F::HEADER) {
            Some(header) => Ok(self.framing.frame_len(header)?.saturating_sub(pending.len())),
            None => Ok(F::HEADER - pending.len()),
        }
    }

    /// Pulls the next complete frame without copying it, `Ok(None)` if more
    /// bytes are needed.  The frame borrows the decoder's buffer and is
    /// gone at the next `feed` or `read_from`.
    ///
    /// Framing errors (bad marker, oversized length) are fatal for the
    /// stream: the caller should drop the connection, as resynchronising a
    /// length-prefixed stream is not possible in general.
    pub fn next_borrowed(&mut self) -> Result<Option<F::Frame<'_>>, ProtoError> {
        match self.framing.split(&self.buf[self.start..self.end]) {
            Ok((frame, used)) => {
                self.start += used;
                Ok(Some(frame))
            }
            Err(ProtoError::Truncated(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::FileId;
    use crate::messages::PartRange;

    #[test]
    fn frame_round_trip() {
        let msg = PeerMessage::StartUpload { file_id: FileId::from_seed(b"f") };
        let bytes = encode_peer_message(&msg);
        let (raw, used) = decode_frame(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(raw.proto, PROTO_EDONKEY);
        assert_eq!(PeerMessage::decode_payload(raw.opcode, &raw.payload).unwrap(), msg);
    }

    #[test]
    fn bad_marker_rejected() {
        let mut bytes = encode_peer_message(&PeerMessage::AcceptUpload);
        bytes[0] = 0x42;
        assert!(matches!(decode_frame(&bytes), Err(ProtoError::BadProtocolByte(0x42))));
    }

    #[test]
    fn oversized_length_rejected() {
        let mut bytes = encode_peer_message(&PeerMessage::AcceptUpload);
        bytes[1..5].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&bytes), Err(ProtoError::OversizedFrame { .. })));
    }

    #[test]
    fn zero_length_rejected() {
        let bytes = [PROTO_EDONKEY, 0, 0, 0, 0, 0x55];
        assert!(decode_frame(&bytes).is_err());
    }

    #[test]
    fn streaming_decoder_handles_arbitrary_chunking() {
        let msgs = vec![
            PeerMessage::AskSharedFiles,
            PeerMessage::StartUpload { file_id: FileId::from_seed(b"x") },
            PeerMessage::RequestParts {
                file_id: FileId::from_seed(b"x"),
                ranges: [PartRange::new(0, 10), PartRange::new(10, 20), PartRange::new(0, 0)],
            },
        ];
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_peer_message(m));
        }
        // Feed in pathological chunk sizes and confirm all frames surface in
        // order.
        for chunk in [1usize, 2, 3, 5, 7, 11, 64] {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in stream.chunks(chunk) {
                dec.feed(piece);
                while let Some(raw) = dec.next_frame().unwrap() {
                    got.push(PeerMessage::decode_payload(raw.opcode, &raw.payload).unwrap());
                }
            }
            assert_eq!(got, msgs, "chunk size {chunk}");
            assert_eq!(dec.buffered(), 0);
        }
    }

    #[test]
    fn decoder_surfaces_fatal_errors() {
        let mut dec = FrameDecoder::new();
        dec.feed(&[0x00, 1, 2, 3, 4, 5]);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn decoder_compacts_consumed_prefix() {
        let frame = encode_peer_message(&PeerMessage::AcceptUpload);
        let mut dec = FrameDecoder::new();
        for _ in 0..10_000 {
            dec.feed(&frame);
            assert!(dec.next_frame().unwrap().is_some());
        }
        // After compaction kicks in, the internal buffer must stay bounded.
        assert!(dec.buf.len() < 64 * 1024, "buffer grew to {}", dec.buf.len());
    }
}
