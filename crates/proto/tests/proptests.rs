//! Seeded property tests of the protocol layer: arbitrary messages survive
//! an encode/decode round trip, arbitrary bytes never panic the decoder,
//! and MD4's incremental API agrees with the one-shot API under any
//! chunking.  Every case is generated from its seed alone, and a failure
//! names the seed.

use edonkey_proto::codec::{
    decode_frame, encode_frame, encode_peer_message, EdonkeyFraming, FrameDecoder, FrameRef,
    Framing, RawFrame,
};
use edonkey_proto::control::{
    encode_control_frame, ControlEvent, ControlFraming, CONTROL_MAGIC, CONTROL_VERSION,
};
use edonkey_proto::md4::{md4, Md4};
use edonkey_proto::messages::{PartRange, PeerMessage, PublishedFile};
use edonkey_proto::parts::BLOCK_SIZE;
use edonkey_proto::tags::{Tag, TagName, TagValue};
use edonkey_proto::wire::{Reader, Writer};
use edonkey_proto::{ClientId, ClientServerMessage, FileId, Ipv4, PeerAddr, ProtoError, UserId};
use netsim::Rng;

/// Cases per property.
const CASES: u64 = 256;

/// A vector of up to `max_len - 1` generated items.
fn vec_of<T>(rng: &mut Rng, max_len: u64, mut item: impl FnMut(&mut Rng) -> T) -> Vec<T> {
    (0..rng.below(max_len)).map(|_| item(rng)).collect()
}

fn arb_bytes(rng: &mut Rng, max_len: u64) -> Vec<u8> {
    let mut bytes = vec![0; rng.below(max_len) as usize];
    rng.fill_bytes(&mut bytes);
    bytes
}

fn arb_hash(rng: &mut Rng) -> [u8; 16] {
    let mut hash = [0; 16];
    rng.fill_bytes(&mut hash);
    hash
}

/// `len` characters drawn from `alphabet`.
fn arb_string(rng: &mut Rng, alphabet: &str, len: u64) -> String {
    let chars: Vec<char> = alphabet.chars().collect();
    (0..len).map(|_| *rng.choose(&chars)).collect()
}

/// Printable text, multi-byte characters included.
const TEXT: &str = "abcXYZ019 _.-()[]'\"\\/éüñ€日本語😀";

fn arb_tag(rng: &mut Rng) -> Tag {
    let name = if rng.chance(0.5) {
        TagName::Special(rng.next_u32() as u8)
    } else {
        let len = rng.range(2, 25);
        TagName::Named(arb_string(rng, "abcdefghijklmnopqrstuvwxyzABCXYZ0123456789 _.-", len))
    };
    let value = if rng.chance(0.5) {
        TagValue::U32(rng.next_u32())
    } else {
        let len = rng.below(41);
        TagValue::String(arb_string(rng, TEXT, len))
    };
    Tag { name, value }
}

fn arb_published_file(rng: &mut Rng) -> PublishedFile {
    PublishedFile {
        file_id: FileId(arb_hash(rng)),
        client_id: ClientId(rng.next_u32()),
        port: rng.next_u32() as u16,
        tags: vec_of(rng, 4, arb_tag),
    }
}

/// Any peer message the encoder accepts (SENDING-PART ranges stay inside
/// u32 offsets).
fn arb_peer_message(rng: &mut Rng) -> PeerMessage {
    match rng.below(11) {
        0 => PeerMessage::Hello {
            user_id: UserId(arb_hash(rng)),
            client_id: ClientId(rng.next_u32()),
            port: rng.next_u32() as u16,
            tags: vec_of(rng, 5, arb_tag),
        },
        1 => PeerMessage::HelloAnswer {
            user_id: UserId(arb_hash(rng)),
            client_id: ClientId(rng.next_u32()),
            port: rng.next_u32() as u16,
            tags: vec_of(rng, 5, arb_tag),
        },
        2 => PeerMessage::StartUpload { file_id: FileId(arb_hash(rng)) },
        3 => PeerMessage::AcceptUpload,
        4 => PeerMessage::QueueRank { rank: rng.next_u32() },
        5 => PeerMessage::RequestParts {
            file_id: FileId(arb_hash(rng)),
            ranges: [(); 3].map(|_| PartRange::new(rng.next_u32(), rng.next_u32())),
        },
        6 => {
            let data = arb_bytes(rng, 512);
            let start = rng.next_u32().min(u32::MAX - data.len() as u32);
            PeerMessage::SendingPart {
                file_id: FileId(arb_hash(rng)),
                start,
                end: start + data.len() as u32,
                data,
            }
        }
        7 => PeerMessage::AskSharedFiles,
        8 => PeerMessage::AskSharedFilesAnswer { files: vec_of(rng, 4, arb_published_file) },
        9 => PeerMessage::FileRequest { file_id: FileId(arb_hash(rng)) },
        _ => {
            let len = rng.below(33);
            PeerMessage::FileRequestAnswer {
                file_id: FileId(arb_hash(rng)),
                name: arb_string(rng, TEXT, len),
            }
        }
    }
}

#[test]
fn peer_messages_round_trip() {
    for seed in 0..CASES {
        let msg = arb_peer_message(&mut Rng::seed_from(seed));
        let frame = encode_peer_message(&msg);
        let (raw, used) = decode_frame(&frame).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(used, frame.len(), "seed {seed}");
        let back = PeerMessage::decode_payload(raw.opcode, &raw.payload)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(back, msg, "seed {seed}");
    }
}

#[test]
fn client_server_messages_round_trip() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let h = arb_hash(&mut rng);
        let cid = rng.next_u32();
        let msgs = vec![
            (
                ClientServerMessage::LoginRequest {
                    user_id: UserId(h),
                    client_id: ClientId(cid),
                    port: rng.next_u32() as u16,
                    tags: vec![],
                },
                false,
            ),
            (
                ClientServerMessage::OfferFiles { files: vec_of(&mut rng, 4, arb_published_file) },
                false,
            ),
            (ClientServerMessage::GetSources { file_id: FileId(h) }, false),
            (ClientServerMessage::IdChange { client_id: ClientId(cid) }, true),
            (ClientServerMessage::ServerStatus { users: rng.next_u32(), files: cid }, true),
            (
                ClientServerMessage::FoundSources {
                    file_id: FileId(h),
                    sources: vec_of(&mut rng, 8, |r| {
                        PeerAddr::new(Ipv4(r.next_u32()), r.next_u32() as u16)
                    }),
                },
                true,
            ),
        ];
        for (msg, from_server) in msgs {
            let mut w = Writer::new();
            msg.encode_payload(&mut w);
            let buf = w.into_bytes();
            let back = ClientServerMessage::decode_payload(msg.opcode(), &buf, from_server)
                .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(back, msg, "seed {seed}");
        }
    }
}

/// Runs `case` on every seed; errors inside it are fine, a panic is
/// re-raised naming the seed.
fn never_panics(what: &str, case: impl Fn(&mut Rng) + std::panic::RefUnwindSafe) {
    for seed in 0..CASES {
        std::panic::catch_unwind(|| case(&mut Rng::seed_from(seed)))
            .unwrap_or_else(|_| panic!("{what} panicked at seed {seed}"));
    }
}

#[test]
fn arbitrary_bytes_never_panic_the_frame_decoder() {
    never_panics("frame decoder", |rng| {
        let bytes = arb_bytes(rng, 256);
        let _ = decode_frame(&bytes);
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        while let Ok(Some(frame)) = dec.next_frame() {
            let _ = PeerMessage::decode_payload(frame.opcode, &frame.payload);
            let _ = ClientServerMessage::decode_payload(frame.opcode, &frame.payload, true);
            let _ = ClientServerMessage::decode_payload(frame.opcode, &frame.payload, false);
        }
    });
}

#[test]
fn arbitrary_payloads_never_panic_message_decoders() {
    never_panics("message decoder", |rng| {
        let opcode = rng.next_u32() as u8;
        let payload = arb_bytes(rng, 128);
        let _ = PeerMessage::decode_payload(opcode, &payload);
        let _ = ClientServerMessage::decode_payload(opcode, &payload, true);
        let _ = ClientServerMessage::decode_payload(opcode, &payload, false);
        let _ = Tag::decode_list(&mut Reader::new(&payload));
    });
}

#[test]
fn md4_incremental_agrees_with_oneshot() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let data = arb_bytes(&mut rng, 2048);
        let mut h = Md4::new();
        let mut pos = 0;
        for _ in 0..rng.below(16) {
            if pos >= data.len() {
                break;
            }
            let end = (pos + rng.range(1, 64) as usize).min(data.len());
            h.update(&data[pos..end]);
            pos = end;
        }
        h.update(&data[pos..]);
        assert_eq!(h.finalize(), md4(&data), "seed {seed}");
    }
}

#[test]
fn frames_survive_concatenated_streaming() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let msgs: Vec<PeerMessage> =
            (0..rng.range(1, 8)).map(|_| arb_peer_message(&mut rng)).collect();
        let chunk = rng.range(1, 64) as usize;
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_peer_message(m));
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for piece in stream.chunks(chunk) {
            dec.feed(piece);
            while let Some(raw) = dec.next_frame().unwrap_or_else(|e| panic!("seed {seed}: {e}")) {
                got.push(
                    PeerMessage::decode_payload(raw.opcode, &raw.payload)
                        .unwrap_or_else(|e| panic!("seed {seed}: {e}")),
                );
            }
        }
        assert_eq!(got, msgs, "seed {seed}");
    }
}

/// A source that hands its bytes out in pieces of 1..=64 KB, whatever the
/// reader asks for — a socket's habit.
struct Trickle<'a> {
    data: &'a [u8],
    rng: Rng,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let piece = self.rng.range(1, 64 * 1024 + 1) as usize;
        let n = piece.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// A lent frame as an owned value, so frames lent from different buffers
/// compare.
trait OwnFrame: Framing + Copy {
    type Owned: PartialEq + std::fmt::Debug;
    fn own(frame: Self::Frame<'_>) -> Self::Owned;
}

impl OwnFrame for EdonkeyFraming {
    type Owned = RawFrame;
    fn own(frame: FrameRef<'_>) -> RawFrame {
        frame.to_raw()
    }
}

impl OwnFrame for ControlFraming {
    /// The opcode, and the payload when the CRC held.
    type Owned = (u8, Option<Vec<u8>>);
    fn own(event: ControlEvent<'_>) -> Self::Owned {
        match event {
            ControlEvent::Frame { opcode, payload } => (opcode, Some(payload.to_vec())),
            ControlEvent::Corrupt { opcode } => (opcode, None),
        }
    }
}

/// What `feed` + `next_frame` made of a stream before the decoder could
/// read for itself: one-shot `split` off the front of the accumulated
/// bytes, every frame copied out, until the bytes run out or framing
/// breaks.  Also returns the longest frame's length.
fn frames_by_copy<F: OwnFrame>(
    framing: F,
    stream: &[u8],
) -> (Vec<F::Owned>, usize, Option<ProtoError>) {
    let mut frames = Vec::new();
    let mut longest = 0;
    let mut pos = 0;
    loop {
        match framing.split(&stream[pos..]) {
            Ok((frame, used)) => {
                frames.push(F::own(frame));
                longest = longest.max(used);
                pos += used;
            }
            Err(ProtoError::Truncated(_)) => return (frames, longest, None),
            Err(fatal) => return (frames, longest, Some(fatal)),
        }
    }
}

/// Decodes `stream` three ways — [`frames_by_copy`], `feed` in random
/// pieces, and sized `read_from`s of a [`Trickle`] with frames lent — and
/// checks they yield the same frames and the same fatal error, with the
/// read path's buffer bounded by the longest frame plus one read.
/// Returns the frames and the error.
fn lending_differential<F: OwnFrame>(
    framing: F,
    stream: &[u8],
    seed: u64,
) -> (Vec<F::Owned>, Option<ProtoError>) {
    let (expected, longest, fatal) = frames_by_copy(framing, stream);

    // The kept `feed` path, fed in the same kind of pieces.
    let mut rng = Rng::seed_from(seed ^ 0xFEED);
    let mut fed = FrameDecoder::with_framing(framing);
    let mut got = Vec::new();
    let mut fed_fatal = None;
    let mut rest = stream;
    while !rest.is_empty() && fed_fatal.is_none() {
        let (piece, tail) = rest.split_at(rest.len().min(rng.range(1, 64 * 1024 + 1) as usize));
        rest = tail;
        fed.feed(piece);
        loop {
            match fed.next_borrowed() {
                Ok(Some(frame)) => got.push(F::own(frame)),
                Ok(None) => break,
                Err(e) => {
                    fed_fatal = Some(e);
                    break;
                }
            }
        }
    }
    assert_eq!(got, expected, "seed {seed}");
    assert_eq!(fed_fatal, fatal, "seed {seed}");

    // The read path: sized reads into the decoder's buffer, frames lent.
    let mut dec = FrameDecoder::with_framing(framing);
    let mut src = Trickle { data: stream, rng: Rng::seed_from(seed ^ 0x5EED) };
    let mut lent = 0;
    let read_fatal = loop {
        match dec.missing() {
            Ok(0) => {
                let frame = dec.next_borrowed().unwrap().expect("no byte is missing");
                assert_eq!(F::own(frame), expected[lent], "seed {seed} frame {lent}");
                lent += 1;
            }
            Ok(_) => {
                if dec.read_from(&mut src).unwrap() == 0 {
                    break None;
                }
            }
            Err(e) => {
                assert_eq!(dec.next_borrowed().err(), Some(e.clone()), "seed {seed}");
                break Some(e);
            }
        }
        assert!(
            dec.capacity() <= longest + 64 * 1024,
            "seed {seed}: buffer grew to {}",
            dec.capacity()
        );
    };
    assert_eq!(lent, expected.len(), "seed {seed}");
    assert_eq!(read_fatal, fatal, "seed {seed}");
    if fatal.is_none() {
        assert_eq!(dec.buffered(), 0, "seed {seed}");
        assert_eq!(fed.buffered(), 0, "seed {seed}");
    }
    (expected, fatal)
}

#[test]
fn read_path_lends_the_frames_the_copying_path_returned() {
    let block = BLOCK_SIZE as u32;
    for seed in 0..1_000 {
        let mut rng = Rng::seed_from(seed);
        let mut msgs: Vec<PeerMessage> =
            (0..rng.range(1, 8)).map(|_| arb_peer_message(&mut rng)).collect();
        // Every stream carries one full block among the small messages.
        let part = PeerMessage::SendingPart {
            file_id: FileId(arb_hash(&mut rng)),
            start: block,
            end: 2 * block,
            data: vec![seed as u8; block as usize],
        };
        msgs.insert(rng.below(msgs.len() as u64 + 1) as usize, part);
        let mut stream = Vec::new();
        for m in &msgs {
            stream.extend_from_slice(&encode_peer_message(m));
        }
        // A third of the streams end in a frame no decoder may pass.
        match seed % 9 {
            0 => stream.extend_from_slice(&[0x42, 1, 0, 0, 0, 0x4E]),
            1 => stream.extend_from_slice(&[0xE3, 0xFF, 0xFF, 0xFF, 0xFF, 0x4E]),
            2 => stream.extend_from_slice(&[0xE3, 0, 0, 0, 0, 0x4E]),
            _ => {}
        }
        let (frames, fatal) = lending_differential(EdonkeyFraming, &stream, seed);
        assert_eq!(frames.len(), msgs.len(), "seed {seed}");
        assert_eq!(fatal.is_some(), seed % 9 < 3, "seed {seed}");

        // The same over a control stream: a block-sized upload among small
        // frames, a quarter of them damaged past the header (the CRC
        // catches it, the stream stays in sync), under a receiver's cap.
        let cap = block + rng.below(4096) as u32;
        let mut payloads: Vec<Vec<u8>> =
            (0..rng.range(1, 8)).map(|_| arb_bytes(&mut rng, 512)).collect();
        payloads.insert(
            rng.below(payloads.len() as u64 + 1) as usize,
            vec![!seed as u8; block as usize],
        );
        let mut stream = Vec::new();
        let mut corrupt = 0;
        for payload in &payloads {
            let mut frame = encode_control_frame(rng.next_u32() as u8, payload);
            if rng.chance(0.25) {
                let at = rng.range(7, frame.len() as u64) as usize;
                frame[at] ^= rng.range(1, 256) as u8;
                corrupt += 1;
            }
            stream.extend_from_slice(&frame);
        }
        match seed % 9 {
            0 => stream.extend_from_slice(&[0xE3, CONTROL_VERSION, 0x10, 0, 0, 0, 0]),
            1 => stream.extend_from_slice(&[CONTROL_MAGIC, CONTROL_VERSION + 1, 0x10, 0, 0, 0, 0]),
            2 => {
                stream.extend_from_slice(&[CONTROL_MAGIC, CONTROL_VERSION, 0x20]);
                stream.extend_from_slice(&(cap + 1).to_le_bytes());
            }
            _ => {}
        }
        let (frames, fatal) = lending_differential(ControlFraming::capped(cap), &stream, seed);
        assert_eq!(frames.len(), payloads.len(), "seed {seed}");
        assert_eq!(frames.iter().filter(|(_, p)| p.is_none()).count(), corrupt, "seed {seed}");
        assert_eq!(fatal.is_some(), seed % 9 < 3, "seed {seed}");
    }
}

#[test]
fn arbitrary_bytes_never_panic_the_control_decoder() {
    never_panics("control decoder", |rng| {
        // Pure noise: errors and truncation are fine, panics are not.
        let bytes = arb_bytes(rng, 512);
        let cap = if rng.chance(0.5) { u32::MAX } else { rng.below(4096) as u32 };
        let _ = ControlFraming::default().split(&bytes);
        let _ = ControlFraming::capped(cap).split(&bytes);
        let mut dec = FrameDecoder::with_framing(ControlFraming::capped(cap));
        dec.feed(&bytes);
        let _ = dec.missing();
        while let Ok(Some(_)) = dec.next_borrowed() {}
    });
}

#[test]
fn mutated_control_frames_never_panic() {
    never_panics("control decoder on a damaged frame", |rng| {
        // Random corruptions of a *valid* frame: exercises the header
        // checks, the CRC path, and the resync logic without ever
        // panicking, whatever byte gets hit.
        let payload = arb_bytes(rng, 256);
        let mut frame = encode_control_frame(rng.next_u32() as u8, &payload);
        let len = frame.len() as u64;
        for _ in 0..rng.range(1, 8) {
            frame[rng.below(len) as usize] ^= rng.range(1, 256) as u8;
        }
        let chunk = rng.range(1, 64) as usize;
        let mut dec = FrameDecoder::with_framing(ControlFraming::default());
        let mut fatal = false;
        for piece in frame.chunks(chunk) {
            if fatal {
                break; // fatal framing damage already surfaced: fine
            }
            dec.feed(piece);
            loop {
                match dec.next_borrowed() {
                    Ok(Some(_)) => continue,
                    Ok(None) => break,
                    Err(_) => {
                        fatal = true;
                        break;
                    }
                }
            }
        }
    });
}

#[test]
fn encode_frame_decode_frame_inverse() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from(seed);
        let opcode = rng.next_u32() as u8;
        let payload = arb_bytes(&mut rng, 512);
        let frame = encode_frame(opcode, &payload);
        let (raw, used) = decode_frame(&frame).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert_eq!(used, frame.len(), "seed {seed}");
        assert_eq!(raw.opcode, opcode, "seed {seed}");
        assert_eq!(raw.payload, payload, "seed {seed}");
    }
}
