//! Blocking socket I/O for eDonkey frames.
//!
//! Two rules keep a session at loopback speed.  Nothing waits for a timer:
//! Nagle is off on every stream [`FramedStream::new`] wraps (and on every
//! accepted one), and every
//! reply of one protocol step is queued into one buffer and leaves in one
//! `write`, so no exchange is write-write-read even where the option is
//! missing.  And content is never copied in user space: reads land in the
//! decoder's own buffer and frames are lent out of it, SENDING-PART content
//! is produced inside the write buffer — one block per connection and
//! direction, reused for the connection's life.

use std::io::{Read, Write};
use std::net::TcpStream;

use edonkey_proto::codec::{
    encode_client_server_message_into, encode_peer_message_into, encode_sending_part_into,
    FrameDecoder, FrameRef,
};
use edonkey_proto::{ClientServerMessage, FileId, PartRange, PeerMessage, ProtoError};

/// A framed connection over a blocking stream.
pub struct FramedStream<S = TcpStream> {
    stream: S,
    decoder: FrameDecoder,
    /// Frames queued since the last [`FramedStream::flush`].
    out: Vec<u8>,
}

/// Errors of the framed transport.
#[derive(Debug)]
pub enum NetError {
    Io(std::io::Error),
    Proto(ProtoError),
    /// The remote closed the connection.
    Closed,
    /// The remote sent a well-formed message the protocol step did not
    /// allow.
    Unexpected(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, fm: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(fm, "io error: {e}"),
            NetError::Proto(e) => write!(fm, "protocol error: {e}"),
            NetError::Closed => write!(fm, "connection closed"),
            NetError::Unexpected(what) => write!(fm, "unexpected message: {what}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<ProtoError> for NetError {
    fn from(e: ProtoError) -> Self {
        NetError::Proto(e)
    }
}

/// Would a retry of the same read/write make progress later?  True for the
/// two kinds a non-blocking (or read-timeout) socket reports when there is
/// simply nothing to do yet.  The scripted peer and the control plane both
/// classify socket errors with this one copy.
pub fn would_block(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

impl FramedStream {
    /// Frames a TCP connection and turns Nagle off on it: an eDonkey
    /// exchange is small request, small reply, and a held-back segment
    /// costs a delayed-ACK timer (40 ms) per session.
    pub fn new(stream: TcpStream) -> Self {
        let _ = stream.set_nodelay(true);
        FramedStream::over(stream)
    }

    /// The underlying stream (for peer-address queries and shutdown).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Tries to clone the underlying stream for a concurrent writer.
    pub fn try_clone_stream(&self) -> std::io::Result<TcpStream> {
        self.stream.try_clone()
    }
}

impl<S: Read + Write> FramedStream<S> {
    /// Frames any byte stream as it is (`&TcpStream` for a connection
    /// another thread may shut down, a recording sink in tests).
    pub fn over(stream: S) -> Self {
        FramedStream { stream, decoder: FrameDecoder::new(), out: Vec::new() }
    }

    /// Reads the next complete frame, blocking.  It borrows the receive
    /// buffer until the next read.
    pub fn read_frame(&mut self) -> Result<FrameRef<'_>, NetError> {
        while self.decoder.missing()? > 0 {
            if self.decoder.read_from(&mut self.stream)? == 0 {
                return Err(NetError::Closed);
            }
        }
        Ok(self.decoder.next_borrowed()?.expect("no byte of the frame is missing"))
    }

    /// Reads and decodes the next peer message.
    pub fn read_peer_message(&mut self) -> Result<PeerMessage, NetError> {
        let frame = self.read_frame()?;
        Ok(PeerMessage::decode_payload(frame.opcode, frame.payload)?)
    }

    /// Reads and decodes the next client↔server message.
    pub fn read_server_message(
        &mut self,
        from_server: bool,
    ) -> Result<ClientServerMessage, NetError> {
        let frame = self.read_frame()?;
        Ok(ClientServerMessage::decode_payload(frame.opcode, frame.payload, from_server)?)
    }

    /// Queues a peer message for the next [`FramedStream::flush`].
    pub fn queue_peer_message(&mut self, msg: &PeerMessage) {
        encode_peer_message_into(msg, &mut self.out);
    }

    /// Queues a client↔server message for the next [`FramedStream::flush`].
    pub fn queue_server_message(&mut self, msg: &ClientServerMessage) {
        encode_client_server_message_into(msg, &mut self.out);
    }

    /// Queues a SENDING-PART for `range` whose content `fill` produces in
    /// place.  Flush after each to keep one block in flight.
    pub fn queue_sending_part(
        &mut self,
        file_id: &FileId,
        range: PartRange,
        fill: impl FnOnce(&mut [u8]),
    ) {
        encode_sending_part_into(file_id, range, &mut self.out, fill);
    }

    /// Sends everything queued in a single `write_all`; the buffer keeps
    /// its capacity for the next step.
    pub fn flush(&mut self) -> Result<(), NetError> {
        if self.out.is_empty() {
            return Ok(());
        }
        let sent = self.stream.write_all(&self.out);
        self.out.clear();
        Ok(sent?)
    }

    /// Writes a peer message.
    pub fn write_peer_message(&mut self, msg: &PeerMessage) -> Result<(), NetError> {
        self.queue_peer_message(msg);
        self.flush()
    }

    /// Writes a client↔server message.
    pub fn write_server_message(&mut self, msg: &ClientServerMessage) -> Result<(), NetError> {
        self.queue_server_message(msg);
        self.flush()
    }
}

/// A scripted byte stream for driving the serve loops without a socket.
#[cfg(test)]
pub(crate) mod testing {
    use std::collections::VecDeque;
    use std::io::{Read, Result, Write};

    /// The bytes of a hex fixture.
    pub(crate) fn unhex(hex: &str) -> Vec<u8> {
        (0..hex.len()).step_by(2).map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap()).collect()
    }

    /// Delivers one scripted chunk per `read`, then end of stream, and
    /// records every `write` call on its own.
    #[derive(Default)]
    pub(crate) struct Script {
        pub input: VecDeque<Vec<u8>>,
        pub writes: Vec<Vec<u8>>,
    }

    impl Script {
        pub fn new(input: impl IntoIterator<Item = Vec<u8>>) -> Self {
            Script { input: input.into_iter().collect(), writes: Vec::new() }
        }
    }

    impl Read for Script {
        fn read(&mut self, buf: &mut [u8]) -> Result<usize> {
            let Some(mut chunk) = self.input.pop_front() else { return Ok(0) };
            let n = chunk.len().min(buf.len());
            buf[..n].copy_from_slice(&chunk[..n]);
            if n < chunk.len() {
                self.input.push_front(chunk.split_off(n));
            }
            Ok(n)
        }
    }

    impl Write for Script {
        fn write(&mut self, buf: &[u8]) -> Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> Result<()> {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::Script;
    use super::*;
    use edonkey_proto::codec::encode_peer_message;
    use std::io;
    use std::net::TcpListener;

    #[test]
    fn would_block_matches_only_retry_kinds() {
        assert!(would_block(&io::Error::from(io::ErrorKind::WouldBlock)));
        assert!(would_block(&io::Error::from(io::ErrorKind::TimedOut)));
        assert!(!would_block(&io::Error::from(io::ErrorKind::ConnectionReset)));
        assert!(!would_block(&io::Error::other("boom")));
    }

    #[test]
    fn queued_replies_leave_in_one_write() {
        let replies = [
            PeerMessage::AcceptUpload,
            PeerMessage::QueueRank { rank: 7 },
            PeerMessage::AskSharedFiles,
        ];
        let mut script = Script::default();
        let mut s = FramedStream::over(&mut script);
        s.flush().unwrap();
        for m in &replies {
            s.queue_peer_message(m);
        }
        s.flush().unwrap();
        s.write_peer_message(&PeerMessage::AcceptUpload).unwrap();
        let expected: Vec<u8> = replies.iter().flat_map(encode_peer_message).collect();
        assert_eq!(
            script.writes,
            [expected, encode_peer_message(&PeerMessage::AcceptUpload)],
            "an empty flush writes nothing, a step is one write, the buffer starts over"
        );
    }

    #[test]
    fn streamed_sending_part_equals_the_owned_message() {
        let file_id = FileId::from_seed(b"streamed");
        let range = PartRange::new(184_320, 2 * 184_320);
        let content: Vec<u8> = (0..range.len()).map(|i| (i % 251) as u8).collect();
        let mut script = Script::default();
        let mut s = FramedStream::over(&mut script);
        s.queue_sending_part(&file_id, range, |block| block.copy_from_slice(&content));
        s.flush().unwrap();
        let owned = PeerMessage::SendingPart {
            file_id,
            start: range.start,
            end: range.end,
            data: content.clone(),
        };
        assert_eq!(script.writes, [encode_peer_message(&owned)]);
    }

    #[test]
    fn frames_round_trip_over_loopback() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut s = FramedStream::new(TcpStream::connect(addr).unwrap());
            s.write_peer_message(&PeerMessage::AskSharedFiles).unwrap();
            s.write_peer_message(&PeerMessage::AcceptUpload).unwrap();
        });
        let (conn, _) = listener.accept().unwrap();
        let mut r = FramedStream::new(conn);
        assert_eq!(r.read_peer_message().unwrap(), PeerMessage::AskSharedFiles);
        assert_eq!(r.read_peer_message().unwrap(), PeerMessage::AcceptUpload);
        sender.join().unwrap();
        assert!(matches!(r.read_peer_message(), Err(NetError::Closed)));
    }

    #[test]
    fn garbage_surfaces_protocol_error() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let sender = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&[0x00, 1, 2, 3, 4, 5, 6, 7]).unwrap();
        });
        let (conn, _) = listener.accept().unwrap();
        let mut r = FramedStream::new(conn);
        assert!(matches!(r.read_peer_message(), Err(NetError::Proto(_))));
        sender.join().unwrap();
    }
}
