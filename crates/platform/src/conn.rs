//! A blocking control-plane connection: framing + typed decode over a
//! `TcpStream`.
//!
//! Reads are non-destructive with respect to corruption: a frame whose CRC
//! fails surfaces as [`ConnEvent::Corrupt`] and the stream keeps going
//! (framing stays in sync), which is what lets the daemon re-request a
//! damaged chunk instead of dropping the whole agent.
//!
//! An optional [`ImpairPlan`] shim sits between the connection and the
//! socket (see [`crate::impair`]): outbound frames queue in an
//! [`ImpairedLink`] and reach the wire only when due; inbound socket
//! bytes queue the same way before the decoder sees them.  Neither
//! endpoint's protocol logic knows the shim exists — the byte stream is
//! intact and in order, only its timing is adversarial.  This is the
//! platform's one impairment point: the agent installs it, and because it
//! schedules both directions, the daemon's reactor needs none of its own.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use edonkey_net::would_block;
use edonkey_proto::codec::FrameDecoder;
use edonkey_proto::control::{ControlEvent, ControlFraming};
use edonkey_proto::ProtoError;

use crate::impair::{ImpairPlan, ImpairedLink};
use crate::messages::ControlMessage;

/// What a poll of the connection can yield.
// Events are yielded one at a time and consumed by move; boxing the
// message would add an allocation per frame for no resident savings.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum ConnEvent {
    /// A decoded, CRC-clean control message.
    Msg(ControlMessage),
    /// A frame with a valid envelope but a failed checksum; `opcode` is
    /// what the frame claimed to carry.
    Corrupt { opcode: u8 },
}

/// Connection-level errors (all fatal to the connection).
#[derive(Debug)]
pub enum ConnError {
    /// The peer closed the stream.
    Closed,
    Io(std::io::Error),
    /// Unrecoverable framing violation (bad magic/version, oversized
    /// frame, undecodable payload).
    Proto(ProtoError),
}

impl std::fmt::Display for ConnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConnError::Closed => write!(f, "connection closed"),
            ConnError::Io(e) => write!(f, "io error: {e}"),
            ConnError::Proto(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ConnError {}

/// The impairment shim of one connection: a link per direction plus the
/// epoch its virtual clock counts from.
struct ImpairShim {
    started: Instant,
    inbound: ImpairedLink,
    outbound: ImpairedLink,
}

impl ImpairShim {
    fn now_ms(&self) -> u64 {
        ms_since(self.started)
    }
}

fn ms_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_millis() as u64
}

/// A framed control connection.
pub struct ControlConn {
    stream: TcpStream,
    decoder: FrameDecoder<ControlFraming>,
    shim: Option<ImpairShim>,
}

impl ControlConn {
    /// Connects to a control endpoint.
    pub fn connect(addr: SocketAddr) -> std::io::Result<ControlConn> {
        Ok(ControlConn::from_stream(TcpStream::connect(addr)?))
    }

    /// Wraps an accepted stream.
    pub fn from_stream(stream: TcpStream) -> ControlConn {
        stream.set_nodelay(true).ok();
        let decoder = FrameDecoder::with_framing(ControlFraming::default());
        ControlConn { stream, decoder, shim: None }
    }

    /// Installs a link-impairment shim on both directions.  `stream_id`
    /// names this connection within the plan's seed space (the two
    /// directions derive sub-streams from it), so distinct connections
    /// jitter independently yet reproducibly.
    pub fn impair(&mut self, plan: &ImpairPlan, stream_id: u64) {
        if plan.is_transparent() {
            return;
        }
        self.shim = Some(ImpairShim {
            started: Instant::now(),
            inbound: ImpairedLink::new(plan, stream_id * 2),
            outbound: ImpairedLink::new(plan, stream_id * 2 + 1),
        });
    }

    /// Clones the underlying stream (for a writer held elsewhere).
    pub fn try_clone_stream(&self) -> std::io::Result<TcpStream> {
        self.stream.try_clone()
    }

    /// Sets the per-read timeout used by [`ControlConn::poll`].
    pub fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        self.stream.set_read_timeout(Some(timeout))
    }

    /// When the impairment shim next has bytes due, in either direction:
    /// a caller blocking in [`ControlConn::poll`] must wake by then.
    pub fn next_due(&self) -> Option<Instant> {
        let shim = self.shim.as_ref()?;
        let due = [shim.inbound.next_due(), shim.outbound.next_due()].into_iter().flatten().min();
        due.map(|ms| shim.started + Duration::from_millis(ms))
    }

    /// Sends one message as a complete frame.
    pub fn send(&mut self, msg: &ControlMessage) -> std::io::Result<()> {
        self.send_raw(&msg.encode_frame())
    }

    /// Sends raw pre-encoded bytes (fault injection writes doctored
    /// frames).
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        match &mut self.shim {
            None => self.stream.write_all(bytes),
            Some(shim) => {
                let now = shim.now_ms();
                shim.outbound.admit(now, bytes);
                self.pump_out()
            }
        }
    }

    /// Writes every outbound byte whose impaired delivery time has come.
    fn pump_out(&mut self) -> std::io::Result<()> {
        if let Some(shim) = &mut self.shim {
            let now = shim.now_ms();
            let mut due = Vec::new();
            shim.outbound.due(now, &mut due);
            if !due.is_empty() {
                self.stream.write_all(&due)?;
            }
        }
        Ok(())
    }

    /// Blocks until the outbound shim has drained (bounded by `limit`).
    /// Used before teardown so an impaired link behaves like a kernel
    /// send buffer: delayed bytes still reach the wire on close.
    fn drain_outbound(&mut self, limit: Duration) {
        let deadline = Instant::now() + limit;
        loop {
            let Some(shim) = &self.shim else { return };
            if shim.outbound.pending_bytes() == 0 {
                return;
            }
            if Instant::now() >= deadline {
                return;
            }
            let now = shim.now_ms();
            let wait = shim.outbound.next_due().unwrap_or(now).saturating_sub(now).min(20);
            std::thread::sleep(Duration::from_millis(wait.max(1)));
            if self.pump_out().is_err() {
                return;
            }
        }
    }

    /// Closes like a crashing process whose last write must still reach
    /// the peer: half-closes the write side (the FIN queues behind the
    /// data) and drains already-received input until the peer hangs up.
    /// Dropping a stream with unread bytes in its receive queue makes the
    /// kernel close with RST instead of FIN, and an RST discards data the
    /// peer has not read yet — on a single core the daemon's reactor
    /// rarely wins that race, so a plain drop loses the final frame.
    pub fn crash_close(&mut self) {
        self.drain_outbound(Duration::from_secs(2));
        let _ = self.stream.shutdown(std::net::Shutdown::Write);
        self.stream.set_read_timeout(Some(Duration::from_millis(50))).ok();
        let deadline = std::time::Instant::now() + Duration::from_secs(1);
        let mut buf = [0u8; 4096];
        while std::time::Instant::now() < deadline {
            match self.stream.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
        }
    }

    /// Moves inbound bytes that have become deliverable into the decoder.
    /// With `flush` (peer hung up: everything it sent is already "on the
    /// wire"), pending bytes are released regardless of due time.
    fn pump_in(&mut self, flush: bool) {
        if let Some(shim) = &mut self.shim {
            let now = if flush { u64::MAX } else { shim.now_ms() };
            let mut due = Vec::new();
            shim.inbound.due(now, &mut due);
            if !due.is_empty() {
                self.decoder.feed(&due);
            }
        }
    }

    /// Performs at most one socket read (bounded by the read timeout),
    /// straight into the decoder — or into the inbound shim — and returns
    /// every control event that completed.  An empty vector means the
    /// timeout passed without a full frame — not an error.
    pub fn poll(&mut self) -> Result<Vec<ConnEvent>, ConnError> {
        self.pump_out().map_err(ConnError::Io)?;
        let read = match &mut self.shim {
            None => self.decoder.read_from(&mut self.stream),
            Some(shim) => {
                let started = shim.started;
                shim.inbound.read_from(|| ms_since(started), &mut self.stream)
            }
        };
        match read {
            Ok(0) => {
                self.pump_in(true);
                let events = self.drain()?;
                if events.is_empty() {
                    return Err(ConnError::Closed);
                }
                Ok(events)
            }
            Err(e) if !would_block(&e) => Err(ConnError::Io(e)),
            _ => {
                self.pump_in(false);
                self.drain()
            }
        }
    }

    /// Polls until `deadline`, returning the first batch of events (or an
    /// empty vector at the deadline).
    pub fn poll_until(
        &mut self,
        deadline: std::time::Instant,
    ) -> Result<Vec<ConnEvent>, ConnError> {
        loop {
            let events = self.poll()?;
            if !events.is_empty() {
                return Ok(events);
            }
            if std::time::Instant::now() >= deadline {
                return Ok(Vec::new());
            }
        }
    }

    fn drain(&mut self) -> Result<Vec<ConnEvent>, ConnError> {
        let mut events = Vec::new();
        loop {
            match self.decoder.next_borrowed() {
                Ok(Some(ControlEvent::Frame { opcode, payload })) => {
                    let msg = ControlMessage::decode(opcode, payload).map_err(ConnError::Proto)?;
                    events.push(ConnEvent::Msg(msg));
                }
                Ok(Some(ControlEvent::Corrupt { opcode })) => {
                    events.push(ConnEvent::Corrupt { opcode });
                }
                Ok(None) => return Ok(events),
                Err(e) => return Err(ConnError::Proto(e)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::impair::Partition;
    use std::net::TcpListener;

    #[test]
    fn frames_roundtrip_over_sockets() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = ControlConn::from_stream(stream);
            conn.set_read_timeout(Duration::from_millis(20)).unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            let events = conn.poll_until(deadline).unwrap();
            let ConnEvent::Msg(msg) = &events[0] else { panic!("corrupt?") };
            assert_eq!(*msg, ControlMessage::Register { agent: 7, incarnation: 0, resume: false });
            conn.send(&ControlMessage::RegisterAck { agent: 7, next_seq: 0, window: 32 }).unwrap();
        });
        let mut conn = ControlConn::connect(addr).unwrap();
        conn.set_read_timeout(Duration::from_millis(20)).unwrap();
        conn.send(&ControlMessage::Register { agent: 7, incarnation: 0, resume: false }).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let events = conn.poll_until(deadline).unwrap();
        assert!(matches!(
            &events[0],
            ConnEvent::Msg(ControlMessage::RegisterAck { agent: 7, next_seq: 0, window: 32 })
        ));
        t.join().unwrap();
    }

    #[test]
    fn corrupt_frame_surfaces_and_stream_continues() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = ControlConn::from_stream(stream);
            conn.set_read_timeout(Duration::from_millis(20)).unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(2);
            let mut got = Vec::new();
            while got.len() < 2 && std::time::Instant::now() < deadline {
                got.extend(conn.poll_until(deadline).unwrap());
            }
            assert!(matches!(got[0], ConnEvent::Corrupt { .. }));
            assert!(matches!(
                got[1],
                ConnEvent::Msg(ControlMessage::ChunkAck { next_seq: 5, window: 8 })
            ));
        });
        let mut conn = ControlConn::connect(addr).unwrap();
        let mut bad = ControlMessage::ChunkAck { next_seq: 5, window: 8 }.encode_frame();
        let last = bad.len() - 1;
        bad[last] ^= 0xFF;
        conn.send_raw(&bad).unwrap();
        conn.send(&ControlMessage::ChunkAck { next_seq: 5, window: 8 }).unwrap();
        t.join().unwrap();
    }

    #[test]
    fn impaired_link_delays_but_never_damages_frames() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let plan = ImpairPlan {
            drop_permille: 120,
            dup_permille: 60,
            reorder_permille: 100,
            delay_ms: 15,
            jitter_ms: 10,
            rate_bytes_per_sec: 256 * 1024,
            partitions: vec![Partition { start_ms: 40, end_ms: 90 }],
            ..ImpairPlan::clean(0x1337)
        };
        let delay = Duration::from_millis(plan.delay_ms);
        let (sent_tx, sent_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        // The plain peer: takes 40 frames through the impaired outbound
        // half, then answers with 40 through the impaired inbound half and
        // holds the socket open until they are read (a hangup releases
        // every held byte at once).
        let t = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut conn = ControlConn::from_stream(stream);
            conn.set_read_timeout(Duration::from_millis(10)).unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            let mut got = Vec::new();
            while got.len() < 40 && std::time::Instant::now() < deadline {
                got.extend(conn.poll_until(deadline).unwrap());
            }
            for (i, ev) in got.iter().enumerate() {
                let ConnEvent::Msg(ControlMessage::ChunkAck { next_seq, window: 3 }) = ev else {
                    panic!("event {i} damaged by impairment: {ev:?}");
                };
                assert_eq!(*next_seq, i as u64, "impairment reordered frames");
            }
            assert_eq!(got.len(), 40);
            sent_tx.send(std::time::Instant::now()).unwrap();
            for seq in 0..40u64 {
                conn.send(&ControlMessage::ChunkRetry { seq }).unwrap();
            }
            let _ = done_rx.recv();
        });
        let mut conn = ControlConn::connect(addr).unwrap();
        conn.set_read_timeout(Duration::from_millis(5)).unwrap();
        conn.impair(&plan, 9);
        let sent_at = std::time::Instant::now();
        for seq in 0..40u64 {
            conn.send(&ControlMessage::ChunkAck { next_seq: seq, window: 3 }).unwrap();
        }
        // Keep pumping the shim until everything reached the wire.
        conn.drain_outbound(Duration::from_secs(10));
        assert!(sent_at.elapsed() >= delay, "a 15 ms-delay plan cannot deliver instantly");

        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let mut got = Vec::new();
        let mut first_at = None;
        while got.len() < 40 && std::time::Instant::now() < deadline {
            got.extend(conn.poll_until(deadline).unwrap());
            first_at.get_or_insert_with(std::time::Instant::now);
        }
        let peer_sent_at = sent_rx.recv().unwrap();
        done_tx.send(()).unwrap();
        for (i, ev) in got.iter().enumerate() {
            let ConnEvent::Msg(ControlMessage::ChunkRetry { seq }) = ev else {
                panic!("inbound event {i} damaged by impairment: {ev:?}");
            };
            assert_eq!(*seq, i as u64, "impairment reordered inbound frames");
        }
        assert_eq!(got.len(), 40);
        let first_at = first_at.expect("nothing arrived");
        // The shim's clock counts whole milliseconds: allow one of grain.
        assert!(
            first_at.duration_since(peer_sent_at) >= delay - Duration::from_millis(1),
            "inbound bytes released before the plan's 15 ms delay"
        );
        t.join().unwrap();
    }
}
